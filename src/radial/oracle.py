"""Function oracles over the extended positive reals.

A FunctionOracle is an evaluation handle for f mapping vectors to extended
positive values, total on the whole space (value zero outside the
effective domain, never an exception), with optional analytic gradient
and Hessian callbacks that are only queried where the value is finite.
Inside the library f is read through its float forms (eval_float,
eval_many); ExtPos is built only where a value leaves it.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .core import ExtPos, finite_error
from .errors import ExpressionRangeError, NotDifferentiableError, OverflowRiskError


class RadialityMeta(enum.Enum):
    """What is known about ray-monotonicity of the perspective profile:
    RADIAL means nondecreasing, STRICT strictly increasing where finite."""

    NOT_RADIAL = "not-radial"
    UNKNOWN = "unknown"
    RADIAL = "radial"
    STRICT = "strict"

    @property
    def radial(self) -> bool:
        return self in (RadialityMeta.RADIAL, RadialityMeta.STRICT)


UNKNOWN_META = RadialityMeta.UNKNOWN
DECLARED_STRICT = RadialityMeta.STRICT
DECLARED_UPPER = RadialityMeta.RADIAL


class FunctionOracle:
    """Evaluation handle for f: R^dim -> {0} | (0, inf) | {inf}.

    f is given by one evaluation callback, in either form (or both): eval_fn
    takes a 1-D float array of length dim and returns ExtPos; scalar takes
    a list of dim floats and returns one float in [0, inf], where 0.0 and
    inf are the ZERO and INF tags.  The missing form is derived here: eval
    from scalar as ExtPos.from_float(scalar(x.tolist())), and the scalar
    form from eval_fn through eval, which keeps eval's ExtPos check.  Two
    optional callbacks are accelerators.  The batch callback many takes an
    (m, dim) float array and returns m such floats; without it eval_many
    loops over eval_float.  The profile callback profile(y, v) takes a list
    of dim floats and a height v > 0 and returns perspective(f, y,
    v).as_float(), with perspective's tags and errors; without it the
    profile is derived from the scalar form (profile_over), and a search
    calls it once per evaluation.  The batch profile callback
    profile_many(ys, v) is its counterpart on an (m, dim) array ys and m
    heights v > 0, one float per row; without it the batch profile is
    derived from the batch form (profile_many_over), and a lockstep search
    calls it once per step.  Oracles are immutable after construction
    and callbacks must be reentrant; concurrent evaluation over grids is
    permitted.
    """

    def __init__(self, dim, eval_fn=None, grad=None, hess=None, meta=UNKNOWN_META, name=None, many=None, scalar=None, profile=None, profile_many=None):
        if int(dim) < 1:
            raise ValueError("dim must be >= 1")
        if eval_fn is None and scalar is None:
            raise TypeError("FunctionOracle needs eval_fn or scalar")
        self.dim = int(dim)
        self._eval_fn = eval_fn if eval_fn is not None else lambda x: ExtPos.from_float(scalar(x.tolist()))
        self._many_fn = many
        self._scalar_fn = scalar if scalar is not None else lambda x: self.eval(np.array(x)).as_float()
        self._profile_fn = profile if profile is not None else profile_over(self._scalar_fn)
        self._profile_many_fn = profile_many if profile_many is not None else profile_many_over(many if many is not None else self.eval_many)
        self.grad = grad
        self.hess = hess
        self.meta = meta
        self.name = name

    def _vector(self, x) -> np.ndarray:
        """x as the float vector eval takes (a scalar is a vector of length
        one); ValueError unless it has length dim."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x[None]
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {x.shape}")
        return x

    def eval(self, x) -> ExtPos:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.dim:
            x = self._vector(x)  # a scalar is a vector of length one; other shapes raise
        value = self._eval_fn(x)
        if not isinstance(value, ExtPos):
            raise TypeError(f"oracle callback must return ExtPos, got {type(value).__name__}")
        return value

    __call__ = eval

    def eval_many(self, xs) -> np.ndarray:
        """Values at the rows of xs, an (m, dim) array, as floats with 0.0
        and inf for the ZERO and INF tags, with eval_float's range check.
        Without a batch callback, an ExpressionRangeError raised by
        eval_float names its row of xs."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected an (m, {self.dim}) array, got shape {xs.shape}")
        if self._many_fn is not None:
            values = self._many_fn(xs)
            if not np.all(values >= 0.0):  # nan compares false
                raise finite_error(values[np.argmin(values >= 0.0)])
            return values
        return self._each_row(xs)

    def _each_row(self, xs: np.ndarray) -> np.ndarray:
        """eval_float at each row of xs, an (m, dim) array, in order; an
        ExpressionRangeError names its row."""
        values = []
        for i, x in enumerate(xs.tolist()):
            try:
                values.append(self.eval_float(x))
            except ExpressionRangeError as exc:
                raise exc.at_row(i) from exc
        return np.array(values, dtype=float)

    def eval_float(self, x: list) -> float:
        """The value at one point x, a list of dim floats, as a float with
        0.0 and inf for the ZERO and INF tags: the scalar callback's answer,
        with eval's ValueError for a negative or nan one."""
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(x)}")
        value = self._scalar_fn(x)
        if not value >= 0.0:
            raise finite_error(value)
        return value

    def with_meta(self, meta: RadialityMeta) -> "FunctionOracle":
        return FunctionOracle(self.dim, self._eval_fn, self.grad, self.hess, meta, self.name, self._many_fn, self._scalar_fn, self._profile_fn, self._profile_many_fn)

    def __repr__(self):
        label = self.name or "<callback>"
        return f"FunctionOracle(dim={self.dim}, {label})"


def perspective(f: FunctionOracle, y, v: float) -> ExtPos:
    """The profile v * f(y/v) for v > 0, one f.eval per call; a product out
    of (0, inf) takes profile_tag's tags and errors."""
    v = float(v)
    if not (v > 0.0) or not math.isfinite(v):
        raise ValueError(f"perspective height must be finite and > 0, got {v!r}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        y = f._vector(y)  # eval's rule: a scalar is a vector of length one, other shapes raise
    # Python float division overflows to inf with no warning and gives
    # numpy's bits; the search's float profile divides the same way.
    value = f.eval(np.array([c / v for c in y.tolist()])).as_float()
    s = v * value
    return ExtPos.from_float(s if 0.0 < s < math.inf else profile_tag(v, value))


def profile_tag(v: float, value: float) -> float:
    """The answer of every form of the profile (perspective, profile_over,
    the parsed kernels, the batch profiles) where the product v * value is
    not in (0, inf): a tag (0.0 or inf) stays the tag whatever v is, -0.0
    turning into 0.0, a negative or nan value raises eval's ValueError, and
    a finite value raises OverflowRiskError, its product having left the
    float range."""
    if value == 0.0 or value == math.inf:
        return value + 0.0
    if not value > 0.0:
        raise finite_error(value)
    raise OverflowRiskError(f"perspective product {v!r} * {value!r} left the finite range")


def profile_over(scalar):
    """The profile callback (y, v) -> perspective(f, y, v).as_float() over
    f's scalar callback: y / v divides as Python floats, as perspective
    divides it, and a product out of (0, inf) goes to profile_tag.  y is a
    list of floats whose length the caller has checked."""

    def profile(y: list, v: float = 1.0) -> float:
        value = scalar([c / v for c in y])
        scaled = v * value
        return scaled if 0.0 < scaled < math.inf else profile_tag(v, value)

    return profile


def profile_products(v: np.ndarray, value: np.ndarray) -> np.ndarray:
    """v * value pair by pair, for heights v > 0 and values of f, with
    profile_tag's rule column-wise: the first pair whose product is out of
    (0, inf) and whose value is no tag raises through profile_tag.  The
    caller ignores numpy's overflow warning."""
    scaled = v * value
    if not products_in_range(scaled, value):
        broken = ~((0.0 < scaled) & (scaled < np.inf)) & (value != 0.0) & (value != np.inf)
        i = int(broken.argmax())
        profile_tag(float(v[i]), float(value[i]))  # raises: value[i] is no tag
    return scaled


def products_in_range(scaled, value) -> bool:
    """Whether no pair of value and its product scaled = v * value (v > 0)
    is out of profile_tag's rule: every product in (0, inf) or its value a
    tag."""
    # v > 0, so a nonzero value has a positive product unless it is negative
    # or nan or the product underflows, and only an overflow adds an inf:
    # with no inf product, nothing overflowed.
    infs = np.count_nonzero(scaled == np.inf)
    return np.count_nonzero(scaled > 0.0) == np.count_nonzero(value) and (not infs or infs == np.count_nonzero(value == np.inf))


def profile_many_over(many):
    """The batch profile callback (ys, v) -> [perspective(f, ys[i],
    v[i]).as_float() for each row i] over f's batch callback many: ys / v
    divides row by row, and the products take profile_products's rule
    (-0.0 turning into 0.0).  ys is an (m, dim) array and v m heights."""

    def profile_many(ys: np.ndarray, v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return profile_products(v, many(ys / v[:, None]) + 0.0)

    return profile_many


#: Relative disagreement between one-sided difference quotients above which
#: the point is reported as not differentiable.
FD_AGREEMENT = 1e-3


def difference_probes(fn, x: list):
    """Yield (i, h, fn(x + h e_i), fn(x - h e_i)) for each coordinate i of
    x, a list of floats, with step h = max(1e-6, 1e-8 |x_i|); fn maps a
    list of floats to a float.  Lazy, so a caller that stops at a
    coordinate probes no further."""
    for i, c in enumerate(x):
        h = max(1e-6, 1e-8 * abs(c))
        xp = list(x)
        xp[i] = c + h
        xm = list(x)
        xm[i] = c - h
        yield i, h, fn(xp), fn(xm)


def gradient(f: FunctionOracle, x) -> np.ndarray:
    """Gradient of f at an interior point: the analytic callback if present,
    otherwise central differences over difference_probes.

    The fallback compares forward and backward quotients first and raises
    NotDifferentiableError at the first coordinate where they disagree by
    more than 1e-3 relative to max(1, |quotients|), or where a probed value
    is not finite.  Boundary points are therefore reported rather than
    extrapolated.
    """
    x = f._vector(x)
    base = f.eval_float(x.tolist())
    if base == math.inf:
        raise ValueError("gradient requires a point with finite value")
    if f.grad is not None:
        return np.atleast_1d(np.asarray(f.grad(x), dtype=float))
    return difference_gradient(f.eval_float, x.tolist(), base)


def difference_gradient(fn, x: list, base: float) -> np.ndarray:
    """gradient's central differences of fn over difference_probes at x, a
    list of floats at which fn has the finite value base (the caller's, so
    f(x) is not evaluated twice), with gradient's NotDifferentiableError."""
    # The zero tag is a legitimate value (kinks like |x| at the origin are
    # reported by the quotient disagreement below, not rejected up front).
    out = np.empty(len(x))
    for i, h, fp, fm in difference_probes(fn, x):
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NotDifferentiableError(f"non-finite probe next to coordinate {i}")
        forward = (fp - base) / h
        backward = (base - fm) / h
        scale = max(1.0, abs(forward), abs(backward))
        if abs(forward - backward) > FD_AGREEMENT * scale:
            raise NotDifferentiableError(
                f"one-sided quotients disagree at coordinate {i}: {forward:g} vs {backward:g}"
            )
        out[i] = (fp - fm) / (2.0 * h)
    return out
