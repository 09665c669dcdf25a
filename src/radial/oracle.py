"""Function oracles over the extended positive reals.

A FunctionOracle is an evaluation handle for f mapping vectors to extended
positive values, total on the whole space (value zero outside the
effective domain, never an exception), with optional analytic gradient
and Hessian callbacks that are only queried where the value is finite.
Inside the library f is read through its perspective profile, one float
callback per arity, whose values at height 1 are eval_float and
eval_many; ExtPos is built only where a value leaves it.
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

    f is held as one float callback per arity.  The profile profile(y,
    v=1.0) maps a list of dim floats and a height v > 0 to perspective(f,
    y, v).as_float(), 0.0 and inf being the tags; eval_float is it at the
    default height.  The batch profile profile_many(x, v=None) is its
    counterpart on the rows of an (m, dim) array, one height per row;
    eval_many is it without heights.  Either is given or derived once: the
    profile from scalar (a list of dim floats in, one float out;
    profile_over), else from eval_fn (a float vector in, ExtPos out,
    through eval's ExtPos check); the batch profile from many (an (m, dim)
    array in, m floats out; profile_many_over), else row by row over the
    profile (_each_row, not _native).  Oracles are immutable after
    construction and callbacks must be reentrant; concurrent evaluation
    over grids is permitted.
    """

    def __init__(self, dim, eval_fn=None, grad=None, hess=None, meta=UNKNOWN_META, name=None, many=None, scalar=None, profile=None, profile_many=None):
        if int(dim) < 1:
            raise ValueError("dim must be >= 1")
        if profile is None:
            if eval_fn is None and scalar is None:
                raise TypeError("FunctionOracle needs eval_fn, scalar or profile")
            profile = profile_over(scalar if scalar is not None else lambda x: self.eval(np.array(x)).as_float())
        self.dim = int(dim)
        self._eval_fn = eval_fn if eval_fn is not None else lambda x: ExtPos.from_float(profile(x.tolist()))
        self._profile_fn = profile
        self._profile_many_fn = profile_many if profile_many is not None else profile_many_over(many) if many is not None else self._each_row
        self._native = many is not None or profile_many is not None
        self.grad = grad
        self.hess = hess
        self.meta = meta
        self.name = name

    def eval(self, x) -> ExtPos:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.dim:
            x = as_vector(x, self.dim)  # a scalar is a vector of length one; other shapes raise
        value = self._eval_fn(x)
        if not isinstance(value, ExtPos):
            raise TypeError(f"oracle callback must return ExtPos, got {type(value).__name__}")
        return value

    __call__ = eval

    def eval_many(self, xs) -> np.ndarray:
        """Values at the rows of xs, an (m, dim) array, as floats (0.0 and
        inf are the tags): the batch profile without heights."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected an (m, {self.dim}) array, got shape {xs.shape}")
        return self._profile_many_fn(xs)

    def _each_row(self, xs: np.ndarray, v=None) -> np.ndarray:
        """The profile at each row of xs in order, at height 1 without v, else
        at v[i] on row i; an ExpressionRangeError names its row."""
        heights = [1.0] * len(xs) if v is None else v.tolist()
        values = []
        for i, (x, height) in enumerate(zip(xs.tolist(), heights)):
            try:
                values.append(self._profile_fn(x, height))
            except ExpressionRangeError as exc:
                raise exc.at_row(i) from exc
        return np.array(values, dtype=float)

    def eval_float(self, x: list) -> float:
        """The value at one point x, a list of dim floats, as a float with
        0.0 and inf for the ZERO and INF tags: the profile at height 1."""
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(x)}")
        return self._profile_fn(x)

    def with_meta(self, meta: RadialityMeta) -> "FunctionOracle":
        other = object.__new__(FunctionOracle)
        other.__dict__.update(vars(self), meta=meta)
        return other

    def __repr__(self):
        label = self.name or "<callback>"
        return f"FunctionOracle(dim={self.dim}, {label})"


def as_vector(x, dim: int) -> np.ndarray:
    """x as a float vector of length dim (a scalar is a vector of length
    one); ValueError for any other shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    if x.shape != (dim,):
        raise ValueError(f"expected a vector of length {dim}, got shape {x.shape}")
    return x


def perspective(f: FunctionOracle, y, v: float) -> ExtPos:
    """The profile v * f(y/v) for v > 0, one f.eval per call; a product out
    of (0, inf) takes profile_tag's tags and errors."""
    v = float(v)
    if not (v > 0.0) or not math.isfinite(v):
        raise ValueError(f"perspective height must be finite and > 0, got {v!r}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        y = as_vector(y, f.dim)  # eval's rule: a scalar is a vector of length one, other shapes raise
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
    """The profile callback (y, v=1.0) -> perspective(f, y, v).as_float()
    over f's scalar callback: y / v divides as Python floats (at v = 1.0 it
    is y itself), and a product out of (0, inf) goes to profile_tag.  y is
    a list of floats whose length the caller has checked."""

    def profile(y: list, v: float = 1.0) -> float:
        value = scalar(y if v == 1.0 else [c / v for c in y])
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
    """The batch profile callback over f's batch callback many: (x, v) ->
    [perspective(f, x[i], v[i]).as_float() for each row i] by
    profile_products's rule, and (x) -> many(x) with eval's ValueError for
    a negative or nan value.  Both turn -0.0 into 0.0."""

    def profile_many(x: np.ndarray, v=None) -> np.ndarray:
        if v is None:
            values = many(x)
            if not np.all(values >= 0.0):  # nan compares false
                raise finite_error(values[np.argmin(values >= 0.0)])
            return values + 0.0
        with np.errstate(over="ignore"):
            return profile_products(v, many(x / v[:, None]) + 0.0)

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
    x = as_vector(x, f.dim)
    base = f.eval_float(x.tolist())
    if base == math.inf:
        raise ValueError("gradient requires a point with finite value")
    if f.grad is not None:
        return np.atleast_1d(np.asarray(f.grad(x), dtype=float))
    return np.array(difference_gradient(f.eval_float, x.tolist(), base))


def difference_gradient(fn, x: list, base: float) -> list:
    """gradient's central differences of fn over difference_probes at x, a
    list of floats at which fn has the finite value base (the caller's, so
    f(x) is not evaluated twice), as a list, with gradient's
    NotDifferentiableError."""
    # The zero tag is a legitimate value (kinks like |x| at the origin are
    # reported by the quotient disagreement below, not rejected up front).
    out = []
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
        out.append((fp - fm) / (2.0 * h))
    return out


def dot(a: list, b: list) -> float:
    """a . b for two lists of floats, with numpy's bits: the product in one
    dimension, else np.dot (whose sum may fuse multiply-adds, so a Python
    sum can differ in the last bit)."""
    return a[0] * b[0] if len(a) == 1 else float(np.dot(a, b))
