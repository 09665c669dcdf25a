"""Function oracles over the extended positive reals.

A FunctionOracle is an evaluation handle for f mapping vectors to extended
positive values, total on the whole space (value zero outside the
effective domain, never an exception), with optional analytic gradient
and Hessian callbacks that are only queried where the value is finite.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .core import ExtPos
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
    form from eval_fn through eval, which keeps eval's ExtPos check.  The
    optional batch callback many takes an (m, dim) float array and returns
    m such floats; without it eval_many loops over eval.  Oracles are
    immutable after construction and callbacks must be reentrant;
    concurrent evaluation over grids is permitted.
    """

    def __init__(self, dim, eval_fn=None, grad=None, hess=None, meta=UNKNOWN_META, name=None, many=None, scalar=None):
        if int(dim) < 1:
            raise ValueError("dim must be >= 1")
        if eval_fn is None and scalar is None:
            raise TypeError("FunctionOracle needs eval_fn or scalar")
        self.dim = int(dim)
        self._eval_fn = eval_fn if eval_fn is not None else lambda x: ExtPos.from_float(scalar(x.tolist()))
        self._many_fn = many
        self._scalar_fn = scalar if scalar is not None else lambda x: self.eval(np.array(x)).as_float()
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
        and inf for the ZERO and INF tags.  Without a batch callback, an
        ExpressionRangeError raised by eval names its row of xs."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected an (m, {self.dim}) array, got shape {xs.shape}")
        if self._many_fn is not None:
            return self._many_fn(xs)
        values = []
        for i, x in enumerate(xs):
            try:
                values.append(self.eval(x).as_float())
            except ExpressionRangeError as exc:
                raise exc.at_row(i) from exc
        return np.array(values, dtype=float)

    def eval_float(self, x: list) -> float:
        """The value at one point x, a list of dim floats, as a float with
        0.0 and inf for the ZERO and INF tags: the scalar callback's answer."""
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(x)}")
        return self._scalar_fn(x)

    def with_meta(self, meta: RadialityMeta) -> "FunctionOracle":
        return FunctionOracle(self.dim, self._eval_fn, self.grad, self.hess, meta, self.name, self._many_fn, self._scalar_fn)

    def __repr__(self):
        label = self.name or "<callback>"
        return f"FunctionOracle(dim={self.dim}, {label})"


def perspective(f: FunctionOracle, y, v: float) -> ExtPos:
    """The profile v * f(y/v) for v > 0, with tag conventions:
    f(y/v) = inf gives inf and f(y/v) = 0 gives 0 regardless of v."""
    v = float(v)
    if not (v > 0.0) or not math.isfinite(v):
        raise ValueError(f"perspective height must be finite and > 0, got {v!r}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        y = f._vector(y)  # eval's rule: a scalar is a vector of length one, other shapes raise
    # Python float division overflows to inf with no warning and gives
    # numpy's bits; the search's float profile divides the same way.
    value = f.eval(np.array([c / v for c in y.tolist()]))
    if not value.is_finite:
        return value
    scaled = v * value.value
    if scaled == 0.0 or math.isinf(scaled):
        raise OverflowRiskError(f"perspective product {v!r} * {value.value!r} left the finite range")
    return ExtPos.finite(scaled)


#: Relative disagreement between one-sided difference quotients above which
#: the point is reported as not differentiable.
FD_AGREEMENT = 1e-3


def difference_probes(fn, x: np.ndarray):
    """Yield (i, h, fn(x + h e_i), fn(x - h e_i)) for each coordinate i of
    x, with step h = max(1e-6, 1e-8 |x_i|); fn maps a vector to a float.
    Lazy, so a caller that stops at a coordinate probes no further."""
    for i in range(x.shape[0]):
        h = max(1e-6, 1e-8 * abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
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
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    f0 = f.eval(x)
    if f0.is_infinite:
        raise ValueError("gradient requires a point with finite value")
    if f.grad is not None:
        return np.atleast_1d(np.asarray(f.grad(x), dtype=float))

    # The zero tag is a legitimate value (kinks like |x| at the origin are
    # reported by the quotient disagreement below, not rejected up front).
    base = f0.as_float()
    out = np.empty(f.dim)
    for i, h, fp, fm in difference_probes(lambda z: f.eval(z).as_float(), x):
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
