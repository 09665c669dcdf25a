"""Extended positive reals and lifted points.

Every function handled by this package maps into the extended positive
reals: zero, a strictly positive finite value, or +infinity.  The two
limit tags are kept distinct from IEEE floats so that transform logic can
branch on them without epsilon tests.  Points of the lifted space pair a
vector with a strictly positive height; the projective point transform
``gamma_point`` sends (x, u) to (x/u, 1/u) and is its own inverse; it runs
over Python floats, with the checks and bits of the batch ``gamma_point_many``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OverflowRiskError

_ZERO_KIND = 0
_FINITE_KIND = 1
_INF_KIND = 2

#: Heights below this bound raise OverflowRiskError instead of denormalizing.
HEIGHT_FLOOR = 1e-300


@dataclass(frozen=True, order=True, slots=True, init=False)
class ExtPos:
    """A value in {0} | (0, inf) | {+inf}, totally ordered.

    Use the module singletons ``ZERO`` and ``INF`` for the tags and
    ``ExtPos.finite(v)`` for finite values.  Finite values must be strictly
    positive; 0.0 and math.inf are rejected so the tags stay unambiguous.
    Equality, hashing and order compare (kind, value), so
    ZERO < finite values < INF.
    """

    kind: int
    value: float

    def __init__(self, kind: int, value: float = 0.0):
        if kind == _FINITE_KIND:
            value = float(value)
            if not (0.0 < value < math.inf):
                raise finite_error(value)
        elif kind not in (_ZERO_KIND, _INF_KIND):
            raise ValueError(f"bad ExtPos kind {kind!r}")
        else:
            value = 0.0
        _set_kind(self, kind)
        _set_value(self, value)

    @staticmethod
    def finite(value: float) -> "ExtPos":
        return ExtPos(_FINITE_KIND, value)

    @staticmethod
    def from_float(value: float) -> "ExtPos":
        """Inverse of as_float: 0.0 is ZERO, inf is INF, anything else must
        be a positive finite value."""
        if value == 0.0:
            return ZERO
        if value == math.inf:
            return INF
        return ExtPos.finite(value)

    @property
    def is_zero(self) -> bool:
        return self.kind == _ZERO_KIND

    @property
    def is_finite(self) -> bool:
        return self.kind == _FINITE_KIND

    @property
    def is_infinite(self) -> bool:
        return self.kind == _INF_KIND

    def as_float(self) -> float:
        """Collapse to a float (0.0 / v / inf).  Boundary use only: grids,
        CSV emission, numeric comparisons.  Core logic branches on tags."""
        if self.kind == _ZERO_KIND:
            return 0.0
        if self.kind == _INF_KIND:
            return math.inf
        return self.value

    def __repr__(self):
        if self.kind == _ZERO_KIND:
            return "ZERO"
        if self.kind == _INF_KIND:
            return "INF"
        return f"ExtPos.finite({self.value!r})"

    def to_json(self):
        """JSON encoding: 0, a positive number, or the string "inf"."""
        if self.kind == _ZERO_KIND:
            return 0
        if self.kind == _INF_KIND:
            return "inf"
        return self.value

    @staticmethod
    def from_json(obj) -> "ExtPos":
        if obj == "inf":
            return INF
        v = float(obj)
        if v == 0.0:
            return ZERO
        return ExtPos.finite(v)


def finite_error(value: float) -> ValueError:
    """The error of a finite ExtPos outside (0, inf); float forms raise it too."""
    return ValueError(f"finite ExtPos requires 0 < v < inf, got {float(value)!r}")


# The slot descriptors store past the frozen __setattr__, cheaper than object.__setattr__.
_set_kind, _set_value = ExtPos.kind.__set__, ExtPos.value.__set__
ZERO = ExtPos(_ZERO_KIND)
INF = ExtPos(_INF_KIND)


def optimality_product(a: ExtPos, b: ExtPos) -> float:
    """Product of two extended positive values under the convention
    inf * 0 = 0 * inf = 1 used by the optimal-value reciprocity result.

    Ordinary product for finite operands; inf * finite = inf and
    0 * finite = 0 (and inf * inf = inf, 0 * 0 = 0, the unambiguous
    limits).  Total, never raises.
    """
    if (a.is_infinite and b.is_zero) or (a.is_zero and b.is_infinite):
        return 1.0
    if a.is_infinite or b.is_infinite:
        return math.inf
    if a.is_zero or b.is_zero:
        return 0.0
    return a.value * b.value


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LiftedPoint:
    """A point (x, u) of the lifted space: a vector paired with a strictly
    positive height."""

    x: np.ndarray
    u: float

    def __post_init__(self):
        x = _readonly(np.atleast_1d(self.x))
        if x.ndim != 1:
            raise ValueError("x must be a vector")
        if not np.isfinite(x).all():
            raise ValueError("x must have finite coordinates")
        u = float(self.u)
        if not math.isfinite(u) or u <= 0.0:
            raise ValueError(f"height must be finite and > 0, got {u!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.x, [self.u]])


def gamma_point_many(xs: np.ndarray, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply (x, u) -> (x/u, 1/u) row-wise to xs (m, n) with heights us (m,).

    ``gamma_point`` row by row, bit for bit, for ``grid``'s gamma column and the tests.
    Rejects non-positive heights, heights below HEIGHT_FLOOR and non-finite images.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if np.any(~np.isfinite(us)) or np.any(us <= 0.0):
        raise ValueError("heights must be finite and > 0")
    if np.any(us < HEIGHT_FLOOR):
        raise OverflowRiskError(f"height below {HEIGHT_FLOOR:g}; reciprocal would overflow")
    with np.errstate(over="ignore"):  # an overflowing image is rejected below
        ys = xs / us[..., None]
    if not np.all(np.isfinite(ys)):
        raise OverflowRiskError("transformed point is not finite")
    return ys, 1.0 / us  # finite, since us >= HEIGHT_FLOOR


def gamma_point(p: LiftedPoint) -> LiftedPoint:
    """The projective point transform (x, u) -> (x/u, 1/u).

    An involution on the lifted space: applying it twice returns the
    original point up to floating round-off (bit-exactly when the divisions
    are exact, e.g. at height 1).
    """
    if p.u < HEIGHT_FLOOR:  # p.u is finite and > 0, checked by LiftedPoint
        raise OverflowRiskError(f"height below {HEIGHT_FLOOR:g}; reciprocal would overflow")
    ys = [x / p.u for x in p.x.tolist()]  # a float division overflows to inf, with no warning
    if not all(map(math.isfinite, ys)):
        raise OverflowRiskError("transformed point is not finite")
    return LiftedPoint(np.array(ys), 1.0 / p.u)
