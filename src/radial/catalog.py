"""Reference functions with known transforms.

Each entry pairs an oracle with its hand-derived closed-form upper
transform (where one exists), its classification, and sampling regions
used by the verification suite.  Every value is a parsed expression, so
eval_many is the grammar's numpy batch; the analytic gradients and
Hessians and the declared radiality are attached to it.  The closed forms:

  sqrt(1 - |x|^2) (0 outside)   ->  sqrt(1 + |y|^2)
  constant c                    ->  constant 1/c
  2 - (x-1)^2 (0 outside)       ->  ((1-2y) + sqrt(8y^2 - 4y + 1)) / 2
  |x|                           ->  inf on [-1, 1], 0 outside (upper)
                                    inf on (-1, 1), 0 outside (lower)
  min(2-x, 2+x) (0 outside)     ->  (1 + |y|) / 2
  (x+1)^2 + 1/2                 ->  ((1-2y) + sqrt(1 - 4y - 2y^2)) / 3
                                    on [(-2-sqrt 6)/2, (-2+sqrt 6)/2], else 0
                                    (not dual to the original: not ray-monotone)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import INF, ZERO, ExtPos
from .errors import NotDifferentiableError
from .grammar import parse_function
from .oracle import DECLARED_STRICT, FunctionOracle, RadialityMeta, Trilean

_UPPER_NOT_STRICT = RadialityMeta(Trilean.YES, Trilean.NO)
_NOT_RADIAL = RadialityMeta(Trilean.NO, Trilean.NO)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    oracle: FunctionOracle
    dual: Optional[Callable[[np.ndarray], ExtPos]]  # closed-form upper transform
    concave: bool
    residual_grid: tuple
    # Sampling box (per coordinate) for points where the dual derivative
    # formulas are valid and the dual is smooth enough for difference tests.
    smooth_box: tuple[float, float]


def _grid1(lo: float, hi: float, n: int) -> tuple:
    return tuple(np.array([t]) for t in np.linspace(lo, hi, n))


def _grid2(lo: float, hi: float, n: int) -> tuple:
    side = np.linspace(lo, hi, n)
    return tuple(np.array([a, b]) for a in side for b in side)


def sqrt_cap(dim: int = 1) -> FunctionOracle:
    """sqrt(1 - |x|^2) on the open unit ball, zero outside."""
    squares = " - ".join(f"x{i}^2" for i in range(dim))

    def gr(x):
        s = math.sqrt(1.0 - float(x @ x))
        return -x / s

    def he(x):
        s = math.sqrt(1.0 - float(x @ x))
        return -(np.eye(dim) / s + np.outer(x, x) / s**3)

    return parse_function(f"sqrt(pos(1 - {squares}))", dim, gr, he, DECLARED_STRICT, f"sqrt_cap[{dim}d]")


def sqrt_cap_dual(y: np.ndarray) -> ExtPos:
    return ExtPos.finite(math.sqrt(1.0 + float(y @ y)))


def exp_bump() -> FunctionOracle:
    """exp(-|x|) + 1/2: neither concave nor convex, but quasiconcave and
    strictly ray-monotone.  Kink at the origin."""

    def gr(x):
        t = float(x[0])
        if t == 0.0:
            raise NotDifferentiableError("kink at the origin")
        return np.array([-math.copysign(math.exp(-abs(t)), t)])

    def he(x):
        t = float(x[0])
        if t == 0.0:
            raise NotDifferentiableError("kink at the origin")
        return np.array([[math.exp(-abs(t))]])

    return parse_function("exp(-abs(x0)) + 0.5", 1, gr, he, DECLARED_STRICT, "exp_bump")


def shifted_parabola() -> FunctionOracle:
    """2 - (x-1)^2 where positive, zero outside: a concave cap whose
    maximizer sits away from the origin."""

    def gr(x):
        return np.array([-2.0 * (float(x[0]) - 1.0)])

    def he(x):
        return np.array([[-2.0]])

    return parse_function("pos(2 - (x0-1)^2)", 1, gr, he, DECLARED_STRICT, "shifted_parabola")


def shifted_parabola_dual(y: np.ndarray) -> ExtPos:
    t = float(y[0])
    return ExtPos.finite(0.5 * ((1.0 - 2.0 * t) + math.sqrt(8.0 * t * t - 4.0 * t + 1.0)))


def constant(c: float = 2.0) -> FunctionOracle:
    if not 0.0 < c < math.inf:
        raise ValueError(f"constant requires 0 < c < inf, got {c!r}")

    def gr(x):
        return np.zeros_like(x)

    def he(x):
        return np.zeros((x.shape[0], x.shape[0]))

    return parse_function(repr(float(c)), 1, gr, he, DECLARED_STRICT, f"constant({c:g})")


def absval() -> FunctionOracle:
    """|x|: ray-monotone in both senses but not strictly, so its upper and
    lower transforms differ (closed vs open step)."""

    def gr(x):
        t = float(x[0])
        if t == 0.0:
            raise NotDifferentiableError("kink at the origin")
        return np.array([math.copysign(1.0, t)])

    return parse_function("abs(x0)", 1, gr, None, _UPPER_NOT_STRICT, "absval")


def absval_upper_dual(y: np.ndarray) -> ExtPos:
    return INF if abs(float(y[0])) <= 1.0 else ZERO


def absval_lower_dual(y: np.ndarray) -> ExtPos:
    return INF if abs(float(y[0])) < 1.0 else ZERO


def tent() -> FunctionOracle:
    """min(2 - x, 2 + x) where positive: concave polyhedral."""

    def gr(x):
        t = float(x[0])
        if t == 0.0:
            raise NotDifferentiableError("kink at the origin")
        return np.array([-math.copysign(1.0, t)])

    return parse_function("pos(2 - abs(x0))", 1, gr, None, DECLARED_STRICT, "tent")


def tent_dual(y: np.ndarray) -> ExtPos:
    return ExtPos.finite(0.5 * (1.0 + abs(float(y[0]))))


def lifted_cap() -> FunctionOracle:
    """1 + sqrt(1 - x^2) on [-1, 1], zero outside: not differentiable at
    the domain edges, yet its transform is differentiable everywhere
    ((y^2 + 1)/2 inside [-1, 1], |y| outside, matching slopes at 1)."""
    return parse_function("min(indicator(box -1 1), 1 + sqrt(pos(1 - x0^2)))", 1, meta=DECLARED_STRICT, name="lifted_cap")


def lifted_cap_dual(y: np.ndarray) -> ExtPos:
    t = abs(float(y[0]))
    return ExtPos.finite((t * t + 1.0) / 2.0 if t <= 1.0 else t)


def shifted_quadratic() -> FunctionOracle:
    """(x+1)^2 + 1/2: not ray-monotone; its twice-transformed function
    differs from the original away from the origin."""

    def gr(x):
        return np.array([2.0 * (float(x[0]) + 1.0)])

    def he(x):
        return np.array([[2.0]])

    return parse_function("(x0+1)^2 + 0.5", 1, gr, he, _NOT_RADIAL, "shifted_quadratic")


def shifted_quadratic_upper_dual(y: np.ndarray) -> ExtPos:
    t = float(y[0])
    disc = 1.0 - 4.0 * t - 2.0 * t * t
    if disc < 0.0:
        return ZERO
    s = ((1.0 - 2.0 * t) + math.sqrt(disc)) / 3.0
    return ExtPos.finite(s) if s > 0.0 else ZERO


def strict_entries() -> tuple[CatalogEntry, ...]:
    """The strictly ray-monotone catalog: duality holds with upper equal to
    lower, so these drive the residual, calculus, and derivative checks."""
    return (
        CatalogEntry("sqrt_cap", sqrt_cap(1), sqrt_cap_dual, True, _grid1(-0.9, 0.9, 101), (-3.0, 3.0)),
        CatalogEntry("exp_bump", exp_bump(), None, False, _grid1(-3.0, 3.0, 101), (0.5, 3.0)),
        CatalogEntry(
            "shifted_parabola", shifted_parabola(), shifted_parabola_dual, True, _grid1(0.0, 2.0, 101), (0.75, 3.0)
        ),
        CatalogEntry("constant2", constant(2.0), lambda y: ExtPos.finite(0.5), True, _grid1(-3.0, 3.0, 101), (-3.0, 3.0)),
        CatalogEntry("sqrt_cap_2d", sqrt_cap(2), sqrt_cap_dual, True, _grid2(-0.6, 0.6, 15), (-1.5, 1.5)),
    )
