"""Closed-form transform rules, gauges, and dual derivatives.

The rule factories build oracles for the transform of a composite function
out of transforms of its pieces: positive scaling, composition with a
linear map, pointwise min/max, and k-th order statistics.  Rules whose
derivation passes through a pointwise maximum require every operand's base
function to be declared (or checked) ray-monotone; the others hold
unconditionally.  Each factory is the programmatic form of one rule
record: kind plus operand handles.
Every oracle built here has one float callback over its operands'
eval_float (0.0 and inf are the tags; FunctionOracle derives eval), and a
finite value scaled or averaged out of the finite range raises
OverflowRiskError.
"""

from __future__ import annotations

import enum
import itertools
import math
import numpy as np

from .core import ExtPos
from .errors import (
    DegenerateNormalError,
    OriginNotInSetError,
    OverflowRiskError,
    RadialityRequiredError,
    StrictnessViolatedError,
)
from .oracle import (
    DECLARED_UPPER,
    FunctionOracle,
    RadialityMeta,
    as_vector,
    difference_gradient,
    dot,
    gradient,  # unused here; perfbench/tracing.py spans calculus.gradient
)
from .sets import NormalVector, SetOracle
from .transform import DEFAULT_TOL, DualHandle, Sense, checked_tol

#: Denominators this close to zero (or positive) violate the strictness
#: precondition of the dual derivative formulas.
STRICTNESS_FLOOR = -1e-12


def _change_of_variables(dual: FunctionOracle, dim: int, point_map, factor: float, name: str) -> FunctionOracle:
    """The oracle y -> dual(point_map(y)) * factor shared by the scaling,
    linear and fractional-linear rules; point_map takes and returns a list
    of floats, and the ZERO and INF tags pass through."""

    def scalar(y: list) -> float:
        value = dual.eval_float(point_map(y))
        scaled = value * factor  # factor is finite and > 0: the tags pass through
        if scaled != value and (scaled == 0.0 or scaled == math.inf):
            raise OverflowRiskError(f"rule value {value!r} * {factor!r} left the finite range")
        return scaled

    return FunctionOracle(dim, scalar=scalar, meta=DECLARED_UPPER, name=name)


def rule_scale(lam: float, dual: FunctionOracle) -> FunctionOracle:
    """Transform of lam * f from the transform of f: y -> dual(lam y) / lam."""
    lam = float(lam)
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError("scale factor must be finite and > 0")
    return _change_of_variables(dual, dual.dim, lambda y: [lam * c for c in y], 1.0 / lam, f"scale({lam:g}, {dual.name})")


def rule_linear(a: np.ndarray, dual: FunctionOracle) -> FunctionOracle:
    """Transform of f composed with a linear map: y -> dual(A y)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != dual.dim:
        raise ValueError(f"linear map has {a.shape[0]} rows, oracle dimension is {dual.dim}")
    return _change_of_variables(dual, a.shape[1], lambda y: (a @ np.array(y)).tolist(), 1.0, f"linear({dual.name})")


def _dual_operands(handles, op_name: str, gate: bool):
    handles = tuple(handles)
    if not handles:
        raise ValueError(f"{op_name} needs at least one operand")
    for h in handles:
        if not isinstance(h, DualHandle):
            raise TypeError(f"{op_name} operands must be DualHandles, got {type(h).__name__}")
    dims = {h.dim for h in handles}
    if len(dims) > 1:
        raise ValueError(f"{op_name} operands have mixed dimensions")
    if gate:
        for h in handles:
            if not h.base.meta.radial:
                raise RadialityRequiredError(
                    f"{op_name} requires ray-monotone operands; "
                    f"{h.base.name or 'operand'} has radiality {h.base.meta.value}"
                )
    return handles


class KthKind(enum.Enum):
    KMIN = "kmin"
    KMAX = "kmax"
    KMINAVG = "kminavg"
    KMAXAVG = "kmaxavg"


def _avg_oracle(bases, idxs) -> FunctionOracle:
    k = len(idxs)
    chosen = [bases[i] for i in idxs]
    if all(b.meta is RadialityMeta.STRICT for b in chosen):
        meta = RadialityMeta.STRICT
    else:
        meta = RadialityMeta.RADIAL if all(b.meta.radial for b in chosen) else RadialityMeta.UNKNOWN

    def scalar(x: list) -> float:
        total = 0.0
        for b in chosen:
            v = b.eval_float(x)
            if v == math.inf:
                return v
            total += v
        average = total / k
        if average == math.inf or (average == 0.0 and total > 0.0):
            raise OverflowRiskError(f"average {total!r} / {k} left the finite range")
        return average

    return FunctionOracle(chosen[0].dim, scalar=scalar, meta=meta, name=f"avg{tuple(idxs)}")


def rule_kth(kind: KthKind | str, k: int, duals, tol: float = DEFAULT_TOL) -> FunctionOracle:
    """Transform of a k-th order statistic of n functions.

    The k-th smallest of the primals transforms into the k-th largest of
    the operand transforms, and symmetrically for the k-th largest.  The
    averaged variants have no order-statistic shortcut: they expand into a
    min (resp. max) over subset averages, where each subset-average
    transform is evaluated by bisection on an oracle assembled from the
    operands' base functions.  Variants whose expansion passes through a
    pointwise max require ray-monotone operands.
    """
    kind = KthKind(kind)  # a member or its value; ValueError otherwise
    gate = kind in (KthKind.KMAX, KthKind.KMAXAVG) or (kind is KthKind.KMIN and k >= 2)
    handles = _dual_operands(duals, f"rule_kth({kind.value})", gate=gate)
    n = len(handles)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")

    if kind in (KthKind.KMIN, KthKind.KMAX):
        pick = n - k if kind is KthKind.KMIN else k - 1

        def scalar(y: list) -> float:
            return sorted(h.eval_float(y) for h in handles)[pick]
    else:
        bases = [h.base for h in handles]
        subset_handles = [DualHandle(_avg_oracle(bases, idxs), Sense.UPPER, tol=tol) for idxs in itertools.combinations(range(n), k)]
        outer = max if kind is KthKind.KMINAVG else min

        def scalar(y: list) -> float:
            return outer(h.eval_float(y) for h in subset_handles)

    return FunctionOracle(handles[0].dim, scalar=scalar, meta=DECLARED_UPPER, name=f"{kind.value}[{k}/{n}]")


def rule_min(dual1: DualHandle, dual2: DualHandle) -> FunctionOracle:
    """Transform of min{f1, f2}: the pointwise max of the two transforms.
    Holds unconditionally."""
    return rule_kth(KthKind.KMIN, 1, (dual1, dual2))


def rule_max(dual1: DualHandle, dual2: DualHandle) -> FunctionOracle:
    """Transform of max{f1, f2}: the pointwise min of the two transforms.
    Requires both base functions ray-monotone."""
    return rule_kth(KthKind.KMAX, 1, (dual1, dual2))


# -- gauges ---------------------------------------------------------------


def indicator_oracle(s: SetOracle) -> FunctionOracle:
    """The indicator taking value +inf inside the set and 0 outside, so
    that intersecting a constraint means taking a pointwise min.  For a
    star-shaped set around the origin this is ray-monotone, which is what
    makes its transform a plain bisection: the (convex) set's indicator is
    declared RADIAL when it contains the origin, UNKNOWN otherwise."""

    def scalar(x: list) -> float:
        return math.inf if s.member(np.array(x)) else 0.0

    meta = DECLARED_UPPER if s.contains_origin else RadialityMeta.UNKNOWN
    return FunctionOracle(s.dim, scalar=scalar, meta=meta, name="indicator")


def gauge(s: SetOracle, y, tol: float = DEFAULT_TOL) -> ExtPos:
    """inf{lam > 0 : y in lam S} for a set S containing the origin.

    The one place that picks how: at a finite point, a set with a
    closed-form gauge (ball_set, box_set, halfspace_set) answers from its
    formula, exact beyond the search caps, and a positive gauge that leaves
    the float range raises OverflowRiskError.  A set built from a
    membership predicate alone, and a point with a nan or infinite
    coordinate, take the upper transform of the indicator oracle by
    bisection: zero when y stays inside every shrinking copy of S down to
    the search floor, infinite when it is outside every enlarged copy up
    to the cap.
    """
    if not s.contains_origin:
        raise OriginNotInSetError("gauge requires a set containing the origin")
    if s.gauge is not None:
        checked_tol(tol)
        point = as_vector(y, s.dim).tolist()
        if all(map(math.isfinite, point)):
            return ExtPos.from_float(s.gauge(point))
    return DualHandle(indicator_oracle(s), Sense.UPPER, tol=tol).value(y)


# -- dual derivatives ------------------------------------------------------


def _dual_preamble(f: FunctionOracle, y, f_dual_y: float):
    """What both dual derivatives start from, as lists of floats: the mapped
    point x = y / dual(y), f(x), grad f(x) (the analytic callback, else
    gradient's differences around that f(x)) and the strictness denominator
    grad f(x).x - f(x) (oracle.dot's bits), which must be strictly
    negative."""
    f_dual_y = float(f_dual_y)
    if not (f_dual_y > 0.0) or not math.isfinite(f_dual_y):
        raise ValueError("dual value must be finite and > 0")
    x = [c / f_dual_y for c in as_vector(y, f.dim).tolist()]
    fx = f.eval_float(x)
    if not 0.0 < fx < math.inf:
        raise ValueError("mapped point y / dual(y) lies outside the effective domain")
    g = np.atleast_1d(np.asarray(f.grad(np.array(x)), dtype=float)).tolist() if f.grad is not None else difference_gradient(f.eval_float, x, fx)
    denom = dot(g, x) - fx
    if denom >= STRICTNESS_FLOOR:
        raise StrictnessViolatedError(f"strictness denominator {denom:g} is not strictly negative")
    return x, fx, g, denom


def dual_gradient(f: FunctionOracle, y, f_dual_y: float) -> np.ndarray:
    """Gradient of the transform at y from the gradient of f at the mapped
    point x = y / dual(y):  grad f(x) / (grad f(x).x - f(x)).

    The denominator is the strictness quantity; it must be strictly
    negative for the formula (and the transform's differentiability) to
    hold.  The dual value is an explicit argument so the caller controls
    the bisection tolerance once; the mapping amplifies its error when the
    dual value is small.
    """
    _, _, g, denom = _dual_preamble(f, y, f_dual_y)
    return np.array([c / denom for c in g])


def dual_hessian(f: FunctionOracle, y, f_dual_y: float) -> np.ndarray:
    """Hessian of the transform at y:
    (f(x) / denom) * J hess(x) J^T with J = I - grad(x) x^T / denom."""
    if f.hess is None:
        raise ValueError("dual_hessian requires an analytic Hessian callback")
    x, fx, g, denom = _dual_preamble(f, y, f_dual_y)
    x = np.array(x)
    h = np.asarray(f.hess(x), dtype=float)
    j = np.eye(f.dim) - np.outer(g, x) / denom
    out = (fx / denom) * (j @ h @ j.T)
    return 0.5 * (out + out.T)


def dual_subgradient(n: NormalVector) -> np.ndarray:
    """Map a normal (zeta, delta) of the hypograph of f at (x, f(x)) to the
    subgradient zeta / ((zeta, delta)^T (x, u)) of the transform at the
    transformed point.  Normals with a nonpositive pairing are excluded
    from the transformed subdifferential."""
    s = float(n.zeta @ n.at.x) + n.delta * n.at.u
    if s <= 0.0:
        raise DegenerateNormalError(f"pairing (zeta, delta)^T (x, u) = {s:g} must be > 0")
    return n.zeta / s


def general_transform(a: np.ndarray, alpha: np.ndarray, d: float, dual: FunctionOracle) -> FunctionOracle:
    """The unique epigraph-reshaping transform family beyond the basic one:
    value function y -> dual(A^{-1} (y - alpha)) / d, i.e. the reshaping
    whose point map is G(x, u) = (A x + alpha u, 1/d) / u (so that
    G^{-1}(y, v) = (A^{-1}(y - alpha), 1) / (d v))."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1] or a.shape[0] != dual.dim:
        raise ValueError("A must be square with the oracle's dimension")
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape != (dual.dim,):
        raise ValueError("alpha has the wrong dimension")
    d = float(d)
    if not (d > 0.0) or not math.isfinite(d):
        raise ValueError("d must be finite and > 0")
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("A must be invertible") from exc
    return _change_of_variables(dual, dual.dim, lambda y: (a_inv @ (np.array(y) - alpha)).tolist(), 1.0 / d, f"fractional({dual.name})")


def general_point_map(a: np.ndarray, alpha: np.ndarray, d: float, x: np.ndarray, u: float) -> tuple[np.ndarray, float]:
    """Apply the point map G(x, u) = (A x + alpha u, 1/d) / u paired with
    general_transform: it carries the epigraph of the base function into
    the hypograph of the transformed value function."""
    if not (0.0 < u < math.inf):
        raise ValueError(f"height must be finite and > 0, got {u!r}")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    return (a @ x + alpha * u) / u, 1.0 / (float(d) * u)
