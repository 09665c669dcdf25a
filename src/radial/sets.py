"""Sets: exact transforms in the lifted space, and the decision-space
vocabulary of constraints.

Lifted sets (vectors paired with positive heights) are closed under the
projective point transform.  The transforms here are exact formulas, not
sampling approximations; membership predicates use strict arithmetic with
tolerance zero and serve as the sampling oracles in the test suite.  The
three lifted types (a halfspace, an ellipsoid, and a polyhedron, whose
parts are halfspaces) are listed once, in _LIFTED_TYPES, with their
document "type" and their image; membership, transform_set and
set_to_json read that table and refuse any other object.

Decision-space sets (ball, box, halfspace over flat vectors) are
membership handles with closed-form gauges: the grammar's indicator(...),
constraint gauges and `solve --constraint` all build them through the
constructors below.  Both
halves of the radial/v1 JSON schema are decoded here.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import LiftedPoint, _readonly, gamma_point
from .errors import OverflowRiskError, SchemaError

SCHEMA_VERSION = "radial/v1"

#: Pivot threshold factor for the positive-definiteness certificate.
PIVOT_FACTOR = 1e-12


def _certified_pivots(m: np.ndarray) -> np.ndarray | None:
    """The pivots of the symmetric factorization m = L L^T (the squared
    diagonal of the Cholesky factor L) when every one exceeds
    PIVOT_FACTOR * trace(m); None when one does not, when the factorization
    fails, or when m is not square.  The last pivot is the Schur complement
    of the leading block: m[-1, -1] - m[:-1, -1]^T m[:-1, :-1]^-1 m[:-1, -1]."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return None
    try:
        pivots = np.diagonal(np.linalg.cholesky(m)) ** 2
    except np.linalg.LinAlgError:
        return None
    return pivots if np.all(pivots > PIVOT_FACTOR * float(np.trace(m))) else None


def positive_definite_pivots(m: np.ndarray) -> bool:
    """Certify positive definiteness by a Cholesky factorization, requiring
    every pivot to exceed PIVOT_FACTOR * trace.

    Deterministic and dimension-independent; returns False instead of
    raising so callers can phrase their own errors.
    """
    return _certified_pivots(m) is not None


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (m + m.T)


def _check_normal(owner, zeta_field: str, delta_field: str, at: LiftedPoint) -> None:
    """Validate the normal (zeta, delta) held in two fields of a frozen
    dataclass against the lifted point it is stated at, and store zeta as a
    read-only float vector and delta as a float.  zeta must be a finite
    vector of the point's dimension, delta finite, and the normal nonzero."""
    zeta = _readonly(np.atleast_1d(getattr(owner, zeta_field)))
    if zeta.ndim != 1 or not np.all(np.isfinite(zeta)):
        raise ValueError(f"{zeta_field} must be a finite vector")
    delta = float(getattr(owner, delta_field))
    if not math.isfinite(delta):
        raise ValueError(f"{delta_field} must be finite")
    if np.all(zeta == 0.0) and delta == 0.0:
        raise ValueError(f"normal ({zeta_field}, {delta_field}) must be nonzero")
    if zeta.shape[0] != at.dim:
        raise ValueError(f"{zeta_field} has dimension {zeta.shape[0]}, the point {at.dim}")
    object.__setattr__(owner, zeta_field, zeta)
    object.__setattr__(owner, delta_field, delta)


@dataclass(frozen=True)
class Halfspace:
    """The set {(x', u') : (zeta, delta)^T ((x', u') - anchor) <= 0},
    intersected with the positive-height slab.

    Anchored representation: the transform formula is stated at an anchor
    point, and keeping the anchor makes the double transform exact.
    """

    normal_x: np.ndarray
    normal_u: float
    anchor: LiftedPoint

    def __post_init__(self):
        _check_normal(self, "normal_x", "normal_u", self.anchor)

    @property
    def dim(self) -> int:
        return self.anchor.dim

    def contains(self, p: LiftedPoint) -> bool:
        gap = float(self.normal_x @ (p.x - self.anchor.x)) + self.normal_u * (p.u - self.anchor.u)
        return gap <= 0.0


@dataclass(frozen=True)
class Ellipsoid:
    """The set {(x', u') : ((x', u') - center)^T H ((x', u') - center) <= 1}
    for a symmetric positive definite shape H over the lifted space.

    Canonical radius is fixed at 1; rescaling (H, radius) simultaneously
    describes the same set.  The ellipsoid must lie entirely at positive
    heights, which is equivalent to the Schur-complement bound
    H22 - H12^T H11^{-1} H12 > 1/u^2 at the center height u.
    """

    center: LiftedPoint
    shape: np.ndarray

    def __post_init__(self):
        n = self.center.dim
        h = _check_symmetric(self.shape, "shape")
        if h.shape != (n + 1, n + 1):
            raise ValueError("shape must be (dim+1) x (dim+1)")
        pivots = _certified_pivots(h)
        if pivots is None:
            raise ValueError("shape matrix is not positive definite")
        schur = float(pivots[-1])
        if not schur * self.center.u**2 > 1.0:
            raise ValueError(
                "ellipsoid is not contained in the positive-height halfspace: "
                f"need H22 - H12^T H11^-1 H12 > 1/u^2, got {schur:g} <= {1.0 / self.center.u ** 2:g}"
            )
        object.__setattr__(self, "shape", _readonly(h))
        object.__setattr__(self, "_center_array", self.center.as_array())

    @property
    def dim(self) -> int:
        return self.center.dim

    def contains(self, p: LiftedPoint) -> bool:
        d = p.as_array() - self._center_array
        return float(d @ self.shape @ d) <= 1.0


@dataclass(frozen=True)
class Polyhedron:
    """Intersection of finitely many halfspaces with the positive-height
    slab.  An empty list denotes the whole slab."""

    halfspaces: tuple[Halfspace, ...]

    def __post_init__(self):
        hs = tuple(self.halfspaces)
        if not all(type(h) is Halfspace for h in hs):
            raise ValueError("a polyhedron's parts must be halfspaces")
        dims = {h.dim for h in hs}
        if len(dims) > 1:
            raise ValueError("halfspaces have mixed dimensions")
        object.__setattr__(self, "halfspaces", hs)

    def contains(self, p: LiftedPoint) -> bool:
        return all(h.contains(p) for h in self.halfspaces)


class NormalKind(enum.Enum):
    CONVEX = "convex"
    PROXIMAL = "proximal"


@dataclass(frozen=True)
class NormalVector:
    """An outward normal (zeta, delta) of a set at the lifted point `at`.

    Whether `at` actually lies in the set it is a normal of is the
    caller's responsibility; the tests assert it via membership oracles.
    """

    zeta: np.ndarray
    delta: float
    kind: NormalKind
    at: LiftedPoint

    def __post_init__(self):
        _check_normal(self, "zeta", "delta", self.at)


def _dual_normal(zeta: np.ndarray, delta: float, at: LiftedPoint) -> tuple[np.ndarray, float]:
    # (zeta, delta) at (x, u)  ->  (zeta, -(zeta, delta)^T (x, u)); a
    # pairing that overflows is refused by the image's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        return zeta, -(float(zeta @ at.x) + delta * at.u)


def transform_halfspace(h: Halfspace) -> Halfspace:
    """Image of a halfspace under the point transform: the halfspace with
    normal (zeta, -(zeta, delta)^T (x, u)) anchored at the transformed
    anchor.  Membership is preserved pointwise, and applying the transform
    twice reproduces the original normal and anchor exactly up to round-off.
    """
    zeta, delta = _dual_normal(h.normal_x, h.normal_u, h.anchor)
    return Halfspace(zeta, delta, gamma_point(h.anchor))


def transform_polyhedron(p: Polyhedron) -> Polyhedron:
    """Halfspace-wise image; the transform distributes over intersections,
    so this equals the image of the intersection."""
    return Polyhedron(tuple(transform_halfspace(h) for h in p.halfspaces))


def transform_normal(n: NormalVector) -> NormalVector:
    """Map a convex or proximal normal through the point transform.

    The image normal is (zeta, -(zeta, delta)^T (x, u)) of the same kind at
    the transformed point.  It can never vanish: zeta = 0 forces delta != 0
    at construction, and then the new height component is -delta * u != 0.
    """
    zeta, delta = _dual_normal(n.zeta, n.delta, n.at)
    return NormalVector(zeta, delta, n.kind, gamma_point(n.at))


def _dual_ellipsoid_pieces(h: np.ndarray, x: np.ndarray, u: float):
    """The block matrix driving the ellipsoid transform, plus the linear
    part of the transformed quadratic.  Split out so the positive
    definiteness boundary can be probed on raw data in tests."""
    n = x.shape[0]
    h11 = h[:n, :n]
    h12 = h[:n, n]
    h22 = h[n, n]
    z = np.concatenate([x, [u]])
    col = h11 @ x + h12 * u
    g = np.empty((n + 1, n + 1))
    g[:n, :n] = h11
    g[:n, n] = -col
    g[n, :n] = -col
    g[n, n] = float(z @ h @ z) - 1.0
    rhs = np.concatenate([-h12, [float(h12 @ x) + h22 * u]])
    return g, rhs, h22


def transform_ellipsoid(e: Ellipsoid) -> Ellipsoid:
    """Exact image of an ellipsoid under the point transform.

    The image is again an ellipsoid, with center G^{-1} (-H12, H12^T x + H22 u)
    and shape G / ((y, v)^T G (y, v) - H22); its center is not the transformed
    center point.  G is positive definite exactly when the containment
    invariant holds, which the constructor guarantees.
    """
    g, rhs, h22 = _dual_ellipsoid_pieces(e.shape, e.center.x, e.center.u)
    if not positive_definite_pivots(g):
        raise ValueError("transform produced a non-definite quadratic; containment violated")
    c = np.linalg.solve(g, rhs)
    denom = float(c @ g @ c) - h22
    if not denom > 0.0:
        raise ValueError("transformed ellipsoid has empty interior; containment violated")
    n = e.dim
    return Ellipsoid(LiftedPoint(c[:n], float(c[n])), g / denom)


#: The lifted set types, each with its document "type" and its image under
#: the point transform.  Lookup is by exact type.
_LIFTED_TYPES = {
    Halfspace: ("halfspace", transform_halfspace),
    Ellipsoid: ("ellipsoid", transform_ellipsoid),
    Polyhedron: ("polyhedron", transform_polyhedron),
}


def _lifted_type(s) -> tuple[str, Callable]:
    """The entry of s's type in _LIFTED_TYPES; TypeError for any other object."""
    if type(s) not in _LIFTED_TYPES:
        raise TypeError(f"unsupported set type {type(s).__name__}")
    return _LIFTED_TYPES[type(s)]


def membership(p: LiftedPoint, s) -> bool:
    """Exact membership predicate (tolerance 0, boundary included)."""
    _lifted_type(s)
    return s.contains(p)


# --- decision-space sets ---


@dataclass(frozen=True)
class SetOracle:
    """A set in decision space: its membership predicate and, optionally,
    its gauge inf{lam > 0 : y in lam S} in closed form.  The gauge callback
    takes a finite point as a list of dim floats and returns one float, 0.0
    and inf being the tags; it holds for a set containing the origin, and
    a positive finite gauge out of the float range raises
    OverflowRiskError.  ball_set, box_set and halfspace_set supply it; a
    set built from a predicate alone has its gauge bisected
    (calculus.gauge).  Gauge evaluation requires contains_origin (the
    caller asserts convexity)."""

    dim: int
    member: Callable[[np.ndarray], bool]
    gauge: Callable[[list], float] | None = None

    @functools.cached_property
    def contains_origin(self) -> bool:
        return bool(self.member(np.zeros(self.dim)))


def _in_range(value: float, positive: bool) -> float:
    """value, a closed-form gauge of a finite point whose true gauge is
    positive and finite exactly when `positive`; OverflowRiskError where it
    overflowed to inf or underflowed to 0."""
    if positive and not 0.0 < value < math.inf:
        raise OverflowRiskError(f"gauge {value!r} of a finite point left the finite range")
    return value


def ball_set(dim: int, radius: float) -> SetOracle:
    if not radius > 0:
        raise ValueError("radius must be positive")
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")

    def member(x: np.ndarray) -> bool:
        # In units of the radius, whatever its size: a far point's z.z
        # overflows to inf (outside) and a tiny offset's underflows to 0
        # (inside).
        with np.errstate(over="ignore"):
            z = x / radius
            return float(z.dot(z)) <= 1.0

    def gauge(y: list) -> float:
        # |y| / radius, in units of the radius as member measures it.
        return _in_range(math.hypot(*[c / radius for c in y]), any(y))

    return SetOracle(dim, member, gauge)


def box_set(lo: np.ndarray, hi: np.ndarray) -> SetOracle:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.ndim != 1 or hi.ndim != 1:
        raise ValueError("box requires flat vectors lo and hi")
    if lo.shape != hi.shape or not np.all(lo < hi):
        raise ValueError("box requires lo < hi componentwise")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("box requires finite lo and hi")
    bounds = list(zip(lo.tolist(), hi.tolist()))

    def gauge(y: list) -> float:
        # The largest ratio of a nonzero coordinate to the bound it faces;
        # no multiple of the box reaches past a bound of 0.
        facing = [(c, h if c > 0.0 else l) for c, (l, h) in zip(y, bounds) if c != 0.0]
        if any(bound == 0.0 for _, bound in facing):
            return math.inf
        return _in_range(max([c / bound for c, bound in facing], default=0.0), bool(facing))

    return SetOracle(lo.shape[0], lambda x: bool(np.all((x >= lo) & (x <= hi))), gauge)


def halfspace_set(a: np.ndarray, b: float) -> SetOracle:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.ndim != 1:
        raise ValueError("halfspace requires a flat vector a")
    if not (np.all(np.isfinite(a)) and math.isfinite(b)):
        raise ValueError("halfspace requires finite a and b")
    scale = float(np.max(np.abs(a), initial=0.0)) or 1.0
    normal = a.tolist()

    def member(x: np.ndarray) -> bool:
        # A non-finite a.x may hide inf - inf (nan, or inf from a fused dot
        # kernel); a nan a.x, from inf - inf or a nan coordinate, is outside.
        with np.errstate(over="ignore", invalid="ignore"):
            ax = float(a @ x)
            return ax <= b if math.isfinite(ax) else float((a / scale) @ x) <= b / scale

    def gauge(y: list) -> float:
        # max(a.y, 0) / b; for b = 0 the tags.  Where the float a.y cancels
        # more than 12 bits (its sign or size in doubt), or leaves the normal
        # range, a.y and the quotient are taken exactly.
        terms = list(map(operator.mul, normal, y))
        ay = sum(terms)
        if not abs(ay) > max(2.0**-12 * sum(map(abs, terms)), 2.0**-1000):
            ay = sum(map(operator.mul, map(Fraction, normal), map(Fraction, y)))
        if not ay > 0:
            return 0.0
        if b == 0.0:
            return math.inf
        try:
            q = ay / b if type(ay) is float else float(ay / Fraction(b))
        except OverflowError:  # the exact quotient is beyond the largest float
            q = math.inf
        return _in_range(q, True)

    return SetOracle(a.shape[0], member, gauge)


# --- JSON schemas (radial/v1): lifted sets for set-transform, decision-space
# --- constraints for solve --constraint ---


def _point_from_json(obj) -> LiftedPoint:
    try:
        return LiftedPoint(np.asarray(obj["x"], dtype=float), float(obj["u"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad lifted point: {exc}") from exc


def set_to_json(s) -> dict:
    """Encode a lifted set as a radial/v1 JSON document: the header, then
    each dataclass field under its own name."""
    doc = {"schema": SCHEMA_VERSION, "type": _lifted_type(s)[0]}
    return doc | {field.name: _field_to_json(getattr(s, field.name)) for field in fields(s)}


def _field_to_json(v):
    """A lifted set's field in its document: a point as {"x", "u"}, arrays
    as lists (matrices row-major), a polyhedron's parts as documents."""
    if isinstance(v, LiftedPoint):
        return {"x": v.x.tolist(), "u": v.u}
    if isinstance(v, tuple):
        return [set_to_json(h) for h in v]
    return v.tolist() if isinstance(v, np.ndarray) else v


def _document_type(obj, what: str):
    """The "type" of a radial/v1 document, after checking its header."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} document must be a JSON object")
    if obj.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f'missing or unsupported "schema" (expected "{SCHEMA_VERSION}")')
    return obj.get("type")


def set_from_json(obj) -> Halfspace | Ellipsoid | Polyhedron:
    """Decode a radial/v1 set document, raising SchemaError on violations."""
    kind = _document_type(obj, "set")
    try:
        if kind == "halfspace":
            return Halfspace(
                np.asarray(obj["normal_x"], dtype=float),
                float(obj["normal_u"]),
                _point_from_json(obj["anchor"]),
            )
        if kind == "ellipsoid":
            return Ellipsoid(_point_from_json(obj["center"]), np.asarray(obj["shape"], dtype=float))
        if kind == "polyhedron":
            parts = obj["halfspaces"]
            if not isinstance(parts, list):
                raise SchemaError("halfspaces must be a list")
            return Polyhedron(tuple(set_from_json(h) for h in parts))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {kind} document: {exc}") from exc
    raise SchemaError(f"unknown set type {kind!r}")


def constraint_from_json(obj, dim: int) -> SetOracle:
    """Decode a radial/v1 constraint document for decision space of
    dimension dim.  A ball's "dim" is a JSON integer that defaults to dim;
    any other dimension that differs from dim is a SchemaError."""
    kind = _document_type(obj, "constraint")
    try:
        if kind == "ball":
            ball_dim = obj.get("dim", int(dim))
            if type(ball_dim) is not int:
                raise SchemaError(f'bad ball constraint: "dim" must be an integer, got {ball_dim!r}')
            s = ball_set(ball_dim, float(obj["radius"]))
        elif kind == "box":
            s = box_set(np.asarray(obj["lo"], dtype=float), np.asarray(obj["hi"], dtype=float))
        elif kind == "halfspace":
            s = halfspace_set(np.asarray(obj["a"], dtype=float), float(obj["b"]))
        else:
            raise SchemaError(f"unknown constraint type {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {kind} constraint: {exc}") from exc
    if s.dim != dim:
        raise SchemaError(f"{kind} constraint has dimension {s.dim}, expected {dim}")
    return s


def transform_set(s):
    """Image of a decoded set.  A set whose image fails validation lies
    too close to the containment boundary to transform in floating point;
    that is reported as a SchemaError against the document."""
    kind, image = _lifted_type(s)
    try:
        return image(s)
    except ValueError as exc:
        raise SchemaError(f"cannot transform {kind}: {exc}") from exc
