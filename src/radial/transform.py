"""Numerical evaluation of the upper and lower value transforms.

The upper transform of f at y is sup{v > 0 : v f(y/v) <= 1}; the lower
transform is inf{v > 0 : v f(y/v) >= 1}.  For ray-monotone functions the
level-1 crossing of the perspective profile is found by geometric
expansion from v = 1 followed by bisection.  The caps V_MIN and V_MAX
define numerical zero/infinity for the search only; returned values are
always the extended-positive tags, never the caps.

Empty-search conventions: an upper search that is infeasible down to the
floor returns zero (the supremum over an empty set), and a lower search
that is infeasible up to the cap returns infinity.  The two conventions
are asymmetric; see the package README.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import INF, ONE, ZERO, ExtPos
from .errors import NonMonotonePerspectiveError
from .oracle import FunctionOracle, Provenance, RadialityMeta, Trilean, perspective

DEFAULT_TOL = 1e-10
DEFAULT_V_MIN = 1e-12
DEFAULT_V_MAX = 1e12
GLOBAL_SCAN_POINTS = 1024

#: Observed perspective decrease (across an increasing height pair) above
#: which the search aborts for functions not declared ray-monotone.
MONOTONE_GUARD = 1e-9


class Sense(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class BracketCertificate:
    """Final bracket of the level-1 crossing: profile(v_lo) is on the low
    side of 1 and profile(v_hi) on the high side.  For tag results both
    endpoints record the cap probe."""

    v_lo: float
    v_hi: float
    p_lo: float
    p_hi: float
    evaluations: int
    mode: str  # "monotone" or "global"


class DualHandle(FunctionOracle):
    """A FunctionOracle representing the upper or lower transform of a base
    oracle, evaluated on demand by bisection.

    Handles compose: a DualHandle can be the base of another DualHandle.
    The perspective profile of a transformed function is nondecreasing in
    its height for every base function, so nested handles always satisfy
    the monotone search assumption and skip the guard.
    """

    def __init__(
        self,
        base: FunctionOracle,
        sense: Sense = Sense.UPPER,
        tol: float = DEFAULT_TOL,
        v_min: float = DEFAULT_V_MIN,
        v_max: float = DEFAULT_V_MAX,
        global_scan: bool = False,
    ):
        if not (tol > 0.0):
            raise ValueError("tol must be positive")
        if not (0.0 < v_min < 1.0 < v_max < math.inf):
            raise ValueError("need 0 < v_min < 1 < v_max")
        self.base = base
        self.sense = sense
        self.tol = float(tol)
        self.v_min = float(v_min)
        self.v_max = float(v_max)
        self.global_scan = bool(global_scan)
        super().__init__(
            base.dim,
            lambda y: self._solve(y)[0],
            meta=RadialityMeta(Trilean.YES, Trilean.UNKNOWN, Provenance.DECLARED),
            name=f"{sense.value}-transform({base.name or 'f'})",
        )

    def value(self, y) -> ExtPos:
        return self._solve(np.asarray(y, dtype=float))[0]

    def value_with_certificate(self, y) -> tuple[ExtPos, BracketCertificate]:
        return self._solve(np.asarray(y, dtype=float))

    # -- search ---------------------------------------------------------

    def _solve(self, y) -> tuple[ExtPos, BracketCertificate]:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        upper = self.sense is Sense.UPPER
        evals = 0

        def profile(v: float) -> ExtPos:
            nonlocal evals
            evals += 1
            return perspective(self.base, y, v)

        def feasible(p: ExtPos) -> bool:
            return p <= ONE if upper else p >= ONE

        # The low side of the crossing: for the upper transform feasible
        # heights sit below the crossing, for the lower transform above it.
        def low_ok(p: ExtPos) -> bool:
            return feasible(p) if upper else not feasible(p)

        if self.global_scan:
            found = self._global_bracket(profile, feasible, upper)
        else:
            found = self._monotone_bracket(y, profile, low_ok)

        if found[0] == "tag":
            _, tag, v_edge, p_edge = found
            cert = BracketCertificate(
                v_edge, v_edge, p_edge.as_float(), p_edge.as_float(), evals, self._mode()
            )
            return tag, cert

        _, lo, p_lo, hi, p_hi = found
        while hi - lo > self.tol * max(1.0, lo):
            mid = 0.5 * (lo + hi)
            p = profile(mid)
            if low_ok(p):
                lo, p_lo = mid, p
            else:
                hi, p_hi = mid, p
        cert = BracketCertificate(lo, hi, p_lo.as_float(), p_hi.as_float(), evals, self._mode())
        result = ExtPos.finite(lo) if upper else ExtPos.finite(hi)
        return result, cert

    def _mode(self) -> str:
        return "global" if self.global_scan else "monotone"

    def _monotone_bracket(self, y, profile, low_ok):
        trusted = self.base.meta.upper_radial is Trilean.YES

        def guard(v_small, p_small, v_big, p_big):
            if trusted:
                return
            drop = p_small.as_float() - p_big.as_float()
            if not math.isnan(drop) and drop > MONOTONE_GUARD:
                raise NonMonotonePerspectiveError(
                    "perspective profile decreased from "
                    f"{p_small.as_float():g} at v={v_small:g} to {p_big.as_float():g} at v={v_big:g}; "
                    "the base function is not declared ray-monotone "
                    "(retry with global_scan for a scanned approximation)",
                    witness=(np.array(y), v_small, v_big, p_small, p_big),
                )

        p1 = profile(1.0)
        if low_ok(p1):
            lo, p_lo = 1.0, p1
            while True:
                if lo >= self.v_max:
                    return ("tag", INF, lo, p_lo)
                v = min(2.0 * lo, self.v_max)
                p = profile(v)
                guard(lo, p_lo, v, p)
                if not low_ok(p):
                    return ("bracket", lo, p_lo, v, p)
                lo, p_lo = v, p
        hi, p_hi = 1.0, p1
        while True:
            if hi <= self.v_min:
                return ("tag", ZERO, hi, p_hi)
            v = max(0.5 * hi, self.v_min)
            p = profile(v)
            guard(v, p, hi, p_hi)
            if low_ok(p):
                return ("bracket", v, p, hi, p_hi)
            hi, p_hi = v, p

    def _global_bracket(self, profile, feasible, upper):
        """Scan a fixed geometric grid, take the extreme feasible cell and
        bisect inside it.  An approximation: the exact sup/inf is only
        computable under ray monotonicity, and feasible slivers narrower
        than a grid cell are missed."""
        vs = np.geomspace(self.v_min, self.v_max, GLOBAL_SCAN_POINTS)
        ps = [profile(float(v)) for v in vs]
        flags = [feasible(p) for p in ps]
        if upper:
            idx = max((i for i, ok in enumerate(flags) if ok), default=None)
            if idx is None:
                return ("tag", ZERO, float(vs[0]), ps[0])
            if idx == len(vs) - 1:
                return ("tag", INF, float(vs[-1]), ps[-1])
            return ("bracket", float(vs[idx]), ps[idx], float(vs[idx + 1]), ps[idx + 1])
        idx = next((i for i, ok in enumerate(flags) if ok), None)
        if idx is None:
            return ("tag", INF, float(vs[-1]), ps[-1])
        if idx == 0:
            return ("tag", ZERO, float(vs[0]), ps[0])
        return ("bracket", float(vs[idx - 1]), ps[idx - 1], float(vs[idx]), ps[idx])


# -- radiality checking ---------------------------------------------------


class Verdict(enum.Enum):
    RADIAL = "radial"
    NOT_RADIAL = "not-radial"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MonotoneWitness:
    """A sampled violation: the profile decreased from p_lo at v_lo to p_hi
    at v_hi although v_lo < v_hi."""

    y: np.ndarray
    v_lo: float
    v_hi: float
    p_lo: float
    p_hi: float


@dataclass(frozen=True)
class RadialityReport:
    verdict: Verdict
    strict: bool
    witnesses: tuple[MonotoneWitness, ...]
    checked_rays: int
    checked_points_per_ray: int

    def to_meta(self) -> RadialityMeta:
        if self.verdict is Verdict.NOT_RADIAL:
            return RadialityMeta(Trilean.NO, Trilean.NO, Provenance.CHECKED)
        if self.verdict is Verdict.RADIAL:
            strictly = Trilean.YES if self.strict else Trilean.NO
            return RadialityMeta(Trilean.YES, strictly, Provenance.CHECKED)
        return RadialityMeta(Trilean.UNKNOWN, Trilean.UNKNOWN, Provenance.CHECKED)


def check_radial(
    f: FunctionOracle,
    rays: int,
    points_per_ray: int,
    box: tuple[float, float] = (-3.0, 3.0),
    seed: int = 0,
    v_min: float = DEFAULT_V_MIN,
    v_max: float = DEFAULT_V_MAX,
    tol: float = MONOTONE_GUARD,
) -> RadialityReport:
    """Sample-based radiality check.

    Random directions y are drawn uniformly from box^dim and the profile
    v f(y/v) is evaluated on a geometric height grid; any decrease beyond
    tol across increasing heights is a NOT_RADIAL witness.  When a gradient
    callback is available the sign of grad f(x).x - f(x) is additionally
    tested at random domain points: a positive value is a violation and a
    (near-)zero value rules out strictness.  A RADIAL verdict means no
    violation was found in the sample, never a proof; if no sampled point
    produced a finite profile or gradient test the verdict is INCONCLUSIVE.
    """
    if rays < 1 or points_per_ray < 1:
        raise ValueError("rays and points_per_ray must be >= 1")
    lo, hi = box
    if not lo < hi:
        raise ValueError("box must satisfy lo < hi")
    rng = np.random.default_rng(seed)
    vgrid = np.geomspace(v_min, v_max, points_per_ray)
    witnesses: list[MonotoneWitness] = []
    informative = 0
    strict_ok = True

    for _ in range(rays):
        y = rng.uniform(lo, hi, size=f.dim)
        values = [perspective(f, y, float(v)).as_float() for v in vgrid]
        for i in range(len(values) - 1):
            a, b = values[i], values[i + 1]
            if 0.0 < a < math.inf:
                informative += 1
            drop = a - b
            if not math.isnan(drop) and drop > tol:
                witnesses.append(MonotoneWitness(y, float(vgrid[i]), float(vgrid[i + 1]), a, b))
            if 0.0 < a < math.inf and 0.0 < b < math.inf and not b > a * (1.0 + 1e-12):
                strict_ok = False
        if 0.0 < values[-1] < math.inf:
            informative += 1

    if f.grad is not None:
        for x in rng.uniform(lo, hi, size=(4 * rays, f.dim)):
            fx = f.eval(x)
            if not fx.is_finite:
                continue
            try:
                g = np.atleast_1d(np.asarray(f.grad(x), dtype=float))
            except Exception:
                continue
            informative += 1
            t = float(g @ x) - fx.value
            if t > tol:
                # The profile along the ray through x falls at first order;
                # confirm with an explicit pair before recording.
                step = 1e-4
                a = perspective(f, x, 1.0).as_float()
                b = perspective(f, x, 1.0 + step).as_float()
                if a - b > tol:
                    witnesses.append(MonotoneWitness(np.array(x), 1.0, 1.0 + step, a, b))
            elif t > -tol:
                strict_ok = False

    if witnesses:
        verdict = Verdict.NOT_RADIAL
        strict_ok = False
    elif informative == 0:
        verdict = Verdict.INCONCLUSIVE
        strict_ok = False
    else:
        verdict = Verdict.RADIAL
    return RadialityReport(verdict, strict_ok, tuple(witnesses), rays, points_per_ray)


# -- duality residual ------------------------------------------------------


def extpos_gap(a: ExtPos, b: ExtPos) -> float:
    """Distance on the extended positive reals: zero between two infinities,
    infinite between an infinity and anything finite, |a - b| otherwise
    (the zero tag measures as 0.0)."""
    if a.is_infinite or b.is_infinite:
        return 0.0 if (a.is_infinite and b.is_infinite) else math.inf
    return abs(a.as_float() - b.as_float())


def duality_residual(
    f: FunctionOracle,
    grid,
    tol: float = DEFAULT_TOL,
    global_scan: bool = False,
) -> float:
    """Max over the grid of the gap between the twice-transformed function
    and f itself.  Zero (up to search tolerance) exactly on ray-monotone
    upper-semicontinuous functions; the gap is the non-duality witness
    otherwise.  global_scan is forwarded to the inner transform so that
    non-monotone examples can be explored; the outer transform is always
    monotone-searchable.
    """
    inner = DualHandle(f, Sense.UPPER, tol=tol, global_scan=global_scan)
    outer = DualHandle(inner, Sense.UPPER, tol=tol)
    worst = 0.0
    for x in grid:
        gap = extpos_gap(f.eval(x), outer.value(x))
        if gap > worst:
            worst = gap
    return worst
