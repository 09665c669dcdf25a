"""Numerical evaluation of the upper and lower value transforms.

The upper transform of f at y is sup{v > 0 : v f(y/v) <= 1}; the lower
transform is inf{v > 0 : v f(y/v) >= 1}.  For ray-monotone functions the
level-1 crossing of the perspective profile is found by one bracketing
search.  Its bracket (lo, hi) of the crossing starts open, (-inf, inf),
and a side not found yet stays open.  It probes v = 1, then doubles lo
(upward) or halves hi (downward), guarding each expansion probe against a
fall from the probe before it, then bisects until hi - lo <= tol * max(lo, 1).
Expansion stops at the caps V_MIN and V_MAX, and a side still open there
is a tag: hi = inf gives INF, lo = -inf gives ZERO.  Otherwise the upper
value is lo and the lower value hi.  The caps are search bounds, so a
crossing beyond one is reported as the tag (an upper value above V_MAX
as INF).

The search runs in two forms that take the same decisions, over floats
with 0.0 and inf as the tags (ExtPos appears only where a value leaves
the library).  eval (also named value) and eval_float run it on one point
over Python floats: the handle's profile is its scalar search, generated
when the handle is built from one template in the expression emitter
(grammar.search_kernel), with two probe forms.  Over a parsed expression
each probe is the compiled kernel's body inlined, which divides the
coordinates and applies perspective's rules with no call; over any other
base each probe calls the base's profile callback: a handle's is its own
generated search, so a nested handle's query is a float search too, and
a callback oracle's divides the coordinates as floats and answers through
its scalar callback.  value_with_certificate runs the same template with
one perspective call per evaluation and returns a bracket certificate.
eval_many (also named values) runs it on many points in lockstep over
float arrays, one call of the base's batch profile per step: a parsed
expression's is its numpy kernel, which divides the rows and applies
perspective's rules column-wise in one generated function, and any other
base's divides them and answers through the base's batch callback, so a
nested handle hands its inner handle one batch per outer step.  A batch of fewer than LOCKSTEP_MIN_ROWS
rows costs less as scalar searches, so values runs those row by row,
unless a global scan is on the handle or below it.  A global-scan handle
starts both forms from the extreme feasible cell of a fixed height grid,
picked by one cell rule (_scan_cells); its lockstep form scans all rows
at once.  Row x height profiles (the global scan's and check_radial's)
are evaluated in blocks of whole rows, at most CHECK_BLOCK_ROWS pairs
each (_profile_blocks); duality_residual evaluates its whole grid in one
values call.

Speculative bisection: the heights of a search's next k steps are fixed
by its bracket (lo, hi); only the branches taken depend on the profile.
A nested handle over a batch-native lockstep (a leaf built with a batch
callback, no global scan below) evaluates each row's tree of 2^k - 1
heights in one base call and walks it with the loop's own next-height
rule, stop rule and cap exits: bit-identical values from about a quarter
of the inner searches.  k is at most SPECULATIVE_LEVELS, one call holds at
most SPECULATIVE_PAIRS pairs, and a speculative call that raises is
discarded for the plain step.

Empty-search conventions: an upper search that is infeasible down to the
floor returns zero (the supremum over an empty set), and a lower search
that is infeasible up to the cap returns infinity.  The two conventions
are asymmetric; see the package README.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import ExtPos
from .errors import ExpressionRangeError, NonMonotonePerspectiveError
from .grammar import search_kernel
from .oracle import DECLARED_UPPER, FunctionOracle, RadialityMeta, as_vector, perspective

DEFAULT_TOL = 1e-10
#: The finest tol accepted.  Since ulp(v) <= MIN_TOL * max(v, 1), the stop
#: rule holds once lo and hi are adjacent floats; below it a search whose
#: midpoint has reached an endpoint never stops.
MIN_TOL = sys.float_info.epsilon
#: Search caps: the heights at which an expansion stops and returns a tag.
V_MIN = 1e-12
V_MAX = 1e12
GLOBAL_SCAN_POINTS = 1024
_SCAN_HEIGHTS = np.geomspace(V_MIN, V_MAX, GLOBAL_SCAN_POINTS)

#: Row x height pairs evaluated in one eval_many call (whole rows, at least
#: one) by check_radial (rays x sampled heights) and by a global-scan
#: handle's values (rows x scan heights), so that their memory does not
#: grow with the number of rows.
CHECK_BLOCK_ROWS = 1 << 16

#: Speculative bisection (DualHandle._speculate, nested handles only): at
#: most SPECULATIVE_LEVELS search steps per base call, and at most
#: SPECULATIVE_PAIRS row x height pairs in that call (fewer levels on wider
#: batches, none from SPECULATIVE_PAIRS rows on).
SPECULATIVE_LEVELS = 4
SPECULATIVE_PAIRS = 512

#: The fewest rows that values searches in lockstep: a smaller batch runs
#: the scalar search row by row, which costs less there, unless a global
#: scan is on the handle or on a handle below it (its lockstep scans all
#: rows' heights in one batch; the scalar form scans one height a call).
LOCKSTEP_MIN_ROWS = 16

#: Violations that check_radial keeps as witnesses; it counts them all.
KEPT_WITNESSES = 5

#: Observed perspective decrease (across an increasing height pair) above
#: which the search aborts for functions not declared ray-monotone.
MONOTONE_GUARD = 1e-9


def checked_tol(tol: float) -> float:
    """A search tolerance as a float: positive, finite and at least MIN_TOL
    (ValueError otherwise)."""
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be positive and finite")
    if tol < MIN_TOL:
        raise ValueError(f"tol must be at least {MIN_TOL!r}, the float resolution")
    return float(tol)


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


@dataclass(frozen=True)
class MonotoneWitness:
    """A violation of ray-monotonicity: the profile along the ray through y
    decreased from p_lo at v_lo to p_hi at v_hi although v_lo < v_hi.
    check_radial keeps the ones it samples; NonMonotonePerspectiveError
    carries the one a search observed."""

    y: np.ndarray
    v_lo: float
    v_hi: float
    p_lo: float
    p_hi: float


def _perspective_many(f: FunctionOracle, ys: np.ndarray, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """perspective(f, ys[i], v[i]) for every row, as floats (0.0 and inf
    are the tags), with perspective's errors: one call of f's batch
    profile.  rows[i] is the caller's row of pair i; an
    ExpressionRangeError from f names that row."""
    try:
        return f._profile_many_fn(ys, v)
    except ExpressionRangeError as exc:
        if exc.row is None:
            raise
        raise exc.at_row(int(rows[exc.row])) from exc


def _next_height(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The search's next height for each bracket (lo, hi): 1 while both
    sides are open, then double lo while hi is open, halve hi while lo is
    open, else bisect; the caps bound the expansion."""
    open_lo = lo == -np.inf
    return np.where(hi == np.inf, np.where(open_lo, 1.0, np.minimum(2.0 * lo, V_MAX)), np.where(open_lo, np.maximum(0.5 * hi, V_MIN), 0.5 * (lo + hi)))


def _profile_blocks(f: FunctionOracle, ys: np.ndarray, heights: np.ndarray):
    """Yield (rows, profiles) for consecutive blocks of whole rows of ys:
    profiles[r, k] is perspective(f, rows[r], heights[k]) as a float.  Each
    block is one eval_many of at most CHECK_BLOCK_ROWS pairs (one row at
    least), so memory does not grow with the number of rows."""
    n = len(heights)
    block = max(1, CHECK_BLOCK_ROWS // n)
    for start in range(0, len(ys), block):
        rows = ys[start : start + block]
        owners = np.repeat(np.arange(start, start + len(rows)), n)
        with np.errstate(over="ignore", invalid="ignore"):
            profiles = _perspective_many(f, np.repeat(rows, n, axis=0), np.tile(heights, len(rows)), owners)
        yield rows, profiles.reshape(len(rows), n)


def _scan_cells(profiles: np.ndarray, upper: bool) -> np.ndarray:
    """The global scan's cell rule.  profiles holds one row of profile
    values per point, on the GLOBAL_SCAN_POINTS scan heights; the result
    is the (4, rows) array of each row's extreme feasible cell as (lo, p_lo,
    hi, p_hi), with an open side (-inf or inf) at a cap when the feasible
    heights reach it.  An approximation: the exact sup/inf is only
    computable under ray monotonicity, and feasible slivers narrower than a
    grid cell are missed."""
    n = profiles.shape[1]
    if upper:
        feasible = profiles <= 1.0
        i = np.where(feasible.any(axis=1), n - 1 - feasible[:, ::-1].argmax(axis=1), -1)
    else:
        reached = profiles >= 1.0
        i = np.where(reached.any(axis=1), reached.argmax(axis=1), n) - 1
    # Cell i lies between heights i and i + 1; for i = -1 and the last i
    # one side is open, which the padding marks with -inf or inf.
    heights = np.concatenate(([-math.inf], _SCAN_HEIGHTS, [math.inf]))
    padded = np.concatenate((profiles[:, :1], profiles, profiles[:, -1:]), axis=1)
    rows = np.arange(len(profiles))
    return np.stack((heights[i + 1], padded[rows, i + 1], heights[i + 2], padded[rows, i + 2]))


def _nonmonotone(y, v_small, p_small, v_big, p_big) -> NonMonotonePerspectiveError:
    """The guard's error: the profile along y fell from p_small at v_small to
    p_big at v_big > v_small."""
    return NonMonotonePerspectiveError(
        "perspective profile decreased from "
        f"{p_small:g} at v={v_small:g} to {p_big:g} at v={v_big:g}; "
        "the base function is not declared ray-monotone "
        "(retry with global_scan for a scanned approximation)",
        witness=MonotoneWitness(np.array(y), float(v_small), float(v_big), float(p_small), float(p_big)),
    )


#: What the generated scalar search reads beyond the emitter's own names
#: and its handle's tol (see grammar.search_kernel).
_SEARCH_NAMES = {"V_MIN": V_MIN, "V_MAX": V_MAX, "GUARD": MONOTONE_GUARD, "nonmonotone": _nonmonotone, "scan_cells": _scan_cells}
_SEARCH_NAMES.update(array=np.array, SCAN_HEIGHTS=_SCAN_HEIGHTS.tolist(), SCAN_POINTS=GLOBAL_SCAN_POINTS)


class DualHandle(FunctionOracle):
    """A FunctionOracle representing the upper or lower transform of a base
    oracle, evaluated on demand by bisection: one point at a time through
    eval (also named value) and eval_float, over floats, by its generated
    scalar search, or value_with_certificate, through perspective; many
    points in lockstep through eval_many (also named values), whose row i
    is value(ys[i]).

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
        global_scan: bool = False,
    ):
        self.base = base
        self.sense = sense
        self.tol = checked_tol(tol)
        self.global_scan = bool(global_scan)
        self._scans = self.global_scan or (isinstance(base, DualHandle) and base._scans)
        super().__init__(
            base.dim,
            meta=DECLARED_UPPER,
            name=f"{sense.value}-transform({base.name or 'f'})",
            many=self._lockstep,
            profile=self._scalar_search(base._profile_fn),
        )
        # A lockstep is batch-native (its cost per step does not grow with
        # its rows) over a batch-native leaf with no global scan on the way
        # down; speculative bisection pays only over such a lockstep.
        self._native = base._native and not self.global_scan

    value = FunctionOracle.eval
    values = FunctionOracle.eval_many

    def value_with_certificate(self, y) -> tuple[ExtPos, BracketCertificate]:
        """value(y) and its bracket certificate, from the same search with
        perspective as its profile: one perspective call per evaluation."""
        y = as_vector(y, self.dim)
        base = self.base
        # The search's y is this point, as a list; perspective takes the vector.
        search = self._scalar_search(lambda _, v: perspective(base, y, v).as_float(), bracket=True)
        value, lo, hi, p_lo, p_hi, evals = search(y.tolist())
        # A tag's certificate records the cap probe at both ends.
        if hi == math.inf:
            hi, p_hi = lo, p_lo
        elif lo == -math.inf:
            lo, p_lo = hi, p_hi
        mode = "global" if self.global_scan else "monotone"
        return ExtPos.from_float(value), BracketCertificate(lo, hi, p_lo, p_hi, evals, mode)

    # -- search ---------------------------------------------------------

    def _scalar_search(self, profile, bracket: bool = False):
        """This handle's scalar search over profile(y, v), generated from the
        emitter's search template (grammar.search_kernel): the handle's
        profile search(y, w=1.0), w T(y / w) by profile_tag's rule, or with
        bracket the tuple (T(y / w), lo, hi, p_lo, p_hi, evaluations) of the
        final bracket and the profile at its ends; y is a list of dim
        floats."""
        names = {**_SEARCH_NAMES, "tol": self.tol}
        return search_kernel(profile, names, self.sense is Sense.UPPER, not self.base.meta.radial, self.global_scan, bracket)

    def _lockstep(self, ys: np.ndarray) -> np.ndarray:
        """The scalar search run on all rows at once, over float arrays.

        Every step probes one height per active row, through one call of
        the base's batch profile, takes the scalar search's decisions on it
        and retires the rows that reach a cap or the tol rule.  Every row
        starts with both sides open, as in the scalar search.  A global-scan
        handle scans every row's heights first, in blocks of whole rows
        (_profile_blocks), and starts each row from its scanned cell, as
        the scalar search does; a row with an open side sits at a cap and
        retires at the first cap test, so the guard cannot fire.  A nested
        handle over a batch-native base takes up to SPECULATIVE_LEVELS steps
        per base call (_speculate), the first one included.
        A batch of fewer than LOCKSTEP_MIN_ROWS rows, with no global scan
        on this handle or below it, runs the scalar search row by row
        instead, in row order: eval_float's values, and the first row that
        raises decides the error, named by its row.
        """
        if len(ys) < LOCKSTEP_MIN_ROWS and not self._scans:
            return self._each_row(ys)
        upper = self.sense is Sense.UPPER
        guarded = not self.base.meta.radial
        # The guard is the one decision that needs the previous probe, so a
        # speculative walk cannot take it; a nested search (a handle's
        # profile is declared monotone) has none.
        speculate = not guarded and isinstance(self.base, DualHandle) and self.base._native
        tol = self.tol
        out = np.empty(ys.shape[0])
        rows = np.arange(ys.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            # Both sides open; the guard's comparisons with nan are false.
            lo, hi, p = np.full(len(ys), -np.inf), np.full(len(ys), np.inf), np.full(len(ys), np.nan)
            if self.global_scan:
                cells = [_scan_cells(profiles, upper) for _, profiles in _profile_blocks(self.base, ys, _SCAN_HEIGHTS)]
                lo, _, hi, _ = np.concatenate([np.empty((4, 0)), *cells], axis=1)
            # False once every row brackets its crossing.  The cap test, the
            # expansion step and the guard cannot fire after that; skipping
            # them makes a nested search's cheap bisection steps cheaper.
            expanding = True
            while True:
                width = hi - lo  # inf while a row expands
                done = width <= tol * np.maximum(lo, 1.0)
                if expanding:
                    done |= (lo >= V_MAX) | (hi <= V_MIN)
                if np.count_nonzero(done):
                    found = lo[done] if upper else hi[done]
                    out[rows[done]] = np.where(hi[done] == np.inf, np.inf, np.where(lo[done] == -np.inf, 0.0, found))
                    keep = ~done
                    rows, ys, lo, hi, p, width = rows[keep], ys[keep], lo[keep], hi[keep], p[keep], width[keep]
                if not rows.size:
                    return out
                expanding = expanding and np.count_nonzero(np.isinf(width)) > 0
                levels = min(SPECULATIVE_LEVELS, (SPECULATIVE_PAIRS // rows.size + 1).bit_length() - 1) if speculate else 1
                if levels > 1:
                    try:
                        lo, hi = self._speculate(ys, rows, lo, hi, levels)
                        continue
                    except Exception:
                        # A speculative probe may lie where the plain search
                        # never goes.  The plain step below raises whatever
                        # the plain search raises.
                        speculate = False
                if expanding:
                    up, down = hi == np.inf, lo == -np.inf
                    v = _next_height(lo, hi)
                else:
                    v = 0.5 * (lo + hi)
                p_edge, p = p, _perspective_many(self.base, ys, v, rows)
                if expanding and guarded:
                    drop = np.where(up, p_edge - p, p - p_edge)
                    tripped = (up | down) & (drop > MONOTONE_GUARD)
                    if np.count_nonzero(tripped):
                        i = int(tripped.argmax())
                        small, big = (lo[i], v[i]) if up[i] else (v[i], hi[i])
                        p_small, p_big = (p_edge[i], p[i]) if up[i] else (p[i], p_edge[i])
                        raise _nonmonotone(ys[i], small, p_small, big, p_big)
                low = p <= 1.0 if upper else p < 1.0
                lo = np.where(low, v, lo)
                hi = np.where(low, hi, v)

    def _speculate(self, ys, rows, lo, hi, levels):
        """The lockstep's next `levels` steps from one base call, for a
        search with no guard.  The heights those steps can probe are fixed
        by (lo, hi): each row's tree of 2^levels - 1 heights is built level
        by level with the loop's next-height rule, and the walk down it
        takes the loop's decisions, its stop rule and cap exits included.
        The brackets returned are the loop's, bit for bit."""
        n, m = (1 << levels) - 1, len(lo)
        node_lo, node_hi, tree = lo[:, None], hi[:, None], []
        for _ in range(levels):
            # Node b of a level has children 2b (profile high: hi = v) and
            # 2b + 1 (profile low: lo = v).
            v = _next_height(node_lo, node_hi)
            tree.append(v)
            node_lo = np.stack((node_lo, v), axis=2).reshape(m, -1)
            node_hi = np.stack((v, node_hi), axis=2).reshape(m, -1)
        heights = np.concatenate(tree, axis=1)  # level j in columns 2^j - 1 ... 2^(j+1) - 2
        profiles = _perspective_many(self.base, np.repeat(ys, n, axis=0), heights.ravel(), np.repeat(rows, n)).reshape(m, n)
        upper = self.sense is Sense.UPPER
        at, node = np.arange(m), np.zeros(m, dtype=np.intp)
        walking = np.ones(m, dtype=bool)
        for level in range(levels):
            if level:
                # The loop's exits; a cap exit cannot fire on a bracketed row.
                walking &= ~((hi - lo <= self.tol * np.maximum(lo, 1.0)) | (lo >= V_MAX) | (hi <= V_MIN))
            column = (1 << level) - 1 + node
            v, p = heights[at, column], profiles[at, column]
            low = p <= 1.0 if upper else p < 1.0
            lo = np.where(walking & low, v, lo)
            hi = np.where(walking & ~low, v, hi)
            node = 2 * node + low
        return lo, hi



# -- radiality checking ---------------------------------------------------


@dataclass(frozen=True)
class RadialityReport:
    """meta is what the sample shows; witness_count counts every sampled
    violation and witnesses keeps the first KEPT_WITNESSES of them."""

    meta: RadialityMeta
    witnesses: tuple[MonotoneWitness, ...]
    witness_count: int


def check_radial(
    f: FunctionOracle,
    rays: int,
    points_per_ray: int,
    box: tuple[float, float] = (-3.0, 3.0),
    seed: int = 0,
) -> RadialityReport:
    """Sample-based radiality check.

    Random directions y are drawn uniformly from box^dim and the profile
    v f(y/v) is evaluated on a geometric grid of points_per_ray heights
    from V_MIN to V_MAX; any decrease beyond MONOTONE_GUARD between
    neighbouring heights is a NOT_RADIAL witness, so a ray needs at least
    two heights (fewer raise ValueError).  When a gradient callback is
    available the sign of grad f(x).x - f(x) is additionally tested at
    random domain points: a positive value is a violation and a (near-)zero
    value rules out strictness.  A RADIAL or STRICT meta means no violation
    was found in the sample, never a proof; if no sampled point produced a
    finite profile or gradient test the meta is UNKNOWN.
    """
    if rays < 1 or points_per_ray < 2:
        raise ValueError("check_radial needs rays >= 1 and points_per_ray >= 2")
    lo, hi = box
    if not lo < hi:
        raise ValueError("box must satisfy lo < hi")
    rng = np.random.default_rng(seed)
    vgrid = np.geomspace(V_MIN, V_MAX, points_per_ray)
    witnesses: list[MonotoneWitness] = []
    witness_count = 0

    # The rays are drawn from the same stream, in the same order, as one
    # draw per ray would take them, and evaluated in blocks of whole rays.
    ys = rng.uniform(lo, hi, size=(rays, f.dim))
    informative = 0
    strict_ok = True
    for ray_ys, values in _profile_blocks(f, ys, vgrid):
        with np.errstate(over="ignore", invalid="ignore"):
            before, after = values[:, :-1], values[:, 1:]
            drops = before - after > MONOTONE_GUARD
        informative += int(np.count_nonzero((0.0 < values) & (values < math.inf)))
        drop_rays, drop_heights = np.nonzero(drops)
        witness_count += drop_rays.size
        for r, i in zip(drop_rays[: KEPT_WITNESSES - len(witnesses)], drop_heights):
            witnesses.append(MonotoneWitness(ray_ys[r], float(vgrid[i]), float(vgrid[i + 1]), float(before[r, i]), float(after[r, i])))
        both_finite = (0.0 < before) & (before < math.inf) & (0.0 < after) & (after < math.inf)
        strict_ok = strict_ok and not np.any(both_finite & ~(after > before * (1.0 + 1e-12)))

    if f.grad is not None:
        for x in rng.uniform(lo, hi, size=(4 * rays, f.dim)):
            fx = f.eval_float(x.tolist())
            if not 0.0 < fx < math.inf:
                continue
            try:
                g = np.atleast_1d(np.asarray(f.grad(x), dtype=float))
            except Exception:
                continue
            informative += 1
            t = float(g @ x) - fx
            if t > MONOTONE_GUARD:
                # The profile along the ray through x falls at first order;
                # confirm with an explicit pair before recording.
                step = 1e-4
                b = f._profile_fn(x.tolist(), 1.0 + step)
                if fx - b > MONOTONE_GUARD:
                    witness_count += 1
                    if len(witnesses) < KEPT_WITNESSES:
                        witnesses.append(MonotoneWitness(np.array(x), 1.0, 1.0 + step, fx, b))
            elif t > -MONOTONE_GUARD:
                strict_ok = False

    if witness_count:
        meta = RadialityMeta.NOT_RADIAL
    elif informative == 0:
        meta = RadialityMeta.UNKNOWN
    else:
        meta = RadialityMeta.STRICT if strict_ok else RadialityMeta.RADIAL
    return RadialityReport(meta, tuple(witnesses), witness_count)


# -- duality residual ------------------------------------------------------


def extpos_gap(a: ExtPos, b: ExtPos) -> float:
    """Distance on the extended positive reals: zero between two infinities,
    infinite between an infinity and anything finite, |a - b| otherwise
    (the zero tag measures as 0.0)."""
    return float(extpos_gap_many(a.as_float(), b.as_float()))


def extpos_gap_many(a, b) -> np.ndarray:
    """extpos_gap elementwise on float arrays in which 0.0 and inf are the
    tags."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a_inf, b_inf = a == math.inf, b == math.inf
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - b)
    return np.where(a_inf | b_inf, np.where(a_inf & b_inf, 0.0, math.inf), gap)


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
    monotone-searchable.  The whole grid is one values call: one lockstep
    search, or on fewer than LOCKSTEP_MIN_ROWS points (and no global scan)
    the scalar search point by point.
    """
    points = np.asarray(grid, dtype=float)
    if points.ndim == 1 and f.dim == 1:
        points = points[:, None]
    inner = DualHandle(f, Sense.UPPER, tol=tol, global_scan=global_scan)
    outer = DualHandle(inner, Sense.UPPER, tol=tol)
    return float(extpos_gap_many(f.eval_many(points), outer.values(points)).max(initial=0.0))
