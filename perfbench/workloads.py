"""Seeded request generators and the reference answers they are checked against.

Every workload is a closed loop with one client: the next request is sent
only after the previous answer came back and was checked.  Request i of a
workload is built from the seed, the workload and i alone, so a stream is
reproducible from the seed and any request can be rebuilt on its own.
Request types follow a fixed cycle (the workload's mix); only their
parameters are random, so every request differs from every other while the
mix, and with it the cost of a run, stays the same from seed to seed.
Scalar parameters are drawn from a randomly shifted low-discrepancy
sequence over the occurrences of each request type (see ``Draws``), so even
a short run covers each parameter range evenly and run-to-run spread comes
from the program, not from an unlucky draw.  Request sizes (grid points,
rays, sampled points) vary too: with a spread of request costs the median
latency moves smoothly with the machine's speed instead of jumping between
the speeds of a few identical requests.

A request is a plain dict.  ``argv`` and ``files`` (CLI requests) or
``call`` (library requests) are the only parts the program sees;
``expect`` holds what the checks compare against.  This module imports
nothing from ``radial``; the reference formulas that come from
``radial.catalog`` are applied in ``checks.py``.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

#: Request-type cycle of each workload.  Each entry is one request.
MIXES = {
    "grid": ("grid_1d", "grid_1d_bidual", "grid_2d", "residual_lib", "grid_1d", "rules_lib", "grid_2d_bidual"),
    "solve": ("solve_lib", "solve_cli", "solve_quadcap", "solve_cli", "solve_lib", "solve_constrained", "solve_cli", "solve_quadcap", "solve_lib", "solve_cli"),
    "scan": ("check_cli", "grid_global", "check_cli", "eval_global"),
    "sets": ("set_halfspace", "set_polyhedron", "set_ellipsoid"),
}

WORKLOADS = tuple(MIXES)

#: Why each workload was chosen.
REASONS = {
    "grid": "search engine and grammar on whole grids; batching and ITP must show here",
    "solve": "sequential descent: step rule and evals per search show; quad caps stall ~2,500 iterations",
    "scan": "perspective on fixed height grids, little bracketing: batching should show, ITP should not",
    "sets": "the only load on the sets layer and lifted points (gamma_point)",
}


def why(workload: str) -> str:
    """Loop, mix and reason in one line, as BENCHMARK.json records them."""
    mix = MIXES[workload]
    parts = " ".join(f"{mix.count(k)}/{len(mix)} {k}" for k in dict.fromkeys(mix))
    return f"closed loop, 1 client; mix {parts}; {REASONS[workload]}"


#: Range of lifted points sampled per sets request for the membership check.
MEMBERSHIP_POINTS = (100, 500)

#: Catalog entries with analytic derivatives used by library solves, with
#: their known maximizer and maximum.
SOLVE_LIB_ENTRIES = (
    ("sqrt_cap", 1, (0.0,), 1.0),
    ("shifted_parabola", 1, (1.0,), 2.0),
    ("sqrt_cap", 2, (0.0, 0.0), 1.0),
)

RULE_KINDS = ("min", "max", "kmin", "kmax", "kminavg", "kmaxavg")

#: Entries of catalog.strict_entries() that residual requests take sub-grids of.
RESIDUAL_ENTRIES = 5

SOLVE_CLI_FAMILIES = ("sqrt_cap", "shifted_parabola")
CONSTRAINT_KINDS = ("ball", "box", "halfspace")
SET_DIMS = (1, 2)

#: Global-scan grid sizes: each point is a 1,024-point height scan.
GLOBAL_GRID_POINTS = (2, 10)


#: Increments of the Kronecker sequence, one per scalar parameter of a
#: request: fractional parts of square roots of primes.
_ALPHAS = np.sqrt([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]) % 1.0


class Draws:
    """Random draws for one request.

    Scalar ``uniform`` draws follow the sequence frac(shift_k + turn * alpha_k):
    the k-th scalar parameter of the turn-th request of a type, with shifts
    drawn from the seed.  Everything else (arrays, normals, seeds passed to
    the program) comes from the request's own generator.
    """

    def __init__(self, rng, shifts, turn: int):
        self.rng, self._shifts, self._turn, self._k = rng, shifts, turn, 0

    def uniform(self, lo: float, hi: float, size=None):
        if size is not None or self._k >= len(_ALPHAS):
            return self.rng.uniform(lo, hi, size)
        u = (self._shifts[self._k] + self._turn * _ALPHAS[self._k]) % 1.0
        self._k += 1
        return lo + (hi - lo) * u

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _num(rng, lo: float, hi: float, digits: int = 3) -> float:
    """A uniform draw rounded to the decimals written into the argv, so the
    reference sees exactly the number the program parses."""
    return round(rng.uniform(lo, hi), digits)


def _size(rng, lo: int, hi: int) -> int:
    """A request size drawn evenly from lo..hi."""
    return int(round(rng.uniform(lo - 0.5, hi + 0.5)))


def _fmt(x: float) -> str:
    return repr(float(x))


# -- function families ------------------------------------------------------
#
# Each family is a grammar expression with a closed-form upper transform.
# All are strictly ray-monotone, so the lower transform equals the upper one
# and the twice-transformed function equals f.  "peak" is where f is
# largest; "half" is the half-width of the support of the centred families.


def _family_1d(name: str, rng) -> dict:
    if name == "quadcap":
        c = _num(rng, 0.6, 1.8)
        return {"family": name, "c": c, "expr": f"pos({_fmt(c)}-x0^2)", "half": math.sqrt(c), "peak": 0.0}
    s, r = _num(rng, 0.6, 1.8), _num(rng, 0.6, 1.8)
    expr = {
        "sqrt_cap": f"pos({_fmt(s)}*sqrt(1-(x0/{_fmt(r)})^2))",
        "shifted_parabola": f"pos({_fmt(s)}*(2-(x0/{_fmt(r)}-1)^2))",
        "tent": f"pos({_fmt(s)}*(2-abs(x0/{_fmt(r)})))",
    }[name]
    half = {"sqrt_cap": r, "shifted_parabola": r * (1.0 + math.sqrt(2.0)), "tent": 2.0 * r}[name]
    peak = r if name == "shifted_parabola" else 0.0
    return {"family": name, "s": s, "r": r, "expr": expr, "half": half, "peak": peak}


def _family_2d(name: str, rng) -> dict:
    if name == "quadcap2":
        c = _num(rng, 0.6, 1.8)
        return {"family": name, "c": c, "expr": f"pos({_fmt(c)}-x0^2-x1^2)", "half": math.sqrt(c)}
    s, r = _num(rng, 0.6, 1.8), _num(rng, 0.6, 1.8)
    expr = {
        "normcap": f"pos({_fmt(s)}*(1-norm(x0,x1)/{_fmt(r)}))",
        "sqrtcap2": f"pos({_fmt(s)}*sqrt(1-(x0^2+x1^2)/{_fmt(r)}^2))",
    }[name]
    return {"family": name, "s": s, "r": r, "expr": expr, "half": r}


FAMILIES_1D = ("sqrt_cap", "shifted_parabola", "tent", "quadcap")
FAMILIES_2D = ("normcap", "sqrtcap2", "quadcap2")


# -- request builders ---------------------------------------------------------


def _grid_1d(rng, turn: int, i: int) -> dict:
    fam = _family_1d(FAMILIES_1D[turn % len(FAMILIES_1D)], rng)
    lo, hi, n = _num(rng, -3.0, -1.0), _num(rng, 1.0, 3.0), _size(rng, 51, 151)
    emit = "primal,dual,lower"
    out = f"grid-{i}.csv"
    argv = ["grid", "--f", fam["expr"], "--dim", "1", f"--grid={_fmt(lo)}:{_fmt(hi)}:{n}", "--out", out, "--emit", emit]
    return {"argv": argv, "outputs": [out], "expect": {"fn": fam, "axes": [[lo, hi, n]]}}


def _grid_1d_bidual(rng, turn: int, i: int) -> dict:
    # Residual columns are checked against criterion 02's bound at criterion
    # 02's search tolerance, on points well inside the domain, as its grids
    # are ([0, 2] for the shifted parabola, 80% of the support otherwise).
    fam = _family_1d(FAMILIES_1D[turn % len(FAMILIES_1D)], rng)
    if fam["family"] == "shifted_parabola":
        lo, hi = fam["r"] * rng.uniform(0.0, 0.3), fam["r"] * rng.uniform(1.7, 2.0)
    else:
        half = 0.8 * fam["half"]
        lo, hi = -half * rng.uniform(0.6, 1.0), half * rng.uniform(0.6, 1.0)
    lo, hi, n = round(lo, 3), round(hi, 3), _size(rng, 7, 15)
    emit = "primal,dual,bidual,residual"
    out = f"grid-{i}.csv"
    argv = ["--tol", "1e-11", "grid", "--f", fam["expr"], "--dim", "1", f"--grid={_fmt(lo)}:{_fmt(hi)}:{n}", "--out", out, "--emit", emit]
    return {"argv": argv, "outputs": [out], "expect": {"fn": fam, "axes": [[lo, hi, n]]}}


def _grid_2d(rng, turn: int, i: int, bidual: bool = False) -> dict:
    fam = _family_2d(FAMILIES_2D[turn % len(FAMILIES_2D)], rng)
    out = f"grid-{i}.csv"
    if bidual:
        half = 0.7 * fam["half"]
        axes = [[round(-half * rng.uniform(0.7, 1.0), 3), round(half * rng.uniform(0.7, 1.0), 3), _size(rng, 4, 6)] for _ in range(2)]
        emit, tol = "primal,dual,bidual,residual", ["--tol", "1e-11"]
    else:
        axes = [[_num(rng, -2.0, -1.0), _num(rng, 1.0, 2.0), _size(rng, 6, 12)] for _ in range(2)]
        emit, tol = "primal,dual", []
    spec = ",".join(f"{_fmt(lo)}:{_fmt(hi)}:{n}" for lo, hi, n in axes)
    argv = tol + ["grid", "--f", fam["expr"], "--dim", "2", f"--grid={spec}", "--out", out, "--emit", emit]
    return {"argv": argv, "outputs": [out], "expect": {"fn": fam, "axes": axes}}


def _residual_lib(rng, turn: int, i: int) -> dict:
    # Sub-grids of catalog.strict_entries(); entry order is the catalog's.
    entry = turn % RESIDUAL_ENTRIES
    size = 225 if entry == 4 else 101
    count = _size(rng, 4, 12)
    start = int(rng.uniform(0, size - count))
    return {"call": {"fn": "duality_residual", "entry": entry, "start": start, "count": count, "tol": 1e-11}}


def _rules_lib(rng, turn: int, i: int) -> dict:
    # Criterion 08's operands (sqrt_cap, constant 2, tent) and tolerance.
    kind = RULE_KINDS[turn % len(RULE_KINDS)]
    lo, hi = _num(rng, -1.6, -0.8), _num(rng, 0.8, 1.6)
    return {"call": {"fn": "rule", "kind": kind, "k": 2, "grid": [lo, hi, _size(rng, 12, 36)], "tol": 1e-11}}


def _signed(rng, lo: float, hi: float) -> float:
    u = rng.uniform(-1.0, 1.0)
    return round(math.copysign(lo + (hi - lo) * abs(u), u), 3)


def _solve_cli(rng, turn: int, i: int) -> dict:
    fam = _family_1d(SOLVE_CLI_FAMILIES[turn % len(SOLVE_CLI_FAMILIES)], rng)
    y0 = _signed(rng, 1.0, 4.0)
    x_star = fam["peak"]
    p_star = fam["s"] * (1.0 if fam["family"] == "sqrt_cap" else 2.0)
    argv = ["solve", "--f", fam["expr"], "--dim", "1", "--y0", _fmt(y0)]
    return {"argv": argv, "expect": {"x_star": [x_star], "p_star": p_star, "tol": 1e-5}}


def _solve_constrained(rng, turn: int, i: int) -> dict:
    # A shifted parabola peaking at r, cut by a set whose boundary point
    # b < r is the constrained maximizer.
    fam = _family_1d("shifted_parabola", rng)
    s, r = fam["s"], fam["r"]
    b = round(r * rng.uniform(0.3, 0.8), 3)
    kind = CONSTRAINT_KINDS[turn % len(CONSTRAINT_KINDS)]
    if kind == "ball":
        doc = {"schema": "radial/v1", "type": "ball", "dim": 1, "radius": b}
    elif kind == "box":
        doc = {"schema": "radial/v1", "type": "box", "lo": [_num(rng, -1.5, -0.2)], "hi": [b]}
    else:
        a = _num(rng, 0.5, 2.0)
        doc = {"schema": "radial/v1", "type": "halfspace", "a": [a], "b": round(a * b, 6)}
        b = doc["b"] / a
    name = f"constraint-{i}.json"
    y0 = _num(rng, 1.0, 3.0)
    argv = ["solve", "--f", fam["expr"], "--dim", "1", "--y0", _fmt(y0), "--constraint", name]
    p_star = s * (2.0 - (b / r - 1.0) ** 2)
    return {"argv": argv, "files": {name: json.dumps(doc)}, "expect": {"x_star": [b], "p_star": p_star, "tol": 1e-5}}


def _solve_lib(rng, turn: int, i: int) -> dict:
    name, dim, x_star, p_star = SOLVE_LIB_ENTRIES[turn % len(SOLVE_LIB_ENTRIES)]
    y0 = [_signed(rng, 0.5, 4.0) for _ in range(dim)]
    return {"call": {"fn": "solve_via_dual", "entry": name, "dim": dim, "y0": y0}, "expect": {"x_star": list(x_star), "p_star": p_star, "tol": 1e-6}}


def _solve_quadcap(rng, turn: int, i: int) -> dict:
    fam = _family_1d("quadcap", rng)
    y0 = _signed(rng, 1.0, 5.0)
    argv = ["solve", "--f", fam["expr"], "--dim", "1", "--y0", _fmt(y0)]
    return {"argv": argv, "expect": {"x_star": [0.0], "p_star": fam["c"], "tol": 1e-5}}


#: Expression family, expected first line of stdout and exit code of check.
CHECK_CASES = (
    ("sqrt_cap", "strictly radial (sampled)", 0),
    ("nonradial_quadratic", "not radial:", 1),
    ("tent", "strictly radial (sampled)", 0),
    ("scaled_abs", "radial (sampled; not strict)", 0),
    ("quadcap2", "strictly radial (sampled)", 0),
    ("nonradial_quadratic", "not radial:", 1),
)


def _check_cli(rng, turn: int, i: int) -> dict:
    case, first_line, code = CHECK_CASES[turn % len(CHECK_CASES)]
    dim = 1
    if case == "nonradial_quadratic":
        a, b = _num(rng, 0.5, 1.5), _num(rng, 0.2, 1.0)
        expr = f"(x0+{_fmt(a)})^2 + {_fmt(b)}"
    elif case == "scaled_abs":
        expr = f"{_fmt(_num(rng, 0.5, 2.0))}*abs(x0)"
    elif case == "quadcap2":
        expr, dim = _family_2d("quadcap2", rng)["expr"], 2
    else:
        expr = _family_1d(case, rng)["expr"]
    argv = ["check", "--f", expr, "--dim", str(dim), "--rays", str(_size(rng, 32, 96)), "--seed", str(int(rng.integers(0, 2**31)))]
    return {"argv": argv, "expect": {"first_line": first_line, "code": code}}


GLOBAL_EXPR = "(x0+1)^2 + 0.5"


def _grid_global(rng, turn: int, i: int) -> dict:
    lo, hi, n = _num(rng, -2.0, -1.2), _num(rng, -0.8, 0.0), _size(rng, *GLOBAL_GRID_POINTS)
    out = f"grid-{i}.csv"
    argv = ["grid", "--f", GLOBAL_EXPR, "--dim", "1", f"--grid={_fmt(lo)}:{_fmt(hi)}:{n}", "--global", "--out", out, "--emit", "primal,dual"]
    return {"argv": argv, "outputs": [out], "expect": {"axes": [[lo, hi, n]]}}


def _eval_global(rng, turn: int, i: int) -> dict:
    y = _num(rng, -2.0, 0.0, 4)
    argv = ["eval", "--f", GLOBAL_EXPR, "--dim", "1", "--at", _fmt(y), "--global"]
    return {"argv": argv, "expect": {"y": y}}


def _halfspace_doc(rng, dim: int) -> dict:
    normal = rng.normal(size=dim)
    return {
        "schema": "radial/v1",
        "type": "halfspace",
        "normal_x": [round(float(v), 4) for v in normal],
        "normal_u": round(float(rng.normal()), 4),
        "anchor": {"x": [_num(rng, -1.5, 1.5, 4) for _ in range(dim)], "u": _num(rng, 0.5, 2.0, 4)},
    }


def _ellipsoid_doc(rng, dim: int) -> dict:
    # A random positive definite shape whose Schur complement clears
    # 1/u^2 by a margin, so the ellipsoid sits at positive heights.
    u = _num(rng, 1.5, 3.0, 4)
    m = rng.normal(size=(dim, dim))
    h11 = m @ m.T + 0.5 * np.eye(dim)
    h12 = 0.3 * rng.normal(size=dim)
    h22 = float(h12 @ np.linalg.solve(h11, h12)) + rng.uniform(1.5, 3.0) / u**2
    shape = np.empty((dim + 1, dim + 1))
    shape[:dim, :dim], shape[:dim, dim], shape[dim, :dim], shape[dim, dim] = h11, h12, h12, h22
    return {
        "schema": "radial/v1",
        "type": "ellipsoid",
        "center": {"x": [_num(rng, -1.0, 1.0, 4) for _ in range(dim)], "u": u},
        "shape": [[float(v) for v in row] for row in shape],
    }


def _set_request(kind: str):
    def build(rng, turn: int, i: int) -> dict:
        dim = SET_DIMS[turn % len(SET_DIMS)]
        if kind == "halfspace":
            doc = _halfspace_doc(rng, dim)
        elif kind == "polyhedron":
            doc = {"schema": "radial/v1", "type": "polyhedron", "halfspaces": [_halfspace_doc(rng, dim) for _ in range(3)]}
        else:
            doc = _ellipsoid_doc(rng, dim)
        m = _size(rng, *MEMBERSHIP_POINTS)
        xs = np.round(rng.uniform(-3.0, 3.0, size=(m, dim)), 6)
        us = np.round(rng.uniform(0.1, 4.0, size=m), 6)
        src, out = f"set-{i}.json", f"image-{i}.json"
        return {
            "argv": ["set-transform", "--in", src, "--out", out],
            "files": {src: json.dumps(doc)},
            "outputs": [out],
            "call": {"fn": "membership", "set": src, "image": out, "xs": xs.tolist(), "us": us.tolist()},
        }

    return build


BUILDERS = {
    "grid_1d": _grid_1d,
    "grid_1d_bidual": _grid_1d_bidual,
    "grid_2d": _grid_2d,
    "grid_2d_bidual": functools.partial(_grid_2d, bidual=True),
    "residual_lib": _residual_lib,
    "rules_lib": _rules_lib,
    "solve_cli": _solve_cli,
    "solve_constrained": _solve_constrained,
    "solve_lib": _solve_lib,
    "solve_quadcap": _solve_quadcap,
    "check_cli": _check_cli,
    "grid_global": _grid_global,
    "eval_global": _eval_global,
    "set_halfspace": _set_request("halfspace"),
    "set_polyhedron": _set_request("polyhedron"),
    "set_ellipsoid": _set_request("ellipsoid"),
}


#: How many options each request type rotates through by its turn (function
#: family, catalog entry, rule kind, constraint kind, check case, set
#: dimension); types not listed have one.
ROTATIONS = {
    "grid_1d": len(FAMILIES_1D),
    "grid_1d_bidual": len(FAMILIES_1D),
    "grid_2d": len(FAMILIES_2D),
    "grid_2d_bidual": len(FAMILIES_2D),
    "residual_lib": RESIDUAL_ENTRIES,
    "rules_lib": len(RULE_KINDS),
    "solve_cli": len(SOLVE_CLI_FAMILIES),
    "solve_constrained": len(CONSTRAINT_KINDS),
    "solve_lib": len(SOLVE_LIB_ENTRIES),
    "check_cli": len(CHECK_CASES),
    "set_halfspace": len(SET_DIMS),
    "set_polyhedron": len(SET_DIMS),
    "set_ellipsoid": len(SET_DIMS),
}


def full_cycle(workload: str) -> int:
    """Length of the shortest run of whole mix cycles, from request 0, in
    which every request type meets every option it rotates through."""
    mix = MIXES[workload]
    return len(mix) * max(-(-ROTATIONS.get(kind, 1) // mix.count(kind)) for kind in mix)


def request(workload: str, seed: int, i: int) -> dict:
    """Request i of a workload's stream for the given seed."""
    mix = MIXES[workload]
    kind = mix[i % len(mix)]
    # How many times this type came up before, counted over whole cycles,
    # so rotating sub-choices (family, catalog entry, set kind) cover every
    # option.
    turn = (i // len(mix)) * mix.count(kind) + mix[: i % len(mix)].count(kind)
    w = WORKLOADS.index(workload)
    shifts = np.random.default_rng([seed, w, 0, list(BUILDERS).index(kind)]).random(len(_ALPHAS))
    rng = Draws(np.random.default_rng([seed, w, 1, i]), shifts, turn)
    req = {"workload": workload, "index": i, "type": kind}
    req.update(BUILDERS[kind](rng, turn, i))
    return req
