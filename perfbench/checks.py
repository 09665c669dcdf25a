"""Correctness checks: every answer is compared with a reference.

Tolerances are the acceptance criteria's pinned output tolerances:
transform values within 1e-9 of a closed form (criterion 01), residuals and
calculus rules within 5e-10 (criteria 02 and 08), solver answers within
1e-6 through the library (criterion 10) and 1e-5 through the CLI (the
README's accuracy for difference-quotient gradients).  Each check returns a
list of problems; an empty list means the request passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import GLOBAL_EXPR

VALUE_TOL = 1e-9
RESIDUAL_BOUND = 5e-10
PRIMAL_TOL = 1e-12


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# -- reference functions ----------------------------------------------------
#
# Primal values mirror the grammar's arithmetic operation by operation
# (math.pow for "^", math.hypot for norm), so they agree with the program to
# rounding even where a square root amplifies differences near the edge of
# the domain.  Transforms come from radial.catalog's closed forms through
# the scaling rules: s*g(x/r) transforms into y -> g'(s*y/r)/s.


def _pos(v: float) -> float:
    return 0.0 if (math.isnan(v) or v <= 0.0) else v


def _sqrt(v: float) -> float:
    return math.sqrt(v) if v >= 0.0 else math.nan


def primal(fn: dict, x) -> float:
    fam = fn["family"]
    if fam == "quadcap":
        return _pos(fn["c"] - math.pow(x[0], 2))
    if fam == "quadcap2":
        return _pos(fn["c"] - math.pow(x[0], 2) - math.pow(x[1], 2))
    s, r = fn["s"], fn["r"]
    if fam == "sqrt_cap":
        return _pos(s * _sqrt(1 - math.pow(x[0] / r, 2)))
    if fam == "shifted_parabola":
        return _pos(s * (2 - math.pow(x[0] / r - 1, 2)))
    if fam == "tent":
        return _pos(s * (2 - math.fabs(x[0] / r)))
    if fam == "normcap":
        return _pos(s * (1 - math.hypot(x[0], x[1]) / r))
    if fam == "sqrtcap2":
        return _pos(s * _sqrt(1 - (math.pow(x[0], 2) + math.pow(x[1], 2)) / math.pow(r, 2)))
    raise ValueError(f"unknown family {fam}")


def upper(radial, fn: dict, y) -> float:
    cat = radial.catalog
    y = np.asarray(y, dtype=float)
    fam = fn["family"]
    if fam in ("quadcap", "quadcap2"):
        c = fn["c"]
        return (1.0 + math.sqrt(1.0 + 4.0 * c * float(y @ y))) / (2.0 * c)
    s, r = fn["s"], fn["r"]
    z = s * y / r
    if fam == "normcap":
        return (1.0 + float(np.linalg.norm(z))) / s
    closed = {
        "sqrt_cap": cat.sqrt_cap_dual,
        "sqrtcap2": cat.sqrt_cap_dual,
        "shifted_parabola": cat.shifted_parabola_dual,
        "tent": cat.tent_dual,
    }[fam]
    return closed(z).as_float() / s


# -- output parsing -----------------------------------------------------------


def _cell(token: str) -> float:
    return math.inf if token == "inf" else float(token)


def read_csv(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[_cell(t) for t in line.split(",")] for line in lines[1:]]
    return header, rows


# -- per request type ----------------------------------------------------------


def check(radial, req: dict, out: dict, refs) -> list[str]:
    if out["raised"]:
        return [f"raised {out['raised']}"]
    return CHECKS[req["type"]](radial, req, out, refs)


def _exit(out, code=0) -> list[str]:
    return [] if out["code"] == code else [f"exit code {out['code']}, expected {code}: {out['stderr'].strip()[:200]}"]


def _check_grid(radial, req, out, refs) -> list[str]:
    problems = _exit(out)
    if problems:
        return problems
    exp = req["expect"]
    fn = exp["fn"]
    header, rows = read_csv(out["files"][req["outputs"][0]].decode())
    dim = len(exp["axes"])
    want_rows = int(np.prod([n for _, _, n in exp["axes"]]))
    if len(rows) != want_rows:
        return [f"{len(rows)} rows, expected {want_rows}"]
    col = {name: k for k, name in enumerate(header)}
    for row in rows:
        x = row[:dim]
        if "f" in col and not _close(row[col["f"]], primal(fn, x), PRIMAL_TOL):
            problems.append(f"f({x}) = {row[col['f']]!r}, expected {primal(fn, x)!r}")
        want = upper(radial, fn, x)
        for name in ("upper", "lower"):
            if name in col and not _close(row[col[name]], want, VALUE_TOL):
                problems.append(f"{name}({x}) = {row[col[name]]!r}, closed form {want!r}")
        if "residual" in col and not row[col["residual"]] <= RESIDUAL_BOUND:
            problems.append(f"residual({x}) = {row[col['residual']]!r} > {RESIDUAL_BOUND:g}")
    return problems[:5]


def _check_residual_lib(radial, req, out, refs) -> list[str]:
    worst = out["values"]
    return [] if worst <= RESIDUAL_BOUND else [f"duality residual {worst!r} > {RESIDUAL_BOUND:g}"]


def _check_rules_lib(radial, req, out, refs) -> list[str]:
    # Criterion 08's reference: direct bisection on the pointwise primal.
    call = req["call"]
    direct = radial.transform.DualHandle(refs.rule_primal(call["kind"], call["k"]), radial.transform.Sense.UPPER, tol=call["tol"])
    problems = []
    for t, got in zip(np.linspace(*call["grid"]), out["values"]):
        want = direct.value(np.array([t]))
        gap = radial.transform.extpos_gap(radial.core.ExtPos.from_json(got), want)
        if not gap <= RESIDUAL_BOUND:
            problems.append(f"{call['kind']} rule at {t!r}: gap {gap!r} to direct bisection")
    return problems[:5]


def _check_solution(x_star, p_star, exp) -> list[str]:
    tol = exp["tol"]
    problems = []
    if not all(_close(got, want, tol) for got, want in zip(x_star, exp["x_star"])) or len(x_star) != len(exp["x_star"]):
        problems.append(f"x* = {x_star}, expected {exp['x_star']} within {tol:g}")
    if not isinstance(p_star, float) or not _close(p_star, exp["p_star"], tol):
        problems.append(f"p* = {p_star!r}, expected {exp['p_star']!r} within {tol:g}")
    return problems


def _check_solve_cli(radial, req, out, refs) -> list[str]:
    problems = _exit(out)
    if problems:
        return problems
    doc = json.loads(out["stdout"])
    return _check_solution(doc["x_star"], doc["p_star"], req["expect"])


def _check_solve_lib(radial, req, out, refs) -> list[str]:
    v = out["values"]
    return _check_solution(v["x_star"], v["p_star"], req["expect"])


def _check_check_cli(radial, req, out, refs) -> list[str]:
    exp = req["expect"]
    problems = _exit(out, exp["code"])
    first = out["stdout"].splitlines()[0] if out["stdout"] else ""
    if not first.startswith(exp["first_line"]):
        problems.append(f"verdict {first!r}, expected {exp['first_line']!r}")
    return problems


def _shifted_quadratic(radial, y: float) -> float:
    return radial.catalog.shifted_quadratic_upper_dual(np.array([y])).as_float()


def _check_grid_global(radial, req, out, refs) -> list[str]:
    problems = _exit(out)
    if problems:
        return problems
    header, rows = read_csv(out["files"][req["outputs"][0]].decode())
    if header != ["x0", "f", "upper"] or len(rows) != req["expect"]["axes"][0][2]:
        return [f"unexpected table shape {header} x {len(rows)}"]
    for x, f, got in rows:
        if not _close(f, math.pow(x + 1, 2) + 0.5, PRIMAL_TOL):
            problems.append(f"f({x!r}) = {f!r} for {GLOBAL_EXPR}")
        want = _shifted_quadratic(radial, x)
        if not _close(got, want, VALUE_TOL):
            problems.append(f"global upper({x!r}) = {got!r}, closed form {want!r}")
    return problems[:5]


def _check_eval_global(radial, req, out, refs) -> list[str]:
    problems = _exit(out)
    if problems:
        return problems
    lines = out["stdout"].splitlines()
    got = float(lines[0].split("±")[0])
    want = _shifted_quadratic(radial, req["expect"]["y"])
    if not _close(got, want, VALUE_TOL):
        problems.append(f"global upper({req['expect']['y']!r}) = {got!r}, closed form {want!r}")
    if len(lines) < 2 or "mode global" not in lines[1]:
        problems.append("certificate line missing")
    return problems


def _check_set(radial, req, out, refs) -> list[str]:
    problems = _exit(out)
    mismatches = out["values"]["mismatches"]
    if mismatches != 0:
        problems.append(f"{mismatches} membership mismatches between the set and its transform")
    return problems


CHECKS = {
    "grid_1d": _check_grid,
    "grid_1d_bidual": _check_grid,
    "grid_2d": _check_grid,
    "grid_2d_bidual": _check_grid,
    "residual_lib": _check_residual_lib,
    "rules_lib": _check_rules_lib,
    "solve_cli": _check_solve_cli,
    "solve_constrained": _check_solve_cli,
    "solve_quadcap": _check_solve_cli,
    "solve_lib": _check_solve_lib,
    "check_cli": _check_check_cli,
    "grid_global": _check_grid_global,
    "eval_global": _check_eval_global,
    "set_halfspace": _check_set,
    "set_polyhedron": _check_set,
    "set_ellipsoid": _check_set,
}
