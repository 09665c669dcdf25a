"""Command-line front end.

Subcommands: eval, grid, set-transform, check, solve.  Data goes to
stdout (or the requested output file); diagnostics go to stderr.  The
RADIAL_TOL environment variable overrides the default bisection
tolerance; an explicit --tol flag overrides both.

Exit codes:
  0  success (check: sampled radial)
  1  runtime failure, including an unwritable output file (check: not radial)
  2  expression/usage/schema error: parse errors, a negative or nan
     expression value, a count below 1, an unreadable input file, a JSON
     document that breaks its schema (constraint dimensions must match
     --dim; a ball's "dim" defaults to it)
  3  eval/grid: non-monotone perspective (retry with --global);
     solve: objective not ray-monotone
  4  check: inconclusive sample
  5  solve: iteration budget exhausted (partial result still printed)

Expression errors exit 2 in every subcommand.  Handlers raise; main maps
every exception through _EXIT_CODES and prints one "error:" line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# gamma_point is not called here since grid lifts whole columns, but the name
# stays importable from this module: perfbench/tracing.py binds cli.gamma_point.
from .core import ExtPos, gamma_point, gamma_point_many  # noqa: F401
from .errors import (
    ExpressionRangeError,
    NonMonotonePerspectiveError,
    OriginNotInSetError,
    ParseError,
    RadialError,
    RadialityRequiredError,
    SchemaError,
)
from .grammar import parse_function
from .sets import SCHEMA_VERSION, constraint_from_json, set_from_json, set_to_json, transform_set
from .optimize import SolveParams, solve_via_dual
from .transform import DEFAULT_TOL, DualHandle, Sense, Verdict, check_radial, extpos_gap_many

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_NONMONOTONE = 3
EXIT_RADIALITY = 3
EXIT_INCONCLUSIVE = 4
EXIT_BUDGET = 5


class _UsageError(RadialError):
    """Arguments argparse accepted that the subcommand cannot use."""


#: Exception -> (exit code, hint), first match wins.  Every failure of a
#: subcommand is mapped here, in main; handlers do not catch.
_EXIT_CODES = (
    (NonMonotonePerspectiveError, EXIT_NONMONOTONE, "retry with --global"),
    (RadialityRequiredError, EXIT_RADIALITY, None),
    ((ParseError, _UsageError, SchemaError, ExpressionRangeError, OriginNotInSetError), EXIT_PARSE, None),
    ((RadialError, ValueError, OSError), EXIT_FAILURE, None),
)

_EMIT_TOKENS = ("primal", "dual", "lower", "bidual", "residual", "gamma")


def _fmt(x: float) -> str:
    """17 significant digits: round-trip safe for doubles."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _tag_token(v: float) -> str:
    """An extended positive value as a cell: the tags print as 0 and inf."""
    return "0" if v == 0.0 else _fmt(v)


def _finite(text: str, what: str) -> float:
    """A float that is neither inf nor nan."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{what}: expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{what}: expected a finite number, got {text!r}")
    return value


def _vector(text: str) -> np.ndarray:
    return np.array([_finite(t, "vector coordinate") for t in text.split(",")], dtype=float)


def _count(text: str, least: int = 1) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _positive(what: str):
    """An argparse type: a positive finite number, named what in errors."""

    def parse(text: str) -> float:
        try:
            value = float(text)
            if 0 < value < math.inf:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{what} must be a positive finite number, got {text!r}")

    return parse


def _interval(lo_text: str, hi_text: str, what: str) -> tuple[float, float]:
    """Finite bounds lo < hi whose width is finite too."""
    lo, hi = _finite(lo_text, what), _finite(hi_text, what)
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"{what} requires lo < hi")
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(f"{what} is too wide: hi - lo overflows")
    return lo, hi


def _axis(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"axis spec must be lo:hi:count, got {text!r}")
    count = int(parts[2])
    if count < 2:
        raise argparse.ArgumentTypeError("axis count must be >= 2")
    return (*_interval(parts[0], parts[1], "axis"), count)


def _check_point(flag: str, point: np.ndarray, dim: int) -> None:
    if point.shape[0] != dim:
        raise _UsageError(f"{flag} has {point.shape[0]} coordinates, expected {dim}")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _cmd_eval(args) -> int:
    oracle = parse_function(args.f, args.dim)
    _check_point("--at", args.at, args.dim)
    sense = Sense.UPPER if args.sense == "upper" else Sense.LOWER
    handle = DualHandle(oracle, sense, tol=args.tol, global_scan=args.global_scan)
    value, cert = handle.value_with_certificate(args.at)
    if value.is_finite:
        print(f"{value.value:.10f} ± {args.tol:g}")
    else:
        print(_tag_token(value.as_float()))
    print(
        f"bracket [{_fmt(cert.v_lo)}, {_fmt(cert.v_hi)}] "
        f"perspective [{_fmt(cert.p_lo)}, {_fmt(cert.p_hi)}] "
        f"evaluations {cert.evaluations} mode {cert.mode}"
    )
    return EXIT_OK


def _grid_points(axes):
    grids = [np.linspace(lo, hi, count) for lo, hi, count in axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _cmd_grid(args) -> int:
    oracle = parse_function(args.f, args.dim)
    if args.dim > 2:
        raise _UsageError("grid emission supports dim 1 or 2")
    if len(args.grid) != args.dim:
        raise _UsageError(f"--grid has {len(args.grid)} axes, expected {args.dim}")
    emit = [t.strip() for t in args.emit.split(",") if t.strip()]
    for t in emit:
        if t not in _EMIT_TOKENS:
            raise _UsageError(f"unknown emit token {t!r} (choose from {', '.join(_EMIT_TOKENS)})")

    tol = args.tol
    upper = DualHandle(oracle, Sense.UPPER, tol=tol, global_scan=args.global_scan)
    lower = DualHandle(oracle, Sense.LOWER, tol=tol, global_scan=args.global_scan)
    bidual = DualHandle(upper, Sense.UPPER, tol=tol)

    # Whole columns, each one batch.  A tagged column holds extended
    # positive values (0 and inf are tags); the others print plain floats.
    points = _grid_points(args.grid)
    columns = [(f"x{i}", False, points[:, i]) for i in range(args.dim)]
    fx = oracle.eval_many(points)
    if "primal" in emit:
        columns.append(("f", True, fx))
    if "dual" in emit:
        columns.append(("upper", True, upper.values(points)))
    if "lower" in emit:
        columns.append(("lower", True, lower.values(points)))
    if "bidual" in emit or "residual" in emit:
        bi = bidual.values(points)
    if "bidual" in emit:
        columns.append(("bidual", True, bi))
    if "residual" in emit:
        columns.append(("residual", False, extpos_gap_many(fx, bi)))
    if "gamma" in emit:
        image = np.full((points.shape[0], args.dim + 1), math.nan)
        lifted = (0.0 < fx) & (fx < math.inf)
        image[lifted, :-1], image[lifted, -1] = gamma_point_many(points[lifted], fx[lifted])
        columns.extend((f"gamma_y{i}", False, image[:, i]) for i in range(args.dim))
        columns.append(("gamma_v", False, image[:, -1]))

    names = [name for name, _, _ in columns]
    tagged = [is_tagged for _, is_tagged, _ in columns]
    rows = list(zip(*(values.tolist() for _, _, values in columns)))
    if args.format == "csv":
        lines = [",".join(names)]
        lines.extend(",".join(_tag_token(v) if t else _fmt(v) for t, v in zip(tagged, row)) for row in rows)
        payload = "\n".join(lines) + "\n"
    else:
        doc = {
            "schema": SCHEMA_VERSION,
            "columns": names,
            "rows": [[ExtPos.from_float(v).to_json() if t else v for t, v in zip(tagged, row)] for row in rows],
        }
        payload = json.dumps(doc, sort_keys=True) + "\n"
    with open(args.out, "w") as fh:
        fh.write(payload)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_set_transform(args) -> int:
    transformed = transform_set(set_from_json(_load_json(args.infile)))
    with open(args.out, "w") as fh:
        fh.write(json.dumps(set_to_json(transformed), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    oracle = parse_function(args.f, args.dim)
    lo, hi = args.box
    report = check_radial(oracle, args.rays, args.points, box=(lo, hi), seed=args.seed)
    if report.verdict is Verdict.RADIAL:
        print("strictly radial (sampled)" if report.strict else "radial (sampled; not strict)")
        code = EXIT_OK
    elif report.verdict is Verdict.NOT_RADIAL:
        print(f"not radial: {report.witness_count} witness(es)")
        code = EXIT_FAILURE
    else:
        print("inconclusive: no informative samples")
        code = EXIT_INCONCLUSIVE
    for w in report.witnesses:
        ys = ",".join(_fmt(c) for c in w.y)
        print(
            f"witness: y=({ys}) v={_fmt(w.v_lo)} v'={_fmt(w.v_hi)} "
            f"perspective {_fmt(w.p_lo)} -> {_fmt(w.p_hi)}"
        )
    print(f"checked {report.checked_rays} rays x {report.checked_points_per_ray} points", file=sys.stderr)
    return code


def _cmd_solve(args) -> int:
    oracle = parse_function(args.f, args.dim)
    _check_point("--y0", args.y0, args.dim)
    constraint = constraint_from_json(_load_json(args.constraint), args.dim) if args.constraint else None
    params = SolveParams(budget=args.budget, tol_grad=args.tol_grad, tol=args.tol)
    dual_solution, primal_solution = solve_via_dual(oracle, args.y0, params, constraint)
    doc = {
        "schema": SCHEMA_VERSION,
        "y_star": [float(v) for v in dual_solution.y_star],
        "d_star": dual_solution.d_star.to_json(),
        "x_star": [float(v) for v in primal_solution.x_star],
        "p_star": primal_solution.p_star.to_json(),
        "iterations": dual_solution.iterations,
        "grad_norm": dual_solution.grad_norm,
        "status": dual_solution.status,
        "converged": dual_solution.converged,
    }
    print(json.dumps(doc, sort_keys=True))
    if dual_solution.status == "budget":
        print("warning: iteration budget exhausted; best iterate returned", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _box_arg(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("box must be lo:hi")
    return _interval(parts[0], parts[1], "box")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radial",
        description="Evaluate projective transforms of functions and sets.",
    )
    parser.add_argument(
        "--tol",
        type=_positive("tolerance (--tol or RADIAL_TOL)"),
        # A string default goes through the type too, so a bad RADIAL_TOL
        # is a usage error like a bad --tol.
        default=os.environ.get("RADIAL_TOL") or DEFAULT_TOL,
        help="bisection tolerance (default: RADIAL_TOL env or 1e-10)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the upper/lower transform at a point")
    p_eval.set_defaults(run=_cmd_eval)
    p_eval.add_argument("--f", required=True, help="expression, e.g. 'pos(sqrt(1 - x0^2))'")
    p_eval.add_argument("--dim", type=_count, required=True)
    p_eval.add_argument("--sense", choices=("upper", "lower"), default="upper")
    p_eval.add_argument("--at", type=_vector, required=True, help="comma-separated coordinates")
    p_eval.add_argument("--global", dest="global_scan", action="store_true", help="scan a fixed height grid instead of assuming ray monotonicity")

    p_grid = sub.add_parser("grid", help="emit transform values over a grid")
    p_grid.set_defaults(run=_cmd_grid)
    p_grid.add_argument("--f", required=True)
    p_grid.add_argument("--dim", type=_count, required=True)
    p_grid.add_argument("--grid", type=lambda s: [_axis(a) for a in s.split(",")], required=True, help="lo:hi:count per axis, comma separated")
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--emit", default="primal,dual,lower,bidual,residual", help=f"columns: {', '.join(_EMIT_TOKENS)}")
    p_grid.add_argument("--format", choices=("csv", "json"), default="csv")
    p_grid.add_argument("--global", dest="global_scan", action="store_true")

    p_set = sub.add_parser("set-transform", help="transform a halfspace/ellipsoid/polyhedron JSON document")
    p_set.set_defaults(run=_cmd_set_transform)
    p_set.add_argument("--in", dest="infile", required=True)
    p_set.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="sample-based radiality check")
    p_check.set_defaults(run=_cmd_check)
    p_check.add_argument("--f", required=True)
    p_check.add_argument("--dim", type=_count, required=True)
    p_check.add_argument("--rays", type=_count, default=64)
    p_check.add_argument("--points", type=_count, default=64)
    p_check.add_argument("--box", type=_box_arg, default=(-3.0, 3.0))
    p_check.add_argument("--seed", type=lambda text: _count(text, least=0), default=0)

    p_solve = sub.add_parser("solve", help="maximize f by minimizing its transform")
    p_solve.set_defaults(run=_cmd_solve)
    p_solve.add_argument("--f", required=True)
    p_solve.add_argument("--dim", type=_count, required=True)
    p_solve.add_argument("--y0", type=_vector, required=True)
    p_solve.add_argument("--constraint", default=None, help="JSON file: ball/box/halfspace in decision space")
    p_solve.add_argument("--budget", type=_count, default=10_000)
    p_solve.add_argument("--tol-grad", dest="tol_grad", type=_positive("gradient tolerance"), default=1e-8)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        for kinds, code, hint in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                if hint:
                    print(f"hint: {hint}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
