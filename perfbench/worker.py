"""One workload process: set up, say "ready", run the closed loop, report.

Started by run.py with the checkout's ``src`` on PYTHONPATH and the
process's own scratch directory as its working directory.  Set-up imports
radial, builds the catalog oracles and writes the first request's input
files; the line "ready" on stdout marks its end.  The result is one JSON
line.

Untraced mode runs requests back to back until ``--seconds`` have passed,
timing each from outside and checking each answer.  Trace mode replays the
workload's first ``workloads.full_cycle`` requests (whole mix cycles in
which every request type meets every option it rotates through) again and
again, each request once untraced and once with the layer wrappers
installed, so the per-layer counts of a pass are exact and repeat from pass
to pass; passes repeat until ``--seconds`` have passed.
The spans of the known-count probes and of the first pass are written to
``.perfbench_out/`` in the checkout at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import radial  # noqa: E402
import radial.calculus  # noqa: E402
import radial.catalog  # noqa: E402
import radial.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: CLI requests re-run after the loop to check that output is byte-identical.
REPEAT_CHECKS = 3

README_EVAL = ["eval", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--at", "1"]
README_EVAL_EVALUATIONS = 35
STALL_SOLVE = ["solve", "--f", "pos(1-x0^2)", "--dim", "1", "--y0", "5"]
STALL_SOLVE_ITERATIONS = 2496


class References:
    """Catalog oracles built once at set-up and shared by all requests."""

    def __init__(self):
        cat = radial.catalog
        self.entries = cat.strict_entries()
        self.solve_oracles = {("sqrt_cap", 1): cat.sqrt_cap(1), ("shifted_parabola", 1): cat.shifted_parabola(), ("sqrt_cap", 2): cat.sqrt_cap(2)}
        self.rule_operands = (cat.sqrt_cap(1), cat.constant(2.0), cat.tent())
        self._rule_primals = {}

    def rule_primal(self, kind: str, k: int):
        """Criterion 08's pointwise primal for a rule, built once."""
        if kind not in self._rule_primals:
            fs = self.rule_operands[:2] if kind in ("min", "max") else self.rule_operands
            core = radial.core

            def combine(vals):
                s = sorted(vals)
                if kind == "min":
                    return s[0]
                if kind == "max":
                    return s[-1]
                if kind == "kmin":
                    return s[k - 1]
                if kind == "kmax":
                    return s[len(s) - k]
                chunk = s[:k] if kind == "kminavg" else s[len(s) - k :]
                total = sum(v.as_float() for v in chunk)
                if total == float("inf"):
                    return core.INF
                return core.ExtPos.finite(total / k) if total > 0 else core.ZERO

            self._rule_primals[kind] = radial.oracle.FunctionOracle(
                1, lambda x: combine([g.eval(x) for g in fs]), meta=radial.oracle.DECLARED_STRICT
            )
        return self._rule_primals[kind]


# -- library calls, as a script would make them -------------------------------
#
# Functions are looked up on their modules at call time, so that the trace
# wrappers see the calls.


def _duality_residual(req, refs):
    call = req["call"]
    entry = refs.entries[call["entry"]]
    grid = entry.residual_grid[call["start"] : call["start"] + call["count"]]
    return float(radial.transform.duality_residual(entry.oracle, grid, tol=call["tol"]))


def _rule(req, refs):
    call = req["call"]
    tol = call["tol"]
    duals = [radial.transform.DualHandle(f, radial.transform.Sense.UPPER, tol=tol) for f in refs.rule_operands]
    kind = call["kind"]
    if kind == "min":
        rule = radial.calculus.rule_min(duals[0], duals[1])
    elif kind == "max":
        rule = radial.calculus.rule_max(duals[0], duals[1])
    else:
        rule = radial.calculus.rule_kth(getattr(radial.calculus.KthKind, kind.upper()), call["k"], duals, tol=tol)
    return [rule.eval(np.array([t])).to_json() for t in np.linspace(*call["grid"])]


def _solve(req, refs):
    call = req["call"]
    ds, ps = radial.optimize.solve_via_dual(refs.solve_oracles[(call["entry"], call["dim"])], np.array(call["y0"], dtype=float))
    return {"x_star": [float(v) for v in ps.x_star], "p_star": ps.p_star.to_json(), "iterations": ds.iterations, "status": ds.status}


def _membership(req, refs):
    call = req["call"]
    with open(call["set"]) as fh:
        s = radial.sets.set_from_json(json.load(fh))
    with open(call["image"]) as fh:
        t = radial.sets.set_from_json(json.load(fh))
    mismatches = 0
    for x, u in zip(req["xs"], req["us"]):
        p = radial.core.LiftedPoint(x, u)
        if radial.sets.membership(p, s) != radial.sets.membership(radial.core.gamma_point(p), t):
            mismatches += 1
    return {"mismatches": mismatches, "points": len(req["us"])}


LIB_CALLS = {"duality_residual": _duality_residual, "rule": _rule, "solve_via_dual": _solve, "membership": _membership}


def invoke(req, refs) -> dict:
    """Issue one request; everything here is inside the timed region."""
    raw = {"code": None, "stdout": "", "stderr": "", "raised": None, "values": None}
    try:
        if "argv" in req:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    raw["code"] = radial.cli.main(req["argv"])
                except SystemExit as exc:
                    raw["code"] = exc.code
            raw["stdout"], raw["stderr"] = out.getvalue(), err.getvalue()
        if "call" in req:
            raw["values"] = LIB_CALLS[req["call"]["fn"]](req, refs)
    except Exception as exc:  # a raising request is a failed request, not a crash
        raw["raised"] = f"{type(exc).__name__}: {exc}"
    return raw


def collect(req, raw) -> dict:
    files = {}
    for name in req.get("outputs", ()):
        try:
            files[name] = Path(name).read_bytes()
        except OSError:
            files[name] = b""
    raw["files"] = files
    return raw


def digest(out) -> tuple:
    return (out["code"], out["stdout"], out["stderr"], out["raised"], repr(out["values"]), tuple(sorted(out["files"].items())))


class Stream:
    """The workload's seeded requests; input files are written before a
    request is issued, outside its timing."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.written = set()

    def get(self, i: int) -> dict:
        req = workloads.request(self.workload, self.seed, i)
        if i not in self.written:
            for name, text in req.get("files", {}).items():
                Path(name).write_text(text)
            self.written.add(i)
        if "call" in req and "xs" in req["call"]:
            req["xs"] = np.asarray(req["call"]["xs"], dtype=float)
            req["us"] = [float(u) for u in req["call"]["us"]]
        return req

    def done(self, req):
        for name in req.get("outputs", ()):
            Path(name).unlink(missing_ok=True)


def run_untraced(stream: Stream, refs, seconds: float) -> dict:
    latencies, problems, failed = [], [], 0
    repeats = {}
    clock = time.perf_counter
    start = clock()
    i = 0
    while i == 0 or clock() - start < seconds:
        req = stream.get(i)
        t0 = clock()
        raw = invoke(req, refs)
        t1 = clock()
        out = collect(req, raw)
        latencies.append(t1 - t0)
        found = checks.check(radial, req, out, refs)
        if "outputs" in req and req["type"] not in repeats and len(repeats) < REPEAT_CHECKS and not found:
            repeats[req["type"]] = (i, digest(out))
        if found:
            failed += 1
            problems.append(f"request {i} ({req['type']}): {'; '.join(found)}")
        stream.done(req)
        i += 1
    wall = clock() - start
    # Repeat a few CLI requests: their files must come out byte-identical.
    for kind, (j, first) in repeats.items():
        req = stream.get(j)
        out = collect(req, invoke(req, refs))
        stream.done(req)
        if digest(out) != first:
            failed += 1
            problems.append(f"request {j} ({kind}): output differs when the request is repeated")
    return {
        "mode": "run",
        "attempted": i,
        "failed": failed,
        "problems": problems[:10],
        "latencies_s": latencies,
        "busy_s": sum(latencies),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "repeat_checked": sorted(repeats),
    }


def _traced(tracer, req, refs):
    traced_invoke = tracer.span("request", invoke)
    tracer.install()
    try:
        t0 = time.perf_counter()
        raw = traced_invoke(req, refs)
        elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return collect(req, raw), elapsed


def _probes(tracer, workload, refs) -> tuple[int, list[str]]:
    """Traced counts that must equal numbers already known exactly."""
    problems = []
    a = tracer.mark()
    out, _ = _traced(tracer, {"argv": README_EVAL}, refs)
    if f"evaluations {README_EVAL_EVALUATIONS} " not in out["stdout"]:
        problems.append(f"README eval no longer reports evaluations {README_EVAL_EVALUATIONS}: {out['stdout'].strip()!r}")
    cert = tracer.metrics(a, tracer.mark(), 0)["oracle.perspective_calls"]
    if cert != README_EVAL_EVALUATIONS:
        problems.append(f"README eval: traced {cert} perspective evaluations, expected {README_EVAL_EVALUATIONS}")
    problems += tracer.certificate_mismatches(a, tracer.mark())
    attempted = 1
    if workload == "solve":
        a = tracer.mark()
        out, _ = _traced(tracer, {"argv": STALL_SOLVE}, refs)
        reported = json.loads(out["stdout"])["iterations"] if out["code"] == 0 else None
        traced = tracer.metrics(a, tracer.mark(), 0)["optimize.iterations"]
        if not reported == traced == STALL_SOLVE_ITERATIONS:
            problems.append(f"stall solve: reported {reported} iterations, traced {traced}, expected {STALL_SOLVE_ITERATIONS}")
        attempted += 1
    return attempted, problems


def run_traced(stream: Stream, refs, seconds: float) -> dict:
    tracer = tracing.Tracer(radial)
    attempted, problems = _probes(tracer, stream.workload, refs)
    failed = len(problems)
    cycle = [stream.get(i) for i in range(workloads.full_cycle(stream.workload))]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        a, extpos = tracer.mark(), tracer.extpos_new
        plain = traced = 0.0
        for req in cycle:
            t0 = time.perf_counter()
            raw = invoke(req, refs)
            plain += time.perf_counter() - t0
            out = collect(req, raw)
            out_traced, elapsed = _traced(tracer, req, refs)
            traced += elapsed
            found = checks.check(radial, req, out, refs)
            if digest(out_traced) != digest(out):
                found.append("traced output differs from untraced output")
            attempted += 1
            if found:
                failed += 1
                problems.append(f"request {req['index']} ({req['type']}): {'; '.join(found)}")
        b = tracer.mark()
        found = tracer.certificate_mismatches(a, b)
        failed += len(found)
        problems += found
        layer = tracer.metrics(a, b, tracer.extpos_new - extpos)
        layer["trace.overhead"] = traced / plain
        passes.append(layer)
        if len(passes) > 1:
            # Later passes only re-measure and re-check the counts; keeping
            # their spans would grow memory with the run length.
            tracer.truncate(a)
    for req in cycle:
        stream.done(req)
    counts = {name: passes[0][name] for name in tracing.COUNT_METRICS + ("trace.spans",)}
    for k, layer in enumerate(passes[1:], 2):
        moved = [name for name in counts if layer[name] != counts[name]]
        if moved:
            failed += 1
            problems.append(f"pass {k}: counts differ from pass 1: {', '.join(moved)}")
    layers = {name: counts[name] if name in counts else statistics.median(p[name] for p in passes) for name, _ in tracing.LAYER_METRICS}
    spans = HERE.parent / ".perfbench_out"
    spans.mkdir(exist_ok=True)
    tracer.save(spans / f"spans-{stream.workload}-{stream.seed}.npz")
    return {"mode": "trace", "attempted": attempted, "failed": failed, "problems": problems[:10], "layers": layers, "passes": len(passes), "pass_requests": len(cycle)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if not Path(radial.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported radial from {radial.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    refs = References()
    stream = Stream(args.workload, args.seed)
    stream.get(0)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = run_traced(stream, refs, args.seconds)
    else:
        result = run_untraced(stream, refs, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
