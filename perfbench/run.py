"""Benchmark of the radial library and CLI.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload solve --seed 1 --dump 12
    python3 perfbench/run.py                      # every workload, both modes

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each workload is a closed loop with one client (see
workloads.py for the mixes).  ``--trace 0`` measures the end-to-end metrics
with nothing installed; ``--trace 1`` is the separate traced run that
reports per-layer counts and self times and the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The failure rate is failed / attempted there and is printed beside the
metrics; it is not a metric itself because it is zero on a correct program.

setup_s is timed from this process: from spawning a workload process until
it reports its first request ready (interpreter start, ``import radial``,
catalog oracles, first input files).  Several processes are set up per run
and the median is reported.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Workload processes set up per untraced run; setup_s is their median.
SETUPS = 5
#: Untraced runs per workload, on consecutive seeds, when every workload is run.
SUMMARY_RUNS = 3
#: Latency samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Seconds a workload process may run beyond --seconds before it is killed.
GRACE_S = 120.0

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _spawn(workload: str, seed: int, seconds: float, trace: int, workdir: Path, setup_only: bool):
    """Start a workload process; return (set-up seconds, parsed result or None)."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=seconds + GRACE_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    scratch = ROOT / ".perfbench_work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    try:
        setups = [_spawn(workload, seed, seconds, trace, scratch / f"setup-{k}", True)[0] for k in range(0 if trace else SETUPS - 1)]
        setup, result = _spawn(workload, seed, seconds, trace, scratch / "run", False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(setup)
    report = {"workload": workload, "seed": seed, "trace": trace, "result": result}
    if trace:
        report["metrics"] = {name: {"value": result["layers"][name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
        return report
    lat = [1000.0 * s for s in result.pop("latencies_s")]
    tail_ms, tail_pct = tail(lat)
    q1, _, q3 = statistics.quantiles(lat, n=4) if len(lat) > 1 else (lat[0],) * 3
    values = {
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "ops_per_s": len(lat) / result["busy_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    report["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report["detail"] = {
        "latency_q1_ms": q1,
        "latency_q3_ms": q3,
        "latency_tail_percentile": tail_pct,
        "latency_tail_beyond": min(TAIL_BEYOND, len(lat) - 1),
        "samples": len(lat),
        "fail_rate": result["failed"] / result["attempted"],
        "setup_runs_s": setups,
        "busy_s": result["busy_s"],
        "wall_s": result["wall_s"],
    }
    return report


def context() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": _commit(),
        "src_radial_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "radial").glob("*.py"))),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _print_report(report: dict, ctx: dict):
    result = report["result"]
    mode = "traced" if report["trace"] else "untraced"
    print(f"# {report['workload']} seed {report['seed']} ({mode}): {workloads.why(report['workload'])}")
    for name, m in report["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for name, value in report.get("detail", {}).items():
        print(f"  {name:32s} {value}")
    print(f"  fail_rate {result['failed']}/{result['attempted']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print("# context " + json.dumps(ctx, sort_keys=True))


def _final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def summary(seed: int, seconds: float) -> int:
    """Every workload: SUMMARY_RUNS untraced runs (median and quartiles of
    each metric) and one traced run (per-layer table and tracing overhead)."""
    ctx = context()
    print("# context " + json.dumps(ctx, sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for workload in workloads.WORKLOADS:
        reports = [run_one(workload, seed + k, seconds, 0) for k in range(SUMMARY_RUNS)]
        traced = run_one(workload, seed, seconds, 1)
        print(f"# {workload}: {workloads.why(workload)}; {SUMMARY_RUNS} untraced runs, seeds {seed}..{seed + SUMMARY_RUNS - 1}")
        for name, unit in END_TO_END:
            vals = [r["metrics"][name]["value"] for r in reports]
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            print(f"{workload:6s} {name:18s} median {statistics.median(vals):12.6g} {unit:5s} quartiles [{q[0]:.6g}, {q[2]:.6g}]")
            metrics[f"{workload}.{name}"] = {"value": statistics.median(vals), "unit": unit}
        tails = ", ".join(f"p{r['detail']['latency_tail_percentile']:.1f} of {r['detail']['samples']}" for r in reports)
        print(f"{workload:6s} latency_tail_ms at {tails} samples ({TAIL_BEYOND} beyond)")
        fails = sum(r["result"]["failed"] for r in reports + [traced])
        tries = sum(r["result"]["attempted"] for r in reports + [traced])
        print(f"{workload:6s} fail_rate          {fails}/{tries}")
        for name, m in traced["metrics"].items():
            print(f"{workload:6s} {name:34s} {m['value']:>14.6g} {m['unit']}")
        for problem in [p for r in reports + [traced] for p in r["result"]["problems"]]:
            print(f"{workload:6s} FAILED {problem}")
        attempted += tries
        failed += fails
    print(_final_line(failed == 0, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the radial library and CLI.")
    p.add_argument("--workload", default="all", help="grid, solve, scan, sets, or all (default)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dump", type=int, default=0, metavar="N", help="print the first N generated requests and exit")
    args = p.parse_args(argv)
    if not (SRC / "radial" / "__init__.py").is_file():
        return _fail(f"no radial sources at {SRC}; run inside a checkout of the repository")
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}")
    if not args.seconds > 0:
        return _fail("--seconds must be positive")
    if args.dump:
        for name in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
            for i in range(args.dump):
                print(json.dumps(workloads.request(name, args.seed, i)))
        return 0
    # The build: byte-compile the sources once, before anything is timed.
    if not compileall.compile_dir(str(SRC / "radial"), quiet=1) or not compileall.compile_dir(str(HERE), quiet=1):
        return _fail("byte-compiling the sources failed")
    if args.workload == "all":
        return summary(args.seed, args.seconds)
    report = run_one(args.workload, args.seed, args.seconds, args.trace)
    _print_report(report, context())
    result = report["result"]
    print(_final_line(result["failed"] == 0, result["attempted"], result["failed"], report["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
