#!/usr/bin/env python3
"""Benchmark for kslab: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``baseline.json`` for why each exists):
``solve`` (Theorem-1 Picard solve, n=128), ``compare`` (H1-mode Picard solve
cross-checked by the time-stepping oracle, n=64) and ``lab`` (the bilinear,
maximal-regularity and multiplier verifiers at the base lab setup).

Load model: a closed loop with one client in one process; ``KS_THREADS=1`` is
set here before kslab is imported.  Each run is a fresh interpreter.  One
warm-up operation runs first and is kept out of the timings.

``--trace 0`` reports ``op_s``, ``op_cpu_s``, ``setup_s`` and ``peak_rss_mb``.
``setup_s`` is the median of three set-ups, each in a fresh interpreter and
each timed from ``import kslab`` until the inputs are ready (this includes
resolving ``c`` through ``default_constants``).  ``--trace 1`` wraps each
layer's public functions (``tracing.py``), runs untraced and traced operations
in pairs on the same inputs, checks that tracing leaves every science output
bit-identical, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
repeat every metric with its unit, the error rate and the environment.  A
record of the run (and in traced runs, every span) goes to
``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
MIN_OPS = 2
MIN_TRACED_PAIRS = 1
PROBE_TIMEOUT_S = 150
MAX_UNCOVERED_FRAC = 0.5  # layer spans must account for most of each traced operation

WORKLOADS = ("solve", "compare", "lab")


def _import_kslab():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kslab

    if SRC.resolve() not in Path(kslab.__file__).resolve().parents:
        raise ImportError(f"kslab was imported from {kslab.__file__}, not from {SRC}")
    return kslab


def reference_c() -> float:
    with open(HERE / "baseline.json", encoding="utf-8") as fh:
        return float(json.load(fh)["c_reference"])


def setup(name: str, seed: int, smoke: bool = False, max_iter: int | None = None, tracer=None):
    """Import kslab, resolve ``c`` and prepare the inputs; returns the timed result.

    With a tracer, it is installed right after the import and the rest of the
    set-up runs as the traced "setup" phase.
    """
    t0 = time.perf_counter()
    kslab = _import_kslab()
    from workloads import C_RELATIVE_TOLERANCE, Workload

    def body():
        c = kslab.SolverConfig(c=None).resolve_c()
        wl = Workload(kslab, name, seed, c, smoke=smoke, max_iter=max_iter)
        return c, wl, wl.make_input(0)

    if tracer is not None:
        tracer.install(kslab)
        c, wl, first = tracer.run_root("setup", "setup", body)
    else:
        c, wl, first = body()
    seconds = time.perf_counter() - t0
    c_ref = reference_c()
    c_ok = abs(c - c_ref) <= C_RELATIVE_TOLERANCE * abs(c_ref)
    return {"seconds": seconds, "kslab": kslab, "workload": wl, "first_input": first,
            "c": c, "c_ok": c_ok}


def setup_probe(args) -> dict:
    """One set-up in a fresh interpreter, for the median of ``setup_s``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "set-up probe timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}"}
    out = json.loads(lines[-1])
    return {"ok": bool(out["c_ok"]), "seconds": float(out["setup_s"]),
            "error": None if out["c_ok"] else f"resolved c {out['c']!r} differs from the reference"}


def timed_op(wl, inputs):
    """Run one operation; an exception is a failed operation, not the end of the run."""
    from workloads import OpResult

    w0, c0 = time.perf_counter(), time.process_time()
    try:
        res = wl.run(inputs)
    except Exception as exc:  # the run goes on; the failure counts toward error_rate
        traceback.print_exc(file=sys.stderr)
        res = OpResult(False, f"{type(exc).__name__}: {exc}", "")
    return time.perf_counter() - w0, time.process_time() - c0, res


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def environment(state) -> dict:
    import numpy
    import scipy

    files = sorted((SRC / "kslab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "load_model": "closed loop, 1 client, 1 process",
        "nproc": len(os.sched_getaffinity(0)),
        "KS_THREADS": os.environ.get("KS_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "llc_bytes": _getconf("LEVEL3_CACHE_SIZE") or _getconf("LEVEL2_CACHE_SIZE"),
        "working_set_bytes": state["workload"].working_set(),
        "c": state["c"],
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Counts that must repeat exactly between operations, seeds and runs.
COUNT_METRICS = (
    "fields.fft_calls", "fields.c2c_planes", "fields.r2c_planes", "fields.fft_bytes_computed",
    "trajectories.from_values_calls", "trajectories.node_fields", "semigroup.free_flow_calls",
    "duhamel.bilinear_B_calls", "duhamel.linear_L_calls", "duhamel.etd_convolve_calls",
    "duhamel.maximal_reg_T_calls", "norms.xy_thm1_calls", "norms.xy_thm2_calls",
    "solver.picard_iterations", "solver.reference_micro_steps",
)


def op_layer_metrics(summary: dict) -> dict:
    """Per-layer numbers of one traced operation (self times unless a total is named)."""
    tot, slf, calls, cnt = summary["total"], summary["self"], summary["calls"], summary["counts"]

    def layer_self(prefix: str) -> float:
        return float(sum(v for k, v in slf.items() if k.startswith(prefix)))

    out = {
        "fields.fft_s": slf["fields.fft"],
        "fields.fft_calls": calls["fields.fft"],
        "fields.c2c_planes": cnt["c2c_planes"],
        "fields.r2c_planes": cnt["r2c_planes"],
        "fields.fft_bytes_computed": cnt["fft_bytes"],
        "trajectories.from_values_s": slf["trajectories.from_values"],
        "trajectories.from_values_calls": calls["trajectories.from_values"],
        "trajectories.node_fields": cnt["scalar_fields"],
        "semigroup.free_flow_s": slf["semigroup.free_flow"],
        "semigroup.free_flow_calls": calls["semigroup.free_flow"],
        "duhamel.self_s": layer_self("duhamel."),
        "norms.self_s": layer_self("norms."),
        "norms.xy_thm1_s": slf["norms.xy_thm1"],
        "norms.xy_thm1_calls": calls["norms.xy_thm1"],
        "norms.xy_thm2_s": slf["norms.xy_thm2"],
        "norms.xy_thm2_calls": calls["norms.xy_thm2"],
        "solver.picard_s": tot["solver.picard"],
        "solver.picard_self_s": slf["solver.picard"],
        "solver.picard_iterations": cnt["picard_iterations"],
        "solver.verdict_s": slf["solver.verdict"],
        "solver.reference_s": tot["solver.reference"],
        "solver.reference_micro_steps": cnt["reference_micro_steps"],
        "inequality_lab.verify_bilinear_s": slf["inequality_lab.verify_bilinear"],
        "inequality_lab.verify_maxreg_s": slf["inequality_lab.verify_maxreg"],
        "inequality_lab.verify_multiplier_s": slf["inequality_lab.verify_multiplier"],
        "trace.uncovered_frac": slf["op"] / tot["op"],
    }
    for op in ("bilinear_B", "linear_L", "etd_convolve", "maximal_reg_T"):
        out[f"duhamel.{op}_s"] = tot[f"duhamel.{op}"]
        out[f"duhamel.{op}_calls"] = calls[f"duhamel.{op}"]
    return {k: (int(v) if k in COUNT_METRICS else float(v)) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_untraced(args, state, report) -> dict:
    samples = [state["seconds"]]
    for _ in range(SETUP_SAMPLES - 1):
        probe = setup_probe(args)
        report.attempt(probe["ok"], probe["error"])
        if "seconds" in probe:
            samples.append(probe["seconds"])

    wl = state["workload"]
    _, _, warm = timed_op(wl, state["first_input"])
    report.attempt(warm.ok, warm.reason)
    walls: list[float] = []
    cpus: list[float] = []
    start = time.perf_counter()
    i = 1
    while True:
        wall, cpu, res = timed_op(wl, wl.make_input(i))
        i += 1
        report.attempt(res.ok, res.reason)
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_OPS and elapsed + statistics.median(walls) > args.seconds:
            break

    q1, med, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    report.notes["op_s_samples"] = {"count": len(walls), "q1": q1, "median": med, "q3": q3,
                                    "values": walls}
    report.notes["op_cpu_s_values"] = cpus
    report.notes["setup_s_values"] = samples
    return {
        "op_s": med,
        "op_cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_traced(args, state, tracer, report) -> dict:
    tracer.uninstall()
    wl = state["workload"]
    _, _, warm = timed_op(wl, state["first_input"])
    report.attempt(warm.ok, warm.reason)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_op: list[dict] = []
    oracle: list[float] = []
    start = time.perf_counter()
    i = 1
    while True:
        inputs = wl.make_input(i)
        wall, _, plain = timed_op(wl, inputs)
        report.attempt(plain.ok, plain.reason)
        tracer.install(state["kslab"])
        try:
            t_wall, _, traced = tracer.run_root(f"op{i}", "op", timed_op, wl, inputs)
        finally:
            tracer.uninstall()
        report.attempt(traced.ok, traced.reason)
        if plain.digest != traced.digest:
            tracer.errors.append(f"operation {i}: traced outputs differ from untraced outputs")
        plain_walls.append(wall)
        traced_walls.append(t_wall)
        per_op.append(op_layer_metrics(tracer.phase_summary(f"op{i}")))
        if traced.oracle_max_rel_diff is not None:
            oracle.append(traced.oracle_max_rel_diff)
        i += 1
        elapsed = time.perf_counter() - start
        if (len(per_op) >= MIN_TRACED_PAIRS
                and elapsed + statistics.median(plain_walls) + statistics.median(traced_walls) > args.seconds):
            break

    metrics = {}
    for key in per_op[0]:
        values = [m[key] for m in per_op]
        if key in COUNT_METRICS:
            if len(set(values)) != 1:
                tracer.errors.append(f"{key} differs between operations: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    setup_summary = tracer.phase_summary("setup")
    metrics["inequality_lab.estimate_constants_s"] = float(
        setup_summary["total"]["inequality_lab.estimate_constants"])
    metrics["solver.oracle_max_rel_diff"] = statistics.median(oracle) if oracle else 0.0
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    if not metrics["trace.uncovered_frac"] < MAX_UNCOVERED_FRAC:
        tracer.errors.append(f"layer spans cover only {1 - metrics['trace.uncovered_frac']:.0%} of an operation")
    report.notes["op_s_untraced_values"] = plain_walls
    report.notes["op_s_traced_values"] = traced_walls
    report.notes["uncovered_frac_per_op"] = [m["trace.uncovered_frac"] for m in per_op]
    report.notes["trace_errors"] = tracer.errors
    return metrics


class Report:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: dict = {}

    def attempt(self, ok: bool, reason: str | None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(reason or "failed")
            print(f"FAILED: {reason}", file=sys.stderr)


def load_metric_units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny problem sizes, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["KS_THREADS"] = "1"
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        state = setup(args.workload, args.seed, smoke=args.smoke, tracer=tracer)
    except ImportError as exc:
        print(f"cannot import kslab from {SRC}: {exc}", file=sys.stderr)
        return 1
    if args.setup_probe:
        print(json.dumps({"setup_s": state["seconds"], "c_ok": state["c_ok"], "c": state["c"]}))
        return 0

    units = load_metric_units(bool(args.trace))
    report = Report()
    report.attempt(state["c_ok"], f"resolved c {state['c']!r} differs from the reference {reference_c()!r}")
    if args.trace:
        metrics = run_traced(args, state, tracer, report)
    else:
        metrics = run_untraced(args, state, report)
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")

    env = environment(state)
    trace_ok = tracer is None or not tracer.errors
    result = {
        "correct": report.failed == 0 and trace_ok,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "failures": report.failures, "notes": report.notes, "result": result}
    if tracer is not None:
        record["spans"] = tracer.spans
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]!r} {units[name]}")
    print(f"{args.workload} error_rate = {report.failed / report.attempted!r} ratio "
          f"({report.failed} of {report.attempted} operations failed their gate)")
    if not args.trace:
        s = report.notes["op_s_samples"]
        print(f"{args.workload} op_s samples = {s['count']}, q1 = {s['q1']!r} s, q3 = {s['q3']!r} s")
    else:
        for err in tracer.errors:
            print(f"TRACE ERROR: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
