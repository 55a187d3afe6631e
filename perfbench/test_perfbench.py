"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

WORKLOADS = run.WORKLOADS
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def kslab_and_c():
    kslab = run._import_kslab()
    return kslab, kslab.SolverConfig(c=None).resolve_c()


def traced_counts(kslab, c, name: str, seed: int) -> dict:
    wl = Workload(kslab, name, seed, c, smoke=True)
    tracer = Tracer()
    tracer.install(kslab)
    try:
        _, _, res = tracer.run_root("op1", "op", run.timed_op, wl, wl.make_input(1))
    finally:
        tracer.uninstall()
    assert res.ok, res.reason
    assert not tracer.errors
    metrics = run.op_layer_metrics(tracer.phase_summary("op1"))
    return {k: metrics[k] for k in run.COUNT_METRICS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly_across_runs_and_seeds(kslab_and_c, name):
    kslab, c = kslab_and_c
    runs = [traced_counts(kslab, c, name, seed) for seed in (1, 2) for _ in range(2)]
    assert all(r == runs[0] for r in runs[1:]), runs
    assert runs[0]["fields.fft_calls"] > 0
    if name == "compare":
        assert runs[0]["solver.reference_micro_steps"] > 0


def test_uninstall_restores_every_binding(kslab_and_c):
    kslab, _ = kslab_and_c
    before = {(m, a): getattr(m, a) for m in (kslab, kslab.solver, kslab.duhamel, kslab.fields)
              for a in dir(m) if not a.startswith("__")}
    tracer = Tracer()
    tracer.install(kslab)
    assert kslab.solver.rfft2 is not before[(kslab.solver, "rfft2")]
    tracer.uninstall()
    after = {key: getattr(*key) for key in before}
    assert all(after[k] is before[k] for k in before)


def test_non_converging_op_raises_error_rate():
    state = run.setup("solve", 1, smoke=True, max_iter=1)
    report = run.Report()
    args = SimpleNamespace(workload="solve", seed=1, seconds=0.1, smoke=True)
    run.run_untraced(args, state, report)
    assert report.attempted >= run.MIN_OPS + 1
    assert report.failed / report.attempted > 0
    assert any("not converged" in f for f in report.failures)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_cli_prints_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"{name} {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
    assert any(line.startswith(f"{name} error_rate = 0.0 ratio") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
