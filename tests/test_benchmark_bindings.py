"""The benchmark's tracer and workloads still bind to the package.

``perfbench/tracing.py`` wraps kslab functions, a classmethod and two
methods by name, and ``perfbench/workloads.py`` builds its configs and lab
set-ups by keyword and runs the solver, the oracle and the lab.  Installing
the tracer and running one smoke-size operation of each workload here makes
a deleted or renamed binding fail the unit suite, not only the benchmark
run.  Both are loaded from their files; nothing under ``perfbench/`` is
changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import kslab
import kslab.cli  # noqa: F401  (the tracer patches every loaded kslab module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"kslab_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["solve", "compare", "lab"])
def test_each_workload_runs_one_smoke_operation(name):
    workload = _load("workloads").Workload(kslab, name, seed=1, c=kslab.SolverConfig().resolve_c(), smoke=True)
    result = workload.run(workload.make_input(0))
    assert result.ok, result.reason


def test_tracer_installs_and_uninstalls():
    tracer = _load("tracing").Tracer()
    targets = tracer._targets(kslab)
    try:
        tracer.install(kslab)
        patches = list(tracer._patches)
        patched = {(owner, attr) for owner, attr, _ in patches}
        # every traced function is wrapped at least where it is defined
        for fn in targets:
            assert (sys.modules[fn.__module__], fn.__name__) in patched, fn.__qualname__
        assert (kslab.trajectories.Trajectory, "from_values") in patched
        assert (kslab.solver.SolverConfig, "resolve_c") in patched
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patches)
