"""The benchmark's tracer still binds to the package.

``perfbench/tracing.py`` wraps kslab functions, a classmethod and two
methods by name.  Installing and uninstalling it here makes a deleted or
renamed binding fail the unit suite, not only the benchmark run.  The
tracer is loaded from its file; nothing under ``perfbench/`` is changed.
"""

import importlib.util
import sys
from pathlib import Path

import kslab
import kslab.cli  # noqa: F401  (the tracer patches every loaded kslab module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("kslab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracing().Tracer()
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
