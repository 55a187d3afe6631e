"""Shared pytest set-up: a deterministic hypothesis profile for the property tests,
counters of the real transforms the package makes, taken at the pocketfft
binding that ``kslab.fields`` calls, a fresh-interpreter runner, three
trajectory builders, a reference gradient time integral, and a config text
writer and reader.

Derandomized examples keep the suite reproducible run to run.  Without an
example database, and with hypothesis' constants cache sent to the system
temporary directory, the suite writes no ``.hypothesis/`` directory.
"""

import json
import os
import subprocess
import sys
import tempfile
import types

import pytest

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "kslab-hypothesis"))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("kslab", derandomize=True, deadline=None, database=None, max_examples=20)
    settings.load_profile("kslab")


def _route_transforms(monkeypatch, record):
    """Send every pocketfft call of ``kslab.fields`` through ``record(name, input)`` first.

    ``name`` is ``"rfft2"`` for an r2c call, ``"irfft2"`` for a c2r call and
    ``"c2c"`` for a full-layout call; ``fields.rfft2`` and ``fields.irfft2``
    make exactly one r2c or c2r call each.
    """
    import kslab.fields

    binding = kslab.fields._pocketfft

    def counted(name, transform):
        def call(a, *args, **kwargs):
            record(name, a)
            return transform(a, *args, **kwargs)
        return call

    monkeypatch.setattr(kslab.fields, "_pocketfft", types.SimpleNamespace(
        r2c=counted("rfft2", binding.r2c), c2r=counted("irfft2", binding.c2r), c2c=counted("c2c", binding.c2c)))


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of the ``rfft2``/``irfft2`` calls the package makes from now on."""
    import numpy as np

    import kslab.fields

    calls = {"rfft2": 0, "irfft2": 0}

    def record(name, a):
        calls[name] += 1

    _route_transforms(monkeypatch, record)
    # self-check: one transform pair counts as one each, so a zero count is not vacuous
    kslab.fields.irfft2(kslab.fields.rfft2(np.zeros((16, 16))), 16)
    assert calls == {"rfft2": 1, "irfft2": 1}
    calls.update(rfft2=0, irfft2=0)
    return calls


@pytest.fixture
def fft_batches(monkeypatch):
    """The leading (batch) shape of every ``rfft2``/``irfft2`` input the package passes from now on."""
    batches = {"rfft2": [], "irfft2": []}
    _route_transforms(monkeypatch, lambda name, a: batches[name].append(a.shape[:-2]))
    return batches


def zero_trajectory(grid, tgrid):
    """The zero trajectory on ``grid`` and ``tgrid``, with a zero initial datum."""
    import numpy as np

    from kslab import ScalarField, Trajectory

    return Trajectory(grid, tgrid, np.zeros((tgrid.count, grid.n, grid.n)), ScalarField.zero(grid))


def trajectory_difference(a, b):
    """``a - b`` node by node; the initial datum is the difference of both data when both carry one."""
    from kslab import ScalarField, Trajectory

    initial = None
    if a.initial is not None and b.initial is not None:
        initial = ScalarField(a.grid, a.initial.values - b.initial.values)
    return Trajectory(a.grid, a.tgrid, a.stacked - b.stacked, initial)


def rescaled_chemical(rep, w0=None):
    """Picard's w = v/(4c) of the solve report ``rep``: the node values of ``rep.w_hat``, with ``w0`` at t = 0.

    ``w0`` is the rescaled chemical datum the solve was given; tests that read only node values omit it.
    """
    from kslab import Trajectory
    from kslab.fields import irfft2

    return Trajectory(rep.u.grid, rep.u.tgrid, irfft2(rep.w_hat, rep.u.grid.n), initial=w0)


def l2t_grad(grid, times, power, initial_hat, damped, s=1.0):
    """Reference ||grad .||_{L2_t H^s}: the trapezoid of the node sums plus the closed-form [0, t_min] head.

    ``power`` is the trajectory's half-layout power spectrum.  The node sums are
    ``_parseval_sum`` with the weight |xi|^2 ``_hs_weight``, not the grid's
    Parseval planes that Picard reads; the head is ``_l2t_head`` of the initial
    datum's half spectrum under the flow ``damped`` selects, dropped without one.
    """
    from kslab.norms import _hs_weight, _l2t, _l2t_head, _parseval_sum

    nodes = _parseval_sum(grid, power, grid.k2_half * _hs_weight(grid.k2_half, s))
    return _l2t(times, nodes, _l2t_head(grid, initial_hat, times[0], damped, s))


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's kslab; its stdout's last line, as JSON."""
    import kslab

    src = os.path.dirname(os.path.dirname(os.path.abspath(kslab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def parse_config_text(text):
    """The config a config file of ``text`` gives: its lines applied over the defaults, then validated."""
    from kslab.cli import ExperimentConfig, _apply_text, validate_config

    return validate_config(_apply_text(ExperimentConfig(), text))


def config_text(cfg):
    """One ``key = value`` line per config key of ``cfg``, each value in a form its parser reads back exactly."""
    from kslab.cli import _KEY_TO_FIELD

    def text(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, tuple):
            return ",".join(map(str, value))
        return repr(value) if isinstance(value, float) else str(value)
    return "".join(f"{key} = {text(getattr(cfg, name))}\n" for key, name in _KEY_TO_FIELD.items())
