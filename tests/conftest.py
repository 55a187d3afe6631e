"""Shared pytest set-up: a deterministic hypothesis profile for the property tests,
and counters of the real transforms the package makes, taken at the pocketfft
binding that ``kslab.fields`` calls.

Derandomized examples keep the suite reproducible run to run.  Without an
example database, and with hypothesis' constants cache sent to the system
temporary directory, the suite writes no ``.hypothesis/`` directory.
"""

import os
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

    ``name`` is ``"rfft2"`` for an r2c call and ``"irfft2"`` for a c2r call;
    ``fields.rfft2`` and ``fields.irfft2`` make exactly one such call each.
    """
    import kslab.fields

    binding = kslab.fields._pocketfft

    def counted(name, transform):
        def call(a, *args, **kwargs):
            record(name, a)
            return transform(a, *args, **kwargs)
        return call

    monkeypatch.setattr(kslab.fields, "_pocketfft", types.SimpleNamespace(
        r2c=counted("rfft2", binding.r2c), c2r=counted("irfft2", binding.c2r)))


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
