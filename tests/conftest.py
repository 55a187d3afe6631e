"""Shared pytest set-up: a deterministic hypothesis profile for the property tests,
and a counter of the real transforms the package makes.

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


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of the ``rfft2``/``irfft2`` calls made through ``kslab.fields._sfft`` from now on."""
    import kslab.fields

    scipy_fft = kslab.fields._sfft
    calls = {"rfft2": 0, "irfft2": 0}

    def counted(name):
        def transform(*args, **kwargs):
            calls[name] += 1
            return getattr(scipy_fft, name)(*args, **kwargs)
        return transform

    monkeypatch.setattr(kslab.fields, "_sfft", types.SimpleNamespace(
        rfft2=counted("rfft2"), irfft2=counted("irfft2"), fft2=scipy_fft.fft2, ifft2=scipy_fft.ifft2))
    return calls
