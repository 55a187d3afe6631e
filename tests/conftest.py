"""Shared pytest set-up: a deterministic hypothesis profile for the property tests.

Derandomized examples keep the suite reproducible run to run.  Without an
example database, and with hypothesis' constants cache sent to the system
temporary directory, the suite writes no ``.hypothesis/`` directory.
"""

import os
import tempfile

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "kslab-hypothesis"))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("kslab", derandomize=True, deadline=None, database=None, max_examples=20)
    settings.load_profile("kslab")
