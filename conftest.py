"""Ensure the src layout is importable when the package is not installed,
and register the hypothesis profiles.

``HYPOTHESIS_PROFILE`` selects a profile: ``default`` (tier-1; every
suite keeps the example count its decorator names) or ``nightly``, which
raises the churn suites built on :func:`tests.property.strategies.churn_examples`
to the profile's ``max_examples``.
"""

import os
import sys
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

settings.register_profile("default", settings.get_profile("default"))
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
