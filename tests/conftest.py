"""One hypothesis profile for the whole suite: every property test is
deterministic, has no deadline and writes no example database.

When a test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` import raises a
``DeprecationWarning``; under ``filterwarnings = ["error"]`` that would
abort the run with an INTERNALERROR instead of reporting the failure.
Importing it once here, with that warning ignored, keeps the failure a
plain test failure.  The plugin itself tolerates an ``ImportError``.
"""

import contextlib
import warnings

from hypothesis import settings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
