"""One hypothesis profile for the whole suite: every property test is
deterministic, has no deadline and writes no example database."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
