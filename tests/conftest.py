"""Shared test configuration.

Property tests run under a fixed hypothesis profile: draws are derandomized
(the same examples on every run), the example count is capped so the suite
stays bounded, and no example database is written.
"""

from hypothesis import settings

settings.register_profile("ttomo", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("ttomo")
