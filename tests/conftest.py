"""Shared pytest configuration: Hypothesis settings profiles.

Tier-1 runs under Hypothesis' own ``default`` profile.  The ``ci``
profile raises the example count of every property test that does not
pin ``max_examples`` itself (the scheduler differential tests in
``test_scheduler_kernels.py``); select it with
``HYPOTHESIS_PROFILE=ci python -m pytest ...``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
