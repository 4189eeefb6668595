"""Shared test configuration: the hypothesis profile.  Shared helpers
(the in-process `eps0` runner `run_cli`, `outcome` and the instances and
generators several modules use) are in tests/support.py, imported by bare
name like the `reference_*` modules.

Set EPS0_FULL=1 to run the statistical property tests at their full
quantified sizes; the default keeps the suite fast.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "eps0",
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("eps0")
