"""Shared test configuration: hypothesis profiles + env hygiene.

The ``ci`` profile (selected via ``HYPOTHESIS_PROFILE=ci``, as the
fault-injection CI job does) is derandomized — every run replays the
same example sequence — and pushes the example count up; the default
``dev`` profile keeps local tier-1 runs fast.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

#: Fault hooks the package reads from the environment.  A chaos test
#: that died before cleanup with REPRO_CHAOS_KILL_AFTER_COMMITS set, or
#: a shell with an ENOSPC injection exported, must not leak behavior
#: into an unrelated test run.
_REPRO_ENV_PREFIX = "REPRO_"


@pytest.fixture(scope="session", autouse=True)
def _scrub_repro_env():
    """Strip ``REPRO_*`` vars for the whole session, restore after.

    Tests that *want* a hook (chaos kills, ENOSPC injection) set it
    explicitly — on themselves via monkeypatch, or on the child's
    env for subprocess tests — so scrubbing only removes ambient
    state, never test-owned state.
    """
    saved = {
        key: value
        for key, value in os.environ.items()
        if key.startswith(_REPRO_ENV_PREFIX)
    }
    for key in saved:
        del os.environ[key]
    try:
        yield
    finally:
        for key in list(os.environ):
            if key.startswith(_REPRO_ENV_PREFIX):
                del os.environ[key]
        os.environ.update(saved)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=25, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
