"""Shared-memory segment lifecycle: nothing may outlive a run.

Every ``ParallelRuntime.run`` must leave zero segments behind — in the
normal path, when tasks crash and are retried,
when attempts hang and are timeout-skipped, and when the job fails
terminally.  Leaks are checked three ways: the module's own
``live_segments()`` ledger, the actual ``/dev/shm`` directory (scoped to
this process's segment-name prefix), and ``ResourceWarning``s raised as
errors.
"""

import glob
import os
import subprocess
import sys
import warnings

import pytest

from repro.mapreduce import (
    ClusterConfig,
    MapReduceJob,
    Mapper,
    ParallelRuntime,
    Reducer,
    SchedulerConfig,
    ScriptedFailures,
)
from repro.mapreduce.failures import HangingTasks, SimulatedTaskFailure
from repro.mapreduce.shm import SEGMENT_PREFIX, live_segments

CLUSTER = ClusterConfig(nodes=2)


class TokenMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            yield word, 1


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        yield key, sum(values)


def job():
    return MapReduceJob("wc", TokenMapper(), SumReducer(), n_reducers=2)


def _shm_files() -> list:
    # Segment names embed this process's pid, so the glob cannot see
    # segments of unrelated processes (e.g. parallel pytest workers).
    pattern = f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid() % 10**7}-*"
    return glob.glob(pattern)


def assert_no_segments():
    assert live_segments() == frozenset()
    if os.path.isdir("/dev/shm"):  # pragma: no branch - Linux CI
        assert _shm_files() == []


@pytest.fixture(autouse=True)
def _raise_resource_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        yield


class TestSegmentLifecycle:
    def test_normal_run_leaves_nothing(self):
        rt = ParallelRuntime(CLUSTER, workers=2)
        result = rt.run(job(), ["a b"] * 20, block_records=5)
        assert dict(result.outputs)["a"] == 20
        assert_no_segments()

    def test_repeated_runs_leave_nothing(self):
        rt = ParallelRuntime(CLUSTER, workers=2)
        for _ in range(3):
            rt.run(job(), ["x y z"] * 9, block_records=3)
            assert_no_segments()

    def test_crash_injected_run_leaves_nothing(self):
        rt = ParallelRuntime(
            CLUSTER, workers=2,
            failure_injector=ScriptedFailures(
                {("map", 0): 2, ("reduce", 1): 1}
            ),
        )
        result = rt.run(job(), ["a b"] * 10, block_records=5)
        assert result.counters.get("runtime", "map_task_failures") == 2
        assert dict(result.outputs)["a"] == 10
        assert_no_segments()

    def test_timeout_skipped_run_leaves_nothing(self):
        rt = ParallelRuntime(
            CLUSTER, workers=2,
            failure_injector=HangingTasks({("map", 0): 1}),
            scheduler=SchedulerConfig(timeout=0.5),
        )
        result = rt.run(job(), ["a b"] * 10, block_records=5)
        assert result.counters.get("runtime", "map_task_timeouts") == 1
        assert dict(result.outputs)["a"] == 10
        assert_no_segments()

    def test_terminal_job_failure_leaves_nothing(self):
        rt = ParallelRuntime(
            CLUSTER, workers=2, max_attempts=2,
            failure_injector=ScriptedFailures({("map", 0): 99}),
        )
        with pytest.raises(SimulatedTaskFailure):
            rt.run(job(), ["a b"] * 10, block_records=5)
        assert_no_segments()

    def test_speculative_run_leaves_nothing(self):
        rt = ParallelRuntime(
            CLUSTER, workers=2,
            scheduler=SchedulerConfig(
                speculate=True, speculation_min_tasks=2,
                speculation_threshold=1.5,
            ),
        )
        result = rt.run(job(), ["a b"] * 20, block_records=4)
        assert dict(result.outputs)["a"] == 20
        assert_no_segments()


_IGNORED_SIGTERM = """
import os, signal
from repro.mapreduce.shm import ShmArena, install_exit_cleanup, live_segments

signal.signal(signal.SIGTERM, signal.SIG_IGN)
install_exit_cleanup()
arena = ShmArena("ignored-sigterm")
arena.pack({0: b"payload"})
(name,) = live_segments()
path = os.path.join("/dev/shm", name)
on_disk = os.path.exists(path)
os.kill(os.getpid(), signal.SIGTERM)
assert live_segments() == frozenset(), live_segments()
assert not os.path.exists(path)
print("survived", "unlinked" if on_disk else "no-dev-shm")
"""


class TestExitCleanup:
    def test_ignored_sigterm_stays_ignored(self):
        """A process that ignores SIGTERM must not start dying of it once
        a pool runtime installed the cleanup hook: the hook unlinks the
        live segments and the signal stays ignored."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-c", _IGNORED_SIGTERM],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.split()[0] == "survived"
        if os.path.isdir("/dev/shm"):  # pragma: no branch - Linux CI
            assert proc.stdout.split()[1] == "unlinked"
