"""Shared-memory segment lifecycle: nothing may outlive a run.

Every ``ParallelRuntime.run`` must leave zero segments behind — in the
normal path, when tasks crash and are retried,
when attempts hang and are timeout-skipped, and when the job fails
terminally.  The same holds for the spills map tasks write: after a
speculation loser wrote one nobody reads, after a worker was killed
between writing its spill and reporting it, and after a job failed
while views of its spills were still referenced.  Leaks are checked
four ways: the module's own ``live_segments()`` ledger, the actual
``/dev/shm`` directory (scoped to this process's segment-name prefix),
``ResourceWarning``s raised as errors, and no exception left unraisable
(a shared-memory handle closed under a live view raises one from its
finalizer).
"""

import gc
import glob
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.mapreduce import (
    ClusterConfig,
    MapReduceJob,
    Mapper,
    ParallelRuntime,
    RecordBatch,
    Reducer,
    SchedulerConfig,
    ScriptedFailures,
)
from repro.mapreduce import parallel, shm
from repro.mapreduce.failures import (
    HangingTasks,
    SimulatedTaskFailure,
    SlowTasks,
)
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


@pytest.fixture(autouse=True)
def _no_unraisable(monkeypatch):
    seen = []
    monkeypatch.setattr(sys, "unraisablehook", seen.append)
    yield
    gc.collect()
    assert not seen, [f"{u.exc_type.__name__}: {u.exc_value}" for u in seen]


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
            CLUSTER, workers=2,
            scheduler=SchedulerConfig(max_attempts=2),
            failure_injector=ScriptedFailures({("map", 0): 99}),
        )
        with pytest.raises(SimulatedTaskFailure):
            rt.run(job(), ["a b"] * 10, block_records=5)
        assert_no_segments()

    def test_speculative_run_leaves_nothing(self):
        rt = ParallelRuntime(
            CLUSTER, workers=2,
            scheduler=SchedulerConfig(
                speculate=True, speculation_threshold=1.5,
            ),
        )
        result = rt.run(job(), ["a b"] * 20, block_records=4)
        assert dict(result.outputs)["a"] == 20
        assert_no_segments()


# ----------------------------------------------------------------------
# Spills
# ----------------------------------------------------------------------
class KeyedRowsMapper(Mapper):
    """One batch per key ``id % 3`` of a block: a spilling map task."""

    def map_block(self, records, ctx):
        return RecordBatch(
            records.ids, records.points, keys=records.ids % 3
        ).group_by_key()


class RowCount(Reducer):
    def reduce(self, key, values, ctx):
        yield key, sum(len(batch) for batch in values)


def batch_job():
    return MapReduceJob("rows", KeyedRowsMapper(), RowCount(), n_reducers=2)


ROWS = RecordBatch(np.arange(40), np.arange(80.0).reshape(40, 2))
ROW_COUNTS = {0: 14, 1: 13, 2: 13}


@pytest.fixture
def released(monkeypatch):
    """Spill name -> whether it was on ``/dev/shm`` when its arena
    unlinked it."""
    seen = {}
    unlink = shm._unlink

    def recording(name):
        seen[name] = os.path.exists(os.path.join("/dev/shm", name))
        unlink(name)

    monkeypatch.setattr(shm, "_unlink", recording)
    return seen


def written(released) -> int:
    """Spills a worker wrote, whoever read them (Linux only)."""
    return sum(released.values())


def _shuffled_batches(tb) -> list:
    """The batches a failed job's shuffle held, from its traceback."""
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "_run_job":
            inputs = tb.tb_frame.f_locals["reducer_inputs"]
            return [
                batch for groups in inputs
                for values in groups.values() for batch in values
            ]
        tb = tb.tb_next
    return []


HAS_DEV_SHM = os.path.isdir("/dev/shm")


class TestSpillLifecycle:
    def test_normal_run(self, released):
        with ParallelRuntime(CLUSTER, workers=2) as rt:
            result = rt.run(batch_job(), ROWS, block_records=10)
        assert dict(result.outputs) == ROW_COUNTS
        assert result.transport["segments"] == 3 + 4
        assert len(released) == 4
        if HAS_DEV_SHM:
            assert written(released) == 4
        assert_no_segments()

    def test_crash_injected_map_retry(self, released):
        with ParallelRuntime(
            CLUSTER, workers=2,
            failure_injector=ScriptedFailures({("map", 0): 2}),
        ) as rt:
            result = rt.run(batch_job(), ROWS, block_records=10)
        assert result.counters.get("runtime", "map_task_failures") == 2
        assert dict(result.outputs) == ROW_COUNTS
        assert_no_segments()

    def test_timed_out_attempt(self, released):
        with ParallelRuntime(
            CLUSTER, workers=2,
            failure_injector=HangingTasks({("map", 0): 1}),
            scheduler=SchedulerConfig(timeout=0.5),
        ) as rt:
            result = rt.run(batch_job(), ROWS, block_records=10)
        assert result.counters.get("runtime", "map_task_timeouts") == 1
        assert dict(result.outputs) == ROW_COUNTS
        assert_no_segments()

    def test_terminal_reduce_failure_with_spill_views_held(self):
        """The job dies in its reduce phase; its traceback still holds
        the shuffle's batch views of the spills.  The spills are
        unlinked all the same, the views stay readable, and the mapping
        goes with the last of them without a failed close."""
        with ParallelRuntime(
            CLUSTER, workers=2,
            scheduler=SchedulerConfig(max_attempts=2),
            failure_injector=ScriptedFailures({("reduce", 0): 99}),
        ) as rt, pytest.raises(SimulatedTaskFailure) as failure:
            rt.run(batch_job(), ROWS, block_records=10)
        held = _shuffled_batches(failure.value.__traceback__)
        assert len(held) == 4 * 3
        assert not any(batch.ids.flags.writeable for batch in held)
        assert_no_segments()
        assert sorted(np.concatenate([b.ids for b in held])) == list(
            range(40)
        )
        del failure, held

    def test_speculative_map_duplicate_loses(self, released):
        """The slow primary of map task 0 loses to its duplicate, then
        writes a spill nobody maps: it goes with the others."""
        with ParallelRuntime(
            CLUSTER, workers=2,
            failure_injector=SlowTasks({("map", 0): 1.0}),
            scheduler=SchedulerConfig(
                speculate=True, speculation_threshold=1.5,
            ),
        ) as rt:
            result = rt.run(batch_job(), ROWS, block_records=5)
        assert result.counters.get("runtime", "speculative_wins") == 1
        assert result.counters.get("runtime", "cancelled_attempts") == 1
        assert dict(result.outputs) == ROW_COUNTS
        assert len(released) == 8 + 1
        if HAS_DEV_SHM:
            assert written(released) == 8 + 1
        assert_no_segments()

    def test_worker_killed_between_spill_and_report(
        self, released, monkeypatch, tmp_path
    ):
        """The first worker to write a spill dies before reporting it;
        the task reruns in the respawned pool under a new name, and the
        orphan is unlinked with the job."""
        marker = str(tmp_path / "killed")
        write = parallel.write_spill

        def write_then_die(name, pairs):
            spill = write(name, pairs)
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return spill
            os.write(fd, name.encode())
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)

        # Patched before the pool forks: the workers inherit it.
        monkeypatch.setattr(parallel, "write_spill", write_then_die)
        with ParallelRuntime(
            CLUSTER, workers=2, scheduler=SchedulerConfig(max_attempts=4),
        ) as rt:
            result = rt.run(batch_job(), ROWS, block_records=10)
        assert dict(result.outputs) == ROW_COUNTS
        assert result.counters.get("recovery", "worker_deaths") >= 1
        with open(marker) as f:
            orphan = f.read()
        assert orphan in released
        if HAS_DEV_SHM:
            assert released[orphan]
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
