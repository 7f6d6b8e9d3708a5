"""Process-kill chaos harness: SIGKILLed workers and killed drivers.

Two kill targets, two recovery mechanisms:

* a **pool worker** SIGKILLed mid-task breaks the whole
  ``ProcessPoolExecutor`` (`BrokenProcessPool`); the runtime must
  respawn the pool, resubmit every uncommitted task under the retry
  budget, and never hang — with byte-identical results;
* the **driver** SIGKILLed at a journal commit boundary (the
  ``REPRO_CHAOS_KILL_AFTER_COMMITS`` hook fires a real ``os.kill``)
  must be resumable by ``repro resume`` with byte-identical results;
* the **driver** SIGKILLed while it owns a pool — mid-job or between
  two jobs — takes its workers with it: nobody is left to reap them.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import Dataset, detect_outliers
from repro.mapreduce import (
    ClusterConfig,
    Counters,
    LocalRuntime,
    ParallelRuntime,
    SchedulerConfig,
    WorkerKill,
    clean_stale_segments,
)
from repro.mapreduce.shm import SEGMENT_PREFIX
from repro.params import OutlierParams

# Real process kills and subprocess drivers: multi-second wall time.
# Tier-1 CI deselects these; the dedicated chaos job runs them.
pytestmark = [pytest.mark.chaos, pytest.mark.slow]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def chaos_dataset(n=240, seed=11) -> Dataset:
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal((8.0, 8.0), 1.0, size=(n - 15, 2)),
        rng.uniform(0.0, 40.0, size=(15, 2)),
    ])
    return Dataset.from_points(pts)


DATASET = chaos_dataset()
PARAMS = OutlierParams(r=1.2, k=8)
SIZING = dict(n_partitions=6, n_reducers=3, seed=5)

ORACLE = detect_outliers(
    DATASET, PARAMS, strategy="DMT", detector="nested_loop", **SIZING
).outlier_ids


def _merged_counters(result) -> Counters:
    merged = Counters()
    for job in result.run.jobs:
        merged.merge(job.counters)
    return merged


def _detect(runtime, cluster):
    return detect_outliers(
        DATASET, PARAMS, strategy="DMT", detector="nested_loop",
        cluster=cluster, runtime=runtime, **SIZING,
    )


# ----------------------------------------------------------------------
# Worker SIGKILL (in-process harness)
# ----------------------------------------------------------------------
class TestWorkerKill:
    def test_killed_reduce_worker_respawns_and_completes(self):
        cluster = ClusterConfig(nodes=2)
        runtime = ParallelRuntime(
            cluster, workers=2,
            scheduler=SchedulerConfig(max_attempts=4),
            failure_injector=WorkerKill({("reduce", 0): 1}),
        )
        result = _detect(runtime, cluster)
        assert result.outlier_ids == ORACLE
        counters = _merged_counters(result)
        assert counters.get("recovery", "worker_deaths") >= 1
        assert counters.get("recovery", "tasks_resubmitted") >= 1

    def test_kills_across_both_phases(self):
        cluster = ClusterConfig(nodes=2)
        runtime = ParallelRuntime(
            cluster, workers=2,
            scheduler=SchedulerConfig(max_attempts=4),
            failure_injector=WorkerKill(
                {("map", 0): 1, ("reduce", 1): 1}
            ),
        )
        result = _detect(runtime, cluster)
        assert result.outlier_ids == ORACLE
        assert _merged_counters(result).get(
            "recovery", "worker_deaths"
        ) >= 2

    def test_repeated_kills_survive_within_budget(self):
        # max_attempts=4 tolerates up to 3 kills of the same task.
        cluster = ClusterConfig(nodes=2)
        runtime = ParallelRuntime(
            cluster, workers=2,
            scheduler=SchedulerConfig(max_attempts=4),
            failure_injector=WorkerKill({("reduce", 0): 3}),
        )
        result = _detect(runtime, cluster)
        assert result.outlier_ids == ORACLE

    def test_unsurvivable_kill_fails_promptly_never_hangs(self):
        cluster = ClusterConfig(nodes=2)
        runtime = ParallelRuntime(
            cluster, workers=2,
            scheduler=SchedulerConfig(max_attempts=2),
            failure_injector=WorkerKill({("reduce", 0): 99}),
        )
        with pytest.raises(BrokenProcessPool, match="worker died"):
            _detect(runtime, cluster)

    def test_worker_kill_on_serial_runtime_is_a_config_error(self):
        # A SIGKILL "worker" under LocalRuntime would kill the test
        # process itself; the scheduler must refuse, not die.
        cluster = ClusterConfig(nodes=2)
        runtime = LocalRuntime(
            cluster, failure_injector=WorkerKill({("reduce", 0): 1})
        )
        with pytest.raises(RuntimeError, match="driver process"):
            _detect(runtime, cluster)


# ----------------------------------------------------------------------
# Driver SIGKILL at a commit boundary (subprocess harness)
# ----------------------------------------------------------------------
def _repro(args, tmp_path, kill_after=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.pop("REPRO_CHAOS_KILL_AFTER_COMMITS", None)
    if kill_after is not None:
        env["REPRO_CHAOS_KILL_AFTER_COMMITS"] = str(kill_after)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.fixture
def csv_points(tmp_path):
    path = tmp_path / "points.csv"
    np.savetxt(path, DATASET.points, delimiter=",", fmt="%.10g")
    return str(path)


class TestDriverKill:
    COMMON = ["-r", "1.2", "-k", "8", "--seed", "5"]

    @pytest.mark.parametrize("kill_after", [1, 4])
    def test_sigkill_then_resume_is_byte_identical(
        self, tmp_path, csv_points, kill_after
    ):
        oneshot = _repro(
            ["detect", csv_points, *self.COMMON, "-o", "oneshot.json"],
            tmp_path,
        )
        assert oneshot.returncode == 0, oneshot.stderr

        killed = _repro(
            ["detect", csv_points, *self.COMMON,
             "--checkpoint-dir", "ckpt", "-o", "never.json"],
            tmp_path, kill_after=kill_after,
        )
        assert killed.returncode == -signal.SIGKILL
        assert not (tmp_path / "never.json").exists()
        journal = (tmp_path / "ckpt" / "journal.jsonl").read_text()
        assert len(journal.splitlines()) == kill_after

        resumed = _repro(
            ["resume", "ckpt", "-o", "resumed.json"], tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed:" in resumed.stderr

        a = json.loads((tmp_path / "oneshot.json").read_text())
        b = json.loads((tmp_path / "resumed.json").read_text())
        assert a["outliers"] == b["outliers"]
        report = json.loads(
            (tmp_path / "resumed.json").read_text()
        )
        assert len(report["partitions_replayed"]) == kill_after

    def test_resume_without_checkpoint_is_a_clear_error(self, tmp_path):
        result = _repro(["resume", "missing-dir"], tmp_path)
        assert result.returncode == 2
        assert "no resumable checkpoint" in result.stderr
        assert "Traceback" not in result.stderr

    def test_checkpoint_dir_rejects_append(self, tmp_path, csv_points):
        result = _repro(
            ["detect", csv_points, *self.COMMON,
             "--checkpoint-dir", "ckpt", "--append", csv_points],
            tmp_path,
        )
        assert result.returncode == 2
        assert "cannot be combined with --append" in result.stderr
        assert "Traceback" not in result.stderr


# ----------------------------------------------------------------------
# Driver SIGKILL while it owns a pool: workers must not be orphaned
# ----------------------------------------------------------------------
_POOL_DRIVER = """
import os, sys, time
from repro.mapreduce import MapReduceJob, Mapper, ParallelRuntime, Reducer

pid_file, ready_file, nap = sys.argv[1], sys.argv[2], float(sys.argv[3])


def running(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class PidMapper(Mapper):
    def map(self, key, value, ctx):
        with open(pid_file, "a") as f:
            f.write(f"{os.getpid()}\\n")
        # A rendezvous, not a guess: each task waits (10 s at most) until
        # two running workers have logged, so both take part in the job.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with open(pid_file) as f:
                if sum(map(running, set(f.read().split()))) >= 2:
                    break
            time.sleep(0.001)
        # A bound: mid-job, the mappers outlast the test that kills
        # their driver.
        time.sleep(nap)
        yield 0, 1


class Count(Reducer):
    def reduce(self, key, values, ctx):
        yield key, len(values)


runtime = ParallelRuntime(workers=2)
runtime.run(MapReduceJob("pids", PidMapper(), Count(), n_reducers=1),
            list(range(4)), block_records=1)
open(ready_file, "w").close()  # between two jobs: the workers idle
time.sleep(60)  # a bound: the test kills this driver long before
"""


def _alive(pid: int) -> bool:
    """Running or sleeping — a zombie awaiting its reaper is dead."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_for(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.02)  # the poll interval of a wait on ``condition``
    return condition()


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat"
)
class TestDriverKillWithPool:
    @pytest.mark.parametrize("when", ["mid_job", "between_jobs"])
    def test_workers_die_with_their_driver(self, tmp_path, when):
        pid_file = tmp_path / "pids"
        ready_file = tmp_path / "ready"
        # mid-job: the mappers outlast the test, so a parent commit that
        # forks a pool per job has live workers to orphan as well.
        nap = "30" if when == "mid_job" else "0"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        driver = subprocess.Popen(
            [sys.executable, "-c", _POOL_DRIVER, str(pid_file),
             str(ready_file), nap],
            env=env, cwd=str(tmp_path),
        )
        workers: set = set()

        def recorded():
            if pid_file.exists():
                workers.update(map(int, pid_file.read_text().split()))
            return len(workers) == 2

        try:
            if when == "mid_job":
                assert _wait_for(recorded, 30.0), "mappers never started"
            else:
                assert _wait_for(ready_file.exists, 30.0), "job never ended"
                assert recorded()
            assert all(_alive(pid) for pid in workers)
            driver.kill()
            driver.wait(timeout=10)
            assert _wait_for(
                lambda: not any(_alive(pid) for pid in workers), 2.0
            ), f"orphaned workers: {[p for p in workers if _alive(p)]}"
            clean_stale_segments(0)
            assert glob.glob(
                f"/dev/shm/{SEGMENT_PREFIX}-{driver.pid % 10**7}-*"
            ) == []
        finally:
            driver.kill()
            driver.wait(timeout=10)
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
