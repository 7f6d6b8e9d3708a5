"""Tests for the multiprocess execution backend."""

import dataclasses
import gc
import multiprocessing
import os
import tempfile
import time

import numpy as np
import pytest

from repro.core import Dataset, OutlierParams, detect_outliers
from repro.mapreduce import (
    ClusterConfig,
    CompositeInjector,
    Counters,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    ParallelRuntime,
    RecordBatch,
    Reducer,
    SchedulerConfig,
    ScriptedFailures,
    WorkerKill,
    make_runtime,
    shm,
)
from repro.mapreduce.failures import SimulatedTaskFailure
from repro.observability import Tracer

CLUSTER = ClusterConfig(nodes=2)


class TokenMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.counters.incr("wc", "words")
            yield word, 1


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.add_cost(len(values))
        yield key, sum(values)


def job():
    return MapReduceJob("wc", TokenMapper(), SumReducer(), n_reducers=2)


class TestParallelRuntime:
    def test_same_outputs_as_serial(self):
        records = [f"w{i % 7} w{i % 3}" for i in range(200)]
        serial = LocalRuntime(CLUSTER).run(job(), records,
                                           block_records=20)
        parallel = ParallelRuntime(CLUSTER, workers=3).run(
            job(), records, block_records=20
        )
        assert sorted(serial.outputs) == sorted(parallel.outputs)
        # The "transport" counter group accounts dispatch cost, which only
        # exists when tasks cross a process boundary; every other group
        # must match the serial run exactly.
        serial_counters = serial.counters.as_dict()
        parallel_counters = parallel.counters.as_dict()
        parallel_counters.pop("transport", None)
        assert serial_counters == parallel_counters
        assert serial.shuffle_records == parallel.shuffle_records

    def test_same_cost_units(self):
        records = [f"w{i % 5}" for i in range(100)]
        serial = LocalRuntime(CLUSTER).run(job(), records,
                                           block_records=10)
        parallel = ParallelRuntime(CLUSTER, workers=2).run(
            job(), records, block_records=10
        )
        assert sorted(
            t.cost_units for t in serial.reduce_tasks
        ) == sorted(t.cost_units for t in parallel.reduce_tasks)

    def test_failure_injection_inside_workers(self):
        rt = ParallelRuntime(
            CLUSTER, workers=2,
            failure_injector=ScriptedFailures({("map", 0): 2}),
        )
        result = rt.run(job(), ["a b"] * 10, block_records=5)
        assert result.counters.get("runtime", "map_task_failures") == 2
        assert dict(result.outputs)["a"] == 10

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ParallelRuntime(CLUSTER, workers=0)

    def test_shared_memory_is_the_only_transport(self):
        with pytest.raises(ValueError, match="shared memory"):
            ParallelRuntime(CLUSTER, workers=2, transport="pickle")
        rt = ParallelRuntime(CLUSTER, workers=2, transport="shm")
        assert rt.transport_label == "shm"

    def test_full_pipeline_parallel(self):
        rng = np.random.default_rng(4)
        data = Dataset.from_points(rng.uniform(0, 40, size=(1500, 2)))
        params = OutlierParams(r=2.0, k=5)
        serial = detect_outliers(
            data, params, strategy="DMT", n_partitions=9, n_reducers=4,
            cluster=CLUSTER, runtime=LocalRuntime(CLUSTER),
            sample_rate=0.5,
        )
        parallel = detect_outliers(
            data, params, strategy="DMT", n_partitions=9, n_reducers=4,
            cluster=CLUSTER, runtime=ParallelRuntime(CLUSTER, workers=3),
            sample_rate=0.5,
        )
        assert serial.outlier_ids == parallel.outlier_ids
        assert serial.reduce_units == parallel.reduce_units


# ----------------------------------------------------------------------
# One job loop: a runtime only decides how a phase's tasks are executed,
# so the books of a job cannot depend on which runtime ran it.
# ----------------------------------------------------------------------
#: What only a pool has to say about a job or a task.
POOL_ONLY = {
    "runtime", "workers", "transport", "dispatch_bytes", "dispatch_seconds",
    "spill_bytes", "dispatches",
}


def span_shape(span):
    """Names, kinds, child order and attribute key sets of a span tree."""
    return (
        span.name, span.kind, sorted(set(span.attrs) - POOL_ONLY),
        [span_shape(child) for child in span.children],
    )


def task_books(result):
    return [
        dataclasses.replace(task, wall_seconds=0.0)
        for task in result.map_tasks + result.reduce_tasks
    ]


class TestOneJobLoop:
    def test_generic_job_has_the_same_books_on_both_runtimes(self):
        records = [(i % 5, f"w{i % 7} w{i % 3}") for i in range(90)]
        serial = LocalRuntime(CLUSTER).run(job(), records, block_records=20)
        with ParallelRuntime(CLUSTER, workers=2) as pool:
            pooled = pool.run(job(), records, block_records=20)
        assert span_shape(serial.trace) == span_shape(pooled.trace)
        assert [c.name for c in serial.trace.children] == ["map", "reduce"]
        assert [c.name for c in serial.trace.children[0].children] == [
            f"map[{i}]" for i in range(5)
        ]
        assert task_books(serial) == task_books(pooled)
        assert len(task_books(serial)) == 5 + 2

    @pytest.mark.parametrize("transport", ["shm"])
    def test_detection_has_the_same_books_on_both_runtimes(self, transport):
        rng = np.random.default_rng(11)
        data = Dataset.from_points(rng.uniform(0, 30, size=(900, 2)))
        kwargs = dict(
            strategy="DMT", n_partitions=9, n_reducers=3, cluster=CLUSTER,
            sample_rate=0.5,
        )
        serial_tracer, pooled_tracer = Tracer(), Tracer()
        serial = detect_outliers(
            data, OutlierParams(r=2.0, k=5), runtime=LocalRuntime(CLUSTER),
            tracer=serial_tracer, **kwargs,
        )
        with ParallelRuntime(
            CLUSTER, workers=2, transport=transport
        ) as pool:
            pooled = detect_outliers(
                data, OutlierParams(r=2.0, k=5), runtime=pool,
                tracer=pooled_tracer, **kwargs,
            )
        assert serial.outlier_ids == pooled.outlier_ids
        serial_jobs = serial_tracer.job_spans()
        pooled_jobs = pooled_tracer.job_spans()
        assert len(serial_jobs) == len(pooled_jobs) >= 2  # plan + detect
        assert [span_shape(s) for s in serial_jobs] == [
            span_shape(s) for s in pooled_jobs
        ]
        assert [task_books(j) for j in serial.run.jobs] == [
            task_books(j) for j in pooled.run.jobs
        ]


# ----------------------------------------------------------------------
# One pool per runtime: started by its first job, reused by every later
# one, stopped by close().
# ----------------------------------------------------------------------
class PidMapper(Mapper):
    """Emits the pid of the worker that ran the task.  Each task logs
    its pid to ``path`` and waits (10 s at most) until two running
    processes have logged, so both workers of a two-process pool take
    part in a phase — also when a broken pool's tasks are rerun on a
    new one, whose workers must not count the old pool's."""

    def __init__(self, path):
        self.path = path

    def map(self, key, value, ctx):
        with open(self.path, "a") as f:
            f.write(f"{os.getpid()}\n")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with open(self.path) as f:
                logged = {int(pid) for pid in f.read().split()}
            if sum(map(_running, logged)) >= 2:
                break
            time.sleep(0.001)
        yield os.getpid(), 1


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (not reaped, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class AttachmentProbe(Reducer):
    """Reports how many segments (spills included) its worker maps while
    it reduces — the point of a job at which a worker maps the most."""

    def reduce(self, key, values, ctx):
        yield os.getpid(), len(shm._ATTACHMENTS) + len(shm._MAPPED_SPILLS)


class ParityMapper(Mapper):
    """One batch per id parity of a block."""

    def map_block(self, records, ctx):
        return RecordBatch(
            records.ids, records.points, keys=records.ids % 2
        ).group_by_key()


class LoggingMapper(Mapper):
    """Appends a line to ``path`` as each (one-record) map task starts."""

    def __init__(self, path):
        self.path = path

    def map(self, key, value, ctx):
        with open(self.path, "a") as f:
            f.write(f"{ctx.task_id}\n")
        # A bound, not a wait on the other side: forty tasks of 20 ms
        # on two workers outlast map task 0's two failed attempts, so
        # the failed job drains before all of them start.
        time.sleep(0.02)
        yield 0, 1


def pid_job(path, reducer=None):
    return MapReduceJob(
        "pids", PidMapper(str(path)), reducer or SumReducer(), n_reducers=2
    )


def _worker_pids(runtime) -> set:
    with tempfile.TemporaryDirectory() as scratch:
        result = runtime.run(
            pid_job(os.path.join(scratch, "pids.log")), list(range(8)),
            block_records=1,
        )
    return {pid for pid, _ in result.outputs}


def _detect(runtime):
    rng = np.random.default_rng(4)
    data = Dataset.from_points(rng.uniform(0, 40, size=(1500, 2)))
    result = detect_outliers(
        data, OutlierParams(r=2.0, k=5), strategy="DMT",
        n_partitions=9, n_reducers=4, cluster=CLUSTER, runtime=runtime,
        sample_rate=0.5,
    )
    counters = Counters()
    for job_result in result.run.jobs:
        counters.merge(job_result.counters)
    counters = counters.as_dict()
    # Dispatch accounting exists only across a process boundary, and
    # its microseconds are a measurement.
    counters.pop("transport", None)
    return (result.outlier_ids, counters, result.map_units,
            result.reduce_units)


class TestPoolReuse:
    def test_two_jobs_run_in_the_same_workers(self):
        with ParallelRuntime(CLUSTER, workers=2) as rt:
            first, second = _worker_pids(rt), _worker_pids(rt)
        assert len(first) == 2
        assert first == second
        assert os.getpid() not in first

    @pytest.mark.parametrize("transport", ["shm"])
    def test_reused_runtime_equals_fresh_and_serial(self, transport):
        serial = _detect(LocalRuntime(CLUSTER))
        with ParallelRuntime(
            CLUSTER, workers=2, transport=transport
        ) as fresh:
            assert _detect(fresh) == serial
        with ParallelRuntime(
            CLUSTER, workers=2, transport=transport
        ) as reused:
            _detect(reused)
            assert _detect(reused) == serial
        assert shm.live_segments() == frozenset()

    def test_failed_job_leaves_the_runtime_usable(self, tmp_path):
        log = tmp_path / "started.log"

        def started() -> int:
            # Map task 0 may use up its attempts before the executor
            # hands out any other task: then every other task is
            # cancelled, no mapper starts and the log is never created.
            return log.read_text().count("\n") if log.exists() else 0

        failing = MapReduceJob(
            "logged", LoggingMapper(str(log)), SumReducer(), n_reducers=1
        )
        with ParallelRuntime(
            CLUSTER, workers=2,
            scheduler=SchedulerConfig(max_attempts=2),
            failure_injector=ScriptedFailures({("map", 0): 99}),
        ) as rt:
            with pytest.raises(SimulatedTaskFailure):
                rt.run(failing, list(range(40)), block_records=1)
            # Drained: what had not started was cancelled, what ran was
            # waited for — nothing of the failed job starts from here on.
            drained = started()
            assert drained < 40
            assert shm.live_segments() == frozenset()
            # A bound: nothing of the drained job starts in the next
            # 0.3 s (there is no event to wait on for "never").
            time.sleep(0.3)
            assert started() == drained
            rt.failure_injector = None
            result = rt.run(job(), ["a b"] * 10, block_records=5)
        assert dict(result.outputs) == {"a": 10, "b": 10}
        assert shm.live_segments() == frozenset()

    def test_job_after_a_worker_death_uses_the_respawned_pool(self):
        with ParallelRuntime(
            CLUSTER, workers=2,
            failure_injector=WorkerKill({("map", 0): 1}),
        ) as rt:
            first = rt.run(job(), ["a b"] * 10, block_records=5)
            assert first.counters.get("recovery", "worker_deaths") == 1
            # The injector travels in each job's context: the
            # replacement workers were forked with the old one in place
            # and must not act on it.
            rt.failure_injector = None
            second = rt.run(job(), ["a b"] * 10, block_records=5)
        assert second.counters.get("recovery", "worker_deaths") == 0
        assert second.counters.get("recovery", "tasks_resubmitted") == 0
        assert dict(first.outputs) == dict(second.outputs) == {
            "a": 10, "b": 10,
        }

    def test_worker_killed_between_jobs_is_a_counted_death(self, tmp_path):
        with ParallelRuntime(CLUSTER, workers=2) as rt:
            victim = min(_worker_pids(rt))
            os.kill(victim, 9)
            # The executor notices the death at its own pace: during the
            # next job, or only once that job's results stop arriving —
            # then the job after it finds the pool broken at submit.
            after = [
                rt.run(job(), ["a b"] * 10, block_records=5),
                rt.run(
                    pid_job(tmp_path / "pids.log"), list(range(8)),
                    block_records=1,
                ),
            ]
        assert sum(
            result.counters.get("recovery", "worker_deaths")
            for result in after
        ) == 1
        assert dict(after[0].outputs) == {"a": 10, "b": 10}
        pids = {pid for pid, _ in after[1].outputs}
        assert len(pids) == 2 and victim not in pids

    def test_a_worker_maps_one_job_at_a_time(self, tmp_path):
        most = 0
        with ParallelRuntime(CLUSTER, workers=2) as rt:
            for run in range(20):
                probe = pid_job(tmp_path / f"pids{run}.log", AttachmentProbe())
                result = rt.run(probe, list(range(8)), block_records=1)
                per_job = result.transport["segments"]
                most = max(most, *(n for _, n in result.outputs))
        assert per_job == 3
        assert 0 < most <= per_job

    def test_a_worker_maps_one_job_and_its_spills_at_a_time(self):
        """A batch job adds its spills to the three segments: four map
        tasks, each spilling one batch per reducer key."""
        probe = MapReduceJob(
            "spills", ParityMapper(), AttachmentProbe(), n_reducers=2
        )
        rows = RecordBatch(np.arange(16), np.ones((16, 2)))
        most = 0
        with ParallelRuntime(CLUSTER, workers=2) as rt:
            for _ in range(20):
                result = rt.run(probe, rows, block_records=4)
                per_job = result.transport["segments"]
                most = max(most, *(n for _, n in result.outputs))
        assert per_job == 3 + 4
        assert 3 < most <= per_job

    def test_close_is_idempotent_and_run_restarts(self):
        rt = ParallelRuntime(CLUSTER, workers=2)
        rt.close()  # never started: nothing to stop
        first = _worker_pids(rt)
        rt.close()
        rt.close()
        second = _worker_pids(rt)
        rt.close()
        assert first and second and not first & second

    def test_both_runtimes_are_context_managers(self):
        with make_runtime(CLUSTER, workers=2) as rt:
            assert isinstance(rt, ParallelRuntime)
            assert dict(rt.run(job(), ["a"] * 4).outputs) == {"a": 4}
        assert rt._pool is None
        with make_runtime(CLUSTER) as serial:
            assert type(serial) is LocalRuntime
        serial.close()
        LocalRuntime().close()

    def test_constructing_a_runtime_forks_nothing(self):
        before = {p.pid for p in multiprocessing.active_children()}
        rt = ParallelRuntime(CLUSTER, workers=2)
        assert {p.pid for p in multiprocessing.active_children()} <= before
        rt.close()

    def test_dropped_runtime_leaves_no_child_process(self):
        rt = ParallelRuntime(CLUSTER, workers=2)
        pids = _worker_pids(rt)
        del rt
        gc.collect()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            left = [
                p.pid for p in multiprocessing.active_children()
                if p.pid in pids
            ]
            if not left:
                break
            time.sleep(0.02)  # the poll interval of a wait on the exits
        assert left == []


# ----------------------------------------------------------------------
# Run dispatch: one executor round trip carries a run of consecutive
# tasks; attempts, failures, kills and commits stay per task.
# ----------------------------------------------------------------------
class KeyMapper(Mapper):
    """Key ``i`` for record ``i``: with ``n`` reducers, reduce task ``i``
    gets key ``i`` (an int hashes to itself)."""

    def map(self, key, value, ctx):
        yield value, 1


class LoggingReducer(Reducer):
    """Appends its task id to ``path`` as each attempt starts."""

    def __init__(self, path):
        self.path = path

    def reduce(self, key, values, ctx):
        with open(self.path, "a") as f:
            f.write(f"{ctx.task_id}\n")
        ctx.add_cost(len(values))
        yield key, sum(values)


def keyed_job(path, n_reducers=8):
    return MapReduceJob(
        "keyed", KeyMapper(), LoggingReducer(str(path)),
        n_reducers=n_reducers,
    )


def _started(path) -> list:
    return [int(t) for t in path.read_text().split()] if path.exists() else []


def _commits(runtime) -> list:
    """Hook ``runtime``'s commit listener; the list of committed tasks."""
    seen = []
    runtime.commit_listener = lambda phase, task_id, out: seen.append(task_id)
    return seen


class TestRunDispatch:
    def test_tasks_travel_in_runs(self):
        # Eight tasks a phase on two workers: runs of two, four round
        # trips a phase, where one task a dispatch made eight.
        with ParallelRuntime(CLUSTER, workers=2) as rt:
            result = rt.run(
                MapReduceJob("keyed", KeyMapper(), SumReducer(), 8),
                list(range(8)), block_records=1,
            )
        assert dict(result.outputs) == {i: 1 for i in range(8)}
        assert result.transport["tasks"] == 16
        assert result.transport["dispatches"] == 8
        assert result.counters.get("transport", "dispatches") == 8
        assert [c.attrs["dispatches"] for c in result.trace.children] == [
            4, 4,
        ]

    def test_a_failed_task_ends_its_run_and_fails_the_job(self, tmp_path):
        # One worker: runs of four, reduce tasks 0-3 then 4-7.  Task 1
        # uses up its attempts: task 0 before it commits once, tasks 2
        # and 3 after it never start, and the job fails with task 1's
        # own exception.
        log = tmp_path / "started.log"
        with ParallelRuntime(
            CLUSTER, workers=1,
            scheduler=SchedulerConfig(max_attempts=2),
            failure_injector=ScriptedFailures({("reduce", 1): 99}),
        ) as rt:
            commits = _commits(rt)
            with pytest.raises(
                SimulatedTaskFailure, match="reduce task 1 attempt 1"
            ) as failure:
                rt.run(keyed_job(log), list(range(8)), block_records=8)
            assert "Traceback" in str(failure.value.__cause__)
            assert commits.count(0) == 1
            assert not {1, 2, 3} & set(commits)
            started = _started(log)
            assert started[:1] == [0]
            assert not {2, 3} & set(started)
            # The runtime stays usable.
            rt.failure_injector = None
            assert dict(rt.run(job(), ["a"] * 4).outputs) == {"a": 4}
        assert shm.live_segments() == frozenset()

    def test_a_worker_killed_mid_run_resubmits_only_what_did_not_commit(
        self, tmp_path
    ):
        # One worker, runs of four: the run of tasks 0-3 commits, then
        # the worker dies under task 5 of the run 4-7.  Task 4 ran but
        # its outcome died with the worker: tasks 4-7 go again, each
        # from attempt 1, and 0-3 do not.
        with ParallelRuntime(
            CLUSTER, workers=1,
            failure_injector=WorkerKill({("reduce", 5): 1}),
        ) as rt:
            commits = _commits(rt)
            result = rt.run(
                keyed_job(tmp_path / "started.log"), list(range(8)),
                block_records=8,
            )
        assert dict(result.outputs) == {i: 1 for i in range(8)}
        assert sorted(commits) == list(range(8))
        assert result.counters.get("recovery", "worker_deaths") == 1
        assert result.counters.get("recovery", "tasks_resubmitted") == 4
        (reduce_phase,) = [
            c for c in result.trace.children if c.name == "reduce"
        ]
        (death,) = [
            c for c in reduce_phase.children if c.name == "worker_death"
        ]
        assert death.attrs["lost_tasks"] == [4, 5, 6, 7]
        attempts = {
            span.attrs["task_id"]: [a.attrs["attempt"] for a in span.children]
            for span in reduce_phase.children if span.kind == "task"
        }
        assert attempts == {
            **{tid: [0] for tid in range(4)},
            **{tid: [1] for tid in range(4, 8)},
        }

    @pytest.mark.parametrize("speculate", [False, True])
    def test_pooled_run_has_the_serial_books(self, speculate):
        # Speculation sends every task alone; a threshold no task can
        # reach keeps duplicates (and their tombstones) out of the books.
        scheduler = SchedulerConfig(
            speculate=speculate, speculation_threshold=1e9,
        )
        rng = np.random.default_rng(11)
        data = Dataset.from_points(rng.uniform(0, 30, size=(900, 2)))
        kwargs = dict(
            strategy="DMT", n_partitions=9, n_reducers=6,
            cluster=ClusterConfig(nodes=2, hdfs_block_records=150),
            sample_rate=0.5,
        )
        serial_tracer, pooled_tracer = Tracer(), Tracer()
        serial = detect_outliers(
            data, OutlierParams(r=2.0, k=5), tracer=serial_tracer,
            runtime=LocalRuntime(kwargs["cluster"], scheduler=scheduler),
            **kwargs,
        )
        with ParallelRuntime(
            kwargs["cluster"], workers=2, scheduler=scheduler
        ) as pool:
            pooled = detect_outliers(
                data, OutlierParams(r=2.0, k=5), runtime=pool,
                tracer=pooled_tracer, **kwargs,
            )
        assert serial.outlier_ids == pooled.outlier_ids
        for a, b in zip(serial.run.jobs, pooled.run.jobs, strict=True):
            assert a.outputs == b.outputs
            counters = b.counters.as_dict()
            counters.pop("transport", None)
            assert a.counters.as_dict() == counters
        assert [task_books(j) for j in serial.run.jobs] == [
            task_books(j) for j in pooled.run.jobs
        ]
        assert [span_shape(s) for s in serial_tracer.job_spans()] == [
            span_shape(s) for s in pooled_tracer.job_spans()
        ]
        (detect,) = [j for j in pooled.run.jobs if j.transport]
        tasks = detect.transport["tasks"]
        assert tasks == 6 + 6
        if speculate:
            assert detect.transport["dispatches"] == tasks
        else:
            assert detect.transport["dispatches"] < tasks


class TestSamplingInTheDriver:
    def test_the_sampling_job_runs_serially_beside_the_pool(self):
        rng = np.random.default_rng(4)
        data = Dataset.from_points(rng.uniform(0, 40, size=(600, 2)))
        tracer = Tracer()
        with ParallelRuntime(CLUSTER, workers=2) as rt:
            detect_outliers(
                data, OutlierParams(r=2.0, k=5), strategy="DMT",
                n_partitions=6, n_reducers=3, cluster=CLUSTER,
                runtime=rt, tracer=tracer, sample_rate=0.5,
            )
            totals = dict(rt.transport_totals)
        sampling, detect = tracer.job_spans()
        assert sampling.name == "job:dmt-preprocess-sampling"
        assert sampling.attrs["runtime"] == "LocalRuntime"
        assert detect.attrs["runtime"] == "ParallelRuntime"
        # Only the detection job crossed to the workers.
        assert totals["tasks"] == (
            detect.attrs["map_tasks"] + detect.attrs["reduce_tasks"]
        )

    def test_the_twin_keeps_crashes_and_drops_kills(self):
        serial = LocalRuntime(CLUSTER)
        assert serial.serial_twin() is serial
        tracer = Tracer()
        scheduler = SchedulerConfig(max_attempts=3)
        pool = ParallelRuntime(
            CLUSTER, workers=2, tracer=tracer, scheduler=scheduler,
            failure_injector=CompositeInjector(
                WorkerKill({("map", 0): 3}), ScriptedFailures({("map", 1): 1})
            ),
        )
        twin = pool.serial_twin()
        assert type(twin) is LocalRuntime
        assert (twin.cluster, twin.scheduler, twin.tracer) == (
            CLUSTER, scheduler, tracer,
        )
        # In the driver: map task 0 is not killed (and the driver is not
        # refused), map task 1 still crashes once and retries.
        result = twin.run(job(), ["a b"] * 10, block_records=5)
        assert dict(result.outputs) == {"a": 10, "b": 10}
        assert result.counters.get("runtime", "map_task_failures") == 1
        assert tracer.job_spans() == [result.trace]
        assert pool._pool is None  # nothing was forked
