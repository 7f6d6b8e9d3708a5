"""Unit tests for the task scheduler layer (retry/timeout/backoff/
speculation, and exhaustion failing the job)."""

import time

import pytest

from repro.mapreduce import (
    ClusterConfig,
    CompositeInjector,
    HangingTasks,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    ParallelRuntime,
    RandomFailures,
    Reducer,
    SchedulerConfig,
    ScriptedFailures,
    SlowTasks,
    SPECULATIVE_ATTEMPT_BASE,
    TaskScheduler,
    TaskTimeout,
)
from repro.mapreduce.scheduler import (
    _BACKOFF_FACTOR,
    _BACKOFF_JITTER,
    _BACKOFF_MAX,
)

CLUSTER = ClusterConfig(nodes=2)


class EchoMapper(Mapper):
    def map(self, key, value, ctx):
        yield value % 3, value


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        yield key, sum(values)


def job():
    return MapReduceJob("echo-sum", EchoMapper(), SumReducer(),
                        n_reducers=2)


class TestSchedulerConfig:
    def test_defaults_match_legacy_runtime(self):
        cfg = SchedulerConfig()
        assert cfg.max_attempts == 4
        assert cfg.timeout is None
        assert not cfg.speculate
        assert cfg.backoff_schedule("map", 0) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"backoff_base": -1.0},
        {"backoff_base": -1e-9},
        {"max_attempts": -1},
        {"speculation_threshold": 1.0},
        {"speculation_threshold": 0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerConfig(**kwargs)

    def test_backoff_deterministic_given_seed(self):
        cfg = SchedulerConfig(backoff_base=0.5, seed=11, max_attempts=5)
        first = cfg.backoff_schedule("reduce", 3)
        second = cfg.backoff_schedule("reduce", 3)
        assert first == second
        other_seed = SchedulerConfig(
            backoff_base=0.5, seed=12, max_attempts=5
        ).backoff_schedule("reduce", 3)
        assert first != other_seed

    @pytest.mark.parametrize("knob", [
        "degradation", "backoff_factor", "backoff_max", "backoff_jitter",
        "speculation_min_tasks",
    ])
    def test_removed_knobs_are_type_errors(self, knob):
        # A task that exhausts its attempts fails the job; nothing can
        # ask for its partition to be skipped.  The backoff shape and
        # the speculation floor are module constants.
        with pytest.raises(TypeError):
            SchedulerConfig(**{knob: "skip" if knob == "degradation" else 2})

    def test_backoff_grows_and_caps(self):
        base = _BACKOFF_MAX / _BACKOFF_FACTOR ** 2
        schedule = SchedulerConfig(
            backoff_base=base, max_attempts=6
        ).backoff_schedule("map", 0)
        nominal = [base, base * _BACKOFF_FACTOR, _BACKOFF_MAX,
                   _BACKOFF_MAX, _BACKOFF_MAX]
        assert len(schedule) == len(nominal)
        # every delay sits in the seeded jitter band around its nominal
        for expected, actual in zip(nominal, schedule):
            assert (1 - _BACKOFF_JITTER) * expected <= actual
            assert actual <= (1 + _BACKOFF_JITTER) * expected
        assert schedule != nominal

    def test_no_backoff_before_first_attempt(self):
        cfg = SchedulerConfig(backoff_base=1.0)
        assert cfg.backoff_delay("map", 0, 0) == 0.0


class TestTimeouts:
    def test_timeout_fires_and_is_retried(self):
        rt = LocalRuntime(
            CLUSTER,
            failure_injector=HangingTasks({("map", 0): 1}),
            scheduler=SchedulerConfig(timeout=0.2),
        )
        start = time.perf_counter()
        result = rt.run(job(), list(range(40)), block_records=10)
        elapsed = time.perf_counter() - start
        assert result.counters.get("runtime", "map_task_timeouts") == 1
        assert elapsed < 5.0  # the hang was abandoned, not waited out
        clean = LocalRuntime(CLUSTER).run(
            job(), list(range(40)), block_records=10
        )
        assert sorted(result.outputs) == sorted(clean.outputs)
        timed_out = [
            s for s in result.trace.walk()
            if s.kind == "attempt" and s.attrs.get("status") == "timeout"
        ]
        assert len(timed_out) == 1

    def test_timeout_exhaustion_raises(self):
        rt = LocalRuntime(
            CLUSTER,
            failure_injector=HangingTasks({("map", 0): 99}),
            scheduler=SchedulerConfig(timeout=0.1, max_attempts=2),
        )
        with pytest.raises(TaskTimeout):
            rt.run(job(), list(range(10)), block_records=5)

    def test_hang_without_timeout_is_rejected(self):
        # every attempt of the task hangs, so the guard error survives
        # the retry loop and reaches the caller
        rt = LocalRuntime(
            CLUSTER, failure_injector=HangingTasks({("map", 0): 99}),
        )
        with pytest.raises(RuntimeError, match="no timeout"):
            rt.run(job(), list(range(10)), block_records=5)

    def test_slow_task_within_budget_succeeds(self):
        rt = LocalRuntime(
            CLUSTER,
            failure_injector=SlowTasks({("map", 0): 0.05}),
            scheduler=SchedulerConfig(timeout=5.0),
        )
        result = rt.run(job(), list(range(10)), block_records=5)
        assert result.counters.get("runtime", "map_task_timeouts") == 0
        assert result.map_tasks[0].wall_seconds >= 0.05


class TestSpeculation:
    def test_duplicate_cancelled_after_first_commit(self):
        rt = ParallelRuntime(
            CLUSTER, workers=3,
            failure_injector=SlowTasks({("map", 0): 1.0}),
            scheduler=SchedulerConfig(speculate=True),
        )
        result = rt.run(job(), list(range(80)), block_records=10)
        counters = result.counters
        assert counters.get("runtime", "speculative_attempts") >= 1
        # the un-delayed duplicate beats the 1s straggler and the loser
        # is cancelled
        assert counters.get("runtime", "speculative_wins") >= 1
        assert counters.get("runtime", "cancelled_attempts") >= 1
        clean = LocalRuntime(CLUSTER).run(
            job(), list(range(80)), block_records=10
        )
        assert sorted(result.outputs) == sorted(clean.outputs)
        spec_spans = [
            s for s in result.trace.walk()
            if s.kind == "attempt" and s.attrs.get("speculative")
        ]
        assert spec_spans
        cancelled = [
            s for s in result.trace.walk()
            if s.kind == "attempt"
            and s.attrs.get("status") == "cancelled"
        ]
        assert cancelled

    def test_no_speculation_when_disabled(self):
        rt = ParallelRuntime(
            CLUSTER, workers=3,
            failure_injector=SlowTasks({("map", 0): 0.3}),
        )
        result = rt.run(job(), list(range(80)), block_records=10)
        assert result.counters.get(
            "runtime", "speculative_attempts"
        ) == 0

    def test_data_bound_straggler_duplicate_also_slow(self):
        # slow_speculative=True models a straggler caused by the data:
        # the duplicate is delayed too, so the primary commits first and
        # the duplicate is recorded as cancelled.
        rt = ParallelRuntime(
            CLUSTER, workers=3,
            failure_injector=SlowTasks(
                {("map", 0): 0.6}, slow_speculative=True
            ),
            scheduler=SchedulerConfig(speculate=True),
        )
        result = rt.run(job(), list(range(80)), block_records=10)
        assert result.counters.get(
            "runtime", "speculative_attempts"
        ) >= 1
        assert result.counters.get("runtime", "speculative_wins") == 0

    def test_straggler_does_not_reach_into_the_next_job(self):
        # One runtime, one pool: the first job's cancelled loser is still
        # asleep in a worker when its winner commits.  The phase drains
        # before the job returns, so the second job starts on idle
        # workers and its span tree holds its own attempts only.
        rt = ParallelRuntime(
            CLUSTER, workers=3,
            failure_injector=SlowTasks({("map", 0): 1.0}),
            scheduler=SchedulerConfig(speculate=True),
        )
        with rt:
            first = rt.run(job(), list(range(80)), block_records=10)
            rt.failure_injector = None
            second = rt.run(job(), list(range(80)), block_records=10)
        assert first.counters.get("runtime", "cancelled_attempts") >= 1
        # the straggler was waited for, not left behind
        assert first.trace.end - first.trace.start >= 1.0
        attempts = [
            s for s in second.trace.walk() if s.kind == "attempt"
        ]
        assert len(attempts) == 8 + 2  # one per task
        for span in attempts:
            assert span.attrs["status"] == "ok"
            assert not span.attrs.get("speculative")
            assert span.start >= first.trace.end
        assert second.counters.group("runtime") == {}
        assert sorted(second.outputs) == sorted(first.outputs)


class TestDegradation:
    """There is none: a task that exhausts its attempts fails the job."""

    def test_fail_fast_still_default(self):
        rt = LocalRuntime(
            CLUSTER,
            failure_injector=ScriptedFailures({("reduce", 0): 99}),
            scheduler=SchedulerConfig(max_attempts=2),
        )
        with pytest.raises(Exception):
            rt.run(job(), list(range(40)), block_records=10)


class TestInjectors:
    def test_slow_tasks_spare_speculative_attempts(self):
        inj = SlowTasks({("map", 1): 0.5})
        assert inj.delay("map", 1, 0) == 0.5
        assert inj.delay("map", 1, SPECULATIVE_ATTEMPT_BASE) == 0.0
        assert inj.delay("map", 2, 0) == 0.0
        data_bound = SlowTasks({("map", 1): 0.5}, slow_speculative=True)
        assert data_bound.delay(
            "map", 1, SPECULATIVE_ATTEMPT_BASE
        ) == 0.5

    def test_hanging_tasks_plan(self):
        inj = HangingTasks({("reduce", 2): 2})
        assert inj.delay("reduce", 2, 0) == float("inf")
        assert inj.delay("reduce", 2, 1) == float("inf")
        assert inj.delay("reduce", 2, 2) == 0.0
        assert inj.delay("reduce", 2, SPECULATIVE_ATTEMPT_BASE) == 0.0

    def test_composite_combines_crash_and_latency(self):
        inj = CompositeInjector(
            ScriptedFailures({("map", 0): 1}),
            SlowTasks({("map", 1): 0.3}),
            SlowTasks({("map", 1): 0.2}),
        )
        assert inj.should_fail("map", 0, 0)
        assert not inj.should_fail("map", 0, 1)
        assert inj.delay("map", 1, 0) == pytest.approx(0.5)
        assert inj.delay("map", 0, 0) == 0.0

    def test_composite_pickles(self):
        import pickle

        inj = CompositeInjector(
            RandomFailures(rate=0.2, seed=3),
            SlowTasks({("map", 0): 0.1}),
        )
        clone = pickle.loads(pickle.dumps(inj))
        assert clone.should_fail("map", 5, 0) == inj.should_fail(
            "map", 5, 0
        )
        assert clone.delay("map", 0, 0) == inj.delay("map", 0, 0)


class TestSchedulerDirect:
    def test_run_task_contract(self):
        sched = TaskScheduler(SchedulerConfig())
        ctx, out, wall, span = sched.run_task(
            "map", 7, lambda ctx: "payload"
        )
        assert out == "payload"
        assert span.attrs["task_id"] == 7
        assert span.attrs["status"] == "ok"
        assert wall >= 0.0

    def test_speculative_attempt_numbering(self):
        sched = TaskScheduler(
            SchedulerConfig(max_attempts=3),
            ScriptedFailures({("map", 0): 1}),
        )
        # scripted failures only hit regular attempt numbers, so the
        # speculative copy (attempts >= 1000) succeeds immediately
        ctx, out, wall, span = sched.run_task(
            "map", 0, lambda ctx: "ok", speculative=True
        )
        assert out == "ok"
        attempts = [c.attrs["attempt"] for c in span.children]
        assert attempts == [SPECULATIVE_ATTEMPT_BASE]
        assert span.attrs.get("speculative") is True
