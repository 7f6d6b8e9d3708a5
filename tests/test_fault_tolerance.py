"""Tests for task failure injection and retry semantics."""

import numpy as np
import pytest

from repro.core import Dataset, OutlierParams, brute_force_outliers, detect_outliers
from repro.mapreduce import (
    ClusterConfig,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    RandomFailures,
    Reducer,
    SchedulerConfig,
    ScriptedFailures,
    SimulatedTaskFailure,
)


class EchoMapper(Mapper):
    def map(self, key, value, ctx):
        yield value % 3, value


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        yield key, sum(values)


def job():
    return MapReduceJob("echo-sum", EchoMapper(), SumReducer(),
                        n_reducers=2)


CLUSTER = ClusterConfig(nodes=2)


class TestInjectors:
    def test_random_failures_deterministic(self):
        inj = RandomFailures(rate=0.5, seed=3)
        first = [inj.should_fail("map", t, 0) for t in range(50)]
        second = [inj.should_fail("map", t, 0) for t in range(50)]
        assert first == second
        assert any(first) and not all(first)

    def test_random_rate_validation(self):
        with pytest.raises(ValueError):
            RandomFailures(rate=1.0)

    def test_scripted(self):
        inj = ScriptedFailures({("map", 1): 2})
        assert inj.should_fail("map", 1, 0)
        assert inj.should_fail("map", 1, 1)
        assert not inj.should_fail("map", 1, 2)
        assert not inj.should_fail("map", 0, 0)


class TestRetries:
    def test_result_identical_under_failures(self):
        data = list(range(100))
        clean = LocalRuntime(CLUSTER).run(job(), data, block_records=10)
        flaky = LocalRuntime(
            CLUSTER, failure_injector=RandomFailures(rate=0.3, seed=7)
        ).run(job(), data, block_records=10)
        assert sorted(clean.outputs) == sorted(flaky.outputs)

    def test_failures_counted(self):
        rt = LocalRuntime(
            CLUSTER,
            failure_injector=ScriptedFailures(
                {("map", 0): 2, ("reduce", 1): 1}
            ),
        )
        result = rt.run(job(), list(range(40)), block_records=10)
        assert result.counters.get("runtime", "map_task_failures") == 2
        assert result.counters.get("runtime", "reduce_task_failures") == 1

    def test_too_many_failures_raise(self):
        rt = LocalRuntime(
            CLUSTER,
            failure_injector=ScriptedFailures({("map", 0): 99}),
            scheduler=SchedulerConfig(max_attempts=3),
        )
        with pytest.raises(SimulatedTaskFailure):
            rt.run(job(), list(range(10)), block_records=5)

    def test_user_exception_retried_then_raised(self):
        class Crashing(Mapper):
            def map(self, key, value, ctx):
                raise RuntimeError("boom")
                yield  # pragma: no cover

        rt = LocalRuntime(
            CLUSTER, scheduler=SchedulerConfig(max_attempts=2)
        )
        crash_job = MapReduceJob("crash", Crashing(), SumReducer())
        with pytest.raises(RuntimeError, match="boom"):
            rt.run(crash_job, [1], block_records=1)

    def test_max_attempts_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            SchedulerConfig(max_attempts=0)

    def test_outputs_not_duplicated_after_reduce_retry(self):
        rt = LocalRuntime(
            CLUSTER,
            failure_injector=ScriptedFailures({("reduce", 0): 2}),
        )
        result = rt.run(job(), list(range(30)), block_records=10)
        keys = [k for k, _ in result.outputs]
        assert len(keys) == len(set(keys))


class TestEndToEndUnderFailures:
    def test_detection_exact_despite_failures(self):
        rng = np.random.default_rng(11)
        data = Dataset.from_points(rng.uniform(0, 40, size=(800, 2)))
        params = OutlierParams(r=2.0, k=5)
        oracle = brute_force_outliers(data, params)
        runtime = LocalRuntime(
            ClusterConfig(nodes=4),
            failure_injector=RandomFailures(rate=0.25, seed=5),
        )
        result = detect_outliers(
            data, params, strategy="DMT", n_partitions=9, n_reducers=4,
            cluster=runtime.cluster, runtime=runtime, sample_rate=0.5,
        )
        assert result.outlier_ids == oracle
