"""Tests for the multiprocess execution backend."""

import numpy as np
import pytest

from repro.core import Dataset, OutlierParams, detect_outliers
from repro.mapreduce import (
    ClusterConfig,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    ParallelRuntime,
    Reducer,
    ScriptedFailures,
)

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
