"""Unit tests for the MapReduce substrate (blocks, runtime, counters)."""

from collections import defaultdict

import numpy as np
import pytest

from repro.mapreduce import (
    ClusterConfig,
    Counters,
    DictPartitioner,
    HashPartitioner,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    ParallelRuntime,
    Partitioner,
    RecordBatch,
    Reducer,
    makespan,
)
from repro.mapreduce.runtime import _approx_size, _record_count, _shuffle


class WordSplitMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.counters.incr("wc", "words")
            yield word, 1


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.add_cost(len(values))
        yield key, sum(values)


def wordcount_job(n_reducers=2):
    return MapReduceJob(
        name="wordcount",
        mapper=WordSplitMapper(),
        reducer=SumReducer(),
        n_reducers=n_reducers,
    )


class TestCounters:
    def test_incr_get(self):
        c = Counters()
        c.incr("g", "a")
        c.incr("g", "a", 4)
        assert c.get("g", "a") == 5
        assert c.get("g", "missing") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.incr("g", "x", 2)
        b.incr("g", "x", 3)
        b.incr("h", "y")
        a.merge(b)
        assert a.get("g", "x") == 5
        assert a.get("h", "y") == 1

    def test_as_dict_and_iter(self):
        c = Counters()
        c.incr("g", "x")
        assert c.as_dict() == {"g": {"x": 1}}
        assert list(c) == [("g", "x", 1)]


class TestMakespan:
    def test_single_slot_sums(self):
        assert makespan([1, 2, 3], 1) == 6

    def test_enough_slots_takes_max(self):
        assert makespan([1, 2, 3], 3) == 3

    def test_lpt_classic_example(self):
        # LPT on [3,3,2,2,2] over 2 slots -> 7 (optimum is 6; this is the
        # textbook 7/6 LPT instance).  The scheduler is plain LPT because
        # it models a cluster scheduler, not the plan-time allocator.
        assert makespan([3, 3, 2, 2, 2], 2) == 7

    def test_empty(self):
        assert makespan([], 4) == 0.0

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            makespan([1.0], 0)


class TestClusterConfig:
    def test_defaults_match_paper(self):
        c = ClusterConfig()
        assert c.nodes == 40
        assert c.map_slots == 320
        assert c.reduce_slots == 320

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=0)

    @pytest.mark.parametrize("size", [0, -5])
    def test_block_size_must_be_positive(self, size):
        # range(0, n, -5) is empty: a negative block size used to drop
        # the whole input and report zero outliers without an error.
        with pytest.raises(ValueError, match="block size"):
            ClusterConfig(hdfs_block_records=size)


class TestWholeCounts:
    """A count of the runtime layer is refused where it is given when it
    is fractional, not by a ``TypeError`` inside a later run."""

    @pytest.mark.parametrize("workers", [2.5, "2"])
    def test_parallel_runtime_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be a whole"):
            ParallelRuntime(ClusterConfig(nodes=2), workers=workers)

    @pytest.mark.parametrize("field", [
        "nodes", "map_slots_per_node", "reduce_slots_per_node",
        "hdfs_block_records",
    ])
    def test_cluster_config(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a whole"):
            ClusterConfig(**{field: 1.5})
        assert type(getattr(ClusterConfig(**{field: 2.0}), field)) is int

    def test_run_block_records(self):
        rt = LocalRuntime(ClusterConfig(nodes=2))
        with pytest.raises(ValueError, match="block_records must be a whole"):
            rt.run(wordcount_job(), ["a a", "b"], block_records=2.5)

    def test_makespan_slots(self):
        with pytest.raises(ValueError, match="slots must be a whole"):
            makespan([1.0, 2.0, 3.0], 1.5)

    def test_job_n_reducers(self):
        with pytest.raises(ValueError, match="n_reducers must be a whole"):
            wordcount_job(n_reducers=1.5)


class TestRuntime:
    def test_wordcount(self):
        rt = LocalRuntime(ClusterConfig(nodes=2))
        records = ["a b a", "b c", "a"]
        result = rt.run(wordcount_job(), records, block_records=1)
        assert dict(result.outputs) == {"a": 3, "b": 2, "c": 1}
        assert result.counters.get("wc", "words") == 6

    def test_one_map_task_per_block(self):
        rt = LocalRuntime(ClusterConfig(nodes=2))
        result = rt.run(wordcount_job(), ["x"] * 10, block_records=2)
        assert len(result.map_tasks) == 5
        assert len(result.reduce_tasks) == 2

    @pytest.mark.parametrize("size", [0, -5])
    def test_explicit_block_size_must_be_positive(self, size):
        # An explicit 0 is rejected too, not replaced by the default.
        rt = LocalRuntime(ClusterConfig(nodes=2))
        with pytest.raises(ValueError, match="block size"):
            rt.run(wordcount_job(), ["a a", "b"], block_records=size)

    def test_partitioner_routing(self):
        class EvenOdd(HashPartitioner):
            def partition(self, key, n):
                return 0 if key == "a" else 1

        job = MapReduceJob(
            "route", WordSplitMapper(), SumReducer(),
            n_reducers=2, partitioner=EvenOdd(),
        )
        rt = LocalRuntime(ClusterConfig(nodes=2))
        result = rt.run(job, ["a b a b"], block_records=1)
        a_task = result.reduce_tasks[0]
        b_task = result.reduce_tasks[1]
        assert a_task.input_records == 2
        assert b_task.input_records == 2

    def test_bad_partitioner_rejected(self):
        class Bad(HashPartitioner):
            def partition(self, key, n):
                return n  # out of range

        job = MapReduceJob(
            "bad", WordSplitMapper(), SumReducer(),
            n_reducers=2, partitioner=Bad(),
        )
        rt = LocalRuntime(ClusterConfig(nodes=2))
        with pytest.raises(ValueError, match="partitioner"):
            rt.run(job, ["a"], block_records=1)

    def test_cost_units_reported(self):
        rt = LocalRuntime(ClusterConfig(nodes=2))
        result = rt.run(wordcount_job(1), ["a a a"], block_records=1)
        assert result.reduce_tasks[0].cost_units == 3

    def test_simulated_time_positive(self):
        rt = LocalRuntime(ClusterConfig(nodes=2))
        result = rt.run(wordcount_job(), ["a b c"] * 5, block_records=2)
        assert result.simulated_time(rt.cluster) > 0
        assert result.simulated_time(rt.cluster, "units") > 0

    def test_unknown_metric_rejected(self):
        rt = LocalRuntime(ClusterConfig(nodes=2))
        result = rt.run(wordcount_job(), ["a"], block_records=1)
        for metric in ("bogus", "wall"):
            with pytest.raises(ValueError, match="metric"):
                result.simulated_phase_time("map", rt.cluster, metric)
        with pytest.raises(ValueError):
            result.simulated_phase_time("bogus", rt.cluster)

    def test_empty_input(self):
        rt = LocalRuntime(ClusterConfig(nodes=2))
        result = rt.run(wordcount_job(), [], block_records=4)
        assert result.outputs == []

    def test_sorted_keys_within_reducer(self):
        class KeyOrderReducer(Reducer):
            def __init__(self):
                self.seen = []

            def reduce(self, key, values, ctx):
                self.seen.append(key)
                return ()

        reducer = KeyOrderReducer()
        job = MapReduceJob(
            "sorted", WordSplitMapper(), reducer, n_reducers=1
        )
        rt = LocalRuntime(ClusterConfig(nodes=2))
        rt.run(job, ["d c b a"], block_records=1)
        assert reducer.seen == sorted(reducer.seen)


class ModPartitioner(Partitioner):
    """Distinct keys collide on a reducer; counts how often it is asked."""

    def __init__(self):
        self.asked = []

    def partition(self, key, n_reducers):
        self.asked.append(key)
        return key % n_reducers


class KeyedMapper(Mapper):
    def map(self, key, value, ctx):
        yield key, value
        yield key + 3, (value, float(key))


class ListReducer(Reducer):
    def reduce(self, key, values, ctx):
        yield key, list(values)


def keyed_job(partitioner=None):
    return MapReduceJob(
        "keyed", KeyedMapper(), ListReducer(), n_reducers=3,
        partitioner=partitioner or ModPartitioner(),
    )


class ModFiveMapper(Mapper):
    """Point rows keyed by ``id % 5``: one batch per key per block."""

    def map(self, key, value, ctx):
        yield key % 5, RecordBatch([key], [value])

    def map_block(self, records, ctx):
        return RecordBatch(
            records.ids, records.points, keys=records.ids % 5
        ).group_by_key()


class IdsReducer(Reducer):
    def reduce(self, key, values, ctx):
        yield key, RecordBatch.concat(values).ids.tolist()


class TestShuffle:
    """The one partition-and-group helper both runtimes call."""

    TASKS = [
        [(1, "a"), (4, "b"), (1, "c"), (2, "d"), (4, "e")],
        [(7, "f"), (2, "g"), (1, "h"), (0, "i")],
    ]

    def test_groups_like_the_per_pair_loop(self):
        job = keyed_job()
        want = [defaultdict(list) for _ in range(3)]
        for pairs in self.TASKS:
            for key, value in pairs:
                dest = job.partitioner.partition(key, job.n_reducers)
                want[dest][key].append(value)
        got = [defaultdict(list) for _ in range(3)]
        for pairs in self.TASKS:
            _shuffle(job, pairs, got)
        assert got == want
        # First-seen key order is what an unsorted reduce task iterates.
        assert [list(g) for g in got] == [list(w) for w in want]

    def test_partitioner_asked_once_per_key_per_task(self):
        job = keyed_job()
        inputs = [defaultdict(list) for _ in range(3)]
        for pairs in self.TASKS:
            _shuffle(job, pairs, inputs)
        assert job.partitioner.asked == [1, 4, 2, 7, 2, 1, 0]

    def test_bytes_are_records_times_first_record_width(self):
        inputs = [defaultdict(list) for _ in range(3)]
        pairs = [(5, (0, 17, (1.0, 2.0))), (6, (1, 18, (3.0, 4.0)))]
        width = _approx_size(5) + _approx_size((0, 17, (1.0, 2.0)))
        assert _shuffle(keyed_job(), pairs, inputs) == 2 * width
        assert _shuffle(keyed_job(), [], inputs) == 0

    def test_a_batch_counts_its_rows_and_its_column_bytes(self):
        inputs = [defaultdict(list) for _ in range(3)]
        a = RecordBatch([1, 2, 3], np.zeros((3, 2)), tags=[0, 0, 1])
        b = RecordBatch([4], np.zeros((1, 2)), tags=[1])
        job = keyed_job()
        # ids 8 + two coordinates 16 + tag 1 bytes a row; keys are free.
        assert _shuffle(job, [(5, a), (7, b), (5, b)], inputs) == 5 * 25
        assert _record_count([a, b, b]) == 5
        assert _record_count(["a", (1, 2), [3, 4, 5]]) == 3
        assert job.partitioner.asked == [5, 7]
        assert inputs[2][5] == [a, b] and inputs[1][7] == [b]

    def test_out_of_range_destination_rejected(self):
        class Bad(Partitioner):
            def partition(self, key, n_reducers):
                return -1 if key == 2 else 0

        inputs = [defaultdict(list) for _ in range(3)]
        with pytest.raises(ValueError) as err:
            _shuffle(keyed_job(Bad()), self.TASKS[0], inputs)
        assert str(err.value) == (
            "partitioner returned -1 for key 2; must be in [0, 3)"
        )

    @pytest.mark.parametrize("transport", ["shm"])
    def test_pool_and_serial_account_the_same_shuffle(self, transport):
        cluster = ClusterConfig(nodes=2)
        records = [(i % 5, f"v{i}") for i in range(40)]
        serial = LocalRuntime(cluster).run(
            keyed_job(), records, block_records=8
        )
        pooled = ParallelRuntime(
            cluster, workers=2, transport=transport
        ).run(keyed_job(), records, block_records=8)
        assert serial.shuffle_records == pooled.shuffle_records == 80
        assert serial.shuffle_bytes == pooled.shuffle_bytes > 0
        assert sorted(serial.outputs) == sorted(pooled.outputs)
        assert [t.input_records for t in serial.reduce_tasks] == [
            t.input_records for t in pooled.reduce_tasks
        ]


    @pytest.mark.parametrize("transport", [None, "shm"])
    def test_a_batch_job_is_accounted_by_row_on_every_runtime(
        self, transport
    ):
        """37 rows in blocks of 8 (views of the input), keyed by
        ``id % 5``: every count is in rows, every byte a column byte."""
        cluster = ClusterConfig(nodes=2)
        runtime = LocalRuntime(cluster) if transport is None else (
            ParallelRuntime(cluster, workers=2, transport=transport)
        )
        rows = RecordBatch(np.arange(37), np.arange(74.0).reshape(37, 2))
        blocks = runtime._resolve_blocks(rows, 8)
        assert [len(block) for block in blocks] == [8, 8, 8, 8, 5]
        assert all(np.shares_memory(b.points, rows.points) for b in blocks)
        job = MapReduceJob(
            "mod5", ModFiveMapper(), IdsReducer(), n_reducers=3,
            partitioner=ModPartitioner(),
        )
        result = runtime.run(job, rows, block_records=8)
        assert result.shuffle_records == 37
        assert result.shuffle_bytes == 37 * 24
        assert [
            (t.input_records, t.output_records) for t in result.map_tasks
        ] == [(8, 8), (8, 8), (8, 8), (8, 8), (5, 5)]
        # keys 0 and 3 meet on reducer 0, 1 and 4 on 1, 2 alone on 2
        assert [
            (t.input_records, t.output_records) for t in result.reduce_tasks
        ] == [(15, 2), (15, 2), (7, 1)]
        # a key's batches arrive in block order, rows in block order
        assert dict(result.outputs) == {
            key: list(range(key, 37, 5)) for key in range(5)
        }

    def test_a_mapper_without_map_block_reads_a_batch_row_by_row(self):
        class MapOnly(ModFiveMapper):
            map_block = Mapper.map_block

        rows = RecordBatch(np.arange(12), np.arange(24.0).reshape(12, 2))
        job = MapReduceJob("rows", MapOnly(), IdsReducer(), n_reducers=2)
        result = LocalRuntime(ClusterConfig(nodes=2)).run(
            job, rows, block_records=5
        )
        assert result.shuffle_records == 12
        assert dict(result.outputs) == {
            key: list(range(key, 12, 5)) for key in range(5)
        }


class BlockOnlyMapper(Mapper):
    """No ``map`` at all: the block is the mapper's only entry."""

    def map_block(self, records, ctx):
        return [(key % 2, value) for key, value in records]


class NoEntryMapper(Mapper):
    pass


class SeenMapper(Mapper):
    """``map`` only; emits what it was handed, types included."""

    def map(self, key, value, ctx):
        yield 0, (type(key).__name__, key, value.tolist())


class TestMapperContract:
    """A mapper defines ``map`` or ``map_block``; jobs run ``map_block``."""

    @pytest.mark.parametrize("transport", [None, "shm"])
    def test_map_block_alone_is_a_mapper(self, transport):
        cluster = ClusterConfig(nodes=2)
        job = MapReduceJob(
            "blocks", BlockOnlyMapper(), ListReducer(), n_reducers=2
        )
        records = [(i, f"v{i}") for i in range(10)]
        with (
            LocalRuntime(cluster) if transport is None
            else ParallelRuntime(cluster, workers=2, transport=transport)
        ) as runtime:
            result = runtime.run(job, records, block_records=4)
        assert dict(result.outputs) == {
            0: [f"v{i}" for i in range(0, 10, 2)],
            1: [f"v{i}" for i in range(1, 10, 2)],
        }
        assert [t.output_records for t in result.map_tasks] == [4, 4, 2]

    def test_a_mapper_with_neither_entry_names_itself(self):
        job = MapReduceJob("none", NoEntryMapper(), ListReducer())
        with pytest.raises(NotImplementedError, match="NoEntryMapper"):
            LocalRuntime(ClusterConfig(nodes=2)).run(job, [(1, "a")])

    def test_map_sees_id_and_point_of_each_batch_row(self):
        rows = RecordBatch([7, 8, 9], np.arange(6.0).reshape(3, 2))
        job = MapReduceJob("seen", SeenMapper(), ListReducer())
        result = LocalRuntime(ClusterConfig(nodes=2)).run(
            job, rows, block_records=2
        )
        assert result.outputs == [(0, [
            ("int", 7, [0.0, 1.0]), ("int", 8, [2.0, 3.0]),
            ("int", 9, [4.0, 5.0]),
        ])]
        assert [t.input_records for t in result.map_tasks] == [2, 1]


class TestDictPartitioner:
    def test_table_and_fallback(self):
        p = DictPartitioner({"x": 3})
        assert p.partition("x", 4) == 3
        assert 0 <= p.partition("unknown", 4) < 4

    def test_table_wraps_modulo(self):
        p = DictPartitioner({"x": 7})
        assert p.partition("x", 4) == 3
