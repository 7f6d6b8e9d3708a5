"""Differential tests: the shared-memory data plane must be invisible
in results.

Two layers:

* **codec round-trips** (hypothesis, in-process) — whatever the arena
  packs, ``resolve_ref`` must hand back a payload that compares equal,
  including the awkward shapes: empty batches, zero-width points,
  Fortran-ordered and strided sources, batches with and without tags,
  a reducer's ``{pid: [batch, batch]}`` input, and payloads that hold
  no array at all.
* **end-to-end pipelines** — the same detection run through the serial
  runtime and through the ``ParallelRuntime`` pool must agree
  on outlier sets, every counter group (minus ``transport``, which only
  exists across a process boundary), and ``distance_evals`` — across
  worker counts and with speculation enabled;
* **spills** — map output stays in the workers' spill segments: the
  reduce payloads the driver writes do not grow with the shuffle, and
  every job built on the supporting-area framework (the extensions and
  the Domain baseline included), a map task that emits nothing and the
  sampling job's in-band output all keep the serial runtime's books.
"""

import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Dataset, OutlierParams, detect_outliers
from repro.core.framework import _support_job
from repro.mapreduce import (
    ClusterConfig,
    Counters,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    ParallelRuntime,
    RecordBatch,
    Reducer,
    SchedulerConfig,
)
from repro.mapreduce import shm
from repro.mapreduce.shm import (
    ShmArena,
    ShmEnvelope,
    ShmTransport,
    close_attachments,
    live_segments,
    open_envelope,
    resolve_ref,
)
from repro.observability import Tracer
from repro.partitioning.grid_strategies import _grid_plan
from repro.sampling.minibuckets import collect_minibucket_stats

CLUSTER_KW = dict(nodes=2, hdfs_block_records=64)


def roundtrip(payload):
    """Pack one payload into a fresh arena and decode it back.

    The arena is released (segments unlinked) before returning; decoded
    block payloads are still-live views into the mapping, so the
    attachment handles are closed in the autouse fixture below, after
    the test has dropped its references.
    """
    arena = ShmArena("test")
    try:
        refs = arena.pack({0: payload})
        return resolve_ref(refs[0]), refs[0]
    finally:
        arena.release()
        assert live_segments() == frozenset()


@pytest.fixture(autouse=True)
def _close_attachments():
    yield
    gc.collect()  # drop decoded views before unmapping their segments
    close_attachments()


# ----------------------------------------------------------------------
# Codec round-trips
# ----------------------------------------------------------------------
@st.composite
def batches(draw, min_rows=0, ndim=None):
    """Batches incl. edge shapes and source layouts: empty, zero-width
    points, Fortran-ordered and strided point matrices, tags or none."""
    n = draw(st.integers(min_value=min_rows, max_value=12))
    d = draw(st.integers(0, 3)) if ndim is None else ndim
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    points = rng.uniform(-5, 5, size=(2 * n, d))
    if layout == "fortran":
        points = np.asfortranarray(points)
    points = points[::2] if layout == "strided" else points[:n]
    ids = rng.permutation(4 * n)[::4]  # strided too
    tags = rng.integers(0, 2, size=n) if draw(st.booleans()) else None
    return RecordBatch(ids, points, tags)


def assert_same_batch(got, want):
    assert type(got) is RecordBatch and len(got) == len(want)
    for name in ("ids", "points", "tags", "keys"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name


class TestBlockCodec:
    """A map task's payload: one block of the input batch."""

    @given(batches())
    def test_roundtrip(self, batch):
        out, _ref = roundtrip(batch)
        assert_same_batch(out, batch)

    def test_block_is_a_view_of_its_dataset(self):
        """What the runtime packs is a slice of the dataset's own
        columns; it ships the slice's rows, not the base arrays."""
        data = _dataset(n=50)
        block = data.batch()[10:20]
        assert np.shares_memory(block.points, data.points)
        out, ref = roundtrip(block)
        assert_same_batch(out, block)
        assert ref.buffers == 2  # ids and points, out of band

    def test_keyed_block(self):
        """The routed job's input rows carry their shuffle key."""
        block = RecordBatch(
            [3, 4, 5], np.ones((3, 2)), tags=[0, 1, 1], keys=[7, 7, 9]
        )
        out, ref = roundtrip(block)
        assert_same_batch(out, block)
        assert ref.buffers == 4

    def test_readonly_views_cannot_corrupt_segment(self):
        out, _ = roundtrip(RecordBatch([0, 1, 2], np.ones((3, 2)), [0, 0, 1]))
        for column in (out.ids, out.points, out.tags):
            with pytest.raises(ValueError):
                column[0] = 99


@st.composite
def group_payloads(draw):
    """Reducer inputs: ``{pid: [batch, ...]}``, a partition's batches in
    map-task order, all of one width."""
    ndim = draw(st.integers(min_value=0, max_value=3))
    n_keys = draw(st.integers(min_value=0, max_value=5))
    return {
        key * 3: draw(st.lists(batches(ndim=ndim), max_size=3))
        for key in range(n_keys)
    }


def assert_same_groups(got, want):
    assert list(got) == list(want)  # key order kept
    for key, held in want.items():
        assert len(got[key]) == len(held)
        for a, b in zip(got[key], held):
            assert_same_batch(a, b)


class TestGroupsCodec:
    """A reduce task's payload: its partitions' batches."""

    @given(group_payloads())
    def test_roundtrip(self, payload):
        out, _ref = roundtrip(payload)
        assert_same_groups(out, payload)

    def test_empty_support_groups(self):
        """A partition nothing supports, one with no rows at all, and
        one whose list is empty."""
        core_only = RecordBatch([1, 2], [[0.5], [1.5]], tags=[0, 0])
        payload = {0: [], 5: [core_only, core_only[:0]], 9: []}
        out, _ = roundtrip(payload)
        assert_same_groups(out, payload)

    def test_zero_dim_points(self):
        payload = {0: [RecordBatch([3, 4], np.empty((2, 0)), [0, 1])]}
        out, _ = roundtrip(payload)
        assert_same_groups(out, payload)
        assert out[0][0].points.shape == (2, 0)

    def test_non_batch_values_are_a_plain_pickle(self):
        """Generic shuffle values (the sampling job's counts, a word
        count) hold no arrays: a stream and nothing out of band."""
        payload = {0: [[1, 2.0]], 1: ["text"], 2: [(1, (0.0,)), (2.5, ())]}
        out, ref = roundtrip(payload)
        assert out == payload
        assert ref.buffers == 0

    def test_descriptor_is_small_whatever_it_describes(self):
        """Buffer offsets live in the segment, not in the envelope."""
        many = {
            pid: [RecordBatch([pid], [[0.0, 1.0]], [0])]
            for pid in range(200)
        }
        arena = ShmArena("test")
        try:
            ref = arena.pack({0: many})[0]
            assert ref.buffers == 600
            assert len(pickle.dumps(ref)) < 200
            assert_same_groups(resolve_ref(ref), many)
        finally:
            arena.release()
        assert live_segments() == frozenset()


class TestSpillCodec:
    """A map task's output through its spill: written by the worker,
    mapped by the driver, referenced from a reduce payload and rebuilt
    by the reducer's worker."""

    @given(st.integers(0, 3).flatmap(
        lambda d: st.lists(batches(ndim=d), min_size=1, max_size=4)
    ), st.booleans())
    def test_roundtrip(self, parts, keyed):
        tagged = parts[0].tags is not None
        parts = [
            RecordBatch(
                b.ids, b.points,
                (np.zeros(len(b)) if b.tags is None else b.tags)
                if tagged else None,
                np.arange(len(b)) if keyed else None,
            )
            for b in parts
        ]
        pairs = [(key * 7, batch) for key, batch in enumerate(parts)]
        arena = ShmArena("test")
        try:
            spill = shm.write_spill(arena.spill_name(), pairs)
            assert [g[0] for g in spill.groups] == [k for k, _ in pairs]
            views = arena.open_spill(spill)
            for (_, got), (_, want) in zip(views, pairs):
                assert_same_batch(got, want)
            payload = {key: [batch] for key, batch in views}
            ref = arena.pack({0: payload})[0]
            assert ref.buffers == 0  # references, not columns
            assert_same_groups(
                resolve_ref(ref), {key: [b] for key, b in pairs}
            )
        finally:
            arena.release()
        assert live_segments() == frozenset()

    def test_mixed_layouts_stay_in_band(self):
        one = RecordBatch([0], [[1.0, 2.0]])
        assert shm.write_spill("unused", []) is None
        assert shm.write_spill("unused", [(0, 1), (1, 2)]) is None
        assert shm.write_spill(
            "unused", [(0, one), (1, RecordBatch([1], [[1.0]]))]
        ) is None
        assert shm.write_spill(
            "unused", [(0, one), (1, RecordBatch([1], [[1.0, 2.0]], [1]))]
        ) is None


# ----------------------------------------------------------------------
# Eviction: what a worker that outlives its job still maps
# ----------------------------------------------------------------------
class TestEviction:
    """``open_envelope`` as a pool worker calls it, job after job."""

    @pytest.fixture
    def arenas(self):
        made = [ShmArena(str(i)) for i in range(3)]
        yield made
        for arena in made:
            arena.release()

    @staticmethod
    def _task(arena, rows):
        context = arena.pack_object(("runtime", "job"))
        batch = RecordBatch(np.arange(rows), np.ones((rows, 2)))
        return ShmEnvelope(0, context, arena.pack({0: batch})[0])

    def test_a_new_job_evicts_the_previous_one(self, arenas):
        first, second, _ = arenas
        task = self._task(first, 4)
        open_envelope(task)
        open_envelope(task)  # same job: nothing to evict
        assert set(shm._ATTACHMENTS) == set(first.segments)
        assert len(shm._OBJECT_CACHE) == 1
        *_, block = open_envelope(self._task(second, 6))
        assert set(shm._ATTACHMENTS) == set(second.segments)
        assert len(shm._OBJECT_CACHE) == 1
        assert len(block) == 6

    def test_a_segment_still_viewed_is_evicted_later(self, arenas):
        """An attempt abandoned at its timeout may still read its block
        when the next job arrives: its segment stays mapped (and
        readable) and goes at the first eviction after the view does."""
        first, second, third = arenas
        task = self._task(first, 4)
        *_, held = open_envelope(task)
        open_envelope(self._task(second, 6))
        assert set(shm._ATTACHMENTS) == {
            task.payload.segment, *second.segments
        }
        assert held.points.sum() == 8.0
        del held
        open_envelope(self._task(third, 2))
        assert set(shm._ATTACHMENTS) == set(third.segments)


# ----------------------------------------------------------------------
# End-to-end differential runs
# ----------------------------------------------------------------------
def _counters(result) -> dict:
    merged = Counters()
    for job in result.run.jobs:
        merged.merge(job.counters)
    flat = merged.as_dict()
    # dispatch accounting only exists across a process boundary
    flat.pop("transport", None)
    return flat


def _detect(data, runtime, cluster):
    result = detect_outliers(
        data, OutlierParams(r=2.0, k=3),
        strategy="DMT", n_partitions=4, n_reducers=2,
        cluster=cluster, runtime=runtime, sample_rate=0.5, seed=3,
    )
    return result.outlier_ids, _counters(result)


def _dataset(seed=11, n=220, dtype=np.float64, layout="c"):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 30, size=(n, 2)).astype(dtype)
    if layout == "fortran":
        pts = np.asfortranarray(pts)
    elif layout == "strided":
        pts = rng.uniform(0, 30, size=(2 * n, 2)).astype(dtype)[::2]
    return Dataset.from_points(pts)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_transports_match_serial(self, workers):
        data = _dataset()
        serial = _detect(
            data, LocalRuntime(ClusterConfig(**CLUSTER_KW)),
            ClusterConfig(**CLUSTER_KW),
        )
        cluster = ClusterConfig(**CLUSTER_KW)
        with ParallelRuntime(cluster, workers=workers) as rt:
            got = _detect(data, rt, cluster)
        assert got[0] == serial[0]
        assert got[1] == serial[1]

    def test_transports_match_with_speculation(self):
        data = _dataset(seed=5)
        cluster = ClusterConfig(**CLUSTER_KW)
        serial = _detect(data, LocalRuntime(cluster), cluster)
        cluster2 = ClusterConfig(**CLUSTER_KW)
        with ParallelRuntime(
            cluster2, workers=2,
            scheduler=SchedulerConfig(
                speculate=True, speculation_threshold=1.5,
            ),
        ) as rt:
            got = _detect(data, rt, cluster2)
        assert got == serial

    @pytest.mark.parametrize(
        "dtype,layout",
        [(np.float32, "c"), (np.float64, "fortran"),
         (np.float64, "strided")],
    )
    def test_edge_input_layouts(self, dtype, layout):
        data = _dataset(seed=9, n=150, dtype=dtype, layout=layout)
        cluster = ClusterConfig(**CLUSTER_KW)
        serial = _detect(data, LocalRuntime(cluster), cluster)
        cluster2 = ClusterConfig(**CLUSTER_KW)
        with ParallelRuntime(cluster2, workers=2) as rt:
            pooled = _detect(data, rt, cluster2)
        assert pooled == serial

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(40, 120))
    def test_random_datasets_agree(self, seed, n):
        data = _dataset(seed=seed, n=n)
        cluster = ClusterConfig(**CLUSTER_KW)
        serial = _detect(data, LocalRuntime(cluster), cluster)
        c = ClusterConfig(**CLUSTER_KW)
        with ParallelRuntime(c, workers=2) as rt:
            assert _detect(data, rt, c) == serial


# ----------------------------------------------------------------------
# Spills: the shuffle stays in shared memory
# ----------------------------------------------------------------------
class KeyedBlockMapper(Mapper):
    """One batch per key of a block: row ``i`` goes to key ``i % keys``."""

    def __init__(self, keys):
        self.keys = keys

    def map_block(self, records, ctx):
        return RecordBatch(
            records.ids, records.points, keys=records.ids % self.keys
        ).group_by_key()


class RowTotals(Reducer):
    def reduce(self, key, values, ctx):
        yield key, sum(len(b) for b in values), float(
            sum(b.points.sum() for b in values)
        )


def _books(result):
    """What a job's run must not owe to the runtime that ran it."""
    counters = result.counters.as_dict()
    counters.pop("transport", None)
    return (
        result.outputs, counters, result.shuffle_records,
        result.shuffle_bytes,
        [task.cost_units for task in result.map_tasks + result.reduce_tasks],
    )


def _run_both(job, records, block_records=64):
    cluster = ClusterConfig(nodes=2)
    serial = LocalRuntime(cluster).run(job, records, block_records)
    with ParallelRuntime(cluster, workers=2) as rt:
        pooled = rt.run(job, records, block_records)
    return serial, pooled


def _map_spans(result):
    (map_phase, _reduce_phase) = result.trace.children
    return map_phase.children


class TestSpills:
    def _reduce_segment_bytes(self, monkeypatch, rows_per_key):
        """Bytes of the segment the driver writes for the reduce phase."""
        written = []
        encode = ShmTransport.encode_tasks

        def measured(self, payloads):
            before = self.arena.segment_bytes
            out = encode(self, payloads)
            written.append(self.arena.segment_bytes - before)
            return out

        monkeypatch.setattr(ShmTransport, "encode_tasks", measured)
        n = 8 * 4 * rows_per_key
        batch = RecordBatch(
            np.arange(n), np.random.default_rng(0).uniform(size=(n, 3))
        )
        job = MapReduceJob(
            "keyed", KeyedBlockMapper(8), RowTotals(), n_reducers=2
        )
        with ParallelRuntime(ClusterConfig(nodes=2), workers=2) as rt:
            result = rt.run(job, batch, block_records=n // 4)
        assert sorted(key for key, _, _ in result.outputs) == list(range(8))
        assert result.shuffle_records == n
        _map_bytes, reduce_bytes = written
        return reduce_bytes

    def test_reduce_payloads_do_not_grow_with_the_shuffle(self, monkeypatch):
        """Doubling the rows of every key doubles the shuffle, not what
        the driver writes for the reducers: they read the spills."""
        small = self._reduce_segment_bytes(monkeypatch, 40)
        large = self._reduce_segment_bytes(monkeypatch, 80)
        # 32 batches, each a (spill, start, stop) reference: only the
        # pickled width of a row offset may grow, a byte per offset.
        assert small <= large <= small + 2 * 32 + shm._ALIGN
        assert small < 8 * 4 * 40 * 8  # less than the ids column alone

    def test_map_tasks_spill_and_report_it(self):
        job = MapReduceJob(
            "keyed", KeyedBlockMapper(5), RowTotals(), n_reducers=3
        )
        records = RecordBatch(
            np.arange(300), np.random.default_rng(1).uniform(size=(300, 2))
        )
        serial, pooled = _run_both(job, records)
        assert _books(pooled) == _books(serial)
        spilled = [span.attrs["spill_bytes"] for span in _map_spans(pooled)]
        assert len(spilled) == 5 and all(
            n >= span.attrs["shuffle_bytes"]
            for n, span in zip(spilled, _map_spans(pooled))
        )
        # context, map payloads, reduce payloads and one spill per task
        assert pooled.transport["segments"] == 3 + 5
        assert pooled.transport["segment_bytes"] > sum(spilled)
        assert pooled.counters.get("transport", "segments") == 3 + 5

    def test_extension_jobs_match_serial(self):
        from repro.clustering.dbscan import _LocalDBSCANReducer
        from repro.knn.outliers import _RefineReducer
        from repro.loci.loci import LOCIParams, _LOCIReducer

        rng = np.random.default_rng(7)
        data = Dataset.from_points(np.vstack([
            rng.normal((10.0, 10.0), 1.0, size=(300, 2)),
            rng.normal((30.0, 30.0), 1.0, size=(300, 2)),
            rng.uniform(0, 40, size=(25, 2)),
        ]))
        plan = _grid_plan(data.bounds, 6, "ext-grid")
        loci = LOCIParams(radii=(2.0, 4.0))
        radii = np.array([
            2.5 if p.pid % 2 else -np.inf for p in plan.partitions
        ])
        jobs = [
            _support_job("dbscan", plan, 2.0, _LocalDBSCANReducer(2.0, 4), 3),
            _support_job(
                "knn-refine", plan, radii, _RefineReducer(4), 3,
                certified_ids=data.ids[::3].tolist(),
            ),
            _support_job(
                "loci", plan, loci.support_radius, _LOCIReducer(loci), 3
            ),
        ]
        for job in jobs:
            serial, pooled = _run_both(job, data.batch())
            assert serial.outputs, job.name
            assert _books(pooled) == _books(serial), job.name

    def test_domain_baseline_matches_serial(self):
        data = _dataset(seed=4, n=300)
        books = []
        for runtime in (LocalRuntime, ParallelRuntime):
            cluster = ClusterConfig(**CLUSTER_KW)
            with runtime(cluster) as rt:
                result = detect_outliers(
                    data, OutlierParams(r=2.0, k=3), strategy="Domain",
                    n_partitions=4, n_reducers=2, cluster=cluster,
                    runtime=rt, seed=3,
                )
            books.append((
                result.outlier_ids,
                [_books(job)[1:] for job in result.run.jobs],
            ))
        assert len(books[0][1]) == 2  # detection + confirmation
        assert books[1] == books[0]

    def test_a_map_task_that_emits_nothing(self):
        """The fast tier drops a block that is all certified inliers far
        from every residue point: that map task has no output to spill."""
        rng = np.random.default_rng(2)
        data = Dataset.from_points(np.vstack([
            rng.normal((5.0, 5.0), 0.3, size=(64, 2)),
            rng.uniform(20, 60, size=(200, 2)),
        ]))
        runs = []
        for runtime in (LocalRuntime, ParallelRuntime):
            cluster = ClusterConfig(**CLUSTER_KW)
            tracer = Tracer()
            with runtime(cluster) as rt:
                result = detect_outliers(
                    data, OutlierParams(r=2.0, k=3), strategy="DMT",
                    n_partitions=4, n_reducers=2, cluster=cluster,
                    runtime=rt, tier="fast", sample_rate=0.5, seed=3,
                    tracer=tracer,
                )
            runs.append((result.outlier_ids, _counters(result), tracer))
        assert runs[1][:2] == runs[0][:2]
        (detect,) = [
            job for job in runs[1][2].job_spans()
            if job.name.startswith("job:dod-detect")
        ]
        first, *rest = detect.children[0].children
        assert first.attrs["output_records"] == 0
        assert first.attrs["spill_bytes"] == 0
        assert all(span.attrs["spill_bytes"] > 0 for span in rest)

    def test_sampling_output_stays_in_band(self):
        """``(bucket, count)`` pairs are not batches: nothing spills."""
        data = _dataset(seed=8, n=500)
        domain = data.bounds
        cluster = ClusterConfig(nodes=2, hdfs_block_records=100)
        serial = collect_minibucket_stats(
            LocalRuntime(cluster), data.batch(), domain, rate=0.5
        )
        tracer = Tracer()
        with ParallelRuntime(cluster, workers=2, tracer=tracer) as rt:
            pooled = collect_minibucket_stats(
                rt, data.batch(), domain, rate=0.5
            )
            assert rt.transport_totals["segments"] == 3
        assert np.array_equal(pooled.counts, serial.counts)
        assert pooled.sampled_points == serial.sampled_points
        (job,) = tracer.job_spans()
        assert [s.attrs["spill_bytes"] for s in job.children[0].children] == [
            0
        ] * 5
