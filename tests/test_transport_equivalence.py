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
  worker counts and with speculation enabled.
"""

import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Dataset, OutlierParams, detect_outliers
from repro.mapreduce import (
    ClusterConfig,
    Counters,
    LocalRuntime,
    ParallelRuntime,
    RecordBatch,
    SchedulerConfig,
)
from repro.mapreduce import shm
from repro.mapreduce.shm import (
    ShmArena,
    ShmEnvelope,
    close_attachments,
    live_segments,
    open_envelope,
    resolve_ref,
)

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
                speculate=True, speculation_min_tasks=2,
                speculation_threshold=1.5,
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
