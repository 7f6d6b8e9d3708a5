"""Differential tests: the shm transport must be invisible in results.

Two layers:

* **codec round-trips** (hypothesis, in-process) — whatever the arena
  packs, ``resolve_ref`` must hand back a payload that compares equal,
  including the awkward shapes: empty blocks/groups, zero-dimensional
  points, Fortran-ordered and non-contiguous inputs, float32 data (which
  must keep its dtype bit-exactly or fall back to pickle).
* **end-to-end pipelines** — the same detection run through the serial
  runtime and through ``ParallelRuntime`` with each transport must agree
  on outlier sets, every counter group (minus ``transport``, which only
  exists across a process boundary), and ``distance_evals`` — across
  worker counts and with speculation enabled.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Dataset, OutlierParams, detect_outliers
from repro.mapreduce import (
    ClusterConfig,
    Counters,
    LocalRuntime,
    ParallelRuntime,
    SchedulerConfig,
)
from repro.mapreduce.shm import (
    ShmArena,
    close_attachments,
    live_segments,
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
        return resolve_ref(refs[0]), refs[0].kind
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
point_dtypes = st.sampled_from([np.float64, np.float32, np.int64])


@st.composite
def record_blocks(draw):
    """(id, point) record lists incl. edge shapes and layouts."""
    n = draw(st.integers(min_value=0, max_value=12))
    d = draw(st.integers(min_value=0, max_value=3))
    dtype = draw(point_dtypes)
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    base = rng.uniform(-5, 5, size=(2 * n + 1, d)).astype(dtype)
    if layout == "fortran":
        base = np.asfortranarray(base)
    rows = base[::2] if layout == "strided" else base[: n or 1]
    return [(i, rows[i % rows.shape[0]]) for i in range(n)]


class TestBlockCodec:
    @given(record_blocks())
    def test_roundtrip(self, records):
        out, _kind = roundtrip(records)
        assert len(out) == len(records)
        for (rid, point), (oid, opoint) in zip(records, out):
            assert oid == rid
            assert np.array_equal(np.asarray(opoint), point)
            assert np.asarray(opoint).dtype == point.dtype

    def test_float32_keeps_dtype(self):
        records = [
            (i, np.arange(2, dtype=np.float32) + i) for i in range(5)
        ]
        out, _ = roundtrip(records)
        assert all(p.dtype == np.float32 for _, p in out)

    def test_mixed_dtypes_fall_back_but_roundtrip(self):
        records = [
            (0, np.zeros(2, dtype=np.float32)),
            (1, np.zeros(2, dtype=np.float64)),
        ]
        out, kind = roundtrip(records)
        assert kind == "pickle"
        for (rid, point), (oid, opoint) in zip(records, out):
            assert oid == rid and opoint.dtype == point.dtype

    def test_readonly_views_cannot_corrupt_segment(self):
        records = [(i, np.ones(2)) for i in range(3)]
        out, kind = roundtrip(records)
        assert kind == "block"
        with pytest.raises(ValueError):
            out[0][1][0] = 99.0


@st.composite
def group_payloads(draw):
    """Shuffle-style {key: [(ints..., (floats...))]} dicts."""
    arity = draw(st.integers(min_value=1, max_value=3))
    ndim = draw(st.integers(min_value=0, max_value=3))
    fl = st.floats(allow_nan=False, allow_infinity=False, width=32)

    def value():
        head = draw(
            st.lists(st.integers(-10**6, 10**6),
                     min_size=arity - 1, max_size=arity - 1)
        )
        point = draw(
            st.lists(fl, min_size=ndim, max_size=ndim)
        )
        return (*head, tuple(point))

    n_keys = draw(st.integers(min_value=0, max_value=5))
    payload = {}
    for key in range(n_keys):
        n_values = draw(st.integers(min_value=0, max_value=8))
        # min_value=0 covers partitions with empty support lists
        payload[key * 3] = [value() for _ in range(n_values)]
    return payload


class TestGroupsCodec:
    @given(group_payloads())
    def test_roundtrip(self, payload):
        out, _kind = roundtrip(payload)
        assert out == payload

    def test_empty_support_groups(self):
        payload = {0: [], 5: [(1, 2, (0.5,))], 9: []}
        out, _ = roundtrip(payload)
        assert out == payload

    def test_zero_dim_points(self):
        payload = {0: [(3, ()), (4, ())]}
        out, _ = roundtrip(payload)
        assert out == payload

    def test_non_tuple_values_fall_back(self):
        payload = {0: [[1, 2.0]], 1: ["text"]}
        out, kind = roundtrip(payload)
        assert kind == "pickle"
        assert out == payload

    def test_float_in_int_column_falls_back(self):
        payload = {0: [(1, (0.0,)), (2.5, (1.0,))]}
        out, kind = roundtrip(payload)
        assert kind == "pickle"
        assert out == payload


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
        for transport in ("pickle", "shm"):
            cluster = ClusterConfig(**CLUSTER_KW)
            got = _detect(
                data,
                ParallelRuntime(
                    cluster, workers=workers, transport=transport
                ),
                cluster,
            )
            assert got[0] == serial[0], transport
            assert got[1] == serial[1], transport

    def test_transports_match_with_speculation(self):
        data = _dataset(seed=5)
        results = {}
        for transport in ("pickle", "shm"):
            cluster = ClusterConfig(**CLUSTER_KW)
            rt = ParallelRuntime(
                cluster, workers=2, transport=transport,
                scheduler=SchedulerConfig(
                    speculate=True, speculation_min_tasks=2,
                    speculation_threshold=1.5,
                ),
            )
            results[transport] = _detect(data, rt, cluster)
        assert results["pickle"][0] == results["shm"][0]
        assert results["pickle"][1] == results["shm"][1]

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
        shm = _detect(
            data,
            ParallelRuntime(cluster2, workers=2, transport="shm"),
            cluster2,
        )
        assert shm == serial

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(40, 120))
    def test_random_datasets_agree(self, seed, n):
        data = _dataset(seed=seed, n=n)
        cluster = ClusterConfig(**CLUSTER_KW)
        serial = _detect(data, LocalRuntime(cluster), cluster)
        for transport in ("pickle", "shm"):
            c = ClusterConfig(**CLUSTER_KW)
            got = _detect(
                data, ParallelRuntime(c, workers=2, transport=transport), c
            )
            assert got == serial, transport
