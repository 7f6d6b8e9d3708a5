"""Unit tests for the mini-bucket sampling job (DMT stage 1)."""

import numpy as np
import pytest

from repro.core import Dataset
from repro.geometry import Rect
from repro.mapreduce import ClusterConfig, LocalRuntime, TaskContext
from repro.sampling import (
    MiniBucketStats,
    assemble_bucket_counts,
    collect_minibucket_stats,
    splitmix64,
)
from repro.sampling.minibuckets import _SampleMapper
from repro.geometry import UniformGrid


def runtime():
    return LocalRuntime(ClusterConfig(nodes=2, hdfs_block_records=512))


def records(n=2000, seed=0, side=40.0):
    rng = np.random.default_rng(seed)
    data = Dataset.from_points(rng.uniform(0, side, size=(n, 2)))
    return data.batch(), data


class TestSampleMapper:
    def test_scalar_and_batch_paths_agree(self):
        grid = UniformGrid(Rect((0.0, 0.0), (40.0, 40.0)), (4, 4))
        mapper = _SampleMapper(grid, rate=0.3, seed=5)
        recs, _ = records(500)
        from repro.mapreduce import TaskContext

        scalar_pairs = []
        ctx = TaskContext(0)
        for pid, point in recs:
            scalar_pairs.extend(mapper.map(pid, point, ctx))
        batch_pairs = mapper.map_block(recs, TaskContext(1))
        scalar_counts = {}
        for bucket, one in scalar_pairs:
            scalar_counts[bucket] = scalar_counts.get(bucket, 0) + one
        batch_counts = dict(batch_pairs)
        assert scalar_counts == batch_counts

    def test_invalid_rate(self):
        grid = UniformGrid(Rect((0.0,), (1.0,)), (2,))
        with pytest.raises(ValueError):
            _SampleMapper(grid, rate=0.0, seed=1)
        with pytest.raises(ValueError):
            _SampleMapper(grid, rate=1.5, seed=1)


class TestCollectStats:
    def test_full_rate_counts_exactly(self):
        recs, data = records(1000)
        stats = collect_minibucket_stats(
            runtime(), recs, data.bounds, n_buckets=16, rate=1.0
        )
        assert stats.estimated_total == pytest.approx(1000)
        assert stats.sampled_points == 1000

    def test_partial_rate_unbiased(self):
        recs, data = records(20_000, seed=1)
        stats = collect_minibucket_stats(
            runtime(), recs, data.bounds, n_buckets=16, rate=0.2
        )
        # The scaled estimate should be within a few percent of the truth.
        assert stats.estimated_total == pytest.approx(20_000, rel=0.10)

    def test_deterministic_across_block_sizes(self):
        """The id-hash sample is independent of HDFS block layout."""
        recs, data = records(3000, seed=2)
        rt_a = LocalRuntime(
            ClusterConfig(nodes=2, hdfs_block_records=100)
        )
        rt_b = LocalRuntime(
            ClusterConfig(nodes=2, hdfs_block_records=999)
        )
        stats_a = collect_minibucket_stats(
            rt_a, recs, data.bounds, n_buckets=25, rate=0.3, seed=3
        )
        stats_b = collect_minibucket_stats(
            rt_b, recs, data.bounds, n_buckets=25, rate=0.3, seed=3
        )
        np.testing.assert_array_equal(stats_a.counts, stats_b.counts)

    def test_seed_changes_sample(self):
        recs, data = records(3000, seed=2)
        a = collect_minibucket_stats(
            runtime(), recs, data.bounds, n_buckets=25, rate=0.3, seed=1
        )
        b = collect_minibucket_stats(
            runtime(), recs, data.bounds, n_buckets=25, rate=0.3, seed=2
        )
        assert not np.array_equal(a.counts, b.counts)

    def test_bucket_geometry_accessors(self):
        recs, data = records(500, seed=4)
        stats = collect_minibucket_stats(
            runtime(), recs, data.bounds, n_buckets=16, rate=1.0
        )
        for flat in stats.nonzero_buckets():
            rect = stats.bucket_rect(int(flat))
            assert rect.area > 0
            assert stats.bucket_density(int(flat)) > 0

    def test_counts_shape_validation(self):
        grid = UniformGrid(Rect((0.0,), (1.0,)), (4,))
        with pytest.raises(ValueError):
            MiniBucketStats(grid, np.zeros(3), 0.5, 0)


class TestAssembleBucketCounts:
    """Regression: reducer outputs *accumulate* into the bucket table.

    The old assembly assigned (``counts[bucket] = count / rate``), which
    silently kept only the last record per key — correct only while the
    shuffle guaranteed each key appeared exactly once in the outputs.
    """

    def test_counts_accumulate_scaled(self):
        counts = assemble_bucket_counts(
            [(0, 4), (2, 1), (5, 10)], n_cells=8, rate=0.5
        )
        np.testing.assert_array_equal(
            counts, [8.0, 0, 2.0, 0, 0, 20.0, 0, 0]
        )

    def test_duplicate_bucket_key_asserts(self):
        # Today's runtimes group each key in exactly one reducer, so a
        # repeated key means the shuffle is broken — fail loudly instead
        # of silently double-counting (or, as before, last-write-wins).
        with pytest.raises(AssertionError, match="duplicate bucket key"):
            assemble_bucket_counts(
                [(3, 2), (3, 5)], n_cells=4, rate=1.0
            )

    def test_multi_reducer_table_matches_single_reducer(self):
        """The end-to-end shape of the old bug: with > 1 reducer the
        outputs arrive unsorted and interleaved, and the assembled table
        must still equal the centralized single-reducer one."""
        recs, data = records(4000, seed=9)
        single = collect_minibucket_stats(
            runtime(), recs, data.bounds, n_buckets=64, rate=0.4,
            seed=7, n_reducers=1,
        )
        spread = collect_minibucket_stats(
            runtime(), recs, data.bounds, n_buckets=64, rate=0.4,
            seed=7, n_reducers=4,
        )
        np.testing.assert_array_equal(single.counts, spread.counts)
        assert single.sampled_points == spread.sampled_points


class TestSampleMapperEmits:
    """Regression: ``map_block`` emits one pair per occupied bucket.

    The old implementation called ``np.flatnonzero`` once per occupied
    bucket inside a per-row comprehension (quadratic in occupied
    buckets) and emitted numpy scalars; the rewrite takes the nonzero
    set once and materializes python ints.
    """

    def grid(self):
        return UniformGrid(Rect((0.0, 0.0), (40.0, 40.0)), (8, 8))

    def test_emitted_pairs_are_python_ints(self):
        mapper = _SampleMapper(self.grid(), rate=1.0, seed=5)
        recs, _ = records(300, seed=6)
        pairs = mapper.map_block(recs, TaskContext(0))
        assert pairs
        for bucket, count in pairs:
            assert type(bucket) is int
            assert type(count) is int

    def test_full_rate_block_emits_every_point_once(self):
        grid = self.grid()
        mapper = _SampleMapper(grid, rate=1.0, seed=5)
        recs, data = records(500, seed=8)
        pairs = mapper.map_block(recs, TaskContext(0))
        assert sum(c for _, c in pairs) == 500
        flats = grid.flat_indices(grid.cells_of(data.points))
        expected = np.bincount(flats, minlength=grid.n_cells)
        emitted = dict(pairs)
        for flat in range(grid.n_cells):
            assert emitted.get(flat, 0) == expected[flat]

    def test_block_and_scalar_counters_agree(self):
        mapper = _SampleMapper(self.grid(), rate=0.3, seed=5)
        recs, _ = records(400, seed=2)
        ctx_scalar, ctx_block = TaskContext(0), TaskContext(1)
        for pid, point in recs:
            list(mapper.map(pid, point, ctx_scalar))
        mapper.map_block(recs, ctx_block)
        assert ctx_scalar.counters.get("sampling", "kept") == \
            ctx_block.counters.get("sampling", "kept")


class TestZeroAreaBuckets:
    """The degenerate-domain convention, pinned end-to-end.

    A zero-area bucket (every coordinate of the cell collapses) has
    infinite density by convention — the same limit as
    ``repro.costmodel.density`` — and the quota construction must never
    consume it: sampling and tier selection stay finite and exact.
    """

    def degenerate_stats(self, n=40):
        points = np.repeat([[3.0, 7.0]], n, axis=0)
        data = Dataset.from_points(points)
        stats = collect_minibucket_stats(
            runtime(), data.batch(), data.bounds,
            n_buckets=16, rate=1.0,
        )
        return data, stats

    def test_bucket_density_is_inf(self):
        _, stats = self.degenerate_stats()
        for flat in stats.nonzero_buckets():
            assert stats.bucket_rect(int(flat)).area == 0.0
            assert stats.bucket_density(int(flat)) == float("inf")

    def test_estimated_total_stays_finite(self):
        _, stats = self.degenerate_stats()
        assert stats.estimated_total == pytest.approx(40)

    def test_sensitivity_sampling_survives_inf_density(self):
        # Quotas are built from raw counts, never bucket_density, so a
        # degenerate domain still yields a usable, finite sample.
        from repro.core import OutlierParams
        from repro.tiers import build_sensitivity_sample

        data, stats = self.degenerate_stats()
        sample = build_sensitivity_sample(
            data.points, data.ids, stats, OutlierParams(r=1.0, k=3),
            seed=5,
        )
        assert 0 < sample.size <= data.n
        assert np.isfinite(sample.points).all()


class TestSplitmix64:
    def test_deterministic_and_seedable(self):
        ids = np.arange(100, dtype=np.uint64)
        a = splitmix64(ids, 1)
        b = splitmix64(ids, 1)
        c = splitmix64(ids, 2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniformity_rough(self):
        ids = np.arange(10_000, dtype=np.uint64)
        frac = (splitmix64(ids, 3) / 2.0**64 < 0.25).mean()
        assert 0.2 < frac < 0.3
