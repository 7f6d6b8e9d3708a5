"""Unit tests for the weighted/cost-based mini-bucket splitter."""

import numpy as np
import pytest

from repro.geometry import Rect, UniformGrid
from repro.params import OutlierParams
from repro.partitioning import split_by_cost
from repro.partitioning.splitter import region_rect
from repro.sampling import MiniBucketStats


def make_stats(counts_2d, width=8.0, height=8.0):
    counts = np.asarray(counts_2d, dtype=float)
    grid = UniformGrid(
        Rect((0.0, 0.0), (width, height)), counts.shape
    )
    return MiniBucketStats(grid, counts.ravel(), 1.0, int(counts.sum()))


class TestSplitByCost:
    def test_regions_tile_grid(self):
        stats = make_stats(np.ones((8, 8)))
        regions = split_by_cost(stats, lambda n, a: n, 7)
        total_buckets = sum(
            len(list(r.buckets(stats.grid.shape))) for r in regions
        )
        assert total_buckets == 64
        total_area = sum(
            region_rect(stats, r.lo, r.hi).area for r in regions
        )
        assert total_area == pytest.approx(64.0)

    def test_respects_m(self):
        stats = make_stats(np.ones((8, 8)))
        assert len(split_by_cost(stats, lambda n, a: n, 5)) == 5
        assert len(split_by_cost(stats, lambda n, a: n, 1)) == 1

    def test_cannot_exceed_bucket_count(self):
        stats = make_stats(np.ones((2, 2)))
        regions = split_by_cost(stats, lambda n, a: n, 100)
        assert len(regions) == 4

    def test_balances_cardinality_with_count_cost(self):
        rng = np.random.default_rng(0)
        stats = make_stats(rng.integers(0, 100, size=(16, 16)))
        regions = split_by_cost(stats, lambda n, a: n, 8)
        weights = [
            sum(stats.counts[f] for f in r.buckets(stats.grid.shape))
            for r in regions
        ]
        assert max(weights) <= 2.5 * (sum(weights) / len(weights))

    def test_splits_the_hotspot(self):
        counts = np.ones((8, 8))
        counts[0, 0] = 1000.0
        stats = make_stats(counts)
        regions = split_by_cost(stats, lambda n, a: n, 4)
        # The hotspot corner cannot share a region with the whole grid.
        hot_regions = [r for r in regions if r.lo == (0, 0)]
        assert len(list(hot_regions[0].buckets(stats.grid.shape))) < 64

    def test_invalid_m(self):
        stats = make_stats(np.ones((2, 2)))
        with pytest.raises(ValueError):
            split_by_cost(stats, lambda n, a: n, 0)

    def test_nonlinear_cost_changes_split(self):
        # Half the grid dense, half sparse: a cost model charging sparse
        # area quadratically must allocate more regions to the sparse side
        # than plain cardinality balancing does.
        counts = np.ones((8, 8))
        counts[:, :4] = 40.0
        stats = make_stats(counts)
        params = OutlierParams(r=1.0, k=4)

        def nl_cost(n, area):
            from repro.costmodel import nested_loop_cost

            return nested_loop_cost(n, area, params)

        by_count = split_by_cost(stats, lambda n, a: n, 8)
        by_cost = split_by_cost(stats, nl_cost, 8)

        def sparse_regions(regions):
            return sum(1 for r in regions if r.lo[1] >= 4)

        assert sparse_regions(by_cost) >= sparse_regions(by_count)
