"""Unit tests for the bucket table DMT planning reads."""

import numpy as np
import pytest

from repro.geometry import Rect, UniformGrid
from repro.partitioning.sampled_strategies import BucketTable, _points
from repro.sampling import MiniBucketStats


def make_stats(counts_2d, width=8.0, height=8.0):
    counts = np.asarray(counts_2d, dtype=float)
    grid = UniformGrid(Rect((0.0, 0.0), (width, height)), counts.shape)
    return MiniBucketStats(grid, counts.ravel(), 1.0, int(counts.sum()))


def _rect_buckets(stats, rect):
    return BucketTable(stats).cover([rect], 0.0)[0][0]


def _estimate_points(stats, rect):
    return _points(_rect_buckets(stats, rect))


def _support_buckets(stats, rect, r):
    return BucketTable(stats).cover([rect], r)[0][1]


def _coverage(cell, rect):
    """Fraction of the one-bucket grid ``cell`` covered by ``rect``: the
    product of the per-axis fractions (a bucket of one point)."""
    stats = MiniBucketStats(UniformGrid(cell, (1,) * cell.ndim),
                            np.ones(1), 1.0, 1)
    table = BucketTable(stats)
    assert table.flats.tolist() == [0]
    assert tuple(w[0] for w in table.widths) == cell.widths
    covered = _rect_buckets(stats, rect)
    if not covered:
        return 0.0
    [(n_b, area_b)] = covered
    assert area_b == pytest.approx(n_b * cell.area)
    return n_b


class TestCoverage:
    def test_full(self):
        cell = Rect((0.0, 0.0), (1.0, 1.0))
        assert _coverage(cell, Rect((-1.0, -1.0), (2.0, 2.0))) == 1.0

    def test_half(self):
        cell = Rect((0.0, 0.0), (1.0, 1.0))
        assert _coverage(cell, Rect((0.0, 0.0), (0.5, 1.0))) == (
            pytest.approx(0.5)
        )

    def test_quarter(self):
        cell = Rect((0.0, 0.0), (2.0, 2.0))
        assert _coverage(cell, Rect((0.0, 0.0), (1.0, 1.0))) == (
            pytest.approx(0.25)
        )

    def test_disjoint(self):
        cell = Rect((0.0, 0.0), (1.0, 1.0))
        assert _coverage(cell, Rect((2.0, 2.0), (3.0, 3.0))) == 0.0


class TestRectBuckets:
    def test_aligned_rect_sums_counts(self):
        stats = make_stats(np.full((8, 8), 3.0))
        rect = Rect((0.0, 0.0), (4.0, 8.0))  # half the grid, aligned
        buckets = list(_rect_buckets(stats, rect))
        assert sum(n for n, _ in buckets) == pytest.approx(96.0)
        assert sum(a for _, a in buckets) == pytest.approx(32.0)

    def test_unaligned_rect_fractional(self):
        stats = make_stats(np.full((8, 8), 4.0))
        rect = Rect((0.0, 0.0), (0.5, 1.0))  # half a bucket
        buckets = list(_rect_buckets(stats, rect))
        assert sum(n for n, _ in buckets) == pytest.approx(2.0)


class TestEstimatePoints:
    def test_full_domain(self):
        counts = np.arange(16, dtype=float).reshape(4, 4)
        stats = make_stats(counts)
        total = _estimate_points(stats, stats.grid.domain)
        assert total == pytest.approx(counts.sum())

    def test_half_domain(self):
        stats = make_stats(np.full((4, 4), 2.0))
        half = Rect((0.0, 0.0), (4.0, 8.0))
        assert _estimate_points(stats, half) == pytest.approx(16.0)

    def test_split_is_conservative(self):
        """Left + right halves equal the whole."""
        rng = np.random.default_rng(0)
        stats = make_stats(rng.uniform(0, 10, size=(8, 8)))
        left = Rect((0.0, 0.0), (3.3, 8.0))
        right = Rect((3.3, 0.0), (8.0, 8.0))
        total = _estimate_points(stats, left) + _estimate_points(
            stats, right
        )
        assert total == pytest.approx(float(stats.counts.sum()))


class TestSupportBuckets:
    def test_interior_rect_ring(self):
        stats = make_stats(np.full((8, 8), 1.0))
        rect = Rect((2.0, 2.0), (4.0, 4.0))
        support = list(_support_buckets(stats, rect, r=1.0))
        # The r-ring around a 2x2 rect covers 4x4 - 2x2 = 12 bucket areas.
        assert sum(n for n, _ in support) == pytest.approx(12.0)

    def test_domain_corner_clipped(self):
        stats = make_stats(np.full((8, 8), 1.0))
        rect = Rect((0.0, 0.0), (2.0, 2.0))
        support = list(_support_buckets(stats, rect, r=1.0))
        # Expansion beyond the domain holds no buckets: 3x3 - 2x2 = 5.
        assert sum(n for n, _ in support) == pytest.approx(5.0)

    def test_empty_buckets_skipped(self):
        stats = make_stats(np.zeros((8, 8)))
        rect = Rect((2.0, 2.0), (4.0, 4.0))
        assert list(_support_buckets(stats, rect, r=1.0)) == []
