"""Unit and property tests for DSHC clustering and the AF-tree."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Dataset
from repro.data import region_dataset
from repro.dshc import AFTree, AggregateFeature, DSHCConfig, run_dshc
from repro.geometry import Rect, UniformGrid
from repro.mapreduce import LocalRuntime
from repro.sampling import MiniBucketStats, collect_minibucket_stats


def af(lo, hi, n=10.0):
    return AggregateFeature(n, Rect(tuple(lo), tuple(hi)))


def make_stats(counts_2d, domain=None):
    counts = np.asarray(counts_2d, dtype=float)
    domain = domain or Rect((0.0, 0.0), (float(counts.shape[0]),
                                         float(counts.shape[1])))
    grid = UniformGrid(domain, counts.shape)
    return MiniBucketStats(grid, counts.ravel(), sample_rate=1.0,
                           sampled_points=int(counts.sum()))


class TestAggregateFeature:
    def test_density(self):
        a = af((0, 0), (2, 5), n=30)
        assert a.density == pytest.approx(3.0)

    def test_degenerate_density_infinite(self):
        a = af((0, 0), (0, 5), n=10)
        assert a.density == float("inf")

    def test_merge_def_5_4(self):
        a = af((0, 0), (1, 1), n=10)
        b = af((1, 0), (2, 1), n=30)
        m = a.merge(b)
        assert m.num_points == 40
        assert m.rect == Rect((0.0, 0.0), (2.0, 1.0))
        assert m.density == pytest.approx(20.0)

    def test_density_difference(self):
        a = af((0, 0), (1, 1), n=10)
        b = af((1, 0), (2, 1), n=30)
        assert a.density_difference(b) == pytest.approx(20.0)

    def test_density_difference_both_degenerate(self):
        a = af((0, 0), (0, 1), n=1)
        b = af((5, 0), (5, 1), n=2)
        assert a.density_difference(b) == 0.0


class TestAFTree:
    def test_insert_and_iterate(self):
        tree = AFTree()
        items = [af((i, 0), (i + 1, 1)) for i in range(20)]
        for item in items:
            tree.insert(item)
        assert len(tree) == 20
        assert set(id(c) for c in tree.clusters()) == set(
            id(i) for i in items
        )

    def test_search_finds_overlapping_and_adjacent(self):
        tree = AFTree()
        a = af((0, 0), (1, 1))
        b = af((1, 0), (2, 1))  # adjacent to the probe below
        c = af((5, 5), (6, 6))  # far away
        for item in (a, b, c):
            tree.insert(item)
        found = tree.search_candidates(Rect((0.5, 0.0), (1.0, 1.0)))
        assert a in found and b in found and c not in found

    def test_remove(self):
        tree = AFTree()
        a = af((0, 0), (1, 1))
        b = af((2, 0), (3, 1))
        tree.insert(a)
        tree.insert(b)
        tree.remove(a)
        assert len(tree) == 1
        assert list(tree.clusters()) == [b]

    def test_remove_missing_raises(self):
        tree = AFTree()
        tree.insert(af((0, 0), (1, 1)))
        with pytest.raises(KeyError):
            tree.remove(af((0, 0), (1, 1)))  # different object identity

    def test_remove_takes_the_cluster_asked_for_not_its_equal(self):
        """Equal clusters are what DSHC holds on a zero-width axis; the
        old ``list.remove`` took the first by value."""
        a1 = AggregateFeature(0.0, Rect((0.0, 0.0), (1.0, 0.0)))
        a2 = AggregateFeature(0.0, Rect((0.0, 0.0), (1.0, 0.0)))
        assert a1 == a2 and a1 is not a2
        tree = AFTree()
        tree.insert(a1)
        tree.insert(a2)
        assert tree.leaf_of(a1) is tree.leaf_of(a2) is not None
        tree.remove(a2)
        assert list(tree.clusters())[0] is a1
        assert tree.leaf_of(a2) is None
        tree.remove(a1)
        assert len(tree) == 0 and list(tree.clusters()) == []

    def test_leaf_of_follows_splits(self):
        tree = AFTree(max_entries=4)
        items = [af((i % 6, i // 6), (i % 6 + 1, i // 6 + 1))
                 for i in range(30)]
        for item in items:
            tree.insert(item)
        for item in items[::2]:
            tree.remove(item)
        for item in items[1::2]:
            leaf = tree.leaf_of(item)
            assert leaf.is_leaf and any(e is item for e in leaf.entries)
        for item in items[::2]:
            assert tree.leaf_of(item) is None

    def test_split_keeps_all_entries(self):
        tree = AFTree(max_entries=4)
        items = [af((i, j), (i + 1, j + 1)) for i in range(8)
                 for j in range(8)]
        for item in items:
            tree.insert(item)
        assert len(tree) == 64
        assert len(list(tree.clusters())) == 64

    def test_small_max_entries_rejected(self):
        with pytest.raises(ValueError):
            AFTree(max_entries=3)

    def test_mbr_cache_consistent_after_mutations(self):
        tree = AFTree(max_entries=4)
        items = [af((i, 0), (i + 1, 1)) for i in range(30)]
        for item in items:
            tree.insert(item)
        for item in items[:15]:
            tree.remove(item)
        # After heavy mutation the search must still find exactly the rest.
        found = tree.search_candidates(Rect((0.0, 0.0), (40.0, 1.0)))
        assert set(map(id, found)) == set(map(id, items[15:]))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=60))
    def test_insert_remove_roundtrip_property(self, xs):
        tree = AFTree(max_entries=4)
        items = [af((x, 0), (x + 1, 1)) for x in xs]
        for item in items:
            tree.insert(item)
        for item in items:
            tree.remove(item)
        assert len(tree) == 0


class TestDSHC:
    def test_uniform_grid_merges_heavily(self):
        stats = make_stats(np.full((8, 8), 5.0))
        result = run_dshc(stats, DSHCConfig(t_max_fraction=0.5))
        # Uniform density: everything merges until T_max stops it.
        assert len(result.clusters) < 16
        assert result.merges > 0

    def test_distinct_densities_not_merged(self):
        counts = np.zeros((8, 8))
        counts[:4, :] = 100.0  # dense half
        counts[4:, :] = 1.0  # sparse half
        stats = make_stats(counts)
        result = run_dshc(stats, DSHCConfig(t_diff_fraction=0.2))
        densities = sorted(
            c.density for c in result.clusters if c.num_points > 0
        )
        # No cluster should average the two tiers together.
        assert all(d < 30 or d > 70 for d in densities)

    def test_clusters_are_disjoint_and_cover_domain(self):
        rng = np.random.default_rng(3)
        stats = make_stats(rng.integers(0, 50, size=(10, 10)))
        result = run_dshc(stats)
        clusters = result.clusters
        total_area = sum(c.rect.area for c in clusters)
        assert total_area == pytest.approx(stats.grid.domain.area)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                assert not clusters[i].rect.overlaps_interior(
                    clusters[j].rect
                )

    def test_total_points_preserved(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 20, size=(12, 12)).astype(float)
        stats = make_stats(counts)
        result = run_dshc(stats)
        assert sum(c.num_points for c in result.clusters) == (
            pytest.approx(counts.sum())
        )

    def test_t_max_respected(self):
        stats = make_stats(np.full((8, 8), 10.0))
        config = DSHCConfig(t_max_fraction=0.1)
        result = run_dshc(stats, config)
        t_max = 0.1 * stats.estimated_total
        assert all(c.num_points < t_max + 1e-9 for c in result.clusters)

    def test_all_clusters_rectangular_unions(self):
        # Implicit by construction, but verify area accounting: cluster
        # area must equal the sum of its buckets' areas (no bounding-box
        # inflation), which only holds for exact rectangular merges.
        rng = np.random.default_rng(5)
        stats = make_stats(rng.integers(0, 8, size=(9, 9)))
        result = run_dshc(stats)
        bucket_area = stats.grid.cell_rect((0, 0)).area
        for c in result.clusters:
            n_buckets = c.rect.area / bucket_area
            assert n_buckets == pytest.approx(round(n_buckets))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DSHCConfig(t_diff_fraction=0.0)
        with pytest.raises(ValueError):
            DSHCConfig(t_max_fraction=0.0)
        with pytest.raises(ValueError):
            DSHCConfig(t_max_fraction=1.5)
        # The AF-tree's own bound, refused before any job is paid for.
        with pytest.raises(ValueError, match="max_tree_entries"):
            DSHCConfig(max_tree_entries=3)
        assert DSHCConfig(max_tree_entries=4).max_tree_entries == 4

    def test_nan_threshold_and_fractional_fanout_rejected(self):
        # ``diff >= nan`` is never true: a NaN T_diff would merge across
        # any density difference instead of failing.
        with pytest.raises(ValueError, match="t_diff_fraction"):
            DSHCConfig(t_diff_fraction=float("nan"))
        with pytest.raises(ValueError, match="t_max_fraction"):
            DSHCConfig(t_max_fraction=float("nan"))
        with pytest.raises(ValueError, match="max_tree_entries"):
            DSHCConfig(max_tree_entries=4.5)
        assert DSHCConfig(max_tree_entries=np.int64(6)).max_tree_entries == 6

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_partition_invariants_property(self, seed):
        rng = np.random.default_rng(seed)
        shape = (rng.integers(2, 9), rng.integers(2, 9))
        counts = rng.integers(0, 30, size=shape).astype(float)
        stats = make_stats(counts)
        result = run_dshc(stats)
        assert sum(c.num_points for c in result.clusters) == (
            pytest.approx(counts.sum())
        )
        assert sum(c.rect.area for c in result.clusters) == (
            pytest.approx(stats.grid.domain.area)
        )


# ----------------------------------------------------------------------
# Literal pins of DSHC's own output at benchmark scale.  The digest covers
# every cluster's ``(num_points, low, high)`` in tree order plus the merge
# counts: values made of ``+``, ``min`` and ``max`` over the bucket counts
# and faces, so it holds on every interpreter.  The digests were taken
# from the AF-tree-searching DSHC, before candidates came from the cell
# table.
# ----------------------------------------------------------------------
def _digest(result) -> str:
    payload = repr((
        [(c.num_points, c.rect.low, c.rect.high) for c in result.clusters],
        (result.merges, result.recursive_merges),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def _batch_dmt_map() -> MiniBucketStats:
    """perfbench's first ``batch_dmt`` input at seed 7 (a 10 000-point
    sample of the NE map, rescaled), sampled as ``detect_outliers`` sizes
    it: ~n / 20 buckets at rate 2000 / n."""
    pool = region_dataset("NE", base_n=40000, seed=7)
    n = pool.n // 8
    rng = np.random.default_rng(7)
    points = pool.points[np.sort(rng.choice(pool.n, n, replace=False))]
    data = Dataset.from_points(points * (n / pool.n) ** 0.5, pool.name)
    return collect_minibucket_stats(
        LocalRuntime(), data.batch(), data.bounds,
        n_buckets=n // 20, rate=2000 / n, seed=1,
    )


def _cube_map() -> MiniBucketStats:
    """Two blobs in a uniform 3-D cube, on an 8 x 8 x 8 bucket grid."""
    rng = np.random.default_rng(11)
    points = np.vstack([
        rng.normal((10.0, 10.0, 10.0), 1.5, size=(3000, 3)),
        rng.normal((28.0, 30.0, 12.0), 3.0, size=(1500, 3)),
        rng.uniform(0.0, 40.0, size=(3000, 3)),
    ])
    data = Dataset.from_points(points)
    return collect_minibucket_stats(
        LocalRuntime(), data.batch(), data.bounds,
        n_buckets=512, rate=0.4, seed=1,
    )


class TestLiteralPins:
    def test_batch_dmt_map(self):
        stats = _batch_dmt_map()
        assert stats.grid.shape == (23, 22)
        result = run_dshc(stats)
        assert (len(result.clusters), result.merges,
                result.recursive_merges) == (183, 308, 15)
        assert _digest(result) == (
            "7e1dc5ed603b1ebe2f2d62332748f706fef97d99104f87252fabb6c4a9c085be"
        )

    def test_cube_map(self):
        stats = _cube_map()
        assert stats.grid.shape == (8, 8, 8)
        result = run_dshc(stats)
        assert (len(result.clusters), result.merges,
                result.recursive_merges) == (104, 338, 70)
        assert _digest(result) == (
            "102bf160004848876718db6b66d12e737d8fa75fec7572cebb90e0aa4731c49b"
        )

    def test_ulp_equal_faces_touch_across_an_index(self):
        """Thirteen cells across 1e-12 at -1e3 are narrower than an ulp:
        some have equal faces, so bucket 0 touches bucket 2 and must be
        one of its candidates (an index-adjacency rule gives other
        clusters here)."""
        grid = UniformGrid(Rect((-1e3, 0.0), (-1e3 + 1e-12, 2.0)), (13, 2))
        (_, high0), (low1, high1), (low2, _) = grid.faces[0][:3]
        assert high0 == low1 == high1 == low2
        assert grid.cell_rect((0, 0)).intersects(grid.cell_rect((2, 0)))
        counts = np.array([
            [5, 0], [0, 5], [10, 0], [5, 5], [0, 5], [5, 5], [5, 5],
            [0, 40], [5, 0], [5, 5], [40, 10], [5, 0], [0, 5],
        ], dtype=float)
        stats = MiniBucketStats(grid, counts.ravel(), 1.0, 160)
        result = run_dshc(stats, DSHCConfig(0.5, 1.0, 4))
        assert (len(result.clusters), result.merges,
                result.recursive_merges) == (18, 8, 0)
        assert _digest(result) == (
            "5353906ab239513bbd94c019797fcf94ed5f2f6f28198e79656157e73a231db3"
        )

    def test_integer_counts_cluster_as_float_counts(self):
        """``MiniBucketStats`` takes any numeric ``counts``; DSHC's clusters
        carry float ``num_points`` either way, as ``AggregateFeature``
        always has."""
        stats = _cube_map()
        as_ints = MiniBucketStats(
            stats.grid, stats.counts.round().astype(np.int64),
            stats.sample_rate, stats.sampled_points,
        )
        as_floats = MiniBucketStats(
            stats.grid, as_ints.counts.astype(float),
            stats.sample_rate, stats.sampled_points,
        )
        result = run_dshc(as_ints)
        assert all(type(c.num_points) is float for c in result.clusters)
        assert _digest(result) == _digest(run_dshc(as_floats))
