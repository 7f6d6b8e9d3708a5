"""Unit and property tests for the centralized detectors.

The key invariant: every detector is *exact* — on any input it returns
precisely the brute-force oracle's outlier set, with or without support
points.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Dataset, OutlierParams, brute_force_outliers
from repro.core.outliers import neighbor_counts
from repro.detectors import (
    CellBasedDetector,
    CellBasedRingDetector,
    KDTreeDetector,
    NestedLoopDetector,
    candidate_radius,
    make_detector,
    make_partition_detector,
    partition_scan_seed,
)
from repro.detectors._scan import random_scan_counts, scan_order
from repro.kernels import base, make_kernel

ALL_DETECTORS = [
    NestedLoopDetector(),
    CellBasedDetector(),
    CellBasedRingDetector(),
    KDTreeDetector(),
]


def make_data(n=300, seed=0, side=30.0, ndim=2):
    rng = np.random.default_rng(seed)
    return Dataset.from_points(rng.uniform(0, side, size=(n, ndim)))


class TestNeighborCounts:
    def test_simple(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        counts = neighbor_counts(pts, pts, r=1.5, exclude_self=True)
        assert counts.tolist() == [1, 1, 0]

    def test_boundary_inclusive(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        counts = neighbor_counts(pts, pts, r=2.0, exclude_self=True)
        assert counts.tolist() == [1, 1]

    def test_empty_candidates(self):
        pts = np.array([[0.0, 0.0]])
        counts = neighbor_counts(pts, np.empty((0, 2)), r=1.0)
        assert counts.tolist() == [0]

    def test_duplicates_count_as_neighbors(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
        counts = neighbor_counts(pts, pts, r=0.5, exclude_self=True)
        assert counts.tolist() == [1, 1, 0]


@pytest.mark.parametrize("detector", ALL_DETECTORS, ids=lambda d: d.name)
class TestExactness:
    def test_uniform(self, detector):
        data = make_data(400, seed=1)
        params = OutlierParams(r=2.0, k=4)
        oracle = brute_force_outliers(data, params)
        result = detector.detect_dataset(data, params)
        assert set(result.outlier_ids) == oracle

    def test_clustered(self, detector):
        rng = np.random.default_rng(2)
        blob = rng.normal((5, 5), 0.5, size=(200, 2))
        strays = rng.uniform(0, 50, size=(20, 2))
        data = Dataset.from_points(np.vstack([blob, strays]))
        params = OutlierParams(r=1.0, k=5)
        oracle = brute_force_outliers(data, params)
        result = detector.detect_dataset(data, params)
        assert set(result.outlier_ids) == oracle

    def test_all_outliers_when_k_huge(self, detector):
        data = make_data(50, seed=3)
        params = OutlierParams(r=0.5, k=49)
        result = detector.detect_dataset(data, params)
        assert set(result.outlier_ids) == set(data.ids.tolist())

    def test_no_outliers_when_r_huge(self, detector):
        data = make_data(50, seed=4)
        params = OutlierParams(r=1000.0, k=10)
        result = detector.detect_dataset(data, params)
        assert result.outlier_ids == []

    def test_support_points_rescue_inliers(self, detector):
        # Core point has k neighbors only via the support set.
        core = np.array([[0.0, 0.0]])
        support = np.array([[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        params = OutlierParams(r=1.0, k=3)
        result = detector.detect(
            core, np.array([7]), support, params
        )
        assert result.outlier_ids == []

    def test_support_points_never_classified(self, detector):
        core = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2], [0.2, 0.2]])
        support = np.array([[50.0, 50.0]])  # an obvious outlier, but support
        params = OutlierParams(r=1.0, k=3)
        result = detector.detect(
            core, np.arange(4), support, params
        )
        assert result.outlier_ids == []

    def test_empty_core(self, detector):
        params = OutlierParams(r=1.0, k=3)
        result = detector.detect(
            np.empty((0, 2)), np.empty(0, dtype=np.int64),
            np.empty((0, 2)), params,
        )
        assert result.outlier_ids == []

    def test_three_dimensional(self, detector):
        data = make_data(200, seed=5, ndim=3, side=10.0)
        params = OutlierParams(r=2.0, k=3)
        oracle = brute_force_outliers(data, params)
        result = detector.detect_dataset(data, params)
        assert set(result.outlier_ids) == oracle

    def test_duplicate_points(self, detector):
        pts = np.vstack([np.tile([[3.0, 3.0]], (6, 1)),
                         [[40.0, 40.0]]])
        data = Dataset.from_points(pts)
        params = OutlierParams(r=1.0, k=5)
        oracle = brute_force_outliers(data, params)
        result = detector.detect_dataset(data, params)
        assert set(result.outlier_ids) == oracle == {6}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(5, 120),
    r=st.floats(0.1, 20.0),
    k=st.integers(1, 10),
)
def test_detectors_agree_with_oracle_property(seed, n, r, k):
    """Property: all detectors equal the oracle on random inputs."""
    rng = np.random.default_rng(seed)
    data = Dataset.from_points(rng.uniform(0, 25, size=(n, 2)))
    params = OutlierParams(r=r, k=k)
    oracle = brute_force_outliers(data, params)
    for detector in ALL_DETECTORS:
        result = detector.detect_dataset(data, params)
        assert set(result.outlier_ids) == oracle, detector.name


class TestCostAccounting:
    def test_nested_loop_counts_scalar_evals(self):
        data = make_data(100, seed=6)
        params = OutlierParams(r=3.0, k=2)
        result = NestedLoopDetector().detect_dataset(data, params)
        # Scalar-faithful accounting can never exceed the all-pairs bound.
        assert 0 < result.distance_evals <= 100 * 100

    def test_dense_cheaper_than_sparse(self):
        params = OutlierParams(r=5.0, k=4)
        dense = make_data(1000, seed=7, side=30.0)
        sparse = make_data(1000, seed=8, side=300.0)
        nl = NestedLoopDetector()
        dense_cost = nl.detect_dataset(dense, params).cost_units
        sparse_cost = nl.detect_dataset(sparse, params).cost_units
        assert sparse_cost > 2 * dense_cost

    def test_cell_based_reports_index_and_cell_ops(self):
        data = make_data(500, seed=9)
        params = OutlierParams(r=2.0, k=4)
        result = CellBasedDetector().detect_dataset(data, params)
        assert result.index_ops == 500
        assert result.cell_ops > 0
        assert result.cost_units > result.distance_evals

    def test_cell_pruning_stats_consistent(self):
        data = make_data(500, seed=10, side=15.0)  # dense
        params = OutlierParams(r=3.0, k=4)
        result = CellBasedDetector().detect_dataset(data, params)
        stats = result.extras
        total_cells = (
            stats["cells_pruned_inlier"]
            + stats["cells_pruned_outlier"]
            + stats["cells_unresolved"]
        )
        assert total_cells == result.cell_ops

    def test_ring_variant_never_scans_more_than_paper_variant(self):
        data = make_data(800, seed=11, side=60.0)
        params = OutlierParams(r=2.0, k=4)
        paper = CellBasedDetector().detect_dataset(data, params)
        ring = CellBasedRingDetector().detect_dataset(data, params)
        assert ring.distance_evals <= paper.distance_evals


class TestCandidateRadius:
    def test_2d_matches_paper(self):
        # 2D candidate stencil is 7x7 = 49 cells (paper's Lemma 4.2).
        assert candidate_radius(2) == 3

    def test_monotone_in_dims(self):
        radii = [candidate_radius(d) for d in range(1, 6)]
        assert radii == sorted(radii)

    def test_beyond_radius_cannot_be_neighbors(self):
        # Two points in cells at Chebyshev distance radius+1 must be > r apart.
        import math
        for ndim in (1, 2, 3):
            r = 1.0
            side = r / (2.0 * math.sqrt(ndim))
            c = candidate_radius(ndim) + 1
            min_dist = (c - 1) * side
            assert min_dist > r


class TestRegistry:
    def test_make_detector(self):
        assert make_detector("nested_loop").name == "nested_loop"
        assert make_detector("cell_based").name == "cell_based"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            make_detector("quantum")

    def test_invalid_inputs(self):
        params = OutlierParams(r=1.0, k=1)
        nl = NestedLoopDetector()
        with pytest.raises(ValueError):
            nl.detect(np.zeros((3,)), np.arange(3), np.empty((0, 2)), params)
        with pytest.raises(ValueError):
            nl.detect(
                np.zeros((3, 2)), np.arange(2), np.empty((0, 2)), params
            )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            OutlierParams(r=0.0, k=1)
        with pytest.raises(ValueError):
            OutlierParams(r=1.0, k=0)
        for r in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                OutlierParams(r=r, k=1)
        for k in (2.5, float("nan"), float("inf"), np.float64(3.5)):
            with pytest.raises(ValueError, match="whole number"):
                OutlierParams(r=1.0, k=k)
        # Integer types keep working; a whole float is normalised.
        for k in (np.int64(12), np.int32(12), 12.0, np.float64(12.0)):
            params = OutlierParams(r=1.0, k=k)
            assert params.k == 12 and type(params.k) is int


class TestPartitionSeeding:
    """Per-partition scan seeds: decorrelated, deterministic, and still
    scalar-faithful in their ``distance_evals`` accounting."""

    def test_seed_is_deterministic_and_decorrelated(self):
        seeds = [partition_scan_seed(pid) for pid in range(64)]
        assert seeds == [partition_scan_seed(pid) for pid in range(64)]
        assert len(set(seeds)) == 64  # no two partitions share an order
        assert all(s != 7 for s in seeds)  # none inherits the raw default

    def test_base_seed_feeds_through(self):
        assert partition_scan_seed(3, base_seed=1) != partition_scan_seed(
            3, base_seed=2
        )

    def test_make_partition_detector_sets_seed(self):
        d0 = make_partition_detector("nested_loop", 0)
        d1 = make_partition_detector("nested_loop", 1)
        assert d0.seed == partition_scan_seed(0)
        assert d1.seed == partition_scan_seed(1)
        assert d0.seed != d1.seed

    def test_seedless_detector_passes_through(self):
        d = make_partition_detector("kdtree", 4)
        assert not hasattr(d, "seed")

    def test_exactness_is_seed_independent(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 20, size=(300, 2))
        params = OutlierParams(r=1.5, k=4)
        expected = brute_force_outliers(Dataset.from_points(pts), params)
        for pid in range(6):
            det = make_partition_detector("nested_loop", pid)
            got = det.detect(
                pts, np.arange(300), np.empty((0, 2)), params
            )
            assert set(got.outlier_ids) == set(expected)

    @pytest.mark.parametrize("pid", [0, 1, 17])
    def test_distance_evals_stay_scalar_faithful(self, pid, monkeypatch):
        """The vectorized scan must charge exactly what a scalar loop
        scanning the same per-partition permutation would — for any
        partition seed, not just the old global 7."""
        rng = np.random.default_rng(40 + pid)
        queries = rng.uniform(0, 10, size=(25, 2))
        candidates = rng.uniform(0, 10, size=(90, 2))
        r, need = 2.0, 3
        seed = partition_scan_seed(pid)

        monkeypatch.setattr(base, "TILE", 16)
        counts, evals = random_scan_counts(
            queries, candidates, r, need, seed=seed
        )

        order = np.random.default_rng(seed).permutation(len(candidates))
        shuffled = candidates[order]
        expected_counts = []
        expected_evals = 0
        for q in queries:
            found = 0
            examined = 0
            for p in shuffled:
                examined += 1
                if float(((q - p) ** 2).sum()) <= r * r:
                    found += 1
                    if found >= need:
                        break
            expected_counts.append(found)
            expected_evals += examined

        # A decided query's vectorized count includes the rest of its
        # final tile (documented lower-bound semantics); undecided
        # counts are exact.  The evals total is exact either way.
        for got, exp in zip(counts.tolist(), expected_counts):
            if exp >= need:
                assert got >= need
            else:
                assert got == exp
        assert evals == expected_evals


class TestScanOrder:
    """``scan_order`` keeps only seed entropy between calls: every call
    is ``default_rng(seed).permutation(n)`` from a fresh generator."""

    SEEDS = [0, 7, 12345, 2**32 - 1, 2**40 + 3, np.int64(99),
             partition_scan_seed(5)]

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 256, 1000])
    def test_equals_a_fresh_default_rng(self, n):
        for seed in self.SEEDS:
            for _ in range(3):  # repeated calls: nothing advances
                assert np.array_equal(
                    scan_order(n, seed),
                    np.random.default_rng(seed).permutation(n),
                )

    def test_threads_get_the_same_orders(self):
        from concurrent.futures import ThreadPoolExecutor

        seeds = [partition_scan_seed(pid) for pid in range(64)] * 4
        with ThreadPoolExecutor(max_workers=4) as pool:
            orders = list(pool.map(lambda s: scan_order(300, s), seeds))
        for seed, order in zip(seeds, orders):
            assert np.array_equal(
                order, np.random.default_rng(seed).permutation(300)
            )


class TestRandomScanContract:
    """``random_scan_counts`` decides nothing itself: trivial input is
    the kernel's to refuse or answer, and a trivial call is a call."""

    @pytest.mark.parametrize("queries, candidates, r, need", [
        (np.zeros((3, 2)), np.zeros((0, 2)), float("nan"), 2),
        (np.zeros((0, 2)), np.zeros((5, 2)), -1.0, 2),
        (np.zeros((3, 2)), np.zeros((5, 2)), 1.0, -0.5),
    ])
    def test_bad_arguments_are_refused_on_trivial_input(
        self, queries, candidates, r, need
    ):
        with pytest.raises(ValueError):
            random_scan_counts(queries, candidates, r, need)

    @pytest.mark.parametrize("queries, candidates, need", [
        (np.zeros((0, 2)), np.zeros((5, 2)), 2),
        (np.zeros((3, 2)), np.zeros((0, 2)), 2),
        (np.zeros((3, 2)), np.zeros((5, 2)), 0),
    ])
    def test_a_trivial_scan_counts_one_call(self, queries, candidates, need):
        kernel = make_kernel("numpy")
        counts, evals = random_scan_counts(
            queries, candidates, 1.0, need, kernel=kernel
        )
        assert counts.tolist() == [0] * queries.shape[0]
        assert evals == 0
        assert (kernel.calls, kernel.evals_charged) == (1, 0)
