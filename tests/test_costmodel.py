"""Unit tests for the theoretical cost models (Sec. IV)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.costmodel import (
    ALL_TACTICS,
    ball_volume,
    bucketwise_best_algorithm,
    bucketwise_cost,
    cell_based_cost,
    cell_based_ring_cost,
    density,
    density_regimes,
    estimate_cost,
    expected_occupied_cells,
    kdtree_cost,
    nested_loop_cost,
    select_algorithm,
)
from repro.params import CELL_WEIGHT, INDEX_WEIGHT, OutlierParams

PARAMS = OutlierParams(r=5.0, k=4)


class TestBallVolume:
    def test_2d_is_circle_area(self):
        assert ball_volume(5.0, 2) == pytest.approx(math.pi * 25.0)

    def test_1d_is_segment(self):
        assert ball_volume(3.0, 1) == pytest.approx(6.0)

    def test_3d_is_sphere(self):
        assert ball_volume(2.0, 3) == pytest.approx(4.0 / 3.0 * math.pi * 8)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            ball_volume(1.0, 0)


class TestDensity:
    def test_basic(self):
        assert density(100, 50.0) == 2.0

    def test_zero_area_infinite(self):
        assert density(10, 0.0) == float("inf")


class TestNestedLoopCost:
    def test_lemma_formula_in_linear_band(self):
        # per-point trials = k * A / V_ball, within [floor, n].
        n, area = 10_000, 10_000.0
        expected = n * PARAMS.k * area / ball_volume(PARAMS.r, 2)
        assert nested_loop_cost(n, area, PARAMS) == pytest.approx(expected)

    def test_clamped_at_full_scan(self):
        n = 100
        cost = nested_loop_cost(n, 1e9, PARAMS)
        assert cost == pytest.approx(n * n)

    def test_monotone_in_area(self):
        """Fig. 4's message: same n, larger area (sparser) costs more."""
        costs = [
            nested_loop_cost(10_000, a, PARAMS)
            for a in (1e3, 1e4, 1e5, 1e6)
        ]
        assert costs == sorted(costs)

    def test_zero_points(self):
        assert nested_loop_cost(0, 100.0, PARAMS) == 0.0

    def test_degenerate_area(self):
        assert nested_loop_cost(10, 0.0, PARAMS) > 0


class TestCellBasedCost:
    def test_dense_regime_linear(self):
        # rho * (9/8) r^2 >= k  ->  pure indexing cost.
        n = 10_000
        rho = 2 * PARAMS.k / (9.0 / 8.0 * PARAMS.r**2)
        cost = cell_based_cost(n, n / rho, PARAMS)
        linear = INDEX_WEIGHT * n + CELL_WEIGHT * expected_occupied_cells(
            n, n / rho, PARAMS.r, 2
        )
        assert cost == pytest.approx(linear)

    def test_sparse_regime_linear(self):
        n = 10_000
        rho = 0.5 * PARAMS.k / (49.0 / 8.0 * PARAMS.r**2)
        area = n / rho
        cost = cell_based_cost(n, area, PARAMS)
        linear = INDEX_WEIGHT * n + CELL_WEIGHT * expected_occupied_cells(
            n, area, PARAMS.r, 2
        )
        assert cost == pytest.approx(linear)

    def test_unresolved_adds_nested_loop(self):
        n = 10_000
        rho_dense, rho_sparse = density_regimes(PARAMS)
        rho = (rho_dense + rho_sparse) / 2.0
        area = n / rho
        cost = cell_based_cost(n, area, PARAMS)
        assert cost > nested_loop_cost(n, area, PARAMS)

    def test_regime_thresholds_match_paper_stencils(self):
        # (9/8) r^2 and (49/8) r^2 for d=2 (Lemma 4.2).
        rho_dense, rho_sparse = density_regimes(PARAMS)
        assert rho_dense == pytest.approx(
            PARAMS.k / (9.0 / 8.0 * PARAMS.r**2)
        )
        assert rho_sparse == pytest.approx(
            PARAMS.k / (49.0 / 8.0 * PARAMS.r**2)
        )


class TestOccupiedCells:
    def test_sparse_limit_one_cell_per_point(self):
        occ = expected_occupied_cells(100, 1e9, 5.0)
        assert occ == pytest.approx(100, rel=1e-3)

    def test_dense_limit_all_cells(self):
        area = 100.0
        cell_area = (5.0 / (2 * math.sqrt(2))) ** 2
        occ = expected_occupied_cells(1e9, area, 5.0)
        assert occ == pytest.approx(area / cell_area, rel=1e-3)

    def test_zero(self):
        assert expected_occupied_cells(0, 100.0, 5.0) == 0.0

    @given(st.floats(1, 1e6), st.floats(1.0, 1e8))
    def test_bounded_by_points_and_cells(self, n, area):
        occ = expected_occupied_cells(n, area, 5.0)
        cell_area = (5.0 / (2 * math.sqrt(2))) ** 2
        assert occ <= n + 1e-6
        assert occ <= area / cell_area + 1e-6


class TestSelection:
    def test_corollary_dense_picks_cell_based(self):
        n = 50_000
        rho = 10 * PARAMS.k / (9.0 / 8.0 * PARAMS.r**2)
        assert select_algorithm(n, n / rho, PARAMS) == "cell_based"

    def test_corollary_sparse_picks_cell_based(self):
        n = 50_000
        rho = 0.05 * PARAMS.k / (49.0 / 8.0 * PARAMS.r**2)
        assert select_algorithm(n, n / rho, PARAMS) == "cell_based"

    def test_corollary_mid_picks_nested_loop(self):
        n = 50_000
        rho_dense, rho_sparse = density_regimes(PARAMS)
        rho = math.sqrt(rho_dense * rho_sparse)
        assert select_algorithm(n, n / rho, PARAMS) == "nested_loop"

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_algorithm(10, 10.0, PARAMS, candidates=())

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            estimate_cost("bogus", 10, 10.0, PARAMS)

    def test_ring_and_kdtree_models_positive(self):
        assert cell_based_ring_cost(100, 100.0, PARAMS) > 0
        assert kdtree_cost(100, 100.0, PARAMS) > 0
        assert cell_based_ring_cost(0, 100.0, PARAMS) == 0.0
        assert kdtree_cost(0, 100.0, PARAMS) == 0.0


class TestDegenerateConsistency:
    """Regression: zero-area partitions (all points coincident) must get
    one consistent infinitely-dense-limit treatment across the models,
    so select_algorithm compares finite, commensurable costs instead of
    a vacuous scan-floor scan against an infinite density."""

    def test_all_models_finite_at_zero_area(self):
        for algorithm in ("nested_loop", "cell_based",
                          "cell_based_ring", "kdtree", "pivot"):
            cost = estimate_cost(algorithm, 500, 0.0, PARAMS)
            assert math.isfinite(cost) and cost > 0, algorithm

    def test_nested_loop_charges_k_hits_per_point(self):
        # Infinitely dense: every candidate is a neighbor, so each point
        # stops after exactly k hits (never the 1-candidate scan floor).
        assert nested_loop_cost(100, 0.0, PARAMS) == pytest.approx(
            100 * PARAMS.k
        )
        # ... unless the partition is smaller than k: full scan.
        assert nested_loop_cost(3, 0.0, PARAMS) == pytest.approx(3 * 3)

    def test_occupied_cells_collapse_to_one(self):
        assert expected_occupied_cells(1000, 0.0, PARAMS.r) == 1.0

    def test_cell_based_is_pure_indexing(self):
        n = 1000
        assert cell_based_cost(n, 0.0, PARAMS) == pytest.approx(
            INDEX_WEIGHT * n + CELL_WEIGHT * 1.0
        )

    def test_selection_is_argmin_of_the_same_costs(self):
        # The original bug: select_algorithm and the per-model costs
        # disagreed about degenerate partitions, so the planner could
        # pick an algorithm its own model said was more expensive.
        for n in (2, 10, 500, 50_000):
            candidates = ("nested_loop", "cell_based")
            chosen = select_algorithm(n, 0.0, PARAMS,
                                      candidates=candidates)
            costs = {
                a: estimate_cost(a, n, 0.0, PARAMS) for a in candidates
            }
            assert costs[chosen] == min(costs.values())


class TestBucketwise:
    def test_uniform_buckets_match_lemma(self):
        """On a uniform partition the bucketwise NL cost equals Lemma 4.1."""
        n, area = 8_000, 80_000.0
        buckets = [(n / 16.0, area / 16.0)] * 16
        lemma = nested_loop_cost(n, area, PARAMS)
        assert bucketwise_cost("nested_loop", buckets, PARAMS) == (
            pytest.approx(lemma, rel=1e-6)
        )

    def test_empty_partition(self):
        assert bucketwise_cost("nested_loop", [], PARAMS) == 0.0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            bucketwise_cost("bogus", [(1.0, 1.0)], PARAMS)

    def test_support_buckets_increase_nl_cost(self):
        buckets = [(1000.0, 1000.0)]
        base = bucketwise_cost("nested_loop", buckets, PARAMS)
        with_support = bucketwise_cost(
            "nested_loop", buckets, PARAMS,
            support_buckets=[(1000.0, 1000.0)],
        )
        assert with_support > base

    def test_support_buckets_increase_cb_index_cost(self):
        buckets = [(1000.0, 10.0)]  # dense: pruned, pure indexing
        base = bucketwise_cost("cell_based", buckets, PARAMS)
        with_support = bucketwise_cost(
            "cell_based", buckets, PARAMS,
            support_buckets=[(500.0, 5.0)],
        )
        assert with_support > base

    def test_best_algorithm_prefers_cb_on_dense(self):
        rho = 20 * PARAMS.k / (9.0 / 8.0 * PARAMS.r**2)
        n = 50_000
        buckets = [(n / 4, (n / rho) / 4)] * 4
        best, cost = bucketwise_best_algorithm(buckets, PARAMS)
        assert best == "cell_based"
        assert cost > 0

    def test_best_algorithm_requires_candidates(self):
        with pytest.raises(ValueError):
            bucketwise_best_algorithm([(1.0, 1.0)], PARAMS, candidates=())

    def test_mixed_partition_cheaper_than_uniform_assumption(self):
        """A partition with a sparse-pruned pocket costs CB less than the
        partition-level uniform model predicts."""
        dense = (5_000.0, 100.0)
        empty_ish = (10.0, 100_000.0)
        buckets = [dense, empty_ish]
        bw = bucketwise_cost("cell_based", buckets, PARAMS)
        n = dense[0] + empty_ish[0]
        area = dense[1] + empty_ish[1]
        uniform = cell_based_cost(n, area, PARAMS)
        assert bw < uniform


class TestFiveTacticSelection:
    """Corollary 4.3 widened: five tactic families, one price system."""

    STATS = [
        (0.0, 0.0), (1.0, 0.0), (100.0, 1.0), (1_000.0, 0.0),
        (1_000.0, 100.0), (50_000.0, 100.0), (100.0, 1e6),
        (1_000_000.0, 1e8),
    ]

    def test_all_five_costs_finite_and_commensurable(self):
        # Including the degenerate zero-area partition: every tactic
        # must price every regime with a finite, non-negative cost in
        # the same distance-eval units, or selection is meaningless.
        for n, area in self.STATS:
            costs = {
                t: estimate_cost(t, n, area, PARAMS)
                for t in ALL_TACTICS
            }
            for tactic, cost in costs.items():
                assert math.isfinite(cost) and cost >= 0.0, (
                    tactic, n, area, cost
                )
            if n == 0:
                assert all(c == 0.0 for c in costs.values())

    def test_selection_spans_regimes(self):
        # Sweeping (n, area) must exercise genuinely different winners —
        # selection over the full tactic set is not a constant function.
        winners = {
            select_algorithm(n, area, PARAMS, candidates=ALL_TACTICS)
            for n in (100.0, 1_000.0, 10_000.0, 100_000.0)
            for area in (0.0, 1.0, 100.0, 1e4, 1e6)
        }
        assert {"nested_loop", "cell_based", "kdtree"} <= winners

    def test_metric_generic_candidates_span_regimes(self):
        # Under a non-Euclidean metric the grid tactics are gated out
        # and selection runs over the metric-generic trio; each of the
        # three must win somewhere, proximity_graph in the dense
        # mid-size regime where certification almost always succeeds.
        generic = ("nested_loop", "pivot", "proximity_graph")
        params = OutlierParams(r=0.5, k=4)
        winners = {
            select_algorithm(n, area, params, candidates=generic)
            for n in (100.0, 1_000.0, 10_000.0, 100_000.0)
            for area in (0.0, 1.0, 100.0, 1e4, 1e6)
        }
        assert winners == set(generic)
        assert (
            select_algorithm(
                10_000.0, 100.0, params, candidates=generic
            )
            == "proximity_graph"
        )

    def test_proximity_graph_never_beats_grid_when_grid_is_valid(self):
        # In Euclidean regimes the grid tactics dominate — the graph
        # tactic earns its keep where they are *invalid*, not by
        # outpricing them.  (A documentation-grade invariant: if this
        # ever flips, the DMT defaults deserve a fresh look.)
        for n, area in self.STATS:
            if n == 0:
                continue
            pg = estimate_cost("proximity_graph", n, area, PARAMS)
            best_grid = min(
                estimate_cost(t, n, area, PARAMS)
                for t in ("cell_based", "kdtree")
            )
            assert pg >= best_grid or math.isclose(pg, best_grid)
