"""Theoretical cost models (Lemmas 4.1, 4.2; Corollary 4.3)."""

from .bucketwise import (
    bucketwise_best_algorithm,
    bucketwise_cost,
    density_regimes,
)

from .models import (
    ALL_TACTICS,
    CELL_WEIGHT,
    INDEX_WEIGHT,
    SCAN_FLOOR,
    ball_volume,
    cell_based_cost,
    cell_based_ring_cost,
    default_sample_size,
    density,
    estimate_cost,
    expected_occupied_cells,
    fast_tier_cost,
    kdtree_cost,
    nested_loop_cost,
    pivot_cost,
    proximity_graph_cost,
    select_algorithm,
    select_tier,
)

__all__ = [
    "bucketwise_best_algorithm",
    "bucketwise_cost",
    "density_regimes",
    "ALL_TACTICS",
    "CELL_WEIGHT",
    "INDEX_WEIGHT",
    "SCAN_FLOOR",
    "cell_based_ring_cost",
    "expected_occupied_cells",
    "ball_volume",
    "cell_based_cost",
    "density",
    "estimate_cost",
    "kdtree_cost",
    "nested_loop_cost",
    "pivot_cost",
    "proximity_graph_cost",
    "select_algorithm",
    "fast_tier_cost",
    "default_sample_size",
    "select_tier",
]
