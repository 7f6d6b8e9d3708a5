"""The central correctness guarantee: every distributed configuration
returns EXACTLY the brute-force oracle's outlier set.

DOD is an exact technique (Lemma 3.1) — any divergence from the oracle,
on any data distribution, any parameters, any strategy/detector pairing,
is a bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
)
from repro.data import clustered_mixture, state_dataset, tiger_like
from repro.geometry import Rect
from repro.mapreduce import ClusterConfig

CLUSTER = ClusterConfig(
    nodes=4, map_slots_per_node=2, reduce_slots_per_node=2,
    hdfs_block_records=1024,
)

STRATEGIES = ["Domain", "uniSpace", "DDriven", "CDriven", "DMT"]


def run(data, params, strategy, detector="nested_loop", **kwargs):
    return detect_outliers(
        data,
        params,
        strategy=strategy,
        detector=detector,
        n_partitions=kwargs.pop("n_partitions", 9),
        n_reducers=kwargs.pop("n_reducers", 4),
        cluster=CLUSTER,
        n_buckets=kwargs.pop("n_buckets", 64),
        sample_rate=kwargs.pop("sample_rate", 0.5),
        seed=kwargs.pop("seed", 1),
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("detector", ["nested_loop", "cell_based"])
class TestStrategyDetectorMatrix:
    def test_uniform(self, strategy, detector):
        rng = np.random.default_rng(0)
        data = Dataset.from_points(rng.uniform(0, 50, size=(1200, 2)))
        params = OutlierParams(r=2.0, k=6)
        oracle = brute_force_outliers(data, params)
        assert run(data, params, strategy, detector).outlier_ids == oracle

    def test_clustered(self, strategy, detector):
        data = clustered_mixture(
            1500, Rect((0.0, 0.0), (60.0, 60.0)), n_clusters=4, seed=3
        )
        params = OutlierParams(r=2.0, k=8)
        oracle = brute_force_outliers(data, params)
        assert run(data, params, strategy, detector).outlier_ids == oracle


class TestEdgeCases:
    def test_r_spanning_many_partitions(self):
        """r larger than a partition: support areas span several cells."""
        rng = np.random.default_rng(4)
        data = Dataset.from_points(rng.uniform(0, 20, size=(600, 2)))
        params = OutlierParams(r=6.0, k=10)
        oracle = brute_force_outliers(data, params)
        for strategy in STRATEGIES:
            result = run(data, params, strategy, n_partitions=16)
            assert result.outlier_ids == oracle, strategy

    def test_single_partition(self):
        rng = np.random.default_rng(5)
        data = Dataset.from_points(rng.uniform(0, 30, size=(400, 2)))
        params = OutlierParams(r=2.0, k=4)
        oracle = brute_force_outliers(data, params)
        for strategy in ["uniSpace", "Domain"]:
            result = run(
                data, params, strategy, n_partitions=1, n_reducers=1
            )
            assert result.outlier_ids == oracle, strategy

    def test_more_reducers_than_partitions(self):
        rng = np.random.default_rng(6)
        data = Dataset.from_points(rng.uniform(0, 30, size=(500, 2)))
        params = OutlierParams(r=2.0, k=4)
        oracle = brute_force_outliers(data, params)
        result = run(data, params, "uniSpace", n_partitions=4,
                     n_reducers=8)
        assert result.outlier_ids == oracle

    def test_all_points_identical(self):
        data = Dataset.from_points(np.tile([[5.0, 5.0]], (40, 1)))
        params = OutlierParams(r=1.0, k=10)
        for strategy in ["uniSpace", "DMT"]:
            result = run(data, params, strategy)
            assert result.outlier_ids == set()

    def test_line_degenerate_geometry(self):
        """All points on a horizontal line (zero-height bounding box)."""
        xs = np.linspace(0, 100, 300)
        data = Dataset.from_points(
            np.stack([xs, np.zeros_like(xs)], axis=1)
        )
        params = OutlierParams(r=1.0, k=4)
        oracle = brute_force_outliers(data, params)
        result = run(data, params, "uniSpace")
        assert result.outlier_ids == oracle

    def test_neighbor_exactly_r_across_a_partition_face(self):
        """(3,3)/(4,3), (5,3)/(4,3) and (3,5)/(4,5) are pairs at distance
        exactly r whose members sit on either side of the x = 4 face, one
        of them exactly r away from it: the Domain baseline must treat
        "r from the border" as near the border and route the candidate
        into the neighbor's closed r-expansion."""
        data = Dataset.from_points(np.array([
            (0, 0), (8, 8), (0, 8), (8, 0),
            (3, 3), (4, 3), (5, 3), (4, 5), (3, 5),
        ], dtype=float))
        params = OutlierParams(r=1.0, k=1)
        corners = {0, 1, 2, 3}
        assert brute_force_outliers(data, params) == corners
        for strategy in ["Domain", "uniSpace", "DMT"]:
            result = detect_outliers(
                data, params, strategy=strategy, n_partitions=4
            )
            assert result.outlier_ids == corners, strategy

    def test_tiger_like_skew(self):
        data = tiger_like(n=1500, seed=7)
        params = OutlierParams(r=3.0, k=6)
        oracle = brute_force_outliers(data, params)
        for strategy in STRATEGIES:
            result = run(data, params, strategy, detector="cell_based")
            assert result.outlier_ids == oracle, strategy

    def test_state_sample(self):
        data = state_dataset("MA", n=1200, seed=8)
        params = OutlierParams(r=1.5, k=5)
        oracle = brute_force_outliers(data, params)
        for strategy in STRATEGIES:
            result = run(data, params, strategy)
            assert result.outlier_ids == oracle, strategy


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(30, 400),
    r=st.floats(0.5, 8.0),
    k=st.integers(1, 8),
    strategy=st.sampled_from(STRATEGIES),
)
def test_random_configurations_property(seed, n, r, k, strategy):
    """Property: exactness holds for random data, params, and strategy."""
    rng = np.random.default_rng(seed)
    data = Dataset.from_points(rng.uniform(0, 40, size=(n, 2)))
    params = OutlierParams(r=r, k=k)
    oracle = brute_force_outliers(data, params)
    result = run(data, params, strategy, seed=seed % 97 + 1)
    assert result.outlier_ids == oracle
