"""End-to-end checks in three (and one) dimensions.

The paper presents its geometry in 2-d but everything generalizes: cell
side r/(2*sqrt(d)), the candidate stencil radius floor(2*sqrt(d)) + 1,
d-dimensional supporting areas, and d-dim ball volumes in the cost
models.  These tests run the full pipeline off the 2-d happy path.
"""

import numpy as np
import pytest

from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
)
from repro.costmodel import ball_volume, density_regimes
from repro.mapreduce import ClusterConfig

CLUSTER = ClusterConfig(nodes=2, hdfs_block_records=512)


@pytest.mark.parametrize("strategy", ["uniSpace", "DDriven", "DMT"])
def test_pipeline_exact_in_3d(strategy):
    rng = np.random.default_rng(0)
    data = Dataset.from_points(np.vstack([
        rng.normal((5, 5, 5), 1.0, size=(600, 3)),
        rng.uniform(0, 20, size=(200, 3)),
    ]))
    params = OutlierParams(r=2.0, k=5)
    oracle = brute_force_outliers(data, params)
    result = detect_outliers(
        data, params, strategy=strategy, n_partitions=8, n_reducers=4,
        cluster=CLUSTER, n_buckets=64, sample_rate=0.5,
    )
    assert result.outlier_ids == oracle


def test_pipeline_exact_in_1d():
    rng = np.random.default_rng(1)
    data = Dataset.from_points(
        np.sort(rng.uniform(0, 100, size=(500, 1)), axis=0)
    )
    params = OutlierParams(r=1.0, k=3)
    oracle = brute_force_outliers(data, params)
    result = detect_outliers(
        data, params, strategy="uniSpace", n_partitions=5,
        n_reducers=2, cluster=CLUSTER, sample_rate=0.5,
    )
    assert result.outlier_ids == oracle


def test_unresolved_band_widens_with_dimension():
    params = OutlierParams(r=2.0, k=8)
    rho2_dense, rho2_sparse = density_regimes(params, ndim=2)
    rho3_dense, rho3_sparse = density_regimes(params, ndim=3)
    assert rho2_dense > rho2_sparse
    assert rho3_dense > rho3_sparse
    # The candidate stencil grows much faster with dimension than the L1
    # stencil (7^d-ish vs 3^d cells), so the unresolved band — where
    # Nested-Loop wins — widens: the dense/sparse threshold ratio grows.
    assert rho3_dense / rho3_sparse > rho2_dense / rho2_sparse


def test_ball_volume_consistency():
    # The same ball volume the oracle implies: count points of a uniform
    # cube falling inside an r-ball and compare to the analytic volume.
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(200_000, 3))
    inside = (np.linalg.norm(pts, axis=1) <= 0.8).mean()
    expected = ball_volume(0.8, 3) / 8.0  # cube volume is 2^3
    assert inside == pytest.approx(expected, rel=0.05)
