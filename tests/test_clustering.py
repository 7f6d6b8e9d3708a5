"""Tests for the density-based clustering extension (distributed DBSCAN).

Exactness criteria (label permutation aside):
* the set of core points matches the centralized reference exactly;
* the partition of core points into clusters matches exactly;
* every border point is assigned to a cluster containing a core point
  within eps (border assignment is ambiguous in DBSCAN by definition);
* the noise set contains exactly the points with no core point in reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import (
    DBSCANResult,
    dbscan_reference,
    distributed_dbscan,
)
from repro.core import Dataset


def two_blobs(seed=0, n=150, gap=20.0):
    rng = np.random.default_rng(seed)
    a = rng.normal((0.0, 0.0), 0.8, size=(n, 2))
    b = rng.normal((gap, 0.0), 0.8, size=(n, 2))
    noise = rng.uniform(-5, gap + 5, size=(10, 2)) + np.array([0, 30.0])
    return Dataset.from_points(np.vstack([a, b, noise]))


def assert_equivalent(dataset, dist: DBSCANResult, ref: DBSCANResult,
                      eps: float):
    # 1. identical core points
    assert dist.core_ids == ref.core_ids
    # 2. identical core-point clustering (up to relabeling)
    def core_partition(result):
        clusters = result.clusters()
        return {
            frozenset(members & result.core_ids)
            for members in clusters.values()
        }

    assert core_partition(dist) == core_partition(ref)
    # 3. identical noise
    assert dist.noise_ids == ref.noise_ids
    # 4. border points attach to a legitimate adjacent cluster
    pts = {int(pid): p for pid, p in zip(dataset.ids, dataset.points)}
    clusters = dist.clusters()
    for label, members in clusters.items():
        core_members = members & dist.core_ids
        assert core_members, "every cluster needs a core point"
        for pid in members - dist.core_ids:
            dists = [
                np.linalg.norm(pts[pid] - pts[c]) for c in core_members
            ]
            assert min(dists) <= eps + 1e-9, pid


class TestReference:
    def test_two_blobs(self):
        data = two_blobs()
        result = dbscan_reference(data, eps=1.0, min_pts=5)
        assert result.n_clusters == 2
        assert len(result.noise_ids) >= 5

    def test_all_noise(self):
        rng = np.random.default_rng(1)
        data = Dataset.from_points(rng.uniform(0, 1000, size=(50, 2)))
        result = dbscan_reference(data, eps=1.0, min_pts=5)
        assert result.n_clusters == 0
        assert len(result.noise_ids) == 50

    def test_single_cluster(self):
        rng = np.random.default_rng(2)
        data = Dataset.from_points(rng.normal(0, 0.5, size=(100, 2)))
        result = dbscan_reference(data, eps=1.0, min_pts=4)
        assert result.n_clusters == 1

    def test_min_pts_includes_self(self):
        # Three collinear points within eps: all core at min_pts=3.
        data = Dataset.from_points(
            np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        )
        result = dbscan_reference(data, eps=0.6, min_pts=3)
        assert result.core_ids == {1}
        assert result.n_clusters == 1


class TestDistributed:
    def test_matches_reference_two_blobs(self):
        data = two_blobs(seed=3)
        ref = dbscan_reference(data, eps=1.0, min_pts=5)
        dist = distributed_dbscan(
            data, eps=1.0, min_pts=5, n_partitions=9, n_reducers=4
        )
        assert_equivalent(data, dist, ref, eps=1.0)

    def test_cluster_straddling_partition_boundary(self):
        # A dense horizontal strip crossing every vertical grid cut.
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 100, size=(400, 1))
        ys = rng.normal(50.0, 0.4, size=(400, 1))
        strays = rng.uniform(0, 100, size=(15, 2)) * np.array([1, 0.2])
        data = Dataset.from_points(
            np.vstack([np.hstack([xs, ys]), strays])
        )
        ref = dbscan_reference(data, eps=2.0, min_pts=5)
        dist = distributed_dbscan(
            data, eps=2.0, min_pts=5, n_partitions=16, n_reducers=4
        )
        assert ref.n_clusters >= 1
        assert_equivalent(data, dist, ref, eps=2.0)

    def test_validation(self):
        data = two_blobs()
        with pytest.raises(ValueError):
            distributed_dbscan(data, eps=0.0, min_pts=3)
        with pytest.raises(ValueError):
            distributed_dbscan(data, eps=1.0, min_pts=0)
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps"):
                distributed_dbscan(data, eps=eps, min_pts=3)
        with pytest.raises(ValueError, match="min_pts"):
            distributed_dbscan(data, eps=1.0, min_pts=2.5)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        eps=st.floats(0.5, 4.0),
        min_pts=st.integers(2, 8),
    )
    def test_matches_reference_property(self, seed, eps, min_pts):
        rng = np.random.default_rng(seed)
        n_blobs = rng.integers(1, 4)
        centers = rng.uniform(0, 40, size=(n_blobs, 2))
        blobs = [
            rng.normal(c, 0.7, size=(rng.integers(20, 60), 2))
            for c in centers
        ]
        scatter = rng.uniform(0, 40, size=(15, 2))
        data = Dataset.from_points(np.vstack(blobs + [scatter]))
        ref = dbscan_reference(data, eps=eps, min_pts=min_pts)
        dist = distributed_dbscan(
            data, eps=eps, min_pts=min_pts, n_partitions=9,
            n_reducers=3,
        )
        assert_equivalent(data, dist, ref, eps=eps)
