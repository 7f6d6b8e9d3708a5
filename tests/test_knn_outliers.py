"""Tests for kNN-based top-n outlier detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Dataset
from repro.geometry import Rect
from repro.knn import distributed_knn_outliers, knn_outliers_reference
from repro.knn import outliers as knn_outliers


def blob_with_strays(seed=0, n_blob=300, n_stray=20):
    rng = np.random.default_rng(seed)
    blob = rng.normal((20.0, 20.0), 1.5, size=(n_blob, 2))
    strays = rng.uniform(0, 100, size=(n_stray, 2))
    return Dataset.from_points(np.vstack([blob, strays]))


class TestReference:
    def test_strays_rank_first(self):
        data = blob_with_strays(seed=1)
        result = knn_outliers_reference(data, k=4, n=10)
        # The strays (ids >= 300) are far from everything; most of the
        # top ranks must come from them.
        stray_hits = sum(1 for pid in result.outlier_ids if pid >= 300)
        assert stray_hits >= 8

    def test_distances_sorted_descending(self):
        data = blob_with_strays(seed=2)
        result = knn_outliers_reference(data, k=3, n=15)
        assert list(result.knn_distances) == sorted(
            result.knn_distances, reverse=True
        )

    def test_n_equals_dataset(self):
        data = blob_with_strays(seed=3, n_blob=30, n_stray=5)
        result = knn_outliers_reference(data, k=2, n=35)
        assert len(result.outlier_ids) == 35

    def test_k_larger_than_dataset_gives_infinite_distance(self):
        data = Dataset.from_points(np.zeros((3, 2)) + [[0], [1], [2]])
        result = knn_outliers_reference(data, k=10, n=1)
        assert result.knn_distances[0] == float("inf")

    def test_validation(self):
        data = blob_with_strays()
        with pytest.raises(ValueError):
            knn_outliers_reference(data, k=0, n=1)
        with pytest.raises(ValueError):
            knn_outliers_reference(data, k=1, n=0)


class TestDistributed:
    def test_matches_reference(self):
        data = blob_with_strays(seed=4)
        ref = knn_outliers_reference(data, k=5, n=12)
        dist = distributed_knn_outliers(
            data, k=5, n=12, n_partitions=9, n_reducers=3
        )
        assert set(dist.outlier_ids) == set(ref.outlier_ids)
        np.testing.assert_allclose(
            sorted(dist.knn_distances), sorted(ref.knn_distances)
        )

    def test_outlier_near_partition_boundary(self):
        """A point whose neighbors all sit across a partition cut."""
        rng = np.random.default_rng(5)
        cluster = rng.normal((49.0, 50.0), 0.5, size=(150, 2))
        lonely = np.array([[51.0, 50.0], [95.0, 95.0], [5.0, 95.0]])
        filler = rng.uniform(0, 100, size=(100, 2))
        data = Dataset.from_points(np.vstack([cluster, lonely, filler]))
        ref = knn_outliers_reference(data, k=4, n=8)
        dist = distributed_knn_outliers(
            data, k=4, n=8, n_partitions=4, n_reducers=2
        )
        assert set(dist.outlier_ids) == set(ref.outlier_ids)

    def test_refine_reaches_a_neighbour_exactly_at_the_radius(
        self, monkeypatch
    ):
        """The candidate q sits on its partition's low face x = 4; its
        nearest neighbour p lies across that face at distance 1, exactly
        the partition's refine radius (q's own bound): the closed
        expansion must put p in q's pool, as ``Rect.expand().contains()``
        does."""
        points = np.array([
            [4.0, 2.0],                # 0: q, bound 1 (its neighbour a)
            [5.0, 2.0], [5.0, 2.5],    # 1, 2: a and a tight partner
            [3.0, 2.0], [2.5, 2.0],    # 3, 4: p, across the face
            [0.0, 0.0], [0.0, 0.1],    # corners that fix the domain
            [8.0, 8.0], [8.0, 7.9],
        ])
        data = Dataset.from_points(points)
        pools = {}
        refine = knn_outliers._RefineReducer.reduce

        def recording(self, key, values, ctx):
            pools[key] = {int(i) for b in values for i in b.ids}
            return refine(self, key, values, ctx)

        monkeypatch.setattr(knn_outliers._RefineReducer, "reduce", recording)
        dist = distributed_knn_outliers(
            data, k=1, n=1, n_partitions=4, n_reducers=2
        )
        assert dist == knn_outliers_reference(data, k=1, n=1)
        assert dist.as_dict() == {0: 1.0} and dist.rounds == 1
        face = Rect((4.0, 0.0), (8.0, 4.0))  # q's partition on the 2x2 grid
        assert face.expand(1.0).contains(points[3])
        (pool,) = [ids for ids in pools.values() if 0 in ids]
        assert pool == {0, 1, 2, 3}

    def test_converges_quickly(self):
        data = blob_with_strays(seed=6)
        dist = distributed_knn_outliers(data, k=4, n=10)
        assert dist.rounds <= 3

    def test_requesting_too_many_rejected(self):
        data = blob_with_strays(seed=7, n_blob=10, n_stray=0)
        with pytest.raises(ValueError):
            distributed_knn_outliers(data, k=2, n=100)

    def test_validation(self):
        data = blob_with_strays(seed=7, n_blob=10, n_stray=0)
        for k, n in ((2.5, 3), (2, 1.5), (float("nan"), 3), (0, 3)):
            with pytest.raises(ValueError):
                distributed_knn_outliers(data, k=k, n=n)
        # A whole float count is the same query as its int.
        assert distributed_knn_outliers(data, k=2.0, n=3.0) == (
            distributed_knn_outliers(data, k=2, n=3)
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        k=st.integers(1, 6),
        n=st.integers(1, 20),
    )
    def test_matches_reference_property(self, seed, k, n):
        rng = np.random.default_rng(seed)
        data = Dataset.from_points(rng.uniform(0, 50, size=(120, 2)))
        ref = knn_outliers_reference(data, k=k, n=n)
        dist = distributed_knn_outliers(
            data, k=k, n=n, n_partitions=6, n_reducers=2
        )
        # Distance multiset must match exactly; id sets may differ only
        # through exact ties at the boundary value.
        np.testing.assert_allclose(
            sorted(dist.knn_distances), sorted(ref.knn_distances)
        )
        ref_map = ref.as_dict()
        cutoff = min(ref.knn_distances)
        for pid, d in dist.as_dict().items():
            if d > cutoff:
                assert pid in ref_map
