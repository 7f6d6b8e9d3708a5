"""Unit tests for repro.core.dataset."""

import numpy as np
import pytest

from repro.core import Dataset


class TestDataset:
    def test_from_points(self):
        data = Dataset.from_points(np.zeros((5, 3)))
        assert data.n == 5
        assert data.ndim == 3
        assert data.ids.tolist() == [0, 1, 2, 3, 4]
        assert len(data) == 5

    def test_unique_ids_enforced(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(np.zeros((2, 2)), np.array([1, 1]))

    def test_unsorted_duplicate_negative_ids_rejected(self):
        ids = np.array([7, -3, 12, -9, 0, -3, 5])
        with pytest.raises(ValueError, match="unique"):
            Dataset(np.zeros((7, 2)), ids)
        ids[5] = -4
        assert Dataset(np.zeros((7, 2)), ids).ids.tolist() == [
            7, -3, 12, -9, 0, -4, 5
        ]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(5), np.arange(5))
        with pytest.raises(ValueError):
            Dataset(np.zeros((5, 2)), np.arange(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coordinates_rejected(self, bad):
        pts = np.zeros((4, 2))
        pts[2, 1] = pts[3, 0] = bad
        with pytest.raises(ValueError, match=r"row 2 has NaN/inf"):
            Dataset.from_points(pts)

    @pytest.mark.parametrize("strategy", ["DMT", "uniSpace"])
    def test_nonfinite_row_never_reaches_a_strategy(self, strategy):
        """Below the CLI a NaN row used to die deep in the grid (DMT) or
        get a verdict of its own (uniSpace)."""
        from repro.core import OutlierParams, detect_outliers

        pts = np.random.default_rng(0).uniform(0.0, 10.0, size=(50, 2))
        pts[7] = np.nan
        with pytest.raises(ValueError, match="row 7 has NaN/inf"):
            detect_outliers(
                Dataset.from_points(pts), OutlierParams(r=1.0, k=3),
                strategy=strategy, n_partitions=4, n_reducers=2,
            )

    def test_bounds_and_density(self):
        pts = np.array([[0.0, 0.0], [2.0, 4.0]])
        data = Dataset.from_points(pts)
        assert data.bounds.low == (0.0, 0.0)
        assert data.bounds.high == (2.0, 4.0)
        assert data.density == pytest.approx(2 / 8.0)

    def test_density_degenerate(self):
        data = Dataset.from_points(np.zeros((3, 2)))
        assert data.density == float("inf")

    def test_subset_preserves_ids(self):
        data = Dataset.from_points(np.arange(10).reshape(5, 2))
        sub = data.subset(np.array([0, 3]))
        assert sub.ids.tolist() == [0, 3]

    def test_records(self):
        data = Dataset.from_points(np.arange(4).reshape(2, 2))
        recs = list(data.records())
        assert recs[0][0] == 0
        np.testing.assert_array_equal(recs[1][1], [2.0, 3.0])

    def test_concat_disjoint_ids(self):
        a = Dataset.from_points(np.zeros((3, 2)))
        b = Dataset.from_points(np.ones((2, 2))).with_ids_offset(3)
        c = a.concat(b)
        assert c.n == 5
        assert sorted(c.ids.tolist()) == [0, 1, 2, 3, 4]

    def test_concat_conflicting_ids_rejected(self):
        a = Dataset.from_points(np.zeros((2, 2)))
        b = Dataset.from_points(np.ones((2, 2)))
        with pytest.raises(ValueError):
            a.concat(b)

    def test_immutable(self):
        data = Dataset.from_points(np.zeros((2, 2)))
        with pytest.raises(Exception):
            data.points = np.ones((2, 2))
