"""Tests for the pivot-based (DOLPHIN-style) extension detector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Dataset, OutlierParams, brute_force_outliers
from repro.detectors import PivotDetector, select_pivots_maxmin


class TestPivotSelection:
    def test_maxmin_spreads_pivots(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([
            rng.normal((0, 0), 0.1, size=(50, 2)),
            rng.normal((100, 100), 0.1, size=(50, 2)),
        ])
        rows = select_pivots_maxmin(pts, 2, seed=1)
        chosen = pts[rows]
        assert np.linalg.norm(chosen[0] - chosen[1]) > 50

    def test_caps_at_point_count(self):
        pts = np.zeros((3, 2))
        assert len(select_pivots_maxmin(pts, 10)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PivotDetector(n_pivots=0)


class TestPivotExactness:
    def test_uniform(self):
        rng = np.random.default_rng(1)
        data = Dataset.from_points(rng.uniform(0, 40, size=(500, 2)))
        params = OutlierParams(r=2.0, k=5)
        oracle = brute_force_outliers(data, params)
        result = PivotDetector().detect_dataset(data, params)
        assert set(result.outlier_ids) == oracle

    def test_clustered_with_support(self):
        rng = np.random.default_rng(2)
        core = rng.normal((10, 10), 2.0, size=(300, 2))
        support = rng.normal((10, 10), 2.0, size=(100, 2))
        params = OutlierParams(r=1.0, k=6)
        all_pts = np.vstack([core, support])
        counts = (
            np.linalg.norm(
                core[:, None, :] - all_pts[None, :, :], axis=2
            ) <= params.r
        ).sum(axis=1) - 1
        expected = set(np.nonzero(counts < params.k)[0].tolist())
        result = PivotDetector().detect(
            core, np.arange(300), support, params
        )
        assert set(result.outlier_ids) == expected

    def test_duplicates(self):
        pts = np.vstack([np.tile([[5.0, 5.0]], (8, 1)), [[90.0, 90.0]]])
        data = Dataset.from_points(pts)
        params = OutlierParams(r=1.0, k=7)
        result = PivotDetector().detect_dataset(data, params)
        assert set(result.outlier_ids) == {8}

    def test_prunes_most_exact_checks_on_clustered_data(self):
        rng = np.random.default_rng(3)
        data = Dataset.from_points(np.vstack([
            rng.normal((0, 0), 1.0, size=(400, 2)),
            rng.normal((200, 200), 1.0, size=(400, 2)),
        ]))
        params = OutlierParams(r=2.0, k=4)
        result = PivotDetector(n_pivots=4).detect_dataset(data, params)
        # Triangle inequality must rule out the opposite cluster, so
        # exact checks stay well below the all-pairs count.
        assert result.extras["exact_checks"] < 0.25 * 800 * 800
        assert result.outlier_ids == []

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        n=st.integers(10, 150),
        r=st.floats(0.5, 10.0),
        k=st.integers(1, 8),
        n_pivots=st.integers(1, 12),
    )
    def test_matches_oracle_property(self, seed, n, r, k, n_pivots):
        rng = np.random.default_rng(seed)
        data = Dataset.from_points(rng.uniform(0, 30, size=(n, 2)))
        params = OutlierParams(r=r, k=k)
        oracle = brute_force_outliers(data, params)
        result = PivotDetector(n_pivots=n_pivots).detect_dataset(
            data, params
        )
        assert set(result.outlier_ids) == oracle


class TestNonFinite:
    """A NaN coordinate fails every pivot bound, which would read as "no
    neighbour" and call every point an outlier: refused instead, as the
    grid tactics refuse it."""

    def _probe(self):
        rng = np.random.default_rng(0)
        return np.vstack([
            rng.uniform(0.0, 3.0, size=(40, 2)), [[np.nan, 1.0]]
        ])

    @pytest.mark.parametrize("metric", [None, "minkowski:1"])
    def test_a_nan_core_row_is_refused(self, metric):
        points = self._probe()
        with pytest.raises(ValueError, match="finite"):
            PivotDetector(metric=metric).detect(
                points, np.arange(points.shape[0]), np.empty((0, 2)),
                OutlierParams(r=1.0, k=2),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_support_row_is_refused(self, bad):
        points = self._probe()[:40]
        with pytest.raises(ValueError, match="finite"):
            PivotDetector().detect(
                points, np.arange(40), np.array([[1.0, bad]]),
                OutlierParams(r=1.0, k=2),
            )
