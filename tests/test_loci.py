"""Tests for the LOCI extension."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Dataset
from repro.loci import LOCIParams, distributed_loci, loci_reference


def two_clusters_with_strays(seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_points(np.vstack([
        rng.normal((10.0, 10.0), 1.0, size=(300, 2)),
        rng.normal((30.0, 30.0), 1.0, size=(300, 2)),
        rng.uniform(0, 40, size=(25, 2)),
    ]))


class TestParams:
    def test_support_radius(self):
        params = LOCIParams(radii=(2.0, 4.0), alpha=0.5)
        assert params.support_radius == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LOCIParams(radii=())
        with pytest.raises(ValueError):
            LOCIParams(radii=(0.0,))
        with pytest.raises(ValueError):
            LOCIParams(radii=(1.0,), alpha=0.0)
        with pytest.raises(ValueError):
            LOCIParams(radii=(1.0,), alpha=1.5)
        with pytest.raises(ValueError):
            LOCIParams(radii=(1.0,), k_sigma=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="LOCI radius"):
                LOCIParams(radii=(1.0, bad))
            with pytest.raises(ValueError, match="k_sigma"):
                LOCIParams(radii=(1.0,), k_sigma=bad)
        with pytest.raises(ValueError, match="alpha"):
            LOCIParams(radii=(1.0,), alpha=float("nan"))


class TestReference:
    def test_flags_isolated_points(self):
        # LOCI only sees a stray once its sampling radius reaches denser
        # territory (a lone point's neighborhood average equals its own
        # count, so MDEF = 0 at small radii) — hence the large radii.
        data = two_clusters_with_strays(seed=1)
        params = LOCIParams(radii=(10.0, 20.0))
        flagged = loci_reference(data, params)
        assert flagged
        strays = {pid for pid in flagged if pid >= 600}
        assert len(strays) >= len(flagged) * 0.6

    def test_small_radii_miss_far_strays(self):
        """The complementary LOCI property: tiny radii flag cluster-edge
        irregularities, not far-away strays."""
        data = two_clusters_with_strays(seed=1)
        flagged = loci_reference(data, LOCIParams(radii=(2.0,)))
        strays = {pid for pid in flagged if pid >= 600}
        assert len(strays) <= 3

    def test_uniform_data_mostly_clean(self):
        rng = np.random.default_rng(2)
        data = Dataset.from_points(rng.uniform(0, 30, size=(600, 2)))
        params = LOCIParams(radii=(3.0,))
        flagged = loci_reference(data, params)
        # MDEF under the 3-sigma rule flags very few uniform points.
        assert len(flagged) < 0.05 * data.n

    def test_cluster_edge_not_all_flagged(self):
        rng = np.random.default_rng(3)
        data = Dataset.from_points(
            rng.normal((0.0, 0.0), 1.0, size=(500, 2))
        )
        params = LOCIParams(radii=(1.0, 2.0))
        flagged = loci_reference(data, params)
        assert len(flagged) < 0.2 * data.n


class TestDistributed:
    def test_matches_reference(self):
        data = two_clusters_with_strays(seed=4)
        params = LOCIParams(radii=(2.0, 4.0))
        assert distributed_loci(
            data, params, n_partitions=9, n_reducers=3
        ) == loci_reference(data, params)

    def test_matches_reference_fine_partitions(self):
        data = two_clusters_with_strays(seed=5)
        params = LOCIParams(radii=(1.5, 3.0), alpha=0.75)
        assert distributed_loci(
            data, params, n_partitions=25, n_reducers=5
        ) == loci_reference(data, params)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 3000),
        alpha=st.floats(0.3, 1.0),
        r=st.floats(1.0, 5.0),
    )
    def test_matches_reference_property(self, seed, alpha, r):
        rng = np.random.default_rng(seed)
        data = Dataset.from_points(np.vstack([
            rng.normal((10, 10), 1.2, size=(150, 2)),
            rng.uniform(0, 30, size=(30, 2)),
        ]))
        params = LOCIParams(radii=(r,), alpha=alpha)
        assert distributed_loci(
            data, params, n_partitions=6, n_reducers=2
        ) == loci_reference(data, params)
