"""Differential exactness suite: every detector vs. the O(n^2) oracle.

Hypothesis generates adversarial datasets — duplicate points, collinear
points, points landing exactly on cell boundaries (coordinates on a
lattice whose spacing divides the tested radii), all-outlier and
zero-outlier regimes — and asserts NestedLoop, both CellBased variants,
KDTree, and Pivot all return *exactly* the brute-force oracle's id set.
DOD is an exact technique; any divergence on any input is a bug.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import Dataset, OutlierParams, brute_force_outliers
from repro.detectors import (
    CellBasedDetector,
    CellBasedRingDetector,
    KDTreeDetector,
    NestedLoopDetector,
    PivotDetector,
)

DETECTORS = [
    NestedLoopDetector(),
    CellBasedDetector(),
    CellBasedRingDetector(),
    KDTreeDetector(),
    PivotDetector(),
]

DETECTOR_IDS = [d.name for d in DETECTORS]

#: Lattice spacing 0.5 with radii that are exact multiples: distances
#: between generated points frequently equal r exactly, exercising the
#: inclusive boundary (d <= r counts as a neighbor) and cell-boundary
#: assignment in the grid detectors.
LATTICE = 0.5
RADII = [0.5, 1.0, 1.5, 2.5]


@st.composite
def lattice_datasets(draw):
    """Point sets on a coarse lattice: duplicates and ties are common."""
    n = draw(st.integers(min_value=2, max_value=40))
    coords = st.integers(min_value=0, max_value=10).map(
        lambda v: v * LATTICE
    )
    points = draw(
        st.lists(st.tuples(coords, coords), min_size=n, max_size=n)
    )
    return Dataset.from_points(np.array(points, dtype=float))


@st.composite
def outlier_params(draw):
    return OutlierParams(
        r=draw(st.sampled_from(RADII)),
        k=draw(st.integers(min_value=1, max_value=6)),
    )


def assert_matches_oracle(detector, dataset, params):
    oracle = brute_force_outliers(dataset, params)
    got = set(
        detector.detect_dataset(dataset, params).outlier_ids
    )
    assert got == oracle, (
        f"{detector.name} diverged from oracle: extra={got - oracle}, "
        f"missing={oracle - got} (r={params.r}, k={params.k})"
    )


@pytest.mark.parametrize("detector", DETECTORS, ids=DETECTOR_IDS)
class TestDifferential:
    @given(dataset=lattice_datasets(), params=outlier_params())
    def test_lattice_points_match_oracle(self, detector, dataset, params):
        assert_matches_oracle(detector, dataset, params)

    @given(
        n=st.integers(min_value=2, max_value=30),
        k=st.integers(min_value=1, max_value=8),
        r=st.sampled_from(RADII),
    )
    def test_all_duplicates(self, detector, n, k, r):
        """n copies of one point: all inliers iff n-1 >= k."""
        dataset = Dataset.from_points(np.tile([3.0, 4.0], (n, 1)))
        params = OutlierParams(r=r, k=k)
        assert_matches_oracle(detector, dataset, params)
        expected_outliers = set() if n - 1 >= k else set(range(n))
        assert set(
            detector.detect_dataset(dataset, params).outlier_ids
        ) == expected_outliers

    @given(
        n=st.integers(min_value=3, max_value=40),
        spacing=st.sampled_from([0.5, 1.0, 2.5]),
        k=st.integers(min_value=1, max_value=5),
    )
    def test_collinear_points(self, detector, n, spacing, k):
        """Evenly spaced points on a line, spacing dividing r exactly."""
        xs = np.arange(n) * spacing
        dataset = Dataset.from_points(
            np.column_stack([xs, np.zeros(n)])
        )
        assert_matches_oracle(
            detector, dataset, OutlierParams(r=1.0, k=k)
        )

    def test_boundary_pair_is_inclusive(self, detector):
        """Two points at distance exactly r are neighbors (d <= r)."""
        dataset = Dataset.from_points(
            np.array([[0.0, 0.0], [2.0, 0.0]])
        )
        result = detector.detect_dataset(
            dataset, OutlierParams(r=2.0, k=1)
        )
        assert set(result.outlier_ids) == set()

    def test_cell_boundary_grid(self, detector):
        """Points on every corner of an r-spaced grid."""
        r = 1.0
        xs, ys = np.meshgrid(np.arange(5) * r, np.arange(5) * r)
        dataset = Dataset.from_points(
            np.column_stack([xs.ravel(), ys.ravel()])
        )
        for k in (1, 4, 5):
            assert_matches_oracle(
                detector, dataset, OutlierParams(r=r, k=k)
            )

    @given(n=st.integers(min_value=2, max_value=25))
    def test_all_outlier_regime(self, detector, n):
        """Points spread far apart: everyone is an outlier."""
        rng = np.random.default_rng(n)
        points = np.arange(n)[:, None] * 100.0 + rng.uniform(
            0, 1, size=(n, 1)
        )
        dataset = Dataset.from_points(
            np.column_stack([points[:, 0], np.zeros(n)])
        )
        params = OutlierParams(r=2.0, k=1)
        assert_matches_oracle(detector, dataset, params)
        assert set(
            detector.detect_dataset(dataset, params).outlier_ids
        ) == set(range(n))

    @given(n=st.integers(min_value=8, max_value=40))
    def test_zero_outlier_regime(self, detector, n):
        """A tight cluster: nobody is an outlier."""
        rng = np.random.default_rng(n)
        dataset = Dataset.from_points(
            rng.uniform(0, 0.3, size=(n, 2))
        )
        params = OutlierParams(r=1.0, k=3)
        assert_matches_oracle(detector, dataset, params)
        assert detector.detect_dataset(
            dataset, params
        ).outlier_ids == []


@given(dataset=lattice_datasets(), params=outlier_params(),
       data=st.data())
def test_any_batch_split_matches_full_rerun(dataset, params, data):
    """Streaming ingestion is split-invariant: ANY way of chopping the
    stream into micro-batches yields the one-shot pipeline's (and the
    oracle's) exact outlier set after the final batch."""
    from repro.core import detect_outliers
    from repro.mapreduce import ClusterConfig
    from repro.streaming import StreamingDetector

    n = dataset.n
    cuts = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 1),
            unique=True, max_size=3,
        ).map(sorted),
        label="cuts",
    )
    cluster = ClusterConfig(nodes=2)
    streaming = StreamingDetector(
        params, cluster=cluster,
        n_partitions=4, n_reducers=2, seed=2,
    )
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        if hi > lo:
            streaming.ingest(dataset.subset(np.arange(lo, hi)))
    full = detect_outliers(
        dataset, params, cluster=cluster,
        n_partitions=4, n_reducers=2, seed=2,
    )
    oracle = brute_force_outliers(dataset, params)
    assert streaming.outlier_ids == full.outlier_ids == oracle


@pytest.mark.parametrize("detector", DETECTORS, ids=DETECTOR_IDS)
@given(dataset=lattice_datasets(), params=outlier_params())
def test_support_point_split_matches_oracle(detector, dataset, params):
    """Core/support split must agree with the whole-dataset oracle.

    The first half of the points are core (classified), the rest are
    support (neighbor candidates only) — the shape the distributed
    partitions hand the detectors.
    """
    half = dataset.n // 2
    if half == 0:
        return
    core_points = dataset.points[:half]
    core_ids = dataset.ids[:half]
    support = dataset.points[half:]
    oracle = brute_force_outliers(dataset, params)
    got = set(
        detector.detect(
            core_points, core_ids, support, params
        ).outlier_ids
    )
    assert got == {i for i in oracle if i < half}


@pytest.mark.parametrize(
    "detector", [CellBasedDetector(), CellBasedRingDetector()],
    ids=["cell_based", "cell_based_ring"],
)
def test_cell_span_beyond_an_int64_flat_key(detector):
    """Clusters spread over ~1e7 r per axis in 3-D: the ``r / (2 sqrt 3)``
    cells span ~3.5e7 per axis, ~4e22 in all, past any int64 flat key.
    The answer is still Nested-Loop's."""
    rng = np.random.default_rng(17)
    centers = rng.uniform(0.0, 1e7, size=(30, 3))
    points = np.repeat(centers, 6, axis=0) + rng.normal(
        0.0, 0.6, size=(180, 3)
    )
    span = np.ptp(points, axis=0) / (1.0 / (2.0 * np.sqrt(3.0)))
    assert np.prod(span) > 2.0**63
    dataset = Dataset.from_points(points)
    params = OutlierParams(r=1.0, k=3)
    expected = set(NestedLoopDetector().detect_dataset(
        dataset, params
    ).outlier_ids)
    assert 0 < len(expected) < dataset.n
    assert set(detector.detect_dataset(dataset, params).outlier_ids) == (
        expected
    )
