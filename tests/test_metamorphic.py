"""Metamorphic properties of distance-threshold outlier detection.

These invariants hold by definition of the semantics (Def. 2.2) and make
strong end-to-end checks because they exercise the full pipeline twice:

* translation invariance: shifting every point leaves the outlier set
  unchanged;
* scale equivariance: scaling coordinates by ``s`` and the radius by the
  same ``s`` leaves the outlier set unchanged;
* monotonicity in ``k``: a larger neighbor requirement can only grow the
  outlier set; in ``r``: a larger radius can only shrink it;
* duplication: duplicating a point can only remove outliers (every copy
  gains a zero-distance neighbor).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Dataset, OutlierParams, brute_force_outliers, detect_outliers
from repro.mapreduce import ClusterConfig

CLUSTER = ClusterConfig(nodes=2)


def run(data, params, seed=1):
    return detect_outliers(
        data, params, strategy="uniSpace", n_partitions=9,
        n_reducers=4, cluster=CLUSTER, sample_rate=0.5, seed=seed,
    ).outlier_ids


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 5000),
    dx=st.floats(-500, 500),
    dy=st.floats(-500, 500),
)
def test_translation_invariance(seed, dx, dy):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 30, size=(200, 2))
    params = OutlierParams(r=2.0, k=4)
    base = run(Dataset.from_points(points), params)
    shifted = run(Dataset.from_points(points + [dx, dy]), params)
    assert base == shifted


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000), scale=st.floats(0.25, 8.0))
def test_scale_equivariance(seed, scale):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 30, size=(200, 2))
    base = run(Dataset.from_points(points), OutlierParams(r=2.0, k=4))
    scaled = run(
        Dataset.from_points(points * scale),
        OutlierParams(r=2.0 * scale, k=4),
    )
    assert base == scaled


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000))
def test_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    data = Dataset.from_points(rng.uniform(0, 30, size=(250, 2)))
    small_k = run(data, OutlierParams(r=2.0, k=3))
    big_k = run(data, OutlierParams(r=2.0, k=8))
    assert small_k <= big_k


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000))
def test_monotone_in_r(seed):
    rng = np.random.default_rng(seed)
    data = Dataset.from_points(rng.uniform(0, 30, size=(250, 2)))
    small_r = run(data, OutlierParams(r=1.0, k=4))
    big_r = run(data, OutlierParams(r=4.0, k=4))
    assert big_r <= small_r


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5000), row=st.integers(0, 199))
def test_duplication_only_removes_outliers(seed, row):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 30, size=(200, 2))
    params = OutlierParams(r=2.0, k=4)
    base = brute_force_outliers(Dataset.from_points(points), params)
    duplicated = Dataset.from_points(
        np.vstack([points, points[row:row + 1]])
    )
    after = brute_force_outliers(duplicated, params)
    # Old ids that remain outliers must be a subset of the old outliers.
    assert {pid for pid in after if pid < 200} <= base
