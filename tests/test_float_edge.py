"""Exactness where a triangle-inequality bound rounds onto ``r``.

The quantised pools of the metric-equivalence and differential suites
make ``d == r`` common, but there ``r`` and every distance are exactly
representable.  The inputs here (``tests.helpers.float_edge_points``)
put a pair a hair beyond ``r`` — or a hair inside — with points on the
path between them, so a bound such as ``d(p, v) + d(v, q)`` can round to
the wrong side of ``r``.  A tactic that lets such a bound decide a pair
miscounts it; every registered tactic, under every metric it accepts,
must still return the oracle's outlier set, per partition and through
``detect_outliers`` on uniSpace and DMT.

CI runs this file in the metric-equivalence job.
"""

import numpy as np
import pytest

from repro.core import Dataset, OutlierParams, detect_outliers
from repro.detectors import DETECTOR_REGISTRY, make_detector
from repro.metrics import resolve_metric

from .helpers import float_edge_points

#: (spec, r): r is km under haversine, coordinate units otherwise.
EDGE_METRICS = [
    ("euclidean", 1.0),
    ("minkowski:1", 1.0),
    ("minkowski:3", 1.0),
    ("haversine", 90.0),
]

CASES = [
    (name, spec, r)
    for name, cls in sorted(DETECTOR_REGISTRY.items())
    for spec, r in EDGE_METRICS
    if cls.metric_generic or resolve_metric(spec).is_euclidean
]


def oracle_outliers(points, r, k, metric) -> set:
    """The O(n^2) definition, via the metric's own predicate."""
    within = resolve_metric(metric).within_block(points, points, r)
    counts = within.sum(axis=1) - 1  # self always matches
    return set(np.nonzero(counts < k)[0].tolist())


@pytest.mark.parametrize("detector,spec,r", CASES)
def test_per_partition_pools_match_the_oracle(detector, spec, r):
    # Eight-point pools: pivot's eight pivots include every between
    # point, so its tightest bound is always on hand.
    wrong = []
    for seed in range(150):
        k = 2 + seed % 5
        points = float_edge_points(seed, spec, r, k)
        ids = np.arange(points.shape[0], dtype=np.int64)
        det = make_detector(detector, metric=spec)
        result = det.run(
            points, ids, np.empty((0, 2)), OutlierParams(r=r, k=k)
        )
        if set(result.outlier_ids) != oracle_outliers(points, r, k, spec):
            wrong.append(seed)
    assert wrong == []


@pytest.mark.parametrize("strategy", ["uniSpace", "DMT"])
@pytest.mark.parametrize("detector,spec,r", CASES)
def test_pipeline_matches_the_oracle(detector, spec, r, strategy):
    params = OutlierParams(r=r, k=3)
    points = float_edge_points(11, spec, r, params.k, n_pools=225)
    result = detect_outliers(
        Dataset.from_points(points), params, strategy=strategy,
        detector=detector, metric=spec, n_partitions=64, n_reducers=4,
    )
    assert result.outlier_ids == oracle_outliers(points, r, params.k, spec)
