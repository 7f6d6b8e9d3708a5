"""Differential equivalence suite for the metric layer.

The metric ABI's promise is stronger than the kernel ABI's: a metric
*defines* the answer, so every execution shape — each metric-generic
detector, each distance backend, serial or parallel —
must return the byte-identical outlier set of the O(n^2) oracle under
that metric.  This suite enforces the promise three ways:

* property-based: hypothesis-generated pools with quantized coordinates
  (duplicates and exact boundary distances ``d == r`` are common, where
  a sloppy certification or pruning margin diverges first) must give
  the oracle's exact outlier set from every metric-generic detector
  under every vector metric;
* metric axioms: each shipped :class:`~repro.metrics.Metric` must be a
  genuine metric on generated inputs — symmetry, identity of
  indiscernibles (up to float equality of encodings), and the triangle
  inequality (the load-bearing axiom: metric-safe partitioning and
  pivot pruning both derive their correctness from it);
* end-to-end: the full pipeline under each metric x detector must agree
  across serial and parallel execution, and with the oracle.

CI runs this with ``HYPOTHESIS_PROFILE=ci`` in the metric-equivalence
job.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, OutlierParams, detect_outliers
from repro.detectors import METRIC_GENERIC_DETECTORS, make_partition_detector
from repro.mapreduce import ClusterConfig, LocalRuntime, ParallelRuntime
from repro.metrics import (
    METRIC_REGISTRY,
    MetricUnsupported,
    make_metric,
    resolve_metric,
)
from repro.metrics.builtin import encode_strings
from repro.partitioning import Partition, PartitionPlan

#: (spec, r) pairs: r is scaled to the metric's units (km for
#: haversine, coordinate units otherwise) at the quantized-point scale.
VECTOR_METRICS = [
    ("euclidean", 0.75),
    ("minkowski:1", 1.0),
    ("minkowski:2.5", 0.75),
    ("haversine", 90.0),
]

CLUSTER_KW = dict(nodes=2, hdfs_block_records=64)


def oracle_outliers(points, ids, r, k, metric) -> set:
    """The O(n^2) definition, via the metric's canonical predicate."""
    m = resolve_metric(metric)
    out = set()
    for i in range(points.shape[0]):
        within = m.within_block(points[i : i + 1], points, r)[0]
        if int(within.sum()) - 1 < k:  # self always matches
            out.add(int(ids[i]))
    return out


# ----------------------------------------------------------------------
# Property-based differential: detector level
# ----------------------------------------------------------------------
# Quantized coordinates make duplicate points and exact boundary
# distances common instead of measure-zero.  Pools are drawn as a small
# base set plus sampling *with replacement*, so duplicate-heavy inputs
# (the certification-count edge case) appear constantly.
coordinate = st.integers(min_value=0, max_value=12).map(lambda v: v * 0.25)


@st.composite
def point_pools(draw):
    n_base = draw(st.integers(min_value=1, max_value=12))
    base = draw(
        st.lists(
            coordinate, min_size=2 * n_base, max_size=2 * n_base
        )
    )
    base = np.asarray(base, dtype=float).reshape(n_base, 2)
    n = draw(st.integers(min_value=1, max_value=40))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_base - 1),
            min_size=n,
            max_size=n,
        )
    )
    k = draw(st.integers(min_value=1, max_value=8))
    return base[np.asarray(rows, dtype=np.int64)], k


class TestDetectorOracleEquivalence:
    @pytest.mark.parametrize("detector", sorted(METRIC_GENERIC_DETECTORS))
    @pytest.mark.parametrize("spec,r", VECTOR_METRICS)
    @given(pool=point_pools())
    @settings(deadline=None)
    def test_matches_oracle(self, detector, spec, r, pool):
        points, k = pool
        ids = np.arange(points.shape[0], dtype=np.int64)
        params = OutlierParams(r=r, k=k)
        det = make_partition_detector(detector, 0, metric=spec)
        result = det.run(
            points, ids, np.empty((0, 2)), params
        )
        assert set(result.outlier_ids) == oracle_outliers(
            points, ids, r, k, spec
        )

    @pytest.mark.parametrize("spec,r", VECTOR_METRICS)
    @given(pool=point_pools())
    @settings(deadline=None)
    def test_kernel_backends_agree(self, spec, r, pool):
        # The metric-generic kernel path: the scalar oracle backend and
        # the tiled numpy backend must return identical counts *and*
        # identical scalar-faithful charged evals.
        points, k = pool
        ids = np.arange(points.shape[0], dtype=np.int64)
        params = OutlierParams(r=r, k=k)
        results = {}
        for backend in ("python", "numpy"):
            det = make_partition_detector(
                "nested_loop", 0, kernel=backend, metric=spec
            )
            res = det.run(points, ids, np.empty((0, 2)), params)
            results[backend] = (
                set(res.outlier_ids), res.distance_evals
            )
        assert results["python"] == results["numpy"]


# ----------------------------------------------------------------------
# Metric axioms
# ----------------------------------------------------------------------
def _axiom_points(spec):
    if spec == "haversine":
        # Degrees, clipped away from the poles where longitude
        # degenerates but the formula is still a metric.
        lon = st.integers(min_value=-24, max_value=24).map(
            lambda v: v * 7.5
        )
        lat = st.integers(min_value=-10, max_value=10).map(
            lambda v: v * 7.5
        )
        return st.tuples(lon, lat).map(
            lambda t: np.asarray(t, dtype=float)
        )
    return st.lists(coordinate, min_size=2, max_size=2).map(
        lambda v: np.asarray(v, dtype=float)
    )


AXIOM_SPECS = ["euclidean", "minkowski:1", "minkowski:2.5", "haversine"]


class TestMetricAxioms:
    @pytest.mark.parametrize("spec", AXIOM_SPECS)
    @given(data=st.data())
    @settings(deadline=None)
    def test_vector_metric_axioms(self, spec, data):
        m = make_metric(spec)
        pts = _axiom_points(spec)
        x = data.draw(pts)
        y = data.draw(pts)
        z = data.draw(pts)
        dxy = m.distance(x, y)
        dyx = m.distance(y, x)
        dxz = m.distance(x, z)
        dyz = m.distance(y, z)
        assert dxy == dyx  # symmetry, bitwise
        assert m.distance(x, x) == 0.0  # identity
        assert dxy >= 0.0
        # Triangle inequality with a relative float slack; the
        # production code never relies on tighter than this (its
        # margins are 1e-9-relative in the safe direction).
        scale = max(dxy, dxz, dyz, 1.0)
        assert dxz <= dxy + dyz + 1e-9 * scale

    @given(
        strings=st.lists(
            st.text(alphabet="abcd", max_size=6),
            min_size=3,
            max_size=3,
        )
    )
    @settings(deadline=None)
    def test_edit_distance_axioms(self, strings):
        m = make_metric("edit_distance")
        codes = encode_strings(strings, width=8)
        x, y, z = codes[0], codes[1], codes[2]
        dxy = m.distance(x, y)
        assert dxy == m.distance(y, x)
        assert m.distance(x, x) == 0.0
        assert m.distance(x, z) <= dxy + m.distance(y, z)
        # Levenshtein is integral.
        assert dxy == int(dxy)

    @pytest.mark.parametrize("spec", AXIOM_SPECS + ["edit_distance"])
    def test_scalar_vectorized_consistency(self, spec):
        # distance/within are defined via singleton blocks, so the
        # scalar and block paths must agree bitwise.
        m = make_metric(spec)
        if spec == "edit_distance":
            pts = encode_strings(
                ["abc", "abcd", "", "dcba", "abc"], width=6
            )
            r = 2.0
        elif spec == "haversine":
            rng = np.random.default_rng(11)
            pts = np.column_stack(
                [rng.uniform(-30, 30, 12), rng.uniform(-30, 30, 12)]
            )
            r = 900.0
        else:
            rng = np.random.default_rng(11)
            pts = (rng.integers(0, 8, size=(12, 2)) * 0.25).astype(float)
            r = 0.75
        block_d = m.pairwise(pts, pts)
        block_w = m.within_block(pts, pts, r)
        for i in range(pts.shape[0]):
            for j in range(pts.shape[0]):
                assert m.distance(pts[i], pts[j]) == block_d[i, j]
                assert m.within(pts[i], pts[j], r) == block_w[i, j]


# ----------------------------------------------------------------------
# End-to-end: serial / parallel
# ----------------------------------------------------------------------
def _workload(seed=3, n=240):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 30.0, size=(n, 2))
    pts[: n // 40] = rng.uniform(60.0, 90.0, size=(n // 40, 2))
    # Quantize: exact duplicates and boundary-distance pairs.
    pts = np.round(pts * 2.0) / 2.0
    return Dataset.from_points(pts)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("detector", sorted(METRIC_GENERIC_DETECTORS))
    @pytest.mark.parametrize("spec,r", VECTOR_METRICS)
    def test_all_runtimes_match_oracle(self, detector, spec, r):
        dataset = _workload()
        params = OutlierParams(r=r, k=6)
        expected = oracle_outliers(
            dataset.points, dataset.ids, r, params.k, spec
        )
        runtimes = [
            ("serial", lambda c: LocalRuntime(c)),
            ("parallel", lambda c: ParallelRuntime(c, workers=2)),
        ]
        for label, make_runtime in runtimes:
            cluster = ClusterConfig(**CLUSTER_KW)
            result = detect_outliers(
                dataset,
                params,
                detector=detector,
                metric=spec,
                n_partitions=6,
                n_reducers=3,
                cluster=cluster,
                runtime=make_runtime(cluster),
                seed=1,
            )
            assert result.outlier_ids == expected, (label, spec)

    def test_edit_distance_end_to_end(self):
        rng = np.random.default_rng(9)
        common = ["".join(rng.choice(list("ab"), 4)) for _ in range(60)]
        rare = ["zzzzzzzz", "qqqqqqqq"]
        strings = common + rare
        codes = encode_strings(strings, width=8)
        dataset = Dataset.from_points(codes)
        params = OutlierParams(r=2.0, k=4)
        expected = oracle_outliers(
            codes, dataset.ids, params.r, params.k, "edit_distance"
        )
        assert set(range(60, 62)) <= expected
        for detector in sorted(METRIC_GENERIC_DETECTORS):
            result = detect_outliers(
                dataset,
                params,
                detector=detector,
                metric="edit_distance",
                n_partitions=4,
                n_reducers=2,
                seed=1,
            )
            assert result.outlier_ids == expected, detector


# ----------------------------------------------------------------------
# Euclidean-only components refuse, never mis-answer
# ----------------------------------------------------------------------
class TestMetricGates:
    @pytest.mark.parametrize(
        "detector", ["cell_based", "cell_based_ring", "kdtree"]
    )
    def test_grid_detectors_refuse(self, detector):
        with pytest.raises(MetricUnsupported):
            make_partition_detector(detector, 0, metric="haversine")

    def test_pipeline_refuses_grid_detector(self):
        dataset = _workload(n=80)
        with pytest.raises(MetricUnsupported):
            detect_outliers(
                dataset,
                OutlierParams(r=50.0, k=4),
                detector="cell_based",
                metric="haversine",
            )

    def test_domain_baseline_refuses(self):
        dataset = _workload(n=80)
        plan = PartitionPlan(
            dataset.bounds, [Partition(0, dataset.bounds)],
            strategy="Domain",
        )
        with pytest.raises(MetricUnsupported):
            detect_outliers(
                dataset, OutlierParams(r=50.0, k=4), plan=plan,
                metric="haversine",
            )

    def test_haversine_requires_two_dims(self):
        m = make_metric("haversine")
        with pytest.raises(MetricUnsupported):
            m.pairwise(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_registry_is_complete(self):
        assert set(METRIC_REGISTRY) == {
            "euclidean", "minkowski", "haversine", "edit_distance"
        }
