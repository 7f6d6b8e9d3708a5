"""Differential tier-equivalence suite: fast tier vs. the O(n^2) oracle.

The tiered pipeline's whole contract as one property: on any input, the
certified set and the exact verdict on the residue *partition* the
answer — certification never clears a true outlier, and the residue run
never loses one, so ``fast`` (certified inliers ∪ exact residue
verdicts) equals the brute-force oracle bit-for-bit.

Hypothesis draws quantized pools sampled with replacement, so duplicate
points and exact r-boundary distances — the certification-count edge
cases (self-witness exclusion, ties at ``d == r``) — are common instead
of measure-zero.  The property is asserted across kernels, across
metrics (through the MetricSafe degrade path), and across the serial
and parallel runtimes.

CI runs this with ``HYPOTHESIS_PROFILE=ci`` in the tier-equivalence
job (derandomized, more examples); the ``dev`` profile keeps local
tier-1 runs fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
)
from repro.core.config import RunConfig
from repro.mapreduce import (
    ClusterConfig,
    LocalRuntime,
    ParallelRuntime,
)
from repro.metrics import resolve_metric
from repro.sampling import collect_minibucket_stats
from repro.tiers import build_sensitivity_sample, certified_mask

CLUSTER = ClusterConfig(nodes=2, hdfs_block_records=64)

#: Lattice spacing 0.25 with radii that are exact multiples: pairwise
#: distances frequently land exactly on r, exercising the inclusive
#: boundary in both the certification scan and the residue detectors.
coordinate = st.integers(min_value=0, max_value=12).map(lambda v: v * 0.25)

#: (metric spec, r) pairs — r scaled to the metric's units (km for
#: haversine at the 0-3 degree coordinate scale).
METRICS = [("minkowski:1", 1.0), ("haversine", 90.0)]


@st.composite
def point_pools(draw):
    """Small base set sampled with replacement: duplicate-heavy pools."""
    n_base = draw(st.integers(min_value=1, max_value=12))
    base = draw(
        st.lists(coordinate, min_size=2 * n_base, max_size=2 * n_base)
    )
    base = np.asarray(base, dtype=float).reshape(n_base, 2)
    n = draw(st.integers(min_value=2, max_value=40))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_base - 1),
            min_size=n, max_size=n,
        )
    )
    k = draw(st.integers(min_value=1, max_value=8))
    r = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    return base[np.asarray(rows, dtype=np.int64)], OutlierParams(r=r, k=k)


def metric_oracle(points, ids, params, metric) -> set:
    m = resolve_metric(metric)
    out = set()
    for i in range(points.shape[0]):
        within = m.within_block(points[i:i + 1], points, params.r)[0]
        if int(within.sum()) - 1 < params.k:
            out.add(int(ids[i]))
    return out


def run_tiers(dataset, params, runtime=None, **kwargs):
    kwargs.setdefault("n_partitions", 4)
    kwargs.setdefault("n_reducers", 2)
    kwargs.setdefault("cluster", CLUSTER)
    kwargs.setdefault("seed", 5)
    fast = detect_outliers(
        dataset, params, tier="fast", runtime=runtime, **kwargs
    )
    exact = detect_outliers(
        dataset, params, tier="exact", runtime=runtime, **kwargs
    )
    return fast, exact


class TestCertificationDecomposition:
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @given(pool=point_pools())
    @settings(deadline=None)
    def test_certified_never_contains_an_oracle_outlier(
        self, kernel, pool
    ):
        """Soundness half: certification is one-sided, every kernel."""
        points, params = pool
        dataset = Dataset.from_points(points)
        stats = collect_minibucket_stats(
            LocalRuntime(CLUSTER), dataset.batch(),
            dataset.bounds, n_buckets=16, rate=0.5, seed=5,
        )
        sample = build_sensitivity_sample(
            dataset.points, dataset.ids, stats, params, seed=5
        )
        mask, _ = certified_mask(
            dataset.points, dataset.ids, sample,
            RunConfig.resolve(params, kernel=kernel),
        )
        certified = {int(i) for i in dataset.ids[mask]}
        oracle = brute_force_outliers(dataset, params)
        assert not certified & oracle
        # The other half of the partition: every oracle outlier is in
        # the residue the exact machinery re-examines.
        assert oracle <= {int(i) for i in dataset.ids[~mask]}

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @given(pool=point_pools())
    @settings(deadline=None)
    def test_kernel_backends_agree_on_the_mask(self, kernel, pool):
        points, params = pool
        dataset = Dataset.from_points(points)
        stats = collect_minibucket_stats(
            LocalRuntime(CLUSTER), dataset.batch(),
            dataset.bounds, n_buckets=16, rate=0.5, seed=5,
        )
        sample = build_sensitivity_sample(
            dataset.points, dataset.ids, stats, params, seed=5
        )
        default, _ = certified_mask(
            dataset.points, dataset.ids, sample, RunConfig.resolve(params)
        )
        backend, _ = certified_mask(
            dataset.points, dataset.ids, sample,
            RunConfig.resolve(params, kernel=kernel),
        )
        np.testing.assert_array_equal(default, backend)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @given(pool=point_pools())
    @settings(deadline=None)
    def test_fast_equals_exact_equals_oracle(self, kernel, pool):
        points, params = pool
        dataset = Dataset.from_points(points)
        fast, exact = run_tiers(dataset, params, kernel=kernel)
        oracle = brute_force_outliers(dataset, params)
        assert fast.outlier_ids == oracle
        assert exact.outlier_ids == oracle
        if fast.certification is not None:
            assert fast.certification.certified + \
                fast.certification.residue == dataset.n

    @pytest.mark.parametrize("spec,r", METRICS)
    @given(pool=point_pools())
    @settings(deadline=None)
    def test_metric_runs_match_the_metric_oracle(self, spec, r, pool):
        """MetricSafe degrade: certification verifies witnesses with the
        actual metric, so the tier stays exact off the Euclidean path."""
        points, k = pool[0], pool[1].k
        params = OutlierParams(r=r, k=k)
        dataset = Dataset.from_points(points)
        fast, exact = run_tiers(dataset, params, metric=spec)
        assert fast.strategy == "MetricSafe"
        oracle = metric_oracle(dataset.points, dataset.ids, params, spec)
        assert fast.outlier_ids == oracle
        assert exact.outlier_ids == oracle


@pytest.fixture(scope="module", params=["shm"])
def parallel_runtime(request):
    runtime = ParallelRuntime(
        CLUSTER, workers=2, transport=request.param
    )
    yield runtime


class TestParallelEquivalence:
    @given(pool=point_pools())
    @settings(deadline=None, max_examples=10)
    def test_parallel_transports_match_the_oracle(
        self, parallel_runtime, pool
    ):
        points, params = pool
        dataset = Dataset.from_points(points)
        fast, exact = run_tiers(
            dataset, params, runtime=parallel_runtime
        )
        oracle = brute_force_outliers(dataset, params)
        assert fast.outlier_ids == oracle
        assert exact.outlier_ids == oracle
