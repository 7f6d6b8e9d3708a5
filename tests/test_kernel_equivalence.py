"""Differential equivalence suite: every backend vs the scalar oracle.

The kernel ABI's whole promise is that backends are *observationally
identical* — same neighbor counts, same scalar-faithful
``distance_evals`` — so switching backends can only change wall time.
This suite enforces the promise three ways:

* property-based: hypothesis-generated blocks (with quantized
  coordinates, so exact duplicates and exact boundary distances are
  common, where a sloppy vectorization would diverge first) must give
  byte-identical counts and evals on python vs numpy;
* end-to-end: fig8/fig10-style smoke workloads through the full
  pipeline must produce identical outlier sets and identical
  deterministic distance-eval counters per backend;
* pinned baseline: the ``ci_smoke`` cost summary under the numpy
  backend must exactly match the checked-in ``ci_smoke.json``.

CI runs this with ``HYPOTHESIS_PROFILE=ci`` (derandomized, more
examples) in the kernel-equivalence job.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import detect_outliers
from repro.data import region_dataset, tiger_like
from repro.kernels import base, make_kernel
from repro.params import OutlierParams

BACKENDS = ["numpy"]

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Property-based differential: kernel level
# ----------------------------------------------------------------------
# Quantized coordinates make duplicate points and exact boundary
# distances (d == r) common instead of measure-zero — the inputs where
# a backend that reorders float arithmetic diverges from the oracle.
coordinate = st.integers(min_value=0, max_value=12).map(
    lambda v: v * 0.25
)


@st.composite
def query_candidate_blocks(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    n_q = draw(st.integers(min_value=0, max_value=10))
    n_c = draw(st.integers(min_value=0, max_value=60))
    q = draw(
        st.lists(coordinate, min_size=n_q * d, max_size=n_q * d)
    )
    c = draw(
        st.lists(coordinate, min_size=n_c * d, max_size=n_c * d)
    )
    r = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]))
    need = draw(st.integers(min_value=-1, max_value=70))
    return (
        np.asarray(q, dtype=float).reshape(n_q, d),
        np.asarray(c, dtype=float).reshape(n_c, d),
        r,
        need,
    )


class TestDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(blocks=query_candidate_blocks())
    @settings(deadline=None)
    def test_backend_matches_scalar_oracle(self, backend, blocks):
        queries, candidates, r, need = blocks
        expected_counts, expected_evals = make_kernel(
            "python"
        ).count_neighbors(queries, candidates, r, need)
        counts, evals = make_kernel(backend).count_neighbors(
            queries, candidates, r, need
        )
        assert np.array_equal(counts, expected_counts)
        assert evals == expected_evals

    @given(
        blocks=query_candidate_blocks(),
        tile=st.sampled_from([1, 3, 16, 256]),
    )
    @settings(deadline=None)
    def test_numpy_tiling_is_invisible(self, blocks, tile):
        queries, candidates, r, need = blocks
        expected = make_kernel("python").count_neighbors(
            queries, candidates, r, need
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(base, "TILE", tile)
            got = make_kernel("numpy").count_neighbors(
                queries, candidates, r, need
            )
        assert np.array_equal(got[0], expected[0])
        assert got[1] == expected[1]


# ----------------------------------------------------------------------
# End-to-end: smoke-scale fig8/fig10 workloads through the pipeline
# ----------------------------------------------------------------------
def _dod_evals(result) -> int:
    return sum(
        job.counters.get("dod", "distance_evals")
        for job in result.run.jobs
    )


def _run_all_backends(dataset, params, strategy, detector):
    results = {}
    for backend in ["python"] + BACKENDS:
        results[backend] = detect_outliers(
            dataset, params, strategy=strategy, detector=detector,
            n_partitions=8, n_reducers=4, kernel=backend,
        )
    return results


class TestPipelineEquivalence:
    @pytest.mark.parametrize("strategy", ["DMT", "Domain"])
    def test_fig8_smoke_workload(self, strategy):
        # Fig. 8's smallest cell: the MA region at smoke scale.
        dataset = region_dataset("MA", base_n=1200, seed=3)
        params = OutlierParams(r=2.0, k=12)
        results = _run_all_backends(
            dataset, params, strategy, "nested_loop"
        )
        oracle = results["python"]
        assert len(oracle.outlier_ids) > 0
        for backend, result in results.items():
            assert result.outlier_ids == oracle.outlier_ids, backend
            assert _dod_evals(result) == _dod_evals(oracle), backend

    def test_fig10_smoke_workload(self):
        # Fig. 10(b)'s dataset family: TIGER-style road-network skew,
        # the cell-based reducer path (ring fallback included).
        dataset = tiger_like(n=1200, seed=4)
        params = OutlierParams(r=2.0, k=10)
        results = _run_all_backends(
            dataset, params, "DMT", "cell_based"
        )
        oracle = results["python"]
        for backend, result in results.items():
            assert result.outlier_ids == oracle.outlier_ids, backend
            assert _dod_evals(result) == _dod_evals(oracle), backend


# ----------------------------------------------------------------------
# Pinned baseline under the numpy backend
# ----------------------------------------------------------------------
class TestCiSmokeBaselinePin:
    def test_numpy_backend_reproduces_checked_in_costs(
        self, monkeypatch
    ):
        from repro.experiments import ci_smoke

        runs = []

        def recorded(*args, **kwargs):
            runs.append(detect_outliers(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(ci_smoke, "detect_outliers", recorded)
        summary = ci_smoke.run_smoke()
        baseline_path = (
            REPO_ROOT / "benchmarks" / "baselines" / "ci_smoke.json"
        )
        baseline = json.loads(baseline_path.read_text())
        assert summary == baseline
        # The smoke run names no kernel: the default is the numpy one.
        (result,) = runs
        backends = {}
        for job in result.run.jobs:
            for name, value in job.counters.group("kernel").items():
                if name.startswith("backend_"):
                    backends[name] = backends.get(name, 0) + value
        assert set(backends) == {"backend_numpy"}
        assert backends["backend_numpy"] > 0
