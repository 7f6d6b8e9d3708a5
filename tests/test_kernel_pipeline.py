"""Pipeline-level kernel behavior: the backend is a pure runtime knob.

Backends are observationally identical by the ABI contract
(``tests/test_kernel_equivalence.py`` proves it), so the kernel choice
must be *orthogonal to persistence*: checkpoints written under one
backend resume under another, stream snapshots restore under another,
and the only user-visible traces of the choice are the run span
annotation, the deterministic ``kernel`` counter group, and wall time.
"""

import numpy as np
import pytest

from repro.core import Dataset, detect_outliers
from repro.kernels import DEFAULT_KERNEL, numpy_backend
from repro.observability import Tracer
from repro.params import OutlierParams
from repro.recovery import SimulatedCrash, run_checkpointed
from repro.streaming import StreamingDetector


def clustered(n=260, seed=3):
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal((10.0, 10.0), 1.2, size=(n - 20, 2)),
        rng.uniform(0.0, 55.0, size=(20, 2)),
    ])


DATASET = Dataset.from_points(clustered())
PARAMS = OutlierParams(r=1.5, k=10)
SIZING = dict(n_partitions=8, n_reducers=4, seed=5)

#: Reference answer from the scalar oracle backend.
ORACLE = detect_outliers(
    DATASET, PARAMS, strategy="DMT", detector="nested_loop",
    kernel="python", **SIZING,
).outlier_ids


class TestPersistenceOrthogonality:
    def test_checkpoint_resumes_under_a_different_backend(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(SimulatedCrash):
            run_checkpointed(
                DATASET, PARAMS, ckpt, kernel="python",
                abort_after_commits=2, **SIZING,
            )
        resumed = run_checkpointed(
            DATASET, PARAMS, ckpt, kernel="numpy", **SIZING,
        )
        assert resumed.resumed
        assert resumed.replayed_partitions  # work from the python run
        assert resumed.outlier_ids == ORACLE

    def test_snapshot_restores_under_a_different_backend(self, tmp_path):
        points = clustered(seed=11)
        path = str(tmp_path / "snap.json")
        first = StreamingDetector(
            PARAMS, kernel="python", **SIZING
        )
        first.ingest_points(points[:180])
        first.save(path)
        second = StreamingDetector.restore(
            path, PARAMS, kernel="numpy", **SIZING
        )
        assert second.kernel == "numpy"
        second.ingest_points(points[180:])
        full = detect_outliers(
            Dataset.from_points(points), PARAMS, kernel="python",
            **SIZING,
        ).outlier_ids
        assert second.outlier_ids == full

    def test_restore_keeps_recorded_backend_by_default(self, tmp_path):
        path = str(tmp_path / "snap.json")
        first = StreamingDetector(PARAMS, kernel="python", **SIZING)
        first.ingest_points(clustered(seed=12))
        first.save(path)
        second = StreamingDetector.restore(path, PARAMS, **SIZING)
        assert second.kernel == "python"


class TestObservability:
    def test_run_span_annotated_with_resolved_backend(self):
        for requested, resolved in [
            ("python", "python"), (None, DEFAULT_KERNEL),
        ]:
            tracer = Tracer()
            detect_outliers(
                DATASET, PARAMS, kernel=requested, tracer=tracer,
                **SIZING,
            )
            run_span = tracer.roots[0]
            assert run_span.attrs["kernel"] == resolved

    def test_kernel_counter_group_is_deterministic(self):
        def kernel_counters(result):
            merged = {}
            for job in result.run.jobs:
                for name, value in job.counters.group("kernel").items():
                    merged[name] = merged.get(name, 0) + value
            return merged

        res = detect_outliers(
            DATASET, PARAMS, kernel="numpy", **SIZING
        )
        counters = kernel_counters(res)
        assert counters["backend_numpy"] == counters["tasks"] > 0
        # No call on 260 points reaches the numpy sweep, the one path
        # that computes fewer distances than it charges.
        assert DATASET.n < numpy_backend.SWEEP_MIN_QUERIES
        assert counters["evals_computed"] >= counters["evals_charged"] > 0
        # The group carries no wall time: two identical runs must agree
        # bit-for-bit (the transport-equivalence suite relies on this).
        assert counters == kernel_counters(
            detect_outliers(DATASET, PARAMS, kernel="numpy", **SIZING)
        )
        # The scalar oracle computes exactly what it charges; both
        # backends charge the same scalar-faithful total.
        oracle_counters = kernel_counters(
            detect_outliers(DATASET, PARAMS, kernel="python", **SIZING)
        )
        assert (
            oracle_counters["evals_computed"]
            == oracle_counters["evals_charged"]
            == counters["evals_charged"]
        )
