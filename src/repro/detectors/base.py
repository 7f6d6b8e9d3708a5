"""Common interface for centralized distance-threshold outlier detectors.

A detector classifies the *core* points of one partition, using both core
and *support* points (Sec. III-A) as potential neighbors.  Besides the
outlier ids it reports its work in deterministic **cost units**:

* ``distance_evals`` — point-to-point distance computations performed;
* ``index_ops``     — per-point indexing operations (hashing into cells,
  tree inserts), the "scanning and indexing" term of Lemma 4.2.

The simulated cluster turns those units into per-reducer task costs, which
is how the paper's wall-clock comparisons are reproduced deterministically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..observability.tracing import Span
from ..params import CELL_WEIGHT, INDEX_WEIGHT, OutlierParams

__all__ = ["DetectionResult", "Detector", "validate_partition_inputs"]


@dataclass
class DetectionResult:
    """Outcome of running a detector on one partition.

    ``span`` is populated by the traced entry :meth:`Detector.run_batch`
    (never by ``detect`` itself); the DOD reducers graft it into the task
    span so per-partition detector work shows up in run traces.
    """

    outlier_ids: list[int]
    distance_evals: int = 0
    index_ops: int = 0
    cell_ops: int = 0
    extras: dict = field(default_factory=dict)
    span: Span | None = None

    @property
    def cost_units(self) -> float:
        """Total deterministic work in distance-eval units.

        Index and per-cell operations are converted with the calibration
        weights of :mod:`repro.params`, keeping runtime accounting
        consistent with the Sec. IV cost models that plan the work.
        """
        return float(
            self.distance_evals
            + INDEX_WEIGHT * self.index_ops
            + CELL_WEIGHT * self.cell_ops
        )


def validate_partition_inputs(
    core_points: np.ndarray,
    core_ids: np.ndarray,
    support_points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize and sanity-check detector inputs: shapes that agree and
    finite coordinates (a ``ValueError`` otherwise)."""
    core_points = np.asarray(core_points, dtype=float)
    core_ids = np.asarray(core_ids, dtype=np.int64)
    support_points = np.asarray(support_points, dtype=float)
    if core_points.ndim != 2:
        raise ValueError("core_points must be (n, d)")
    if core_ids.shape != (core_points.shape[0],):
        raise ValueError("core_ids must align with core_points")
    if support_points.size == 0:
        support_points = np.empty((0, core_points.shape[1]))
    if support_points.ndim != 2 or support_points.shape[1] != core_points.shape[1]:
        raise ValueError("support_points must be (m, d) with matching d")
    if not (np.isfinite(core_points).all() and np.isfinite(support_points).all()):
        # NaN fails every distance comparison, which reads as "no
        # neighbour": refuse rather than call the point an outlier.
        raise ValueError("partition coordinates must be finite")
    return core_points, core_ids, support_points


class Detector(abc.ABC):
    """A centralized detection algorithm, applied per partition."""

    #: Short identifier used in algorithm plans ("nested_loop", ...).
    name: str = "detector"

    #: True for detectors whose inner loop runs on the pluggable
    #: distance-kernel ABI (:mod:`repro.kernels`) and therefore accept a
    #: ``kernel`` constructor argument.
    uses_kernel: bool = False

    #: True for detectors that are correct under any
    #: :class:`~repro.metrics.Metric`.  Grid/coordinate-index tactics
    #: leave this False and raise ``MetricUnsupported`` when constructed
    #: with a non-Euclidean metric — a typed error, never a wrong answer.
    metric_generic: bool = False

    @abc.abstractmethod
    def detect(
        self,
        core_points: np.ndarray,
        core_ids: np.ndarray,
        support_points: np.ndarray,
        params: OutlierParams,
    ) -> DetectionResult:
        """Classify the core points of one partition.

        ``support_points`` are neighbor candidates only; they are never
        classified (each point is core in exactly one partition).
        """

    def run(
        self,
        core_points: np.ndarray,
        core_ids: np.ndarray,
        support_points: np.ndarray,
        params: OutlierParams,
    ) -> DetectionResult:
        """The traced entry for one partition: :meth:`run_batch` of
        one."""
        return self.run_batch(
            [self], [(core_points, core_ids, support_points)], params
        )[0]

    @classmethod
    def run_batch(
        cls,
        detectors: list["Detector"],
        partitions: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        params: OutlierParams,
    ) -> list[DetectionResult]:
        """The traced entry: ``detectors[i]`` classifies
        ``partitions[i]``, a ``(core_points, core_ids, support_points)``
        triple, for every ``i``.  Each result carries a span recording
        input sizes and the cost-unit breakdown; callers that trace (the
        DOD reducers) use this instead of ``detect``.  A class whose
        detectors can share work across partitions overrides this; the
        base runs :meth:`detect` on them one by one."""
        results = []
        for detector, (core_points, core_ids, support_points) in zip(
            detectors, partitions
        ):
            span = detector._begin_span(core_points, support_points)
            result = detector.detect(
                core_points, core_ids, support_points, params
            )
            results.append(detector._end_span(span, result))
        return results

    def _begin_span(self, core_points, support_points) -> Span:
        return Span.begin(
            f"detector:{self.name}", "detector",
            algorithm=self.name,
            n_core=int(np.asarray(core_points).shape[0]),
            n_support=int(np.asarray(support_points).shape[0]),
        )

    @staticmethod
    def _end_span(span: Span, result: DetectionResult) -> DetectionResult:
        """Annotate and close ``span`` with ``result``; attach it."""
        if "kernel" in result.extras:
            span.annotate(kernel=result.extras["kernel"])
        if "metric" in result.extras:
            span.annotate(metric=result.extras["metric"])
        if "graph_certified" in result.extras:
            span.annotate(
                graph_certified=result.extras["graph_certified"],
                graph_residue=result.extras["graph_residue"],
                graph_distance_evals=result.extras["graph_distance_evals"],
            )
        span.finish(
            n_outliers=len(result.outlier_ids),
            distance_evals=result.distance_evals,
            index_ops=result.index_ops,
            cell_ops=result.cell_ops,
            cost_units=result.cost_units,
        )
        result.span = span
        return result

    def detect_dataset(self, dataset, params: OutlierParams) -> DetectionResult:
        """Convenience: run on a whole dataset with no support points."""
        return self.detect(
            dataset.points,
            dataset.ids,
            np.empty((0, dataset.ndim)),
            params,
        )
