"""The Nested-Loop detector (Knorr & Ng [3]; Sec. IV-A of the paper).

For each point ``p`` the algorithm examines the other points in *random
order* and stops as soon as ``k`` neighbors within ``r`` are found (``p`` is
an inlier) or every candidate has been examined (``p`` is an outlier).

Random-order scanning is what Lemma 4.1's cost model describes: the number
of candidates examined before finding ``k`` neighbors has expectation
``k / mu`` where ``mu`` is the local neighbor probability — so dense data
terminates early and sparse data degrades toward a full scan.  The scan
itself runs on a pluggable distance kernel (:mod:`repro.kernels`):
whichever backend executes, the scan semantics and the scalar-faithful
``distance_evals`` accounting are identical — a point is charged exactly
the candidates a scalar loop would have examined before its count reached
``k``.
"""

from __future__ import annotations

import numpy as np

from ..kernels import resolve_kernel
from ..metrics import resolve_metric
from ..params import OutlierParams
from ._scan import scan_order
from .base import DetectionResult, Detector, partition_arrays

__all__ = ["NestedLoopDetector"]


class NestedLoopDetector(Detector):
    """Randomized early-termination nested loop.

    ``seed`` fixes the random scan order for reproducibility; ``kernel``
    picks the distance backend (a name, a
    :class:`~repro.kernels.Kernel` instance, or ``None`` for the
    resolved default — results are backend-independent).  The scan is
    metric-generic: ``metric`` selects the space (``None`` keeps the
    Euclidean fast path).
    """

    name = "nested_loop"
    uses_kernel = True
    metric_generic = True

    def __init__(self, seed: int = 7, kernel=None, metric=None) -> None:
        self.seed = seed
        self.kernel = kernel
        self.metric = metric

    def detect(
        self,
        core_points: np.ndarray,
        core_ids: np.ndarray,
        support_points: np.ndarray,
        params: OutlierParams,
    ) -> DetectionResult:
        return _scan(
            [self], [(core_points, core_ids, support_points)], params
        )[0]

    @classmethod
    def run_batch(cls, detectors, partitions, params):
        """Scan every partition with core points in one
        :meth:`~repro.kernels.Kernel.count_neighbors_batch` call; each
        keeps its own scan order (its detector's ``seed``), result and
        span.  The detectors share one kernel and metric (a reduce
        task builds them all from one run configuration); a batch that
        mixes them is a ``ValueError``."""
        first = detectors[0]
        if any(
            (d.kernel, d.metric) != (first.kernel, first.metric)
            for d in detectors
        ):
            raise ValueError(
                "one Nested-Loop batch scans under one kernel and metric"
            )
        spans = [
            detector._begin_span(core_points, support_points)
            for detector, (core_points, _, support_points) in zip(
                detectors, partitions
            )
        ]
        results = _scan(detectors, partitions, params)
        return [
            cls._end_span(span, result) for span, result in zip(spans, results)
        ]


def _scan(detectors, partitions, params) -> list[DetectionResult]:
    """Detect ``partitions[i]`` with ``detectors[i]``, which share one
    kernel and metric: the partitions are one kernel batch, which
    is also where their coordinates are checked to be finite (once).  A
    partition without core points is a trivial problem of it: nothing
    scanned, nothing charged."""
    first = detectors[0]
    backend = resolve_kernel(first.kernel)
    metric = resolve_metric(first.metric)
    pools = [_pool(*partition) for partition in partitions]
    scanned = backend.count_neighbors_batch(
        [
            (core_points, _in_scan_order(candidates, detector.seed))
            for detector, (core_points, _, candidates) in zip(
                detectors, pools
            )
        ],
        params.r, params.k + 1, metric=metric,
    )
    results = []
    for (_, core_ids, candidates), (counts, charged, computed) in zip(
        pools, scanned
    ):
        extras = {
            "n_core": core_ids.shape[0],
            "n_support": candidates.shape[0] - core_ids.shape[0],
            "kernel": backend.name,
            "kernel_evals_computed": computed,
        }
        if not metric.is_euclidean:
            extras["metric"] = metric.spec()
        results.append(DetectionResult(
            outlier_ids=core_ids[counts < params.k + 1].tolist(),
            distance_evals=charged,
            extras=extras,
        ))
    return results


def _pool(core_points, core_ids, support_points):
    """Shape-checked ``(core_points, core_ids, candidates)``; the
    candidate pool is core then support.  Every core point occurs in the
    pool exactly once and matches itself at distance zero, so inliers
    need ``k + 1`` matches."""
    core_points, core_ids, support_points = partition_arrays(
        core_points, core_ids, support_points
    )
    if support_points.shape[0]:
        return core_points, core_ids, np.concatenate(
            (core_points, support_points)
        )
    return core_points, core_ids, core_points


def _in_scan_order(candidates: np.ndarray, seed: int) -> np.ndarray:
    """``candidates`` permuted by their scan order under ``seed``, in one
    gather into coordinate-major memory (the numpy kernel scans that
    layout, so it copies nothing more of a lone problem)."""
    order = scan_order(candidates.shape[0], seed)
    return candidates.T.take(order, axis=1).T
