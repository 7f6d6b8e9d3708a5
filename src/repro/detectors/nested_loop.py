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
from ..params import OutlierParams, check_whole
from ._scan import scan_order
from .base import DetectionResult, Detector, validate_partition_inputs

__all__ = ["NestedLoopDetector"]


class NestedLoopDetector(Detector):
    """Randomized early-termination nested loop.

    ``chunk`` trades vectorization width against batched-backend tile
    granularity; ``seed`` fixes the random scan order for
    reproducibility; ``kernel`` picks the distance backend (a name,
    a :class:`~repro.kernels.Kernel` instance, or ``None`` for the
    resolved default — results are backend-independent).  The scan is
    metric-generic: ``metric`` selects the space (``None`` keeps the
    Euclidean fast path).
    """

    name = "nested_loop"
    uses_kernel = True
    metric_generic = True

    def __init__(
        self, chunk: int = 256, seed: int = 7, kernel=None, metric=None
    ) -> None:
        chunk = check_whole(chunk, "chunk")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.chunk = chunk
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
        span.  Detectors that differ in kernel, chunk or metric run one
        by one."""
        first = detectors[0]
        shared = (first.kernel, first.chunk, first.metric)
        if any((d.kernel, d.chunk, d.metric) != shared for d in detectors):
            return super().run_batch(detectors, partitions, params)
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
    kernel, chunk and metric: the partitions with core points are one
    kernel batch."""
    first = detectors[0]
    backend = resolve_kernel(first.kernel, tile=first.chunk)
    metric = resolve_metric(first.metric)
    pools = [_pool(*partition) for partition in partitions]
    scanned = iter(backend.count_neighbors_batch(
        [
            (core_points, candidates[
                scan_order(candidates.shape[0], detector.seed)
            ])
            for detector, (core_points, _, candidates) in zip(
                detectors, pools
            )
            if core_points.shape[0]
        ],
        params.r, params.k + 1, metric=metric,
    ))
    results = []
    for core_points, core_ids, candidates in pools:
        if not core_points.shape[0]:
            results.append(DetectionResult([]))
            continue
        counts, charged, computed = next(scanned)
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
    """Validated ``(core_points, core_ids, candidates)``; the candidate
    pool is core plus support.  Every core point occurs in the pool
    exactly once and matches itself at distance zero, so inliers need
    ``k + 1`` matches."""
    core_points, core_ids, support_points = validate_partition_inputs(
        core_points, core_ids, support_points
    )
    if support_points.shape[0]:
        return core_points, core_ids, np.vstack([core_points, support_points])
    return core_points, core_ids, core_points
