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
from ._scan import random_scan_counts, scan_order
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
        core_points, core_ids, candidates = _pool(
            core_points, core_ids, support_points
        )
        if core_points.shape[0] == 0:
            return DetectionResult([])
        backend = resolve_kernel(self.kernel, tile=self.chunk)
        metric = resolve_metric(self.metric)
        computed_before = backend.evals_computed
        wall_before = backend.wall_seconds
        counts, distance_evals = random_scan_counts(
            core_points, candidates, params.r, params.k + 1,
            chunk=self.chunk, seed=self.seed, kernel=backend,
            metric=metric,
        )
        return _result(
            core_ids, counts, candidates.shape[0], params, backend, metric,
            distance_evals, backend.evals_computed - computed_before,
            backend.wall_seconds - wall_before,
        )

    @classmethod
    def run_batch(cls, detectors, partitions, params):
        """Scan the partitions the kernel can share in one batch.

        A partition the backend scans alone
        (:meth:`~repro.kernels.Kernel.scans_alone`: any on the
        ``python`` oracle or under another metric) runs through
        :meth:`run`, as does a lone batchable one.  The rest go to one
        :meth:`~repro.kernels.Kernel.count_neighbors_batch` call; each
        keeps its own scan order (its detector's ``seed``), result and
        span, equal to what :meth:`run` gives it.  Detectors that
        differ in kernel, chunk or metric run one by one.
        """
        first = detectors[0]
        shared = (first.kernel, first.chunk, first.metric)
        if any((d.kernel, d.chunk, d.metric) != shared for d in detectors):
            return super().run_batch(detectors, partitions, params)
        backend = resolve_kernel(first.kernel, tile=first.chunk)
        metric = resolve_metric(first.metric)
        need = params.k + 1
        batch = []
        for i, partition in enumerate(partitions):
            core_points, core_ids, candidates = _pool(*partition)
            if core_points.shape[0] and not backend.scans_alone(
                core_points, candidates, params.r, need, metric
            ):
                batch.append((i, core_points, core_ids, candidates))
        if len(batch) < 2:
            batch = []
        batched = {i for i, *_ in batch}
        results = [
            None if i in batched else detector.run(*partition, params)
            for i, (detector, partition) in enumerate(
                zip(detectors, partitions)
            )
        ]
        if not batch:
            return results
        spans, scans = [], []
        for i, core_points, _, candidates in batch:
            given_core, _, given_support = partitions[i]
            spans.append(detectors[i]._begin_span(given_core, given_support))
            order = scan_order(candidates.shape[0], detectors[i].seed)
            scans.append((core_points, candidates[order]))
        wall_before = backend.wall_seconds
        scanned = backend.count_neighbors_batch(
            scans, params.r, need, metric=metric
        )
        # The shared call's wall, shared out by computed evals.
        wall = (backend.wall_seconds - wall_before) / max(
            1, sum(computed for _, _, computed in scanned)
        )
        for (i, _, core_ids, candidates), span, scan in zip(
            batch, spans, scanned
        ):
            counts, charged, computed = scan
            results[i] = cls._end_span(span, _result(
                core_ids, counts, candidates.shape[0], params, backend,
                metric, charged, computed, wall * computed,
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


def _result(
    core_ids, counts, n_candidates, params, backend, metric,
    distance_evals, computed, wall,
) -> DetectionResult:
    extras = {
        "n_core": core_ids.shape[0],
        "n_support": n_candidates - core_ids.shape[0],
        "kernel": backend.name,
        "kernel_evals_computed": computed,
        "kernel_wall_seconds": wall,
    }
    if not metric.is_euclidean:
        extras["metric"] = metric.spec()
    return DetectionResult(
        outlier_ids=core_ids[counts < params.k + 1].tolist(),
        distance_evals=distance_evals,
        extras=extras,
    )
