"""The Cell-Based detector (Knorr & Ng [3]; Sec. IV-B of the paper).

The algorithm bins points into a uniform grid of side ``r / (2 sqrt(d))``
so that

* any two points in the same cell or in cells at Chebyshev distance 1
  (layer **L1**) are guaranteed to be within ``r`` of each other, and
* any two points in cells at Chebyshev distance greater than
  ``floor(2 sqrt(d)) + 1`` are guaranteed to be farther than ``r`` apart.

This yields the structure of Lemma 4.2:

1. if ``count(C ∪ L1) - 1 >= k`` every core point of ``C`` is an inlier;
2. if ``count(C ∪ L1 ∪ L2) - 1 < k`` every core point of ``C`` is an
   outlier (L2 = the remaining candidate ring);
3. otherwise the points of ``C`` "execute a Nested-Loop algorithm, in
   addition to the indexing costs of the entire dataset" — the paper's
   exact wording, and exactly what :class:`CellBasedDetector` does.

In 2-d the layers are the 3x3 and 7x7 stencils of the paper (9 and 49
cells).  The indexing phase is one :class:`~repro.geometry.CellIndex`:
a sort of the occupied cells, so sparse domains never allocate empty
ones, and a stencil count is a few vectorised searches per stencil row
over every core cell at once.  Both detectors share that prune pass and
differ only in their fallback.

:class:`CellBasedRingDetector` is a beyond-the-paper extension: instead of
a full Nested-Loop pass, unresolved points start from their guaranteed L1
count and scan only the L2 ring.  It dominates the paper's variant at
every density — which is itself an interesting ablation against Lemma 4.2
(see ``benchmarks/test_ablation_ring.py``).
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import CellIndex
from ..kernels import resolve_kernel
from ..metrics import MetricUnsupported, resolve_metric
from ..params import OutlierParams, check_whole
from ._scan import random_scan_counts, window_counts
from .base import DetectionResult, Detector, validate_partition_inputs

__all__ = ["CellBasedDetector", "CellBasedRingDetector", "candidate_radius"]


def candidate_radius(ndim: int) -> int:
    """Largest Chebyshev cell distance that can still hold neighbors.

    With side ``l = r / (2 sqrt(d))``, cells at Chebyshev distance ``c``
    contain points no closer than ``(c - 1) * l``; neighbors are possible
    while ``(c - 1) * l <= r``, i.e. ``c <= 2 sqrt(d) + 1``.
    """
    return int(math.floor(2.0 * math.sqrt(ndim))) + 1


class _CellDetector(Detector):
    """Lemma 4.2's prune pass; subclasses supply the fallback that
    decides the points of unresolved cells."""

    uses_kernel = True

    def __init__(self, chunk: int = 256, kernel=None, metric=None) -> None:
        # Non-grid metrics are refused up front (a typed error, never a
        # wrong answer): the cell geometry and the Lemma 4.2 stencils
        # are Euclidean theorems.
        metric = resolve_metric(metric)
        if not metric.grid_compatible:
            raise MetricUnsupported(
                f"detector {self.name!r} relies on Euclidean grid geometry "
                f"and cannot run under metric {metric.spec()!r}; use a "
                "metric-generic tactic (nested_loop, pivot, proximity_graph)"
            )
        chunk = check_whole(chunk, "chunk")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.chunk = chunk
        self.kernel = kernel

    def detect(
        self,
        core_points: np.ndarray,
        core_ids: np.ndarray,
        support_points: np.ndarray,
        params: OutlierParams,
    ) -> DetectionResult:
        core_points, core_ids, support_points = validate_partition_inputs(
            core_points, core_ids, support_points
        )
        n_core, ndim = core_points.shape
        if n_core == 0:
            return DetectionResult([])
        pool = np.vstack([core_points, support_points])
        side = params.r / (2.0 * math.sqrt(ndim))
        index = CellIndex((pool - pool.min(axis=0)) / side)

        # The core cells, and their L1 and candidate stencil counts.
        ids, cell_of = np.unique(index.cell_of[:n_core], return_inverse=True)
        cells = index.cells[ids]
        w1, w2 = (
            sum(end - begin for _, begin, end in index.runs(cells, reach))
            for reach in (1, candidate_radius(ndim))
        )
        inlier = w1 - 1 >= params.k
        outlier = ~inlier & (w2 - 1 < params.k)
        unresolved = ~inlier & ~outlier
        # Unresolved core rows cell by cell: the ring scans a cell at once.
        by_cell = np.argsort(cell_of, kind="stable")
        rows = by_cell[unresolved[cell_of[by_cell]]]

        backend = resolve_kernel(self.kernel, tile=self.chunk)
        computed_before = backend.evals_computed
        failed, distance_evals, extras = self._fallback(
            core_points[rows], np.bincount(cell_of)[unresolved],
            cells[unresolved], w1[unresolved], index, pool, backend, params,
        )
        is_outlier = outlier[cell_of]
        is_outlier[rows[failed]] = True
        return DetectionResult(
            outlier_ids=core_ids[is_outlier].tolist(),
            distance_evals=distance_evals,
            index_ops=pool.shape[0],
            cell_ops=cells.shape[0],
            extras={"cells": index.counts.size, **extras,
                    "kernel": backend.name,
                    "kernel_evals_computed":
                        backend.evals_computed - computed_before,
                    "cells_pruned_inlier": int(inlier.sum()),
                    "cells_pruned_outlier": int(outlier.sum()),
                    "cells_unresolved": int(unresolved.sum())},
        )

    def _fallback(
        self, queries, members, cells, w1, index, pool, backend, params
    ) -> tuple[np.ndarray, int, dict]:
        """Decide ``queries``: ``members[c]`` of them fill unresolved cell
        ``cells[c]``, whose L1 layer holds ``w1[c]`` points of ``pool``.
        Returns which are outliers, the evals charged and extras."""
        raise NotImplementedError


class CellBasedDetector(_CellDetector):
    """Paper-faithful Cell-Based: prune cells, Nested-Loop the rest."""

    name = "cell_based"

    def __init__(
        self, chunk: int = 256, seed: int = 7, kernel=None, metric=None
    ) -> None:
        super().__init__(chunk, kernel, metric)
        self.seed = seed

    def _fallback(
        self, queries, members, cells, w1, index, pool, backend, params
    ) -> tuple[np.ndarray, int, dict]:
        counts, distance_evals = random_scan_counts(
            queries, pool, params.r, params.k + 1,
            chunk=self.chunk, seed=self.seed, kernel=backend,
        )
        return counts <= params.k, distance_evals, {"unresolved_points": len(queries)}


class CellBasedRingDetector(_CellDetector):
    """Extension: unresolved points scan only the L2 ring.

    Starts each unresolved point from its guaranteed L1 neighbor count and
    examines only points in cells at Chebyshev distance 2..candidate_radius
    — a strict improvement over the paper's full Nested-Loop fallback.
    """

    name = "cell_based_ring"

    def _fallback(
        self, queries, members, cells, w1, index, pool, backend, params
    ) -> tuple[np.ndarray, int, dict]:
        # A cell's members share its guaranteed L1 count: one problem,
        # one ``need``, its ring in stencil order.
        rings = index.neighbourhood(
            cells, candidate_radius(cells.shape[1]), beyond=1
        )
        need = params.k + 1 - w1
        counts, distance_evals = window_counts(
            backend, queries, members, pool, *rings, params.r, need
        )
        return counts < np.repeat(need, members), distance_evals, {}
