"""Pivot-based detector (DOLPHIN-style, the paper's reference [4]).

Angiulli & Fassetti's DOLPHIN accelerates distance-threshold detection
with pivot-based triangle-inequality pruning.  The paper notes it "does
not fit well the shared-nothing distributed architectures ... because no
single compute node can accommodate such a big global index" — which is
exactly what the DOD framework fixes: each partition builds its own small
pivot index over core ∪ support points, so the family becomes usable as
another entry in the multi-tactic candidate set ``A``.

Mechanics per partition:

* choose ``n_pivots`` pivots with max-min (farthest-point) selection;
* precompute every candidate's distances to the pivots;
* for a query ``p`` and candidate ``q`` the triangle inequality gives
  ``LB(p,q) = max_v |d(p,v) - d(q,v)|`` and
  ``UB(p,q) = min_v  d(p,v) + d(q,v)``;
* candidates with ``UB <= r`` are counted as neighbors with no exact
  distance computation; those with ``LB > r`` are discarded; only the
  remainder pays an exact evaluation, with early termination at ``k``.
"""

from __future__ import annotations

import numpy as np

from ..metrics import resolve_metric
from ..params import OutlierParams
from .base import DetectionResult, Detector, validate_partition_inputs

__all__ = ["PivotDetector", "select_pivots_maxmin"]


def select_pivots_maxmin(
    points: np.ndarray, n_pivots: int, seed: int = 7, metric=None
) -> np.ndarray:
    """Farthest-point pivot selection: indices of the chosen pivots.

    ``metric=None`` keeps the historical Euclidean arithmetic; a
    :class:`~repro.metrics.Metric` selects pivots by its own distances
    (selection quality only — any pivot set is exact).
    """
    n = points.shape[0]
    n_pivots = min(n_pivots, n)
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]

    def dists_to(row: int) -> np.ndarray:
        if metric is None:
            return np.linalg.norm(points - points[row], axis=1)
        return metric.pairwise(points, points[row:row + 1])[:, 0]

    min_dist = dists_to(chosen[0])
    while len(chosen) < n_pivots:
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, dists_to(nxt))
    return np.asarray(chosen, dtype=np.int64)


class PivotDetector(Detector):
    """Triangle-inequality pruned detection.

    Works in any metric space — the LB/UB pruning *is* the triangle
    inequality, which every registered :class:`~repro.metrics.Metric`
    satisfies.  The Euclidean path keeps the seed arithmetic bitwise
    (squared-distance exact checks); non-Euclidean metrics run the same
    structure on ``metric.pairwise`` distances with a conservative
    rounding margin on the bounds — the margin only shrinks the
    pruned/free sets (those pairs fall through to exact
    ``within_block`` checks), so exactness is preserved.
    """

    name = "pivot"
    metric_generic = True

    def __init__(
        self, n_pivots: int = 8, seed: int = 7, metric=None
    ) -> None:
        if n_pivots < 1:
            raise ValueError("need at least one pivot")
        self.n_pivots = n_pivots
        self.seed = seed
        self.metric = metric

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
        n_core = core_points.shape[0]
        if n_core == 0:
            return DetectionResult([])
        if support_points.shape[0]:
            candidates = np.vstack([core_points, support_points])
        else:
            candidates = core_points
        n_cand = candidates.shape[0]

        metric = resolve_metric(self.metric)
        if not metric.is_euclidean:
            return self._detect_metric(
                core_points, core_ids, candidates, params, metric
            )

        pivot_rows = select_pivots_maxmin(
            candidates, self.n_pivots, self.seed
        )
        pivots = candidates[pivot_rows]
        # (n_cand, P): each candidate's distance to each pivot.
        cand_piv = np.linalg.norm(
            candidates[:, None, :] - pivots[None, :, :], axis=2
        )
        index_ops = n_cand * pivots.shape[0]

        k = params.k
        r = params.r
        r2 = r * r
        distance_evals = 0
        exact_checks = 0
        free_counts = 0
        outliers: list[int] = []
        for i in range(n_core):
            # Core row i is candidate row i (core block comes first).
            q_piv = cand_piv[i]
            distance_evals += pivots.shape[0]  # would compute these live
            lower = np.max(np.abs(cand_piv - q_piv), axis=1)
            upper = np.min(cand_piv + q_piv, axis=1)
            # The self-row's true distance is 0: mark it definite so it is
            # excluded from the unknown set and subtracted exactly once.
            upper[i] = 0.0
            definite = int((upper <= r).sum()) - 1  # excludes self
            free_counts += max(definite, 0)
            count = definite
            if count >= k:
                continue
            unknown = np.nonzero((lower <= r) & (upper > r))[0]
            p = core_points[i]
            for start in range(0, unknown.shape[0], 256):
                rows = unknown[start:start + 256]
                d2 = np.sum((candidates[rows] - p) ** 2, axis=1)
                within = d2 <= r2
                exact_checks += rows.shape[0]
                count += int(within.sum())
                if count >= k:
                    break
            if count < k:
                outliers.append(int(core_ids[i]))

        distance_evals += exact_checks
        return DetectionResult(
            outlier_ids=outliers,
            distance_evals=distance_evals,
            index_ops=index_ops,
            extras={
                "pivots": pivots.shape[0],
                "exact_checks": exact_checks,
                "free_counts": free_counts,
            },
        )

    def _detect_metric(
        self,
        core_points: np.ndarray,
        core_ids: np.ndarray,
        candidates: np.ndarray,
        params: OutlierParams,
        metric,
    ) -> DetectionResult:
        """The same pruning structure over an arbitrary metric.

        Bounds carry a rounding margin: ``definite`` requires
        ``UB <= r - margin`` and pruning requires ``LB > r + margin``,
        so a pair whose float bound strays within a hair of ``r`` is
        never decided by the bound — it falls through to an exact
        ``within_block`` check.  The margin (1e-9 of the distance
        scale) dwarfs accumulated float error by six orders of
        magnitude while costing essentially no pruning power.
        """
        n_core = core_points.shape[0]
        n_cand = candidates.shape[0]
        pivot_rows = select_pivots_maxmin(
            candidates, self.n_pivots, self.seed, metric=metric
        )
        pivots = candidates[pivot_rows]
        cand_piv = metric.pairwise(candidates, pivots)
        index_ops = n_cand * pivots.shape[0]

        k = params.k
        r = params.r
        margin = 1e-9 * (abs(r) + float(np.max(cand_piv, initial=0.0)))
        distance_evals = 0
        exact_checks = 0
        free_counts = 0
        outliers: list[int] = []
        for i in range(n_core):
            q_piv = cand_piv[i]
            distance_evals += pivots.shape[0]
            lower = np.max(np.abs(cand_piv - q_piv), axis=1)
            upper = np.min(cand_piv + q_piv, axis=1)
            # Self is excluded explicitly (never counted, never checked).
            definite = (upper <= r - margin)
            definite[i] = False
            count = int(definite.sum())
            free_counts += count
            if count >= k:
                continue
            unknown = np.nonzero(~definite & (lower <= r + margin))[0]
            unknown = unknown[unknown != i]
            p_row = core_points[i:i + 1]
            for start in range(0, unknown.shape[0], 256):
                rows = unknown[start:start + 256]
                within = metric.within_block(p_row, candidates[rows], r)[0]
                exact_checks += rows.shape[0]
                count += int(within.sum())
                if count >= k:
                    break
            if count < k:
                outliers.append(int(core_ids[i]))

        distance_evals += exact_checks
        return DetectionResult(
            outlier_ids=outliers,
            distance_evals=distance_evals,
            index_ops=index_ops,
            extras={
                "pivots": pivots.shape[0],
                "exact_checks": exact_checks,
                "free_counts": free_counts,
                "metric": metric.spec(),
            },
        )
