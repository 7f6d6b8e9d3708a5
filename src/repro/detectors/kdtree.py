"""KD-tree detector — an index-based extension beyond the paper's pair.

The paper evaluates Nested-Loop and Cell-Based; its related work (DOLPHIN
[4]) shows a third family of *index-based* detectors.  This detector stands
in for that family using a k-d tree over the candidate pool: one range
-count query per core point.  It is exact and plugs into the same algorithm
-plan machinery, so users can extend the multi-tactic candidate set
``A`` (Sec. III-C) with it.

Cost accounting: building the tree costs ``n log2 n`` index ops; each query
is charged the number of candidate points actually visited (scipy reports
the neighbor count; we charge ``count + log2 n`` as the traversal proxy).
"""

from __future__ import annotations

import math

import numpy as np

from ..metrics import MetricUnsupported, resolve_metric
from ..params import OutlierParams
from .base import DetectionResult, Detector, validate_partition_inputs

__all__ = ["KDTreeDetector"]


class KDTreeDetector(Detector):
    """Range-count detection via :class:`scipy.spatial.cKDTree`."""

    name = "kdtree"

    def __init__(self, metric=None) -> None:
        metric = resolve_metric(metric)
        if not metric.is_euclidean:
            raise MetricUnsupported(
                "detector 'kdtree' splits on coordinate axes (Euclidean "
                f"geometry) and cannot run under metric {metric.spec()!r}; "
                "use a metric-generic tactic (nested_loop, pivot, "
                "proximity_graph)"
            )

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

        # Imported where the tree is built: scipy is never loaded
        # unless its tactic is selected.
        from scipy.spatial import cKDTree

        tree = cKDTree(candidates)
        counts = tree.query_ball_point(
            core_points, params.r, return_length=True
        )
        counts = np.asarray(counts, dtype=np.int64) - 1  # remove self-match
        outliers = core_ids[counts < params.k]

        log_n = max(1.0, math.log2(n_cand))
        index_ops = int(n_cand * log_n)
        distance_evals = int(np.sum(counts + log_n))
        return DetectionResult(
            outlier_ids=outliers.tolist(),
            distance_evals=distance_evals,
            index_ops=index_ops,
            extras={"n_core": n_core, "n_candidates": n_cand},
        )
