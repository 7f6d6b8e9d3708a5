"""The proximity-graph detector (Amagata et al., arXiv 2110.08959).

A fifth tactic for the multi-tactic candidate set ``A``, and the first
one designed for *general metric spaces*: build an approximate
K-neighbor graph over the partition's candidate pool (NN-descent-style
local join, seeded and fully deterministic), then use the graph to
**certify inliers** without exact scans — a core point whose graph
neighbors already include ``k`` points within ``r`` is provably an
inlier, no matter how approximate the graph is.  Only the uncertified
*residue* pays the exact kernel-backed scan.

Exactness is one-sided by construction:

* every graph edge stores the canonical ``metric.within`` verdict for
  that concrete pair, so certification counts real neighbors — a
  certified point satisfies the oracle's inlier predicate verbatim;
* graph quality only moves points between "certified cheaply" and
  "scanned exactly"; the reported outlier set is byte-identical to the
  O(n²) oracle either way.

Work splits into the ``graph`` counter group (``graph_distance_evals``
spent building the graph, ``graph_certified`` / ``graph_residue``
partition sizes) plus the usual kernel accounting for the residue scan;
``graph_certified + graph_residue == n_core`` always.
"""

from __future__ import annotations

import numpy as np

from ..kernels import resolve_kernel
from ..metrics import resolve_metric
from ..params import OutlierParams, check_whole
from ._scan import random_scan_counts
from .base import DetectionResult, Detector, validate_partition_inputs

__all__ = ["ProximityGraphDetector"]


def _merge_row(nbr, dist, win, new_idx, new_dist, new_win, K):
    """Merge candidate edges into one graph row, keeping the K nearest.

    Rows are kept sorted by ``(distance, index)`` — a total order, so
    the merge (and with it the whole graph) is deterministic.  Returns
    the new row and whether it changed.
    """
    idx = np.concatenate([nbr, new_idx])
    dst = np.concatenate([dist, new_dist])
    wn = np.concatenate([win, new_win])
    keep = np.lexsort((idx, dst))[:K]
    changed = not np.array_equal(idx[keep], nbr)
    return idx[keep], dst[keep], wn[keep], changed


class ProximityGraphDetector(Detector):
    """Certify inliers via an approximate neighbor graph; scan the rest.

    ``graph_k`` is the graph degree (default ``k + 4`` capped by the
    pool size: certification needs ``k`` within-``r`` edges, the
    headroom absorbs graph approximation); ``iters`` bounds the
    NN-descent refinement rounds (it stops early once a round changes
    nothing).  ``kernel`` and ``chunk`` configure the exact residue
    scan; ``metric`` selects the space — this tactic is fully
    metric-generic.
    """

    name = "proximity_graph"
    uses_kernel = True
    metric_generic = True

    def __init__(
        self,
        graph_k: int | None = None,
        iters: int = 3,
        chunk: int = 256,
        seed: int = 7,
        kernel=None,
        metric=None,
    ) -> None:
        if graph_k is not None and graph_k < 1:
            raise ValueError("graph_k must be >= 1")
        if iters < 0:
            raise ValueError("iters must be >= 0")
        chunk = check_whole(chunk, "chunk")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.graph_k = graph_k
        self.iters = iters
        self.chunk = chunk
        self.seed = seed
        self.kernel = kernel
        self.metric = metric

    # ------------------------------------------------------------------
    def _build_graph(self, pool, K, r, metric, rng):
        """Seeded NN-descent over the pool.

        Returns ``(nbr, win, evals)``: per-row K nearest-so-far
        neighbor indices (self excluded) and the canonical
        ``within(r)`` flag of each stored edge.
        """
        n = pool.shape[0]
        nbr = np.empty((n, K), dtype=np.int64)
        dist = np.empty((n, K), dtype=np.float64)
        win = np.empty((n, K), dtype=bool)
        evals = 0

        def evaluate(i, idx_arr):
            q = pool[i:i + 1]
            c = pool[idx_arr]
            return (
                metric.pairwise(q, c)[0],
                metric.within_block(q, c, r)[0],
            )

        for i in range(n):
            pick = rng.choice(n - 1, size=K, replace=False)
            pick[pick >= i] += 1  # skip self
            d, w = evaluate(i, pick)
            evals += K
            keep = np.lexsort((pick, d))
            nbr[i], dist[i], win[i] = pick[keep], d[keep], w[keep]

        for _ in range(self.iters):
            rev: list[list[int]] = [[] for _ in range(n)]
            for i in range(n):
                for j in nbr[i]:
                    rev[j].append(i)
            changes = 0
            for i in range(n):
                current = set(nbr[i].tolist())
                cand: set[int] = set()
                for j in nbr[i]:
                    cand.add(int(j))
                    cand.update(nbr[j].tolist())
                for j in rev[i]:
                    cand.add(int(j))
                    cand.update(nbr[j].tolist())
                cand.discard(i)
                new = sorted(cand - current)
                if not new:
                    continue
                new_idx = np.asarray(new, dtype=np.int64)
                d, w = evaluate(i, new_idx)
                evals += new_idx.shape[0]
                nbr[i], dist[i], win[i], changed = _merge_row(
                    nbr[i], dist[i], win[i], new_idx, d, w, K
                )
                changes += changed
            if changes == 0:
                break
        return nbr, win, evals

    # ------------------------------------------------------------------
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
            pool = np.vstack([core_points, support_points])
        else:
            pool = core_points
        n_pool = pool.shape[0]
        metric = resolve_metric(self.metric)
        backend = resolve_kernel(self.kernel, tile=self.chunk)
        k = params.k

        extras = {
            "n_core": n_core,
            "n_support": support_points.shape[0],
            "kernel": backend.name,
        }
        if not metric.is_euclidean:
            extras["metric"] = metric.spec()

        # k <= 0: every point is trivially an inlier (it matches
        # itself), mirroring the scan detectors' need <= 0 semantics —
        # decided before a single distance is evaluated.
        if k <= 0:
            extras.update(
                graph_certified=n_core, graph_residue=0,
                graph_distance_evals=0, graph_k=0, graph_iters=0,
                kernel_evals_computed=0,
            )
            return DetectionResult([], extras=extras)

        K = self.graph_k if self.graph_k is not None else k + 4
        K = min(K, n_pool - 1)
        rng = np.random.default_rng(self.seed)

        graph_evals = 0
        if K >= 1:
            nbr, win, graph_evals = self._build_graph(
                pool, K, params.r, metric, rng
            )
            # Core rows are pool rows 0..n_core-1; every stored edge
            # carries its canonical within(r) verdict and excludes self,
            # so >= k true flags certify the oracle's inlier predicate.
            cert_mask = win[:n_core].sum(axis=1) >= k
        else:
            # Pool too small for any graph edge (single point).
            cert_mask = np.zeros(n_core, dtype=bool)

        residue_rows = np.nonzero(~cert_mask)[0]
        certified = int(cert_mask.sum())

        computed_before = backend.evals_computed
        scan_evals = 0
        outliers: list[int] = []
        if residue_rows.size:
            counts, scan_evals = random_scan_counts(
                pool[residue_rows], pool, params.r, k + 1,
                chunk=self.chunk, seed=self.seed, kernel=backend,
                metric=metric,
            )
            outliers = [
                int(core_ids[row])
                for row, count in zip(residue_rows, counts)
                if count < k + 1
            ]

        extras.update(
            graph_certified=certified,
            graph_residue=int(residue_rows.size),
            graph_distance_evals=graph_evals,
            graph_k=int(K),
            graph_iters=self.iters,
            kernel_evals_computed=backend.evals_computed - computed_before,
        )
        return DetectionResult(
            outlier_ids=outliers,
            distance_evals=graph_evals + scan_evals,
            extras=extras,
        )
