"""Distributed density-based clustering on the DOD framework.

The paper points out (Sec. III-B) that the supporting-area framework "can
be easily adapted to support other mining tasks that can take advantage of
the supporting area partitioning strategy, such as density-based
clustering [16]".  This module delivers that adaptation: an exact
distributed DBSCAN built from the same pieces — partition plans, the
``r``-extension supporting area (with ``r = eps``), and one MapReduce job
— in the style of MR-DBSCAN.

How it works
------------
* **map**: the DOD mapper itself (the core's supporting-area job on
  uniSpace's grid plan) — each point is routed to its core partition and
  replicated into every partition whose ``eps``-expansion contains it.
* **reduce** (per partition): run centralized DBSCAN over core ∪ support
  points.  Core-point status computed this way is globally exact, by the
  same argument as Lemma 3.1.  Emit ``(point_id, partition, local_label,
  is_core)`` for every *clustered* point, including support copies.
* **merge** (client side): a point id appearing in two partitions' local
  clusters witnesses that those clusters are density-connected, so the
  local labels are unified with a union-find pass and renumbered.

Border points (non-core points in reach of several clusters) are
inherently ambiguous in DBSCAN; this implementation resolves them to the
smallest witnessing global label, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
from scipy.spatial import cKDTree

from ..core.dataset import Dataset
from ..core.framework import _support_job
from ..mapreduce import (
    ClusterConfig,
    LocalRuntime,
    RecordBatch,
    Reducer,
    TaskContext,
)
from ..params import check_positive_finite, check_whole
from ..partitioning.grid_strategies import _grid_plan

__all__ = ["DBSCANResult", "dbscan_reference", "distributed_dbscan"]

#: Label for noise points (DBSCAN convention).
NOISE = -1


@dataclass
class DBSCANResult:
    """Clustering outcome: ``labels[point_id] = cluster id`` or NOISE."""

    labels: Dict[int, int]
    n_clusters: int
    core_ids: set[int] = field(default_factory=set)

    def clusters(self) -> Dict[int, set[int]]:
        """Cluster id -> member point ids (noise excluded)."""
        out: Dict[int, set[int]] = {}
        for pid, label in self.labels.items():
            if label != NOISE:
                out.setdefault(label, set()).add(pid)
        return out

    @property
    def noise_ids(self) -> set[int]:
        return {p for p, lb in self.labels.items() if lb == NOISE}


def dbscan_reference(
    dataset: Dataset, eps: float, min_pts: int
) -> DBSCANResult:
    """Centralized reference DBSCAN (exact, KD-tree based).

    ``min_pts`` counts the point itself, per the classic definition.
    """
    tree = cKDTree(dataset.points)
    neighbor_lists = tree.query_ball_point(dataset.points, eps)
    is_core = np.array(
        [len(nb) >= min_pts for nb in neighbor_lists]
    )
    labels = np.full(dataset.n, NOISE, dtype=np.int64)
    current = 0
    for start in range(dataset.n):
        if not is_core[start] or labels[start] != NOISE:
            continue
        # BFS over density-reachable points.
        labels[start] = current
        frontier = [start]
        while frontier:
            row = frontier.pop()
            if not is_core[row]:
                continue
            for other in neighbor_lists[row]:
                if labels[other] == NOISE:
                    labels[other] = current
                    frontier.append(other)
        current += 1
    result = DBSCANResult(
        labels={
            int(pid): int(label)
            for pid, label in zip(dataset.ids, labels)
        },
        n_clusters=current,
        core_ids={
            int(pid) for pid, core in zip(dataset.ids, is_core) if core
        },
    )
    return result


class _LocalDBSCANReducer(Reducer):
    """Per-partition DBSCAN over core ∪ support points."""

    def __init__(self, eps: float, min_pts: int) -> None:
        self.eps = eps
        self.min_pts = min_pts

    def reduce(self, key, values, ctx: TaskContext):
        rows = RecordBatch.concat(values)
        ids = rows.ids.tolist()
        local = dbscan_reference(
            Dataset(rows.points, np.arange(len(ids))), self.eps,
            self.min_pts,
        )
        ctx.add_cost(float(len(ids)))
        for row, label in local.labels.items():
            if label == NOISE:
                continue
            yield (
                ids[row],
                key,
                label,
                row in local.core_ids,
            )


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict = {}

    def find(self, x):
        parent = self._parent.setdefault(x, x)
        if parent != x:
            self._parent[x] = self.find(parent)
        return self._parent[x]

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def distributed_dbscan(
    dataset: Dataset,
    eps: float,
    min_pts: int,
    n_partitions: int = 9,
    n_reducers: int = 4,
    cluster: ClusterConfig | None = None,
) -> DBSCANResult:
    """Exact DBSCAN via the supporting-area MapReduce framework.

    Uses an equi-width partition plan (any disjoint rectangular tiling
    works); the supporting radius equals ``eps``.
    """
    check_positive_finite(eps, "eps")
    if check_whole(min_pts, "min_pts") < 1:
        raise ValueError("min_pts must be >= 1")
    plan = _grid_plan(dataset.bounds, n_partitions, "dbscan-grid")
    job = _support_job(
        "distributed-dbscan", plan, eps,
        _LocalDBSCANReducer(eps, min_pts), n_reducers,
    )
    runtime = LocalRuntime(cluster or ClusterConfig(nodes=4))
    result = runtime.run(job, dataset.batch())

    # ------------------------------------------------------------------
    # Merge phase: unify local clusters that share any point id.
    # ------------------------------------------------------------------
    uf = _UnionFind()
    point_cluster: Dict[int, List] = {}
    core_ids: set[int] = set()
    for pid, partition, label, is_core in result.outputs:
        key = (partition, label)
        uf.find(key)
        point_cluster.setdefault(pid, []).append((key, is_core))
        # A point's core status is exact in its own partition and an
        # under-count in partitions where it is a support copy, so
        # "core in any partition" is exactly "globally core".
        if is_core:
            core_ids.add(pid)
    for pid, memberships in point_cluster.items():
        # A globally-core point density-connects every local cluster it
        # appears in; a border point does not merge clusters (classic
        # DBSCAN semantics).
        if pid not in core_ids:
            continue
        anchor = memberships[0][0]
        for key, _ in memberships[1:]:
            uf.union(anchor, key)

    # Renumber roots densely and deterministically.
    root_order: Dict = {}
    labels: Dict[int, int] = {int(p): NOISE for p in dataset.ids}
    for pid, memberships in sorted(point_cluster.items()):
        roots = sorted(
            (uf.find(key) for key, _ in memberships),
            key=lambda r: root_order.setdefault(r, len(root_order)),
        )
        chosen = roots[0]
        labels[pid] = root_order[chosen]
    # Root-order ids may be sparse after merging; compact them.
    used = sorted({lb for lb in labels.values() if lb != NOISE})
    remap = {old: new for new, old in enumerate(used)}
    labels = {
        p: (remap[lb] if lb != NOISE else NOISE)
        for p, lb in labels.items()
    }
    return DBSCANResult(
        labels=labels, n_clusters=len(used), core_ids=core_ids
    )
