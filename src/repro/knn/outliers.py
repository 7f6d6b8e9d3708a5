"""Top-n kNN-based outlier detection (the other major semantics).

The paper contrasts its distance-threshold semantics with the kNN-based
definition of Ramaswamy et al. [10] used by the message-passing systems it
compares against ([11], [13]): rank points by the distance to their k-th
nearest neighbor and report the n largest.  This module implements that
semantics exactly, both centralized and distributed — demonstrating that
the supporting-area machinery extends beyond a fixed radius.

The distributed algorithm is a bound-and-refine scheme in the spirit of
[13]'s pruning, expressed as MapReduce jobs:

1. **Bound job**: partition-local kNN gives every point an *upper bound*
   ``u_i`` on its true kNN distance (more candidates can only shrink it).
2. **Refine loop**: candidates are the points whose upper bound exceeds
   the current threshold (the n-th largest exact value known so far,
   seeded by the n-th largest upper bound).  A refine job replicates into
   each partition all points within that partition's *own* maximum
   candidate bound — per-partition support radii, so dense partitions
   with tight bounds stay small — and computes exact kNN distances for
   the candidates.  The threshold then rises, the candidate set shrinks,
   and the loop repeats until no unrefined candidate remains.

Exactness argument: a true top-n point ``j`` satisfies
``u_j >= d_k(j) >= T >= T_hat`` for every intermediate threshold
``T_hat`` (thresholds are n-th largest over subsets of exact values), so
``j`` stays in the candidate set until refined.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List

import numpy as np
from scipy.spatial import cKDTree

from ..core.dataset import Dataset
from ..geometry import UniformGrid
from ..mapreduce import (
    ClusterConfig,
    LocalRuntime,
    MapReduceJob,
    Mapper,
    RecordBatch,
    Reducer,
    TaskContext,
)
from ..partitioning import Partition, PartitionPlan

__all__ = ["KNNOutlierResult", "knn_outliers_reference",
           "distributed_knn_outliers"]


@dataclass(frozen=True)
class KNNOutlierResult:
    """Top-n outliers, strongest first, with their exact kNN distances."""

    outlier_ids: tuple[int, ...]
    knn_distances: tuple[float, ...]
    rounds: int = 1

    def as_dict(self) -> Dict[int, float]:
        return dict(zip(self.outlier_ids, self.knn_distances))


def _knn_distance(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Distance from each query to its k-th nearest *other* point.

    ``queries`` rows must also be present in ``points`` (the self-match is
    discarded, so ``k + 1`` neighbors are requested).
    """
    tree = cKDTree(points)
    k_eff = min(k + 1, points.shape[0])
    dists, _ = tree.query(queries, k=k_eff)
    dists = np.atleast_2d(dists)
    if k_eff <= k:
        # Not enough other points: the kNN distance is unbounded.
        return np.full(queries.shape[0], np.inf)
    return dists[:, k]


def knn_outliers_reference(
    dataset: Dataset, k: int, n: int
) -> KNNOutlierResult:
    """Centralized exact top-n kNN outliers (the [10] semantics)."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    d_k = _knn_distance(dataset.points, dataset.points, k)
    order = sorted(
        range(dataset.n), key=lambda i: (-d_k[i], dataset.ids[i])
    )[:n]
    return KNNOutlierResult(
        tuple(int(dataset.ids[i]) for i in order),
        tuple(float(d_k[i]) for i in order),
    )


class _RoutingMapper(Mapper):
    """Route each point to its core partition (no support)."""

    def __init__(self, plan: PartitionPlan) -> None:
        self.plan = plan

    def map_block(self, records, ctx: TaskContext):
        if not records:
            return []
        ctx.add_cost(float(len(records)))
        return RecordBatch(
            records.ids, records.points,
            keys=self.plan.core_pids_batch(records.points),
        ).group_by_key()


class _BoundReducer(Reducer):
    """Partition-local kNN: upper bounds on every point's kNN distance."""

    def __init__(self, k: int) -> None:
        self.k = k

    def reduce(self, key, values, ctx: TaskContext):
        rows = RecordBatch.concat(values)
        bounds = _knn_distance(rows.points, rows.points, self.k)
        ctx.add_cost(float(len(rows)))
        yield from zip(rows.ids.tolist(), bounds.tolist())


class _RefineMapper(Mapper):
    """Replicate every point into partitions whose candidates may need it.

    Partition ``P`` receives all points within ``radius[P]`` of ``P``
    (its maximum candidate upper bound) — the per-partition analogue of
    the supporting area, with a data-driven radius.
    """

    def __init__(self, plan: PartitionPlan, radii: Dict[int, float],
                 candidates: set[int]) -> None:
        self.plan = plan
        self.radii = radii
        self.candidates = candidates

    def map(self, key, value, ctx: TaskContext):
        point = tuple(map(float, value))
        core = self.plan.core_pid(point)
        tag = 1 if key in self.candidates else 0
        emitted = 0
        if core in self.radii:
            yield core, (tag, key, point)
            emitted += 1
        for part in self.plan.partitions:
            pid = part.pid
            if pid == core or pid not in self.radii:
                continue
            if part.rect.expand(self.radii[pid]).contains(point):
                yield pid, (0, key, point)
                emitted += 1
        ctx.add_cost(1.0 + emitted)


class _RefineReducer(Reducer):
    """Exact kNN distances for the candidate core points."""

    def __init__(self, k: int) -> None:
        self.k = k

    def reduce(self, key, values, ctx: TaskContext):
        points = np.asarray([pt for _, _, pt in values], dtype=float)
        cand_rows = [
            (row, pid)
            for row, (tag, pid, _) in enumerate(values)
            if tag == 1
        ]
        if not cand_rows:
            return
        queries = points[[row for row, _ in cand_rows]]
        exact = _knn_distance(points, queries, self.k)
        ctx.add_cost(float(points.shape[0]))
        for (_, pid), dist in zip(cand_rows, exact):
            yield pid, float(dist)


def distributed_knn_outliers(
    dataset: Dataset,
    k: int,
    n: int,
    n_partitions: int = 9,
    n_reducers: int = 4,
    cluster: ClusterConfig | None = None,
    max_rounds: int = 16,
) -> KNNOutlierResult:
    """Exact distributed top-n kNN outliers via bound-and-refine."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if n > dataset.n:
        raise ValueError("cannot request more outliers than points")
    cluster = cluster or ClusterConfig(nodes=4)
    runtime = LocalRuntime(cluster)
    grid = UniformGrid.with_cells(dataset.bounds, n_partitions)
    plan = PartitionPlan(
        dataset.bounds,
        [
            Partition(pid=grid.flat_index(idx), rect=grid.cell_rect(idx))
            for idx in grid.iter_cells()
        ],
        strategy="knn-grid",
    )
    records = dataset.batch()

    bound_job = MapReduceJob(
        "knn-bound", _RoutingMapper(plan), _BoundReducer(k),
        n_reducers=n_reducers,
    )
    bounds: Dict[int, float] = dict(
        runtime.run(bound_job, records).outputs
    )

    core_of = {
        int(pid): int(cp)
        for pid, cp in zip(
            dataset.ids, plan.core_pids_batch(dataset.points)
        )
    }
    exact: Dict[int, float] = {}
    rounds = 0
    while rounds < max_rounds:
        threshold = _nth_largest(
            list(exact.values())
            or sorted(bounds.values(), reverse=True)[:n],
            n,
        )
        candidates = {
            pid
            for pid, u in bounds.items()
            if pid not in exact and u >= threshold
        }
        if not candidates:
            break
        rounds += 1
        radii: Dict[int, float] = {}
        for pid in candidates:
            part = core_of[pid]
            radii[part] = max(radii.get(part, 0.0), bounds[pid])
        refine_job = MapReduceJob(
            "knn-refine",
            _RefineMapper(plan, radii, candidates),
            _RefineReducer(k),
            n_reducers=n_reducers,
        )
        for pid, dist in runtime.run(refine_job, records).outputs:
            exact[pid] = dist
    else:
        raise RuntimeError(
            "bound-and-refine did not converge within max_rounds; "
            "this indicates a bug (thresholds increase monotonically, "
            "so three rounds suffice in theory)"
        )

    top = heapq.nlargest(
        n, exact.items(), key=lambda kv: (kv[1], -kv[0])
    )
    return KNNOutlierResult(
        tuple(pid for pid, _ in top),
        tuple(dist for _, dist in top),
        rounds=rounds,
    )


def _nth_largest(values: List[float], n: int) -> float:
    """The n-th largest value (or the smallest if fewer than n)."""
    if not values:
        return float("-inf")
    ranked = sorted(values, reverse=True)
    return ranked[min(n, len(ranked)) - 1]
