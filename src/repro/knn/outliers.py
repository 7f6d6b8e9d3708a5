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
   seeded by the n-th largest upper bound).  A refine job is the core's
   supporting-area job with one radius per partition: each partition
   receives all points within its *own* maximum candidate bound — so
   dense partitions with tight bounds stay small, the data-driven
   replication bound of kNN joins (Lu et al.) — and every non-candidate
   is demoted to a support record, so the reducer's tag-0 rows are
   exactly the queries.  The threshold then rises, the candidate set
   shrinks, and the loop repeats until no unrefined candidate remains.

Exactness argument: a true top-n point ``j`` satisfies
``u_j >= d_k(j) >= T >= T_hat`` for every intermediate threshold
``T_hat`` (thresholds are n-th largest over subsets of exact values), so
``j`` stays in the candidate set until refined.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy.spatial import cKDTree

from ..core.dataset import Dataset
from ..core.framework import _LocalOnlyMapper, _support_job
from ..mapreduce import (
    ClusterConfig,
    LocalRuntime,
    MapReduceJob,
    RecordBatch,
    Reducer,
    TaskContext,
)
from ..params import check_whole
from ..partitioning.grid_strategies import _grid_plan

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
    k, n = _check_counts(k, n)
    d_k = _knn_distance(dataset.points, dataset.points, k)
    order = sorted(
        range(dataset.n), key=lambda i: (-d_k[i], dataset.ids[i])
    )[:n]
    return KNNOutlierResult(
        tuple(int(dataset.ids[i]) for i in order),
        tuple(float(d_k[i]) for i in order),
    )


class _BoundReducer(Reducer):
    """Partition-local kNN: an upper bound on every point's kNN distance,
    reported with the partition it is core in."""

    def __init__(self, k: int) -> None:
        self.k = k

    def reduce(self, key, values, ctx: TaskContext):
        rows = RecordBatch.concat(values)
        bounds = _knn_distance(rows.points, rows.points, self.k)
        ctx.add_cost(float(len(rows)))
        for pid, bound in zip(rows.ids.tolist(), bounds.tolist()):
            yield pid, key, bound


class _RefineReducer(Reducer):
    """Exact kNN distances for the partition's candidates — its tag-0
    rows — over its whole pool."""

    def __init__(self, k: int) -> None:
        self.k = k

    def reduce(self, key, values, ctx: TaskContext):
        rows = RecordBatch.concat(values)
        queries = rows.tags == 0
        if not queries.any():
            return
        exact = _knn_distance(rows.points, rows.points[queries], self.k)
        ctx.add_cost(float(len(rows)))
        yield from zip(rows.ids[queries].tolist(), exact.tolist())


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
    k, n = _check_counts(k, n)
    if n > dataset.n:
        raise ValueError("cannot request more outliers than points")
    runtime = LocalRuntime(cluster or ClusterConfig(nodes=4))
    plan = _grid_plan(dataset.bounds, n_partitions, "knn-grid")
    records = dataset.batch()

    bound_job = MapReduceJob(
        "knn-bound", _LocalOnlyMapper(plan), _BoundReducer(k),
        n_reducers=n_reducers,
    )
    # point id -> (core partition, upper bound on its kNN distance)
    bounds: Dict[int, Tuple[int, float]] = {
        pid: (part, bound)
        for pid, part, bound in runtime.run(bound_job, records).outputs
    }

    exact: Dict[int, float] = {}
    rounds = 0
    while rounds < max_rounds:
        threshold = _nth_largest(
            list(exact.values())
            or sorted((u for _, u in bounds.values()), reverse=True)[:n],
            n,
        )
        candidates = {
            pid
            for pid, (_, u) in bounds.items()
            if pid not in exact and u >= threshold
        }
        if not candidates:
            break
        rounds += 1
        # Each partition's support radius is its largest candidate bound;
        # a partition without candidates takes no support (-inf).
        radii: Dict[int, float] = {}
        for pid in candidates:
            part, u = bounds[pid]
            radii[part] = max(radii.get(part, 0.0), u)
        refine_job = _support_job(
            "knn-refine", plan,
            np.array([radii.get(p.pid, -np.inf) for p in plan.partitions]),
            _RefineReducer(k), n_reducers,
            certified_ids=bounds.keys() - candidates,
        )
        exact.update(runtime.run(refine_job, records).outputs)
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


def _check_counts(k, n) -> Tuple[int, int]:
    """``k`` and ``n`` as ints, refused unless whole and ``>= 1``."""
    k, n = check_whole(k, "k"), check_whole(n, "n")
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    return k, n


def _nth_largest(values: List[float], n: int) -> float:
    """The n-th largest value (or the smallest if fewer than n)."""
    if not values:
        return float("-inf")
    ranked = sorted(values, reverse=True)
    return ranked[min(n, len(ranked)) - 1]
