"""LOCI outlier detection on the DOD framework.

The paper lists LOCI [22] (Papadimitriou et al., "LOCI: Fast outlier
detection using the local correlation integral") as another mining task
the supporting-area partitioning supports directly (Sec. III-B).  This
module implements exact LOCI over a user-supplied radius ladder:

For each point ``p`` and radius ``r``:

* ``n(p, alpha*r)``  — the counting neighborhood (including ``p``);
* ``n_hat(p, r)``    — the average of ``n(q, alpha*r)`` over the sampling
  neighborhood ``q ∈ N(p, r)``;
* ``MDEF(p, r) = 1 - n(p, alpha*r) / n_hat(p, r)``;
* ``sigma_MDEF(p, r)`` — the normalized standard deviation of the counts.

``p`` is flagged iff ``MDEF > k_sigma * sigma_MDEF`` at any tested radius
(the classic 3-sigma rule).

Distribution: the core's supporting-area job on uniSpace's grid plan,
with supporting radius ``(1 + alpha) * max(radii)`` — a core point's
sampling neighborhood reaches ``r``, and each sampled neighbor's counting
ball reaches another ``alpha * r``, so every quantity a core point needs
lives within that expansion.  The reducer then evaluates LOCI locally
and exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from ..params import check_positive_finite
from ..partitioning.grid_strategies import _grid_plan

__all__ = ["LOCIParams", "loci_reference", "distributed_loci"]


@dataclass(frozen=True)
class LOCIParams:
    """The LOCI knobs: radius ladder, alpha, and the sigma multiplier."""

    radii: tuple[float, ...]
    alpha: float = 0.5
    k_sigma: float = 3.0

    def __post_init__(self) -> None:
        if not self.radii:
            raise ValueError("radii must be a non-empty tuple")
        for r in self.radii:
            check_positive_finite(r, "every LOCI radius")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        check_positive_finite(self.k_sigma, "k_sigma")

    @property
    def support_radius(self) -> float:
        return (1.0 + self.alpha) * max(self.radii)


def _loci_flags(
    core_points: np.ndarray,
    all_points: np.ndarray,
    params: LOCIParams,
) -> np.ndarray:
    """LOCI flag per core point, using ``all_points`` as the universe.

    Exact for core points whenever ``all_points`` contains every point
    within ``params.support_radius`` of each core point.
    """
    tree = cKDTree(all_points)
    flags = np.zeros(core_points.shape[0], dtype=bool)
    for r in params.radii:
        counting = tree.query_ball_point(
            all_points, params.alpha * r, return_length=True
        ).astype(float)
        own_counts = tree.query_ball_point(
            core_points, params.alpha * r, return_length=True
        ).astype(float)
        sampling = tree.query_ball_point(core_points, r)
        for i, neighborhood in enumerate(sampling):
            counts = counting[neighborhood]
            n_hat = counts.mean()
            if n_hat <= 0:
                continue
            mdef = 1.0 - own_counts[i] / n_hat
            sigma = counts.std() / n_hat
            if mdef > params.k_sigma * sigma:
                flags[i] = True
    return flags


def loci_reference(dataset: Dataset, params: LOCIParams) -> set[int]:
    """Centralized exact LOCI: the flagged point ids."""
    flags = _loci_flags(dataset.points, dataset.points, params)
    return {int(pid) for pid, f in zip(dataset.ids, flags) if f}


class _LOCIReducer(Reducer):
    """Evaluate LOCI for the partition's core points."""

    def __init__(self, params: LOCIParams) -> None:
        self.params = params

    def reduce(self, key, values, ctx: TaskContext):
        rows = RecordBatch.concat(values)
        core = rows.tags == 0
        if not core.any():
            return
        ctx.add_cost(float(len(rows) * len(self.params.radii)))
        flags = _loci_flags(rows.points[core], rows.points, self.params)
        yield from rows.ids[core][flags].tolist()


def distributed_loci(
    dataset: Dataset,
    params: LOCIParams,
    n_partitions: int = 9,
    n_reducers: int = 4,
    cluster: ClusterConfig | None = None,
) -> set[int]:
    """Exact LOCI via the supporting-area MapReduce framework."""
    plan = _grid_plan(dataset.bounds, n_partitions, "loci-grid")
    job = _support_job(
        "distributed-loci", plan, params.support_radius,
        _LOCIReducer(params), n_reducers,
    )
    runtime = LocalRuntime(cluster or ClusterConfig(nodes=4))
    return set(runtime.run(job, dataset.batch()).outputs)
