"""Metric-safe partitioning: pivot balls instead of coordinate boxes.

The rectangle strategies (Sec. VI) all lean on Euclidean geometry twice:
axis-aligned boxes tile the domain, and the Def. 3.3 support area is the
box's ``r``-expansion.  Neither construction is meaningful under
haversine or edit distance — so non-Euclidean runs degrade to this
strategy, which only ever touches points through the
:class:`~repro.metrics.Metric` contract.

**Core rule.**  Each partition is anchored at a *pivot* (chosen from a
seeded sample by max-min selection); a point is core in the partition of
its nearest pivot (ties break to the lowest partition row —
deterministic, and a pure function of the point, so streaming appends
resolve identically).

**Support rule.**  A point ``p`` must support every partition ``j`` that
contains some core point within ``r`` of ``p``.  If ``q`` is such a core
point, two triangle inequalities give

    d(p, v_j) <= d(p, q) + d(q, v_j)
              <= r + d(q, v_c)          (v_j is q's nearest pivot)
              <= r + d(q, p) + d(p, v_c)
              <= d(p, v_c) + 2r

with ``v_c`` the pivot of ``p``'s own core partition.  So sending ``p``
to every partition with ``d(p, v_j) <= d(p, v_c) + 2r`` over-covers the
exact support set — extra support points only add scan candidates
beyond ``r`` (never double-counted, never missed), keeping detection
byte-identical to the oracle.  Crucially the rule depends only on the
pivots, not on plan-time data radii, so points appended by the
streaming tier resolve exactly too.  A relative ``1 + 1e-9`` slack on
the threshold absorbs float rounding in the same always-safe direction
(over-inclusion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..allocation import allocate
from ..detectors.pivot import select_pivots_maxmin
from ..mapreduce import LocalRuntime
from ..metrics import resolve_metric
from .base import Partition, PartitionPlan
from .strategy import PartitioningStrategy, PlanRequest

__all__ = ["MetricSafePlan", "MetricSafePartitioner"]

#: Relative slack applied to the support threshold; inclusion is the
#: safe direction, so rounding can never drop a required support point.
_SUPPORT_SLACK = 1.0 + 1e-9


@dataclass
class MetricSafePlan(PartitionPlan):
    """A pivot-ball plan: partition ``i`` is anchored at ``pivots[i]``.

    Partitions keep the whole domain as their (nominal) rectangle so
    rect-reading consumers stay functional, but point resolution
    (:meth:`assign_batch`, which ``core_pid`` and ``support_pids`` call)
    is overridden to run entirely on metric distances.
    """

    pivots: np.ndarray | None = None
    metric_spec: str = "euclidean"

    def __post_init__(self) -> None:
        if self.pivots is None:
            raise ValueError("MetricSafePlan requires pivots")
        self.pivots = np.asarray(self.pivots, dtype=float)
        if self.pivots.shape[0] != len(self.partitions):
            raise ValueError("need exactly one pivot per partition")
        super().__post_init__()
        self._metric = resolve_metric(self.metric_spec)

    # ------------------------------------------------------------------
    def assign_batch(
        self, points: np.ndarray, r: float | np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        points = np.asarray(points, dtype=float)
        dists = self._metric.pairwise(points, self.pivots)
        pos = dists.argmin(axis=1)
        core = self._pids[pos]
        if r is None:
            return core, None
        rows = np.arange(points.shape[0])
        # ``r`` may be one radius per partition: partition ``j``'s rule
        # is the module's with ``r_j`` in both triangle inequalities.
        thresh = (
            dists[rows, pos][:, None] + 2.0 * np.asarray(r, dtype=float)
        ) * _SUPPORT_SLACK
        mask = dists <= thresh
        mask[rows, pos] = False
        srows, spos = np.nonzero(mask)
        pairs = np.stack([srows, self._pids[spos]], axis=1)
        return core, pairs

    def validate_tiling(self, samples: np.ndarray | None = None) -> None:
        """Pivot plans cannot overlap: nearest-pivot assignment is a
        function, so each point has exactly one core partition."""
        if not np.isfinite(self.pivots).all():
            raise ValueError("pivots must be finite")
        if samples is not None and len(samples):
            self.core_pids_batch(np.asarray(samples, dtype=float))


class MetricSafePartitioner(PartitioningStrategy):
    """Sampled pivot-ball partitioning for arbitrary metric spaces.

    ``metric`` (a spec or instance) overrides the request's metric; the
    sample is seeded from the request, pivots come from max-min
    selection under the target metric, and partitions are allocated to
    reducers by estimated cardinality (the only statistic a general
    metric space offers without area/density geometry).
    """

    name = "MetricSafe"
    uses_support_area = True

    def __init__(self, metric=None) -> None:
        self.metric = metric

    def build_plan(
        self, runtime: LocalRuntime, input_data, request: PlanRequest
    ) -> MetricSafePlan:
        metric = resolve_metric(
            self.metric if self.metric is not None
            else getattr(request, "metric", None)
        )
        n = len(input_data)
        if not n:
            raise ValueError("cannot partition an empty dataset")
        target = max(
            request.n_partitions,
            int(round(request.sample_rate * n)),
            min(n, 64),
        )
        rng = np.random.default_rng(request.seed)
        idx = rng.choice(n, size=min(target, n), replace=False)
        idx.sort()
        sample = input_data.points[idx]

        n_parts = min(request.n_partitions, sample.shape[0])
        pivot_rows = select_pivots_maxmin(
            sample, n_parts, seed=request.seed, metric=metric
        )
        pivots = sample[pivot_rows]

        # Estimated cardinality per partition: sample share scaled to n.
        d = metric.pairwise(sample, pivots)
        counts = np.bincount(d.argmin(axis=1), minlength=n_parts)
        scale = n / sample.shape[0]
        partitions = [
            Partition(
                pid=pid,
                rect=request.domain,
                est_points=float(counts[pid]) * scale,
                est_cost=float(counts[pid]) * scale,
            )
            for pid in range(n_parts)
        ]
        alloc = allocate(
            [p.est_cost for p in partitions], request.n_reducers
        )
        return MetricSafePlan(
            domain=request.domain,
            partitions=partitions,
            allocation=alloc.as_table(),
            strategy=self.name,
            pivots=pivots,
            metric_spec=metric.spec(),
        )
