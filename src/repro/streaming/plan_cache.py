"""The DMT plan cache: reuse a partition plan across micro-batches.

The sampling pre-processing job (Sec. V-A stage 1) is the expensive part
of planning, and its output — the mini-bucket density histogram — only
goes stale when the data distribution *drifts*.  The cache therefore
retains the histogram that backed the current plan, folds every ingested
micro-batch into a live copy, and declares the plan invalid only when

* a batch point falls outside the plan's domain (``domain_expansion``) —
  the partition tiling no longer covers the data, so core/support routing
  would have to snap points to the nearest partition, losing the
  exactness guarantee of the dirty-partition rule; or
* the total-variation distance between the plan-time and live bucket
  distributions exceeds ``drift_threshold`` (``density_drift``) — the
  DSHC clusters and the bin-packed allocation were optimized for a
  density landscape that no longer holds, so reuse is still *exact* but
  no longer *balanced*.

Both histograms hold exact counts (the detector sees every batch point;
re-sampling would only add noise), normalized before comparison so the
metric measures shape change, not growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import UniformGrid
from ..partitioning import PartitionPlan

__all__ = ["DMTPlanCache"]


def _check_drift_threshold(drift_threshold: float) -> None:
    """A total-variation distance lies in [0, 1]; 0 would rebuild always."""
    if not 0.0 < drift_threshold <= 1.0:
        raise ValueError("drift_threshold must be in (0, 1]")


@dataclass
class DMTPlanCache:
    """A cached partition plan plus the histogram that justifies it."""

    plan: PartitionPlan
    grid: UniformGrid
    baseline_counts: np.ndarray  # bucket counts at plan time
    drift_threshold: float = 0.25
    live_counts: np.ndarray = field(init=False)
    batches_served: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        _check_drift_threshold(self.drift_threshold)
        self.live_counts = np.array(self.baseline_counts, dtype=float)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        plan: PartitionPlan,
        points: np.ndarray,
        n_buckets: int = 256,
        drift_threshold: float = 0.25,
    ) -> "DMTPlanCache":
        """Snapshot a fresh plan with the exact histogram of ``points``."""
        grid = UniformGrid.with_cells(plan.domain, n_buckets)
        counts = cls._histogram(grid, points)
        return cls(plan, grid, counts, drift_threshold)

    @staticmethod
    def _histogram(grid: UniformGrid, points: np.ndarray) -> np.ndarray:
        counts = np.zeros(grid.n_cells, dtype=float)
        points = np.asarray(points, dtype=float)
        if points.shape[0]:
            flats = grid.flat_indices(grid.cells_of(points))
            counts += np.bincount(flats, minlength=grid.n_cells)
        return counts

    # ------------------------------------------------------------------
    def covers(self, points: np.ndarray) -> bool:
        """True when every point lies inside the plan's (closed) domain."""
        return bool(self.plan.domain.contains_mask(points).all())

    def update(self, points: np.ndarray) -> None:
        """Fold a micro-batch into the live histogram."""
        self.live_counts += self._histogram(self.grid, points)

    def drift(self) -> float:
        """Total-variation distance between plan-time and live densities.

        0.0 = identical shape, 1.0 = disjoint support.  Comparing the
        *normalized* distributions makes pure growth (every bucket scaled
        equally) register as zero drift — the plan stays optimal for a
        dataset that merely got bigger.
        """
        base_total = self.baseline_counts.sum()
        live_total = self.live_counts.sum()
        if base_total <= 0 or live_total <= 0:
            return 0.0
        return 0.5 * float(
            np.abs(
                self.baseline_counts / base_total
                - self.live_counts / live_total
            ).sum()
        )

    def check(self, points: np.ndarray) -> str | None:
        """Invalidation verdict for a batch: ``None`` means the cached
        plan may serve it; otherwise the reason string.

        The batch is folded into the live histogram as a side effect
        (only when it is coverable — an out-of-domain batch forces a
        rebuild which re-baselines the histogram anyway).
        """
        points = np.asarray(points, dtype=float)
        if not self.covers(points):
            return "domain_expansion"
        self.update(points)
        if self.drift() > self.drift_threshold:
            return "density_drift"
        self.batches_served += 1
        return None
