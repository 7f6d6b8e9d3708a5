"""DSHC — Density and Spatial-aware Hierarchical Clustering (Sec. V-A).

The DSHC algorithm turns mini-bucket statistics into the DMT partition plan
in a *single scan* of the buckets.  For each incoming bucket it:

1. **searches** the AF-tree for merging candidates (LMC): clusters that
   overlap or are adjacent to the bucket;
2. **filters** the LMC by the merging criteria (Def. 5.2): density
   difference below ``t_diff``, exact rectangular union (Def. 5.3), and
   combined cardinality below ``t_max`` — the reducer main-memory bound;
3. **merges** into the most density-similar candidate and then tries to
   merge the augmented cluster recursively up the tree, or
4. **inserts** the bucket as a new singleton cluster next to its most
   similar (but unmergeable) neighbor, or wherever least enlargement puts
   it.

The resulting leaf clusters are pairwise-disjoint rectangles whose union is
the domain — a valid partition plan — with near-uniform density inside each
cluster, which is precisely the property that makes the per-partition cost
models (Sec. IV) accurate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

from ..geometry import Rect
from ..sampling import MiniBucketStats
from .af import AggregateFeature
from .aftree import AFTree

__all__ = ["DSHCConfig", "DSHCResult", "run_dshc"]


@dataclass(frozen=True)
class DSHCConfig:
    """Tuning knobs for DSHC.

    ``t_diff_fraction`` expresses the maximum density difference threshold
    ``T_diff`` as a fraction of the overall dataset density; the paper
    leaves the threshold's calibration open, and a relative threshold keeps
    one default meaningful across datasets whose absolute densities differ
    by orders of magnitude.  ``t_max_fraction`` bounds a cluster's points to
    a fraction of the dataset (the paper's reducer main-memory bound).
    """

    t_diff_fraction: float = 0.5
    t_max_fraction: float = 0.15
    max_tree_entries: int = 8

    def __post_init__(self) -> None:
        if self.t_diff_fraction <= 0:
            raise ValueError("t_diff_fraction must be positive")
        if not 0 < self.t_max_fraction <= 1:
            raise ValueError("t_max_fraction must be in (0, 1]")
        if self.max_tree_entries < 4:
            # AFTree's own bound, checked here so a bad config fails before
            # the sampling job is paid rather than inside build_plan.
            raise ValueError("max_tree_entries must be >= 4")


@dataclass
class DSHCResult:
    """The clusters produced by one DSHC run plus scan statistics."""

    clusters: List[AggregateFeature]
    merges: int
    recursive_merges: int
    t_diff: float
    t_max: float


def run_dshc(stats: MiniBucketStats, config: DSHCConfig | None = None) -> DSHCResult:
    """Cluster the mini buckets of ``stats`` into rectangular partitions."""
    config = config or DSHCConfig()
    grid = stats.grid
    total = max(stats.estimated_total, 1.0)
    overall_density = total / grid.domain.area if grid.domain.area > 0 else 1.0
    t_diff = config.t_diff_fraction * overall_density
    t_max = config.t_max_fraction * total

    tree = AFTree(max_entries=config.max_tree_entries)
    merges = 0
    recursive_merges = 0

    # Bucket rectangles in flat (row-major) order, from per-axis faces
    # computed once.
    for flat, faces in enumerate(itertools.product(*grid._axis_faces())):
        bucket = AggregateFeature(float(stats.counts[flat]), Rect(*zip(*faces)))
        candidates = tree.search_candidates(bucket.rect)
        target = _best_merge_target(candidates, bucket, t_diff, t_max)
        if target is None:
            _insert_near_similar(tree, bucket, candidates)
            continue
        tree.remove(target)
        cluster = target.merge(bucket)
        merges += 1
        # Recursive merge: keep folding in compatible neighbors until the
        # augmented cluster has none (the paper's upward merge propagation).
        while True:
            neighbor = _best_merge_target(
                tree.search_candidates(cluster.rect), cluster, t_diff, t_max
            )
            if neighbor is None:
                break
            tree.remove(neighbor)
            cluster = cluster.merge(neighbor)
            recursive_merges += 1
        tree.insert(cluster)

    return DSHCResult(
        clusters=list(tree.clusters()),
        merges=merges,
        recursive_merges=recursive_merges,
        t_diff=t_diff,
        t_max=t_max,
    )


def _best_merge_target(
    candidates: List[AggregateFeature],
    af: AggregateFeature,
    t_diff: float,
    t_max: float,
) -> Optional[AggregateFeature]:
    """Def. 5.2 filter over ``af``'s LMC (``tree.search_candidates``);
    returns the most density-similar candidate or None."""
    best: Optional[AggregateFeature] = None
    best_diff = float("inf")
    for cand in candidates:
        if cand.num_points + af.num_points >= t_max:
            continue
        diff = cand.density_difference(af)
        if diff >= t_diff or not diff < best_diff:
            continue
        # The geometric test last: it is the dear one, and the criteria
        # are a conjunction, so the first candidate of minimal difference
        # still wins.
        if cand.rect.forms_rectangle_with(af.rect):
            best, best_diff = cand, diff
    return best


def _insert_near_similar(
    tree: AFTree, af: AggregateFeature, candidates: List[AggregateFeature]
) -> None:
    """Insert an unmergeable bucket as a new cluster.

    Per the paper's insert operation: if the LMC (``candidates``, the
    search ``run_dshc`` already made on the still-unchanged tree) was
    non-empty, attach the new leaf entry beside the most density-similar
    candidate; otherwise use the least-enlargement leaf.
    """
    near = None
    if candidates:
        similar = min(candidates, key=af.density_difference)
        near = tree.leaf_of(similar)
    tree.insert(af, near=near)
