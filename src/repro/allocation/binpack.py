"""Reducer allocation as multi-bin packing (Sec. V-A, step 3).

Balancing estimated partition costs across ``K`` reducers is the classic
multiway number partitioning problem — NP-complete, so the paper adopts a
polynomial approximation ([25]).  We implement the standard two-stage
approximation that family of algorithms builds on:

1. **LPT** (longest processing time first) greedy assignment, which is a
   4/3-approximation of the optimal makespan, followed by
2. **local-search refinement**: repeatedly move or swap partitions between
   the most- and least-loaded bins while the makespan improves.

The allocator is also used by the cardinality-balancing baselines (there
the "cost" of a partition is simply its point count), so Fig. 7's
comparison isolates the *cost-model* difference, not the packer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = ["Allocation", "allocate"]


@dataclass(frozen=True)
class Allocation:
    """Result of packing ``len(costs)`` items into ``n_bins`` bins.

    Packing zero items yields the *empty allocation*: no assignment, no
    bins (``bin_loads == ()``), makespan 0.  Its ``imbalance`` is defined
    as 1.0 by convention (nothing is unbalanced), but callers scheduling
    work per bin must consult ``bin_loads`` — an empty allocation means
    *no reducers*, not ``n_bins`` idle ones.
    """

    assignment: tuple[int, ...]  # item index -> bin index
    bin_loads: tuple[float, ...]

    @property
    def makespan(self) -> float:
        return max(self.bin_loads) if self.bin_loads else 0.0

    @property
    def imbalance(self) -> float:
        """max load / mean load (1.0 = perfectly balanced).

        Empty and all-zero-cost allocations report 1.0 vacuously.
        """
        if not self.bin_loads:
            return 1.0
        mean = sum(self.bin_loads) / len(self.bin_loads)
        if mean <= 0:
            return 1.0
        return self.makespan / mean

    def as_table(self) -> Dict[int, int]:
        """``item -> bin`` dict, the shape DictPartitioner expects."""
        return dict(enumerate(self.assignment))


def allocate(
    costs: Sequence[float], n_bins: int, refine_rounds: int = 200
) -> Allocation:
    """Pack items with the given costs into ``n_bins`` bins.

    Returns an :class:`Allocation`; items and bins are identified by index.
    """
    if n_bins < 1:
        raise ValueError("need at least one bin")
    costs = [float(c) for c in costs]
    # A NaN load compares false against everything: LPT would pile every
    # item into bin 0.
    if not all(0 <= c < math.inf for c in costs):
        raise ValueError("costs must be finite and non-negative")
    if not costs:
        # The empty allocation: an all-pruned input must not come back
        # as "n_bins perfectly balanced empty bins" — downstream code
        # would schedule a phantom reducer per bin.
        return Allocation((), ())
    assignment = [0] * len(costs)
    loads = [0.0] * n_bins

    # Stage 1: LPT greedy.
    order = sorted(range(len(costs)), key=lambda i: costs[i], reverse=True)
    for item in order:
        dest = min(range(n_bins), key=loads.__getitem__)
        assignment[item] = dest
        loads[dest] += costs[item]

    # Stage 2: local search — move or swap to shrink the makespan.
    bins: List[List[int]] = [[] for _ in range(n_bins)]
    for item, dest in enumerate(assignment):
        bins[dest].append(item)
    for _ in range(refine_rounds):
        if not _refine_step(costs, bins, loads):
            break
    for dest, items in enumerate(bins):
        for item in items:
            assignment[item] = dest
    return Allocation(tuple(assignment), tuple(loads))


def _refine_step(
    costs: Sequence[float], bins: List[List[int]], loads: List[float]
) -> bool:
    """One improvement step: True if the makespan strictly decreased."""
    hi = max(range(len(loads)), key=loads.__getitem__)
    lo = min(range(len(loads)), key=loads.__getitem__)
    if hi == lo:
        return False
    makespan = loads[hi]

    # Best single move from hi to lo.
    best_gain = 0.0
    best_move = None
    for item in bins[hi]:
        new_hi = loads[hi] - costs[item]
        new_lo = loads[lo] + costs[item]
        gain = makespan - max(new_hi, new_lo)
        if gain > best_gain:
            best_gain, best_move = gain, ("move", item, None)

    # Best swap between hi and lo.
    for a in bins[hi]:
        for b in bins[lo]:
            delta = costs[a] - costs[b]
            if delta <= 0:
                continue
            new_hi = loads[hi] - delta
            new_lo = loads[lo] + delta
            gain = makespan - max(new_hi, new_lo)
            if gain > best_gain:
                best_gain, best_move = gain, ("swap", a, b)

    if best_move is None:
        return False
    kind, a, b = best_move
    if kind == "move":
        bins[hi].remove(a)
        bins[lo].append(a)
        loads[hi] -= costs[a]
        loads[lo] += costs[a]
    else:
        bins[hi].remove(a)
        bins[lo].remove(b)
        bins[hi].append(b)
        bins[lo].append(a)
        delta = costs[a] - costs[b]
        loads[hi] -= delta
        loads[lo] += delta
    return True
