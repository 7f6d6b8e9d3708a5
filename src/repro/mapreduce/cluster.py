"""Cluster resource model and makespan computation.

The paper's testbed is a shared-nothing cluster: 1 master + 40 slaves, each
with 8 map and 8 reduce slots (Sec. VI-A).  We reproduce that topology as a
*model*: tasks execute in-process, but each task reports a cost (wall time or
deterministic work units) and the cluster model schedules those costs onto
the available slots to compute the **makespan** — the simulated end-to-end
time a real cluster of this shape would take.

Scheduling uses the same greedy policy Hadoop's scheduler effectively
realizes for a single job: tasks are assigned to the earliest-free slot,
longest task first (LPT).  This is exactly the quantity the paper plots:
"the processing costs of the most expensive partition ... indicates the
end-to-end execution time" (Sec. III-C).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from ..params import check_whole

__all__ = ["ClusterConfig", "makespan"]


def makespan(task_costs: Sequence[float], slots: int) -> float:
    """LPT schedule of ``task_costs`` onto ``slots`` parallel slots.

    Returns the finishing time of the last slot.  With one task per slot this
    degenerates to ``max(task_costs)``, the paper's cost of a partition plan
    (Def. 3.5 discussion).
    """
    if check_whole(slots, "slots") < 1:
        raise ValueError("need at least one slot")
    costs = sorted((float(c) for c in task_costs), reverse=True)
    if not costs:
        return 0.0
    heap = [0.0] * min(slots, len(costs))
    heapq.heapify(heap)
    for cost in costs:
        finish = heapq.heappop(heap)
        heapq.heappush(heap, finish + cost)
    return max(heap)


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster.

    The defaults mirror the paper's testbed: 40 worker nodes, 8 map slots and
    8 reduce slots per node.  ``hdfs_block_records`` is the block size the
    runtime cuts its input by — one map task per block.
    """

    nodes: int = 40
    map_slots_per_node: int = 8
    reduce_slots_per_node: int = 8
    hdfs_block_records: int = 8192

    def __post_init__(self) -> None:
        for name in (
            "nodes", "map_slots_per_node", "reduce_slots_per_node",
            "hdfs_block_records",
        ):
            object.__setattr__(
                self, name, check_whole(getattr(self, name), name)
            )
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if self.map_slots_per_node < 1 or self.reduce_slots_per_node < 1:
            raise ValueError("need at least one slot per node")
        if self.hdfs_block_records < 1:
            raise ValueError("block size must be at least one record")

    @property
    def map_slots(self) -> int:
        return self.nodes * self.map_slots_per_node

    @property
    def reduce_slots(self) -> int:
        return self.nodes * self.reduce_slots_per_node


#: A small single-machine profile for unit tests and examples.
LOCAL_TEST_CLUSTER = ClusterConfig(
    nodes=4, map_slots_per_node=2, reduce_slots_per_node=2,
    hdfs_block_records=1024,
)
