"""Partition-plan serialization.

A real deployment computes the multi-tactic plan once (the lightweight
pre-processing job) and distributes it to every mapper and reducer of the
detection job — which requires the plan to be a plain, versioned,
JSON-serializable artifact.  This module provides that round trip.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..geometry import Rect
from .base import Partition, PartitionPlan
from .metric_strategies import MetricSafePlan

__all__ = ["plan_to_dict", "plan_from_dict", "save_plan", "load_plan"]

_FORMAT_VERSION = 1


def plan_to_dict(plan: PartitionPlan) -> Dict[str, Any]:
    """A plain-dict snapshot of a plan (stable across versions).

    Rectangle plans serialize exactly as they always have (no ``kind``
    key, so pre-existing manifests and baselines stay byte-identical);
    metric-safe plans add ``kind: "metric_safe"`` plus their pivots and
    metric spec.
    """
    data = {
        "version": _FORMAT_VERSION,
        "strategy": plan.strategy,
        "domain": {"low": list(plan.domain.low),
                   "high": list(plan.domain.high)},
        "allocation": (
            {str(k): v for k, v in plan.allocation.items()}
            if plan.allocation is not None
            else None
        ),
        "partitions": [
            {
                "pid": p.pid,
                "low": list(p.rect.low),
                "high": list(p.rect.high),
                "est_points": p.est_points,
                "est_cost": p.est_cost,
                "algorithm": p.algorithm,
            }
            for p in plan.partitions
        ],
    }
    if isinstance(plan, MetricSafePlan):
        data["kind"] = "metric_safe"
        data["pivots"] = [list(map(float, row)) for row in plan.pivots]
        data["metric"] = plan.metric_spec
    return data


def plan_from_dict(data: Dict[str, Any]) -> PartitionPlan:
    """Rebuild a plan from :func:`plan_to_dict` output."""
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported plan format version: {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    kind = data.get("kind", "rect")
    if kind not in ("rect", "metric_safe"):
        raise ValueError(f"unsupported plan kind: {kind!r}")
    domain = Rect(tuple(data["domain"]["low"]),
                  tuple(data["domain"]["high"]))
    partitions = [
        Partition(
            pid=int(entry["pid"]),
            rect=Rect(tuple(entry["low"]), tuple(entry["high"])),
            est_points=float(entry["est_points"]),
            est_cost=float(entry["est_cost"]),
            algorithm=entry["algorithm"],
        )
        for entry in data["partitions"]
    ]
    allocation = data.get("allocation")
    if allocation is not None:
        allocation = {int(k): int(v) for k, v in allocation.items()}
    if kind == "metric_safe":
        return MetricSafePlan(
            domain=domain,
            partitions=partitions,
            allocation=allocation,
            strategy=data.get("strategy", "unknown"),
            pivots=data["pivots"],
            metric_spec=data.get("metric", "euclidean"),
        )
    return PartitionPlan(
        domain=domain,
        partitions=partitions,
        allocation=allocation,
        strategy=data.get("strategy", "unknown"),
    )


def save_plan(plan: PartitionPlan, path: str) -> None:
    """Write a plan to a JSON file, durably
    (:func:`~repro.recovery.snapshot.write_atomic`)."""
    # Imported here: the recovery package imports this one.
    from ..recovery.snapshot import write_atomic

    write_atomic(
        path, [json.dumps(plan_to_dict(plan), indent=2).encode("utf-8")]
    )


def load_plan(path: str) -> PartitionPlan:
    """Read a plan from a JSON file."""
    with open(path) as f:
        return plan_from_dict(json.load(f))
