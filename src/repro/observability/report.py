"""Run reports: aggregate one pipeline run into a machine-readable record.

A :class:`RunReport` condenses a :class:`~repro.core.PipelineResult` (and
its span trace) into exactly the quantities the paper argues over in
Sec. IV-V:

* deterministic **cost-unit totals** per side (map / reduce) — the
  machine-independent work measure CI regression-gates on;
* the **per-reducer load histogram** and its **skew ratio** (max / mean),
  the load-balance signal of Figs. 7-8;
* **straggler** tasks, flagged by the median-multiple rule (a task whose
  cost exceeds ``threshold`` x its phase's median);
* the **cost-model comparison**: the planner's predicted per-partition
  costs (``Partition.est_cost``, computed from :mod:`repro.costmodel`)
  against the cost units the reducers actually reported;
* merged counters, shuffle volume, and retry/failure totals.

Reports round-trip through JSONL: one ``run_report`` line followed by one
``span`` line per root span (see ``docs/observability.md`` for the
schema).  ``repro detect --trace-out`` writes the file and ``repro trace``
renders it.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mapreduce.counters import Counters
from .tracing import Span

__all__ = [
    "StragglerInfo",
    "RunReport",
    "detect_stragglers",
    "skew_ratio",
]

#: A task is a straggler when its cost exceeds this multiple of the
#: median cost of its phase (the classic median-multiple rule used by
#: speculative-execution schedulers).
DEFAULT_STRAGGLER_THRESHOLD = 2.0


@dataclass(frozen=True)
class StragglerInfo:
    """One flagged straggler task."""

    job: str
    phase: str
    task_id: int
    cost: float
    median: float

    @property
    def ratio(self) -> float:
        return self.cost / self.median if self.median > 0 else float("inf")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job": self.job,
            "phase": self.phase,
            "task_id": self.task_id,
            "cost": self.cost,
            "median": self.median,
            "ratio": self.ratio,
        }


def detect_stragglers(
    tasks: Sequence[Tuple[str, str, int, float]],
    threshold: float = DEFAULT_STRAGGLER_THRESHOLD,
) -> List[StragglerInfo]:
    """Median-multiple straggler rule over ``(job, phase, task_id, cost)``.

    Costs are grouped by ``(job, phase)``; within each group a task is a
    straggler when its cost exceeds ``threshold`` times the group median.
    Groups of fewer than three tasks are skipped (a median of one or two
    values flags nothing meaningful).
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1")
    groups: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for job, phase, task_id, cost in tasks:
        groups.setdefault((job, phase), []).append((task_id, cost))
    found: List[StragglerInfo] = []
    for (job, phase), members in groups.items():
        if len(members) < 3:
            continue
        median = statistics.median(cost for _, cost in members)
        if median <= 0:
            continue
        for task_id, cost in members:
            if cost > threshold * median:
                found.append(
                    StragglerInfo(job, phase, task_id, cost, median)
                )
    found.sort(key=lambda s: s.ratio, reverse=True)
    return found


def skew_ratio(loads: Sequence[float]) -> float:
    """max / mean of the positive loads (1.0 when balanced or empty)."""
    positive = [x for x in loads if x > 0]
    if not positive:
        return 1.0
    return max(positive) / (sum(positive) / len(positive))


@dataclass
class RunReport:
    """Aggregated, serializable account of one detection run."""

    meta: Dict[str, Any] = field(default_factory=dict)
    cost_units: Dict[str, float] = field(default_factory=dict)
    reducer_loads: List[float] = field(default_factory=list)
    skew: float = 1.0
    stragglers: List[StragglerInfo] = field(default_factory=list)
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    counter_totals: Dict[str, int] = field(default_factory=dict)
    shuffle: Dict[str, int] = field(default_factory=dict)
    failures: Dict[str, int] = field(default_factory=dict)
    scheduler: Dict[str, Any] = field(default_factory=dict)
    cost_model: Dict[str, Any] = field(default_factory=dict)
    phase_walls: Dict[str, Dict[str, float]] = field(default_factory=dict)
    transport: Dict[str, Any] = field(default_factory=dict)
    trace: List[Span] = field(default_factory=list)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_pipeline(
        cls,
        result,
        straggler_threshold: float = DEFAULT_STRAGGLER_THRESHOLD,
    ) -> "RunReport":
        """Build a report from a :class:`~repro.core.PipelineResult`."""
        run = result.run
        meta = {
            "strategy": result.strategy,
            "r": result.params.r,
            "k": result.params.k,
            "n_outliers": len(result.outlier_ids),
            "n_jobs": run.n_jobs,
            "cluster_nodes": result.cluster.nodes,
            "preprocess_wall": result.preprocess_wall,
            "detect_wall": result.detect_wall,
        }

        merged = Counters()
        for job in run.jobs:
            merged.merge(job.counters)
        counters = merged.as_dict()
        counter_totals = {g: merged.total(g) for g in counters}

        # Per-reducer load (cost units), aggregated across jobs by index.
        n_reducers = max(
            (len(job.reduce_tasks) for job in run.jobs), default=0
        )
        loads = [0.0] * n_reducers
        for job in run.jobs:
            for task in job.reduce_tasks:
                loads[task.task_id] += task.cost_units

        tasks = [
            (job.job_name, task.phase, task.task_id, task.cost_units)
            for job in run.jobs
            for task in (*job.map_tasks, *job.reduce_tasks)
        ]

        report = cls(
            meta=meta,
            cost_units={
                "map": result.map_units,
                "reduce": result.reduce_units,
                "total": result.map_units + result.reduce_units,
            },
            reducer_loads=loads,
            skew=skew_ratio(loads),
            stragglers=detect_stragglers(tasks, straggler_threshold),
            counters=counters,
            counter_totals=counter_totals,
            shuffle={
                "records": run.total_shuffle_records(),
                "bytes": sum(j.shuffle_bytes for j in run.jobs),
            },
            failures={
                name: value
                for name, value in merged.group("runtime").items()
                if name.endswith("_failures")
            },
            scheduler=cls._scheduler_summary(merged),
            cost_model=cls._cost_model_comparison(run, loads),
            phase_walls={
                job.job_name: dict(job.phase_times) for job in run.jobs
            },
            transport=cls._transport_summary(run),
            trace=cls._collect_trace(result),
        )
        return report

    @staticmethod
    def _transport_summary(run) -> Dict[str, Any]:
        """Dispatch-transport totals summed across the run's jobs.

        Empty for serial runs — ``JobResult.transport`` only fills when
        tasks cross a process boundary.
        """
        stats = [
            job.transport for job in run.jobs
            if getattr(job, "transport", None)
        ]
        if not stats:
            return {}
        summary: Dict[str, Any] = {"name": stats[0].get("name", "?")}
        for key in ("tasks", "dispatch_seconds", "dispatch_bytes",
                    "context_bytes", "segments", "segment_bytes"):
            summary[key] = sum(s.get(key, 0) for s in stats)
        return summary

    @staticmethod
    def _scheduler_summary(merged: Counters) -> Dict[str, Any]:
        """Retry/timeout/speculation totals from counters."""
        runtime = merged.group("runtime")
        spec_attempts = runtime.get("speculative_attempts", 0)
        spec_wins = runtime.get("speculative_wins", 0)
        return {
            "retries": sum(
                v for n, v in runtime.items()
                if n.endswith("_task_failures")
            ),
            "timeouts": sum(
                v for n, v in runtime.items()
                if n.endswith("_task_timeouts")
            ),
            "speculative_attempts": spec_attempts,
            "speculative_wins": spec_wins,
            # Every launched duplicate either wins or is cancelled.
            "speculative_cancelled": max(0, spec_attempts - spec_wins),
            "cancelled_attempts": runtime.get("cancelled_attempts", 0),
        }

    @staticmethod
    def _collect_trace(result) -> List[Span]:
        trace = getattr(result, "trace", None)
        if trace is not None:
            return [trace]
        return [
            job.trace for job in result.run.jobs if job.trace is not None
        ]

    @staticmethod
    def _cost_model_comparison(run, loads: Sequence[float]) -> Dict[str, Any]:
        """Planner-predicted vs. reducer-reported cost units.

        ``Partition.est_cost`` is what the Sec. IV models predicted during
        planning; the reduce tasks report what the detectors actually
        charged.  With an allocation plan the comparison is also broken
        down per reducer (predicted load = sum of the estimated costs of
        the partitions allocated to it).
        """
        plan = run.plan
        predicted_total = float(
            sum(p.est_cost for p in plan.partitions)
        )
        actual_total = float(sum(loads))
        comparison: Dict[str, Any] = {
            "predicted_units": predicted_total,
            "actual_reduce_units": actual_total,
            "ratio": (
                predicted_total / actual_total if actual_total > 0 else 0.0
            ),
        }
        if plan.allocation is not None and loads:
            per_reducer = [0.0] * len(loads)
            for part in plan.partitions:
                reducer = plan.allocation.get(part.pid)
                if reducer is not None:
                    per_reducer[reducer % len(loads)] += part.est_cost
            comparison["predicted_reducer_loads"] = per_reducer
            comparison["predicted_skew"] = skew_ratio(per_reducer)
        return comparison

    # -- derived --------------------------------------------------------
    def cost_totals(self) -> Dict[str, Any]:
        """The deterministic scalars CI exact-matches against a baseline."""
        return {
            "map_units": self.cost_units.get("map", 0.0),
            "reduce_units": self.cost_units.get("reduce", 0.0),
            "total_units": self.cost_units.get("total", 0.0),
            "skew_ratio": self.skew,
            "shuffle_records": self.shuffle.get("records", 0),
            "n_outliers": self.meta.get("n_outliers", 0),
        }

    def task_spans(self) -> List[Span]:
        """All task spans across the recorded trace."""
        return [
            s for root in self.trace for s in root.walk()
            if s.kind == "task"
        ]

    def attempt_spans(self) -> List[Span]:
        """All attempt spans across the recorded trace.

        Speculative duplicates carry ``attrs["speculative"] is True``;
        timed-out attempts carry ``attrs["status"] == "timeout"``.
        """
        return [
            s for root in self.trace for s in root.walk()
            if s.kind == "attempt"
        ]

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The ``run_report`` JSONL line (trace excluded — spans get
        their own lines)."""
        return {
            "type": "run_report",
            "version": 1,
            "meta": dict(self.meta),
            "cost_units": dict(self.cost_units),
            "reducer_loads": list(self.reducer_loads),
            "skew_ratio": self.skew,
            "stragglers": [s.to_dict() for s in self.stragglers],
            "counters": {g: dict(n) for g, n in self.counters.items()},
            "counter_totals": dict(self.counter_totals),
            "shuffle": dict(self.shuffle),
            "failures": dict(self.failures),
            "scheduler": dict(self.scheduler),
            "cost_model": dict(self.cost_model),
            "phase_walls": {
                j: dict(p) for j, p in self.phase_walls.items()
            },
            "transport": dict(self.transport),
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], trace: Optional[List[Span]] = None
    ) -> "RunReport":
        return cls(
            meta=dict(data.get("meta", {})),
            cost_units=dict(data.get("cost_units", {})),
            reducer_loads=list(data.get("reducer_loads", [])),
            skew=data.get("skew_ratio", 1.0),
            stragglers=[
                StragglerInfo(s["job"], s["phase"], s["task_id"],
                              s["cost"], s["median"])
                for s in data.get("stragglers", [])
            ],
            counters=data.get("counters", {}),
            counter_totals=dict(data.get("counter_totals", {})),
            shuffle=dict(data.get("shuffle", {})),
            failures=dict(data.get("failures", {})),
            scheduler=dict(data.get("scheduler", {})),
            cost_model=dict(data.get("cost_model", {})),
            phase_walls=data.get("phase_walls", {}),
            transport=dict(data.get("transport", {})),
            trace=list(trace or []),
        )

    def save(self, path: str) -> None:
        """Write the JSONL trace file: report line, then span lines.

        The file is replaced durably, as every file the system writes
        (:func:`~repro.recovery.snapshot.write_atomic`): a full disk is a
        ``DiskPressureError`` that leaves the previous file whole."""
        # Imported here: the recovery package imports this one.
        from ..recovery.snapshot import write_atomic

        records = [self.to_dict()] + [
            {"type": "span", "span": root.to_dict()} for root in self.trace
        ]
        write_atomic(path, [
            (json.dumps(record) + "\n").encode("utf-8")
            for record in records
        ])

    @classmethod
    def load(cls, path: str) -> "RunReport":
        """Read a JSONL trace file written by :meth:`save`."""
        report_line: Optional[Dict[str, Any]] = None
        spans: List[Span] = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("type") == "run_report":
                    report_line = record
                elif record.get("type") == "span":
                    spans.append(Span.from_dict(record["span"]))
        if report_line is None:
            raise ValueError(f"{path}: no run_report line found")
        return cls.from_dict(report_line, trace=spans)
