"""Outside-view tracing: spans around the repo's public callables.

``install()`` rebinds the public entry point of each layer — in every
``repro`` module that imported it, or on the class that defines it — to a
wrapper that records a span (name, start, end, parent span, op id) in
memory.  Nothing under ``src/`` is edited.  A layer's *self time* is its
span's duration minus the duration of its direct child spans; the time of
an op that no span covers is reported as unattributed.

Hot, tiny callables (``AFTree.insert`` / ``search_candidates``,
``Kernel.count_neighbors``) are counted and clocked into per-op totals
instead of getting a span each.  Task wall times are not spans either:
``TaskStats.wall_seconds`` is read off the ``JobResult`` a runtime
returns.  Spans recorded inside forked pool workers die with the worker,
by design — on ``parallel_shm`` the worker-side layers come from
``TaskStats`` and job counters only.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

#: The identity the layer numbers satisfy per traced op (serial runs):
#: op wall = ``_unattributed_s`` + sum of these.  ``map_s`` contains the
#: routing done inside map tasks and ``reduce_s`` contains ``detect_s``
#: ⊇ ``count_s``; ``_route_root_s`` is routing done outside any job
#: (the streaming detector routes at ingest, not in a map task).
RECONCILE = (
    "partitioning.plan_self_s", "sampling.stats_s", "dshc.cluster_s",
    "costmodel.select_s", "allocation.allocate_s",
    "mapreduce.shuffle_self_s", "mapreduce.map_s", "mapreduce.reduce_s",
    "recovery.snapshot_save_s", "streaming.ingest_self_s", "_route_root_s",
)


class Recorder:
    """In-memory span store plus per-op counters."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent, op]
        self._stack: list = []
        self.op = None  # spans are recorded only while an op is open
        self._op_first = 0
        self.totals: collections.Counter = collections.Counter()

    # -- span plumbing -------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    # -- op lifecycle --------------------------------------------------
    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self._op_first = len(self.spans)
        self.totals.clear()

    def end_op(self, wall: float) -> dict:
        """Close the op; return its layer numbers.

        Keys ending in ``_s`` are seconds.  Span names map to
        ``<name>_s`` (self time); totals keep the names their hooks
        chose.  ``_unattributed_s`` is the op wall no root span covers.
        """
        self.op = None
        own = self.spans[self._op_first:]
        self_time = [span[2] - span[1] for span in own]
        covered = route_root = 0.0
        inclusive: collections.Counter = collections.Counter()
        for span in own:
            duration = span[2] - span[1]
            inclusive[span[0]] += duration
            if span[3] is None:
                covered += duration
            else:
                self_time[span[3] - self._op_first] -= duration
                parent = self.spans[span[3]][0]
                if (span[0], parent) == (
                    "partitioning.route", "streaming.ingest"
                ):
                    route_root += duration
        out = dict(self.totals)
        for span, seconds in zip(own, self_time):
            key = span[0] + "_s"
            out[key] = out.get(key, 0.0) + seconds
        out["partitioning.plan_self_s"] = out.pop(
            "partitioning.plan_s", 0.0
        )
        out["partitioning.plan_s"] = inclusive["partitioning.plan"]
        out.pop("mapreduce.job_s", None)  # published as shuffle_self_s
        if "streaming.ingest_s" in out:
            out["streaming.ingest_self_s"] = out.pop("streaming.ingest_s")
        out["_route_root_s"] = route_root
        out["_unattributed_s"] = wall - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _spanned(rec: Recorder, name: str, fn, after=None, calls=None):
    """Record a span per call; ``calls`` names a per-op call counter,
    ``after(rec, seconds, args, result)`` reads the call's result."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = rec.close(index)
        if calls is not None:
            rec.totals[calls] += 1
        if after is not None:
            after(rec, seconds, args, result)
        return result
    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is not None:
            rec.totals[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _clocked(rec: Recorder, seconds_key: str, calls_key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.totals[seconds_key] += time.perf_counter() - start
            rec.totals[calls_key] += 1
    return wrapper


def _after_job(rec: Recorder, seconds: float, args, job) -> None:
    """Read one finished job's public accounting into the op totals."""
    runtime = args[0]
    totals = rec.totals
    map_s = sum(t.wall_seconds for t in job.map_tasks)
    reduce_s = sum(t.wall_seconds for t in job.reduce_tasks)
    workers = getattr(runtime, "workers", 1)
    totals["mapreduce.jobs"] += 1
    totals["mapreduce.tasks"] += len(job.map_tasks) + len(job.reduce_tasks)
    totals["mapreduce.map_s"] += map_s
    totals["mapreduce.reduce_s"] += reduce_s
    # Serial: everything in the job that is not a task is grouping the
    # shuffle and sizing it.  Pool: the job wall that perfectly parallel
    # tasks would not explain (dispatch, pool start, imbalance).
    totals["mapreduce.shuffle_self_s"] += max(
        0.0, seconds - (map_s + reduce_s) / workers
    )
    totals["mapreduce.shuffle_records"] += job.shuffle_records
    totals["mapreduce.shuffle_bytes"] += job.shuffle_bytes
    runtime_group = job.counters.group("runtime")
    totals["mapreduce.task_retries"] += sum(
        value for name, value in runtime_group.items()
        if name.endswith("_task_failures")
    )
    totals["detectors.calls"] += job.counters.get(
        "dod", "partitions_processed"
    )
    totals["detectors.distance_evals"] += job.counters.get(
        "dod", "distance_evals"
    )
    totals["kernels.evals_charged"] += job.counters.get(
        "kernel", "evals_charged"
    )
    totals["kernels.evals_computed"] += job.counters.get(
        "kernel", "evals_computed"
    )
    if job.transport:  # pool runtimes only
        totals["parallel.phase_wall_s"] += sum(job.phase_times.values())
        totals["parallel.task_wall_sum_s"] += map_s + reduce_s
        totals["shm.dispatch_s"] += job.transport["dispatch_seconds"]
        totals["shm.dispatch_bytes"] += job.transport["dispatch_bytes"]
        totals["shm.segments"] += job.transport["segments"]
        totals["shm.segment_bytes"] += job.transport["segment_bytes"]


def _after_route(rec: Recorder, seconds: float, args, result) -> None:
    rec.totals["partitioning.route_points"] += len(args[1])


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module's reference to ``original`` at
    ``replacement`` (``from x import f`` copies the name)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Recorder:
    """Wrap every traced layer boundary; return the recorder."""
    from repro.allocation import allocate
    from repro.costmodel import bucketwise_best_algorithm
    from repro.detectors import Detector
    from repro.dshc import AFTree, run_dshc
    from repro.kernels import Kernel
    from repro.mapreduce import LocalRuntime, ParallelRuntime
    from repro.partitioning import PartitioningStrategy, PartitionPlan
    from repro.sampling import collect_minibucket_stats
    from repro.streaming import StreamingDetector

    rec = Recorder()
    functions = [
        (collect_minibucket_stats, "sampling.stats", "sampling.calls"),
        (run_dshc, "dshc.cluster", None),
        # DMT picks each partition's tactic through the bucketwise form
        # of Corollary 4.3; select_algorithm itself is not on this path.
        (bucketwise_best_algorithm, "costmodel.select",
         "costmodel.select_calls"),
        (allocate, "allocation.allocate", None),
    ]
    for fn, name, calls in functions:
        _rebind(fn, _spanned(rec, name, fn, calls=calls))
    methods = [
        (PartitioningStrategy, "timed_plan", "partitioning.plan", None),
        (PartitionPlan, "assign_batch", "partitioning.route", _after_route),
        (LocalRuntime, "run", "mapreduce.job", _after_job),
        (ParallelRuntime, "run", "mapreduce.job", _after_job),
        (Detector, "run", "detectors.detect", None),
        (StreamingDetector, "ingest", "streaming.ingest", None),
        (StreamingDetector, "save", "recovery.snapshot_save", None),
    ]
    for cls, attr, name, after in methods:
        setattr(cls, attr, _spanned(rec, name, vars(cls)[attr], after))
    AFTree.insert = _counted(rec, "dshc.aftree_inserts", AFTree.insert)
    AFTree.search_candidates = _counted(
        rec, "dshc.aftree_searches", AFTree.search_candidates
    )
    Kernel.count_neighbors = _clocked(
        rec, "kernels.count_s", "kernels.calls", Kernel.count_neighbors
    )
    return rec
