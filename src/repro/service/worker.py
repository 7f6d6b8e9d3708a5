"""The warm service worker: claim, resume-or-run, commit, repeat.

One worker is one long-lived process that loops over
:meth:`~repro.service.store.JobStore.claim`.  Unlike the one-shot CLI,
everything expensive stays warm between jobs:

* the **runtime** (:class:`~repro.mapreduce.ParallelRuntime` when the
  job asks for worker processes, else a serial
  :class:`~repro.mapreduce.LocalRuntime`) is built once per
  ``(nodes, workers)`` shape and reused — a parallel one
  keeps its process pool between jobs, so a job pays no fork, and its
  ``transport_totals`` keep accumulating across jobs, exactly as the
  dispatch-accounting layer intends; ``close`` stops the pools when
  the worker drains or shuts down, and a worker killed outright takes
  its pool with it (see :mod:`repro.mapreduce.parallel`);
* the **plan memo** keeps the :class:`~repro.partitioning.PartitionPlan`
  per (dataset fingerprint, params, sizing): a repeat submission skips
  the sampling pre-processing job entirely and reuses that plan.

Durability is delegated to the PR-5 checkpoint layer: every job runs
through :func:`~repro.recovery.run_checkpointed` with its journal in
the job's spool directory.  A worker SIGKILLed mid-job leaves a
manifest plus the committed partition prefix; when the serve driver
re-queues the orphan, the next worker *resumes* from the last committed
partition and produces a byte-identical outlier set.

Each finished job leaves two artifacts next to its checkpoint, written
durably and ``result.json`` last, so its presence means the job is done:

* ``result.json`` — the job report (outliers, timings, recovery
  counters), what ``repro result`` prints;
* ``trace.jsonl`` — a :class:`~repro.observability.RunReport` whose
  root ``service_job`` span holds a ``queue_wait`` child (submit →
  claim) next to the checkpointed run span, so ``repro trace`` shows
  queue wait vs run time per job.
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..core import Dataset
from ..core.config import RunConfig
from ..data.io import _read_table, _table_dataset
from ..mapreduce import ClusterConfig, LocalRuntime, make_runtime
from ..observability import RunReport, Span
from ..params import OutlierParams
from ..partitioning import PartitionPlan
from ..recovery.checkpoint import _run_resolved, dataset_fingerprint
from ..recovery.diskguard import DiskPressureError, maybe_inject_enospc
from ..recovery.snapshot import write_atomic
from .store import InvalidTransition, JobDeadlineExceeded, JobStore

__all__ = ["ServiceWorker", "worker_main", "RESULT_FILE", "TRACE_FILE"]

RESULT_FILE = "result.json"
TRACE_FILE = "trace.jsonl"

#: Chaos: when set, a submitted spec may carry ``chaos_kill_at_start``
#: — the worker SIGKILLs itself the moment it picks the job up, before
#: any journal progress.  That is a *poison job*: every retry dies the
#: same way, so only the quarantine budget ends the crash loop.  Gated
#: behind this env var so specs can never kill production workers.
CHAOS_SPEC_ENV = "REPRO_CHAOS_ALLOW_SPEC"

#: Bounded warm-plan memo: datasets come and go, the worker should not.
_PLAN_MEMO_SLOTS = 8

#: Seconds between claim attempts while the queue is empty.
_IDLE_POLL_SECONDS = 0.05

#: Seconds between worker-liveness heartbeats (the workers table the
#: health surface reads) and between job-lease renewals mid-run.
_HEARTBEAT_SECONDS = 1.0


#: Spec entries that are run configuration.  An absent one takes the
#: entry points' own default (see "Run configuration" in docs/api.md);
#: ``tier`` is handled apart because its default depends on the lane.
_RUN_SPEC_KEYS = (
    "strategy", "detector", "seed", "kernel", "metric", "n_partitions",
    "n_reducers",
)


def _lane_tier(lane: str) -> str:
    """The tier of a job whose spec names none: the interactive lane
    trades nothing but the certification pass for latency (verdicts are
    tier-invariant), batch jobs stay on the exact path."""
    return "fast" if lane == "interactive" else "exact"


def _job_spec_defaults(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Fill a submitted spec's input and runtime-shape defaults."""
    out = {
        "with_ids": False,
        "nodes": 4,
        "workers": 0,
    }
    out.update(spec)
    return out


def load_job_dataset(spec: Dict[str, Any]) -> Dataset:
    """Load the job's CSV through the parse ``repro detect`` uses.

    Raises ``ValueError`` on unreadable/empty/non-finite input — the
    worker converts that into a ``failed`` job, not a dead worker.
    """
    path = spec["input"]
    raw, mask = _read_table(path, spec["with_ids"])
    if not mask.all():
        raise ValueError(
            f"{path}: rows with NaN/inf coordinates; clean the input "
            "before submitting (the service never guesses)"
        )
    return _table_dataset(raw, spec["with_ids"])


class ServiceWorker:
    """Claim loop plus the warm state it amortizes across jobs."""

    def __init__(self, spool_dir: str, worker_id: int = 0) -> None:
        self.store = JobStore(spool_dir)
        self.worker_id = worker_id
        self.pid = os.getpid()
        self._runtimes: Dict[tuple, LocalRuntime] = {}
        self._plan_memo: "OrderedDict[tuple, PartitionPlan]" = (
            OrderedDict()
        )
        self.jobs_run = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.degraded_events = 0

    # -- warm state ----------------------------------------------------
    def _runtime(self, spec: Dict[str, Any]) -> LocalRuntime:
        key = (int(spec["nodes"]), int(spec["workers"]))
        runtime = self._runtimes.get(key)
        if runtime is None:
            nodes, workers = key
            runtime = self._runtimes[key] = make_runtime(
                ClusterConfig(nodes=nodes), workers=workers
            )
        return runtime

    def close(self) -> None:
        """Stop the warm runtimes' worker pools (drain / shutdown)."""
        for runtime in self._runtimes.values():
            runtime.close()
        self._runtimes.clear()

    def _memo_get(self, key: tuple) -> Optional[PartitionPlan]:
        plan = self._plan_memo.get(key)
        if plan is not None:
            self._plan_memo.move_to_end(key)
        return plan

    def _memo_put(self, key: tuple, plan: PartitionPlan) -> None:
        self._plan_memo[key] = plan
        self._plan_memo.move_to_end(key)
        while len(self._plan_memo) > _PLAN_MEMO_SLOTS:
            self._plan_memo.popitem(last=False)

    # -- one job -------------------------------------------------------
    def run_job(self, job: Dict[str, Any]) -> str:
        """Execute one claimed job to a terminal state; returns it.

        Returns ``"lost"`` (not a job state) when the store refuses the
        settle because ownership moved on — a clock-skewed lease expiry
        re-queued the job under a live worker and someone else finished
        it; the worker shrugs and claims the next job rather than dying
        on :class:`InvalidTransition`.
        """
        job_id = int(job["id"])
        job_dir = self.store.job_dir(job_id)
        os.makedirs(job_dir, exist_ok=True)
        self._maybe_chaos_kill(job)
        try:
            report, trace = self._execute(job, job_dir)
            # Artifacts land before the state flips, result.json last:
            # its presence means every artifact of the job is on disk
            # and the job is done (a kill before the flip re-runs the
            # job, which the journal turns into a cheap resume).
            trace_path = os.path.join(job_dir, TRACE_FILE)
            maybe_inject_enospc("trace", trace_path)
            trace.save(trace_path)
            result_path = os.path.join(job_dir, RESULT_FILE)
            maybe_inject_enospc("result", result_path)
            write_atomic(
                result_path, [json.dumps(report, indent=2).encode("utf-8")]
            )
        except Exception as exc:
            return self._settle_failure(job, job_dir, exc)
        try:
            final = self.store.finish(
                job_id, "done", result=report, owner_pid=self.pid
            )
        except InvalidTransition:
            return "lost"
        self.jobs_run += 1
        return final

    def _maybe_chaos_kill(self, job: Dict[str, Any]) -> None:
        if not os.environ.get(CHAOS_SPEC_ENV):
            return
        if job["spec"].get("chaos_kill_at_start"):
            os.kill(os.getpid(), signal.SIGKILL)

    def _settle_failure(
        self, job: Dict[str, Any], job_dir: str, exc: Exception
    ) -> str:
        """Map a job exception to its typed failure and settle it."""
        job_id = int(job["id"])
        error = f"{type(exc).__name__}: {exc}"
        failure_kind = None
        if isinstance(exc, JobDeadlineExceeded):
            failure_kind = "deadline"
        elif isinstance(exc, DiskPressureError):
            failure_kind = "disk"
            self._degrade(exc)
        try:
            error_path = os.path.join(job_dir, "error.txt")
            maybe_inject_enospc("error", error_path)
            write_atomic(error_path, [
                (error + "\n\n" + traceback.format_exc()).encode("utf-8")
            ])
            if failure_kind == "disk":
                self._degrade_trace(job, error).save(
                    os.path.join(job_dir, TRACE_FILE)
                )
        except DiskPressureError as full:
            # A full disk degrades the service whatever failed the job;
            # the row keeps the job's own error and kind.
            if failure_kind != "disk":
                self._degrade(full)
        except OSError:
            pass  # best effort: the row has the error
        try:
            return self.store.finish(
                job_id, "failed", error=error, owner_pid=self.pid,
                failure_kind=failure_kind,
            )
        except InvalidTransition:
            return "lost"

    def _degrade(self, exc: DiskPressureError) -> None:
        """Flip the whole service into degrade mode: new submissions are
        rejected with ``QueueFull(reason="disk")`` while anything already
        running finishes.  The WAL is intact — the journal truncated
        itself back to its committed prefix."""
        self.store.set_degraded(f"disk pressure: {exc}", kind="disk")
        self.degraded_events += 1

    def _degrade_trace(self, job: Dict[str, Any], error: str) -> RunReport:
        """The ``service.degraded`` counter + span the ops runbook
        greps for when the service flips into degrade mode."""
        now = time.time()
        root = Span(
            name=f"service_job:{job['id']}", kind="run",
            start=float(job["submitted_at"]), end=now,
            attrs={
                "job_id": int(job["id"]),
                "tenant": job["tenant"],
                "lane": job["lane_name"],
                "degraded": True,
                "error": error,
            },
        )
        root.children.append(Span(
            name="service.degraded", kind="event", start=now, end=now,
            attrs={"reason": error},
        ))
        return RunReport(
            meta={"job_id": int(job["id"]), "tenant": job["tenant"],
                  "lane": job["lane_name"], "degraded": True},
            counters={"service": {"degraded": 1}},
            counter_totals={"service": 1},
            phase_walls={},
            trace=[root],
        )

    def _execute(self, job: Dict[str, Any], job_dir: str):
        spec = _job_spec_defaults(job["spec"])
        claimed_at = time.time()
        dataset = load_job_dataset(spec)
        params = OutlierParams(r=float(spec["r"]), k=int(spec["k"]))
        cluster = ClusterConfig(nodes=int(spec["nodes"]))
        runtime = self._runtime(spec)
        cfg = RunConfig.resolve(
            params, cluster=cluster, n=dataset.n,
            tier=spec.get("tier") or _lane_tier(job["lane_name"]),
            **{k: spec[k] for k in _RUN_SPEC_KEYS if k in spec},
        )
        # The memo key is the run identity the manifest will record,
        # minus the tier: the partition plan is tier-independent, so
        # warm plans are shared across tiers.
        key = (
            dataset_fingerprint(dataset),
            tuple(sorted(cfg.identity().items())),
        )
        warm_plan = self._memo_get(key)
        plan_cache_hit = warm_plan is not None

        # Lease heartbeat + run-deadline check at every journal commit
        # boundary: run_checkpointed chains this listener after its own
        # commit hook, so a deadline abort never tears a record and a
        # long job can't be mistaken for a dead worker's.
        job_id = int(job["id"])
        config = self.store.config()
        run_deadline = JobStore.lane_deadline(
            config, "run", job["lane_name"]
        )
        deadline_at = (
            None if run_deadline is None
            else float(job["started_at"]) + run_deadline
        )
        last_beat = [0.0]

        def _on_commit(phase: str, task_id, outputs) -> None:
            now_t = time.time()
            if now_t - last_beat[0] >= _HEARTBEAT_SECONDS:
                self.store.heartbeat(job_id, owner_pid=self.pid)
                self.store.worker_heartbeat(
                    jobs_run=self.jobs_run, pid=self.pid
                )
                last_beat[0] = now_t
            if deadline_at is not None and now_t > deadline_at:
                raise JobDeadlineExceeded(
                    f"job {job_id}: ran past lane "
                    f"{job['lane_name']!r} run deadline "
                    f"{run_deadline:g}s"
                )

        t0 = time.perf_counter()
        prev_listener = runtime.commit_listener
        runtime.commit_listener = _on_commit
        try:
            result = _run_resolved(
                dataset, cfg, os.path.join(job_dir, "ckpt"), runtime,
                manifest_extra={"job_id": int(job["id"]),
                                "tenant": job["tenant"],
                                "input": spec["input"]},
                warm_plan=warm_plan,
            )
        finally:
            runtime.commit_listener = prev_listener
        run_seconds = time.perf_counter() - t0
        if plan_cache_hit:
            self.plan_hits += 1
        else:
            self.plan_misses += 1
            self._memo_put(key, result.plan)

        queue_wait = max(0.0, claimed_at - float(job["submitted_at"]))
        counters = result.counters
        counters.incr("service", "jobs_completed")
        counters.incr("service", "queue_wait_us",
                      int(queue_wait * 1e6))
        counters.incr("service", "run_us", int(run_seconds * 1e6))
        counters.incr(
            "service",
            "plan_cache_hits" if plan_cache_hit
            else "plan_cache_misses",
        )
        # Per-tenant rate metric: the counter group carries which
        # tenant this completion belongs to, so traces can
        # aggregate rates without re-reading the store.
        counters.incr(
            "service", f"tenant_jobs_done:{job['tenant']}"
        )
        degraded = self.store.degraded() is not None
        if degraded:
            counters.incr("service", "degraded")

        report = {
            "job_id": int(job["id"]),
            "tenant": job["tenant"],
            "lane": job["lane_name"],
            "attempts": int(job["attempts"]),
            "params": {"r": params.r, "k": params.k},
            "metric": cfg.metric or "euclidean",
            "n_points": dataset.n,
            "outliers": sorted(result.outlier_ids),
            "n_outliers": len(result.outlier_ids),
            "resumed": result.resumed,
            "partitions_replayed": result.replayed_partitions,
            "partitions_executed": result.executed_partitions,
            "plan_cache_hit": plan_cache_hit,
            "queue_wait_seconds": queue_wait,
            "run_seconds": run_seconds,
            "worker_pid": self.pid,
            "degraded": degraded,
            "tier": result.tier,
            "recovery": counters.group("recovery"),
            "service": counters.group("service"),
        }
        tier_counters = counters.group("tier")
        if tier_counters:
            report["tier_counters"] = tier_counters
        trace = self._trace_report(job, report, result, queue_wait,
                                   run_seconds)
        return report, trace

    def _trace_report(self, job, report, result, queue_wait,
                      run_seconds) -> RunReport:
        """A RunReport whose root span splits queue wait from run."""
        submitted = float(job["submitted_at"])
        root = Span(
            name=f"service_job:{job['id']}", kind="run",
            start=submitted,
            attrs={
                "job_id": int(job["id"]),
                "tenant": job["tenant"],
                "lane": job["lane_name"],
                "queue_wait_seconds": queue_wait,
                "run_seconds": run_seconds,
                "plan_cache_hit": report["plan_cache_hit"],
                "resumed": report["resumed"],
                "tier": report["tier"],
                "degraded": report["degraded"],
            },
        )
        wait_span = Span(
            name="queue_wait", kind="phase", start=submitted,
            end=submitted + queue_wait,
            attrs={"seconds": queue_wait, "lane": job["lane_name"]},
        )
        root.children.append(wait_span)
        if result.trace is not None:
            root.add_child(result.trace)
        root.end = time.time()
        counters = result.counters.as_dict()
        return RunReport(
            meta={
                "strategy": job["spec"].get("strategy", "DMT"),
                "r": report["params"]["r"],
                "k": report["params"]["k"],
                "n_outliers": report["n_outliers"],
                "n_jobs": 1,
                "job_id": int(job["id"]),
                "tenant": job["tenant"],
                "lane": job["lane_name"],
            },
            counters=counters,
            counter_totals={
                group: sum(names.values())
                for group, names in counters.items()
            },
            phase_walls={
                f"service_job:{job['id']}": {
                    "queue_wait": queue_wait,
                    "run": run_seconds,
                },
            },
            trace=[root],
        )

    # -- the loop ------------------------------------------------------
    def run_forever(
        self,
        max_jobs: Optional[int] = None,
        drain: bool = False,
        parent_pid: Optional[int] = None,
        poll_seconds: float = _IDLE_POLL_SECONDS,
    ) -> int:
        """Claim and run jobs until told to stop.

        ``drain`` exits once the queue is empty; ``max_jobs`` bounds the
        number of jobs run; ``parent_pid`` makes the worker exit when
        its serve driver disappears (orphaned workers must not keep
        consuming the queue that a restarted driver now owns).
        Returns the number of jobs run.
        """
        ran = 0
        self.store.register_worker(self.worker_id, pid=self.pid)
        last_beat = 0.0
        while True:
            now = time.time()
            if now - last_beat >= _HEARTBEAT_SECONDS:
                self.store.worker_heartbeat(
                    jobs_run=self.jobs_run, pid=self.pid
                )
                last_beat = now
            if max_jobs is not None and ran >= max_jobs:
                return ran
            if parent_pid is not None and os.getppid() != parent_pid:
                return ran
            job = self.store.claim(owner_pid=self.pid)
            if job is None:
                if drain:
                    return ran
                time.sleep(poll_seconds)
                continue
            self.run_job(job)
            ran += 1


def worker_main(
    spool_dir: str,
    worker_id: int,
    parent_pid: Optional[int] = None,
    drain: bool = False,
    max_jobs: Optional[int] = None,
) -> int:
    """Entry point the serve driver spawns worker processes on."""
    worker = ServiceWorker(spool_dir, worker_id=worker_id)
    try:
        return worker.run_forever(
            max_jobs=max_jobs, drain=drain, parent_pid=parent_pid
        )
    finally:
        worker.close()

