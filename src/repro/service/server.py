"""The serve driver: owns the worker pool, adopts orphans, never jobs.

``repro serve`` runs this loop.  The driver does no detection work
itself — it spawns ``workers`` :mod:`~repro.service.worker` processes,
watches them, and keeps the queue honest:

* on startup it **adopts** the previous incarnation's state: queued
  jobs are simply still queued (the store is durable), and running
  jobs whose workers are gone are re-queued at the front of their lane
  — their checkpoint journals make the re-run a resume;
* a worker that dies (SIGKILL, OOM) is detected by ``Process.is_alive``,
  its jobs are re-queued the same way, and a **replacement worker** is
  spawned — the pool stays at full strength under arbitrary worker
  churn;
* on SIGTERM/SIGINT the driver terminates its workers and exits;
  a SIGKILLed driver leaves workers that notice their parent changed
  and exit on their own (see ``worker.run_forever``), so a restarted
  driver re-adopts a clean field.

``drain=True`` turns the long-lived service into a batch pump: the
driver exits once every job in the store has settled — the hermetic
mode the tests drive.

The supervision sweep is also where the self-healing layer lives:

* orphan adoption respects each job's **retry budget** — a job whose
  workers died ``max_attempts`` times is *quarantined* (terminal,
  journal preserved) instead of re-queued, so one poison job cannot
  crash-loop the pool forever;
* per-lane **queue/run deadlines** are enforced every sweep;
* the **TTL sweeper** tombstones and reaps settled spool directories
  when ``ttl_seconds`` is configured;
* a **disk-pressure probe** checks the spool's free bytes against
  ``disk_low_watermark_bytes`` and flips degrade mode (submissions
  rejected with ``QueueFull(reason="disk")``) before the kernel starts
  returning ENOSPC — and lifts it, with hysteresis, once free space
  recovers past twice the watermark.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Callable, Dict, List, Optional

from ..recovery.diskguard import free_bytes
from .store import TERMINAL_STATES, JobStore
from .worker import worker_main

__all__ = ["ServiceServer", "serve"]

#: Seconds between supervision sweeps (worker health, orphan adoption).
_SUPERVISE_POLL_SECONDS = 0.1
#: Seconds between the slower housekeeping passes (TTL gc, disk probe).
_HOUSEKEEPING_SECONDS = 1.0


class ServiceServer:
    """Supervise a worker pool over one spool directory."""

    def __init__(
        self,
        spool_dir: str,
        workers: int = 2,
        max_depth: Optional[int] = None,
        tenant_max_inflight: Optional[int] = None,
        boost_after: Optional[int] = None,
        max_attempts: Optional[int] = None,
        requeue_backoff: Optional[float] = None,
        ttl_seconds: Optional[float] = None,
        disk_low_watermark_bytes: Optional[int] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spool_dir = spool_dir
        self.n_workers = workers
        self.store = JobStore(spool_dir)
        self.store.configure(
            max_depth=max_depth,
            tenant_max_inflight=tenant_max_inflight,
            boost_after=boost_after,
            max_attempts=max_attempts,
            requeue_backoff=requeue_backoff,
            ttl_seconds=ttl_seconds,
            disk_low_watermark_bytes=disk_low_watermark_bytes,
        )
        self.log = log or (lambda message: None)
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._stop = False
        self._last_housekeeping = 0.0
        self.workers_spawned = 0
        self.jobs_adopted = 0
        self.jobs_quarantined = 0
        self.jobs_expired = 0

    # -- worker pool ---------------------------------------------------
    def _spawn(self, worker_id: int) -> None:
        # Spawn, not fork: the driver holds an open SQLite connection
        # and fork-inheriting it (or numpy's thread state) into workers
        # invites corruption that would only show under load.
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(
            target=worker_main,
            args=(self.spool_dir, worker_id),
            kwargs={"parent_pid": os.getpid()},
            name=f"repro-service-worker-{worker_id}",
            daemon=False,
        )
        proc.start()
        self._procs[worker_id] = proc
        self.workers_spawned += 1
        self.log(f"worker {worker_id} up (pid {proc.pid})")

    def _supervise_once(self) -> None:
        """One sweep: bury dead workers, adopt their jobs (or
        quarantine budget-exhausted ones), enforce deadlines, respawn,
        and — at a slower cadence — run TTL gc and the disk probe."""
        for worker_id, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            proc.join(timeout=0)
            self.log(
                f"worker {worker_id} (pid {proc.pid}) exited "
                f"with code {proc.exitcode}"
            )
            del self._procs[worker_id]
        self._adopt_orphans()
        deadlines = self.store.expire_deadlines()
        if deadlines["queue"]:
            self.log(
                f"failed {len(deadlines['queue'])} job(s) past their "
                f"queue deadline: {deadlines['queue']}"
            )
        if deadlines["run"]:
            self.log(
                f"cancel-requested {len(deadlines['run'])} job(s) past "
                f"their run deadline: {deadlines['run']}"
            )
        now = time.time()
        if now - self._last_housekeeping >= _HOUSEKEEPING_SECONDS:
            self._last_housekeeping = now
            self._housekeeping()
        if not self._stop:
            for worker_id in range(self.n_workers):
                if worker_id not in self._procs:
                    self._spawn(worker_id)

    def _adopt_orphans(self, startup: bool = False) -> None:
        report = self.store.requeue_orphans()
        requeued, quarantined = report["requeued"], report["quarantined"]
        if requeued:
            self.jobs_adopted += len(requeued)
            if startup:
                self.log(
                    f"adopted {len(requeued)} in-flight job(s) from a "
                    f"previous serve: {requeued}"
                )
            else:
                self.log(
                    f"re-queued {len(requeued)} orphaned job(s): "
                    f"{requeued}"
                )
        if quarantined:
            self.jobs_quarantined += len(quarantined)
            self.log(
                f"quarantined {len(quarantined)} poison job(s) past "
                f"their retry budget: {quarantined}"
            )

    def _housekeeping(self) -> None:
        """TTL garbage collection + the disk-pressure probe."""
        swept = self.store.sweep_expired()
        if swept:
            self.jobs_expired += len(swept)
            self.log(f"ttl gc reaped {len(swept)} job(s): {swept}")
        low = int(self.store.config()["disk_low_watermark_bytes"] or 0)
        if low <= 0:
            return
        free = free_bytes(self.spool_dir)
        degraded = self.store.degraded()
        if free < low and degraded is None:
            self.store.set_degraded(
                f"free disk {free} bytes < low watermark {low}",
                kind="disk",
            )
            self.log(
                f"DEGRADED: free disk {free} < watermark {low}; "
                "rejecting new submissions"
            )
        elif (
            degraded is not None
            and degraded.get("kind") == "disk"
            and free >= 2 * low
        ):
            self.store.clear_degraded()
            self.log(
                f"degrade lifted: free disk {free} >= {2 * low}"
            )

    def _unsettled(self) -> int:
        stats = self.store.stats()["states"]
        return sum(
            n for state, n in stats.items()
            if state not in TERMINAL_STATES
        )

    def _shutdown_workers(self) -> None:
        for proc in self._procs.values():
            proc.terminate()
        deadline = time.time() + 5.0
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - time.time()))
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=1.0)
        self._procs.clear()

    # -- main loop -----------------------------------------------------
    def run(
        self,
        drain: bool = False,
        max_seconds: Optional[float] = None,
    ) -> int:
        """Supervise until stopped.

        ``drain`` exits (code 0) once every job has settled;
        ``max_seconds`` is a hard wall for both modes (exit code 3 if
        work remains — a liveness backstop, not a happy path).
        """
        started = time.time()
        # Adopt before the first spawn so a restart's re-queued jobs are
        # at their lanes' front when the first claim happens.
        self._adopt_orphans(startup=True)
        previous = {
            signal.SIGTERM: signal.signal(signal.SIGTERM, self._on_signal),
            signal.SIGINT: signal.signal(signal.SIGINT, self._on_signal),
        }
        try:
            while not self._stop:
                self._supervise_once()
                if drain and self._unsettled() == 0:
                    self.log("queue drained; exiting")
                    return 0
                if (max_seconds is not None
                        and time.time() - started > max_seconds):
                    remaining = self._unsettled()
                    self.log(
                        f"max-seconds reached with {remaining} "
                        "job(s) unsettled"
                    )
                    return 3 if remaining else 0
                time.sleep(_SUPERVISE_POLL_SECONDS)
            self.log("stop requested; shutting down")
            return 0
        finally:
            self._shutdown_workers()
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _on_signal(self, signum, frame) -> None:
        self._stop = True

    # -- test conveniences ---------------------------------------------
    def worker_pids(self) -> List[int]:
        return [
            proc.pid for proc in self._procs.values()
            if proc.pid is not None and proc.is_alive()
        ]


def serve(
    spool_dir: str,
    workers: int = 2,
    drain: bool = False,
    max_seconds: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
    **admission,
) -> int:
    """Run a service over ``spool_dir`` (the ``repro serve`` body)."""
    server = ServiceServer(spool_dir, workers=workers, log=log,
                           **admission)
    return server.run(drain=drain, max_seconds=max_seconds)
