"""ServiceClient: the library face of the detection service.

A client talks straight to the spool's SQLite store — broker-free means
there is no daemon to connect to for submit/status/result/cancel; only
*execution* needs a running ``repro serve``.  Submitting while the
service is down is therefore well-defined: the job queues durably and
runs when a serve next comes up.

    client = ServiceClient("spool/")
    job_id = client.submit("points.csv", r=2.0, k=12, tenant="acme")
    report = client.result(job_id, timeout=60.0)   # blocks, polling
    print(report["outliers"])

Backpressure is explicit: :meth:`submit` raises
:class:`~repro.service.store.QueueFull` (or its per-tenant subclass
:class:`~repro.service.store.TenantQuotaExceeded`) instead of blocking.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

from .store import (
    TERMINAL_STATES,
    JobDeadlineExceeded,
    JobExpired,
    JobNotFound,
    JobStore,
    ServiceError,
)
from .worker import RESULT_FILE, TRACE_FILE

__all__ = ["ServiceClient", "JobTimeout", "JobFailed"]

_FAILURE_KIND_ERRORS = {
    "deadline": JobDeadlineExceeded,
}

#: Seconds between store polls while waiting on a result.
_WAIT_POLL_SECONDS = 0.05


class JobTimeout(ServiceError, TimeoutError):
    """result()/wait() gave up before the job settled."""


class JobFailed(ServiceError):
    """The awaited job settled as failed or cancelled."""

    def __init__(self, job: Dict[str, Any]) -> None:
        self.job = job
        detail = job.get("error") or "(no error recorded)"
        super().__init__(
            f"job {job['id']} {job['state']}: {detail}"
        )


class ServiceClient:
    """Submit, inspect, await, and cancel jobs in one spool."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.store = JobStore(spool_dir)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submit --------------------------------------------------------
    def submit(
        self,
        input_path: str,
        r: float,
        k: int,
        tenant: str = "default",
        lane: str = "batch",
        strategy: str = "DMT",
        detector: str = "nested_loop",
        seed: int = 1,
        nodes: int = 4,
        workers: int = 0,
        kernel: Optional[str] = None,
        metric: Optional[str] = None,
        with_ids: bool = False,
        n_partitions: Optional[int] = None,
        n_reducers: Optional[int] = None,
        tier: Optional[str] = None,
    ) -> int:
        """Queue one detection job; returns its id.

        The input path is recorded, not copied — it must stay readable
        until the job runs (absolute-ified here so workers started from
        another directory still find it).
        ``tier=None`` defers to the lane's default — ``fast`` for the
        interactive lane, ``exact`` for everything else; pass an
        explicit tier ("exact", "fast", "auto") to override.
        """
        spec = {
            "input": os.path.abspath(input_path),
            "with_ids": bool(with_ids),
            "r": float(r),
            "k": int(k),
            "strategy": strategy,
            "detector": detector,
            "seed": int(seed),
            "nodes": int(nodes),
            "workers": int(workers),
            "kernel": kernel,
            "metric": metric,
            "n_partitions": n_partitions,
            "n_reducers": n_reducers,
            "tier": tier,
        }
        return self.store.submit(spec, tenant=tenant, lane=lane)

    # -- inspect -------------------------------------------------------
    def status(self, job_id: int) -> Dict[str, Any]:
        """The job row: state, tenant, lane, timings, error."""
        job = self.store.get(job_id)
        if job["started_at"] is not None:
            job["queue_wait_seconds"] = (
                job["started_at"] - job["submitted_at"]
            )
        return job

    def queue_stats(self) -> Dict[str, Any]:
        return self.store.stats()

    def health(self) -> Dict[str, Any]:
        """Service health: per-lane queue depths, worker liveness and
        heartbeat age, degrade state, quarantine count (``repro
        health``'s payload)."""
        return self.store.health()

    def tenant_stats(
        self, tenant: Optional[str] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Per-tenant rates: submitted/done/failed/quarantined counts
        plus queue-wait p50/p95."""
        return self.store.tenant_stats(tenant)

    # -- await ---------------------------------------------------------
    def wait(
        self, job_id: int, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Block until the job settles; returns the terminal job row."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            job = self.store.get(job_id)
            if job["state"] in TERMINAL_STATES:
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise JobTimeout(
                    f"job {job_id} still {job['state']} after "
                    f"{timeout:g}s (is a 'repro serve' running on "
                    f"{self.spool_dir}?)"
                )
            time.sleep(_WAIT_POLL_SECONDS)

    def result(
        self, job_id: int, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """The finished job's report.

        Raises typed errors for every way the job can be unreadable:
        :class:`~repro.service.store.JobExpired` (TTL gc reaped it),
        :class:`~repro.service.store.JobDeadlineExceeded` (its lane
        deadline fired), and :class:`JobFailed` for everything else
        that settled without a result (including quarantined poison
        jobs, whose error names the preserved journal).
        """
        job = self.wait(job_id, timeout=timeout)
        if job["state"] == "expired":
            raise JobExpired(
                f"job {job_id} expired: {job.get('error') or 'reaped'}"
            )
        if job["state"] != "done":
            typed = _FAILURE_KIND_ERRORS.get(job.get("failure_kind"))
            if typed is not None:
                raise typed(
                    f"job {job_id} {job['state']}: "
                    f"{job.get('error') or '(no error recorded)'}"
                )
            raise JobFailed(job)
        if job["result"] is not None:
            return job["result"]
        # Fall back to the artifact (the store row is authoritative but
        # a driver-side tool may have trimmed it).
        path = os.path.join(
            self.store.job_dir(job_id), RESULT_FILE
        )
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, ValueError) as exc:  # pragma: no cover
            raise JobNotFound(
                f"job {job_id} is done but its result is unreadable: "
                f"{exc}"
            ) from exc

    def trace_path(self, job_id: int) -> str:
        """Where the job's queue-wait/run trace lives (repro trace)."""
        return os.path.join(self.store.job_dir(job_id), TRACE_FILE)

    # -- cancel --------------------------------------------------------
    def cancel(self, job_id: int) -> str:
        return self.store.cancel(job_id)
