"""Task scheduling policy for the simulated MapReduce runtimes.

The runtimes used to hard-code one policy: retry a failed attempt up to
``max_attempts`` times, back to back, and fail the job otherwise.  This
module factors that loop out into a configurable scheduler that closes
the straggler loop the observability layer opened (PR 1 *detects*
stragglers with the median-multiple rule; this layer *mitigates* them):

* **timeouts** — each attempt gets a wall-clock budget; an attempt that
  exceeds it is abandoned and counts as a failure (``TaskTimeout``);
* **backoff** — retries wait ``backoff_base * 2**(n-1)`` seconds
  (capped at 30 s) with deterministic seeded jitter of +/- 10 %, so
  retry storms after correlated failures spread out reproducibly;
* **speculative execution** — :class:`~repro.mapreduce.parallel
  .ParallelRuntime` launches a duplicate attempt for a task whose
  elapsed time exceeds ``speculation_threshold`` x the median of
  completed tasks (the same rule as
  :func:`repro.observability.report.detect_stragglers`); the first
  committed result wins and the loser is cancelled and recorded.

A task that exhausts its attempts fails the job: a partition's verdict
commits complete or not at all, so a checkpointed run resumes it and a
stream's failed ingest rolls back.

Everything is deterministic given the config seed, which is what lets
the fault-injection test harness assert byte-identical outlier sets
under crashes, stragglers, retries, and speculation.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..observability.tracing import Span
from .failures import SPECULATIVE_ATTEMPT_BASE, FailureInjector
from .job import TaskContext

__all__ = [
    "SchedulerConfig",
    "TaskScheduler",
    "TaskTimeout",
    "SPECULATIVE_ATTEMPT_BASE",
]

#: Retry ``n`` waits ``backoff_base * _BACKOFF_FACTOR**(n-1)`` seconds,
#: capped at ``_BACKOFF_MAX`` and scaled by a seeded factor in
#: ``[1 - _BACKOFF_JITTER, 1 + _BACKOFF_JITTER]``.
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 30.0
_BACKOFF_JITTER = 0.1

#: Granularity of interruptible sleeps / speculation polling (seconds).
_TICK = 0.02


class TaskTimeout(RuntimeError):
    """An attempt exceeded the scheduler's per-attempt wall-clock budget."""


@dataclass(frozen=True)
class SchedulerConfig:
    """Retry/timeout/backoff/speculation policy for task execution.

    The default configuration reproduces the historical runtime behavior
    exactly: four back-to-back attempts, no timeout, no speculation.
    """

    max_attempts: int = 4
    #: Per-attempt wall-clock budget in seconds (``None`` = unlimited).
    timeout: Optional[float] = None
    #: Base delay before the first retry; 0 disables backoff sleeping.
    backoff_base: float = 0.0
    seed: int = 0
    #: Launch duplicate attempts for stragglers (ParallelRuntime only —
    #: a serial runtime has no spare capacity to speculate into).
    speculate: bool = False
    #: A task is a straggler when its elapsed time exceeds this multiple
    #: of the median elapsed time of completed tasks in its phase.
    speculation_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff_base < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.speculation_threshold <= 1:
            raise ValueError("speculation_threshold must be > 1")

    # ------------------------------------------------------------------
    def backoff_delay(self, phase: str, task_id: int, retry: int) -> float:
        """Seconds to wait before retry number ``retry`` (1-based).

        Deterministic given the config seed: the jitter factor depends
        only on ``(seed, phase, task_id, retry)``, like the decisions of
        :class:`~repro.mapreduce.failures.RandomFailures`.
        """
        if retry < 1 or self.backoff_base <= 0:
            return 0.0
        delay = min(
            _BACKOFF_MAX, self.backoff_base * _BACKOFF_FACTOR ** (retry - 1)
        )
        key = (self.seed, phase == "map", int(task_id), int(retry))
        rng = np.random.default_rng(abs(hash(key)) % 2**32)
        return delay * (1.0 + _BACKOFF_JITTER * (2.0 * rng.random() - 1.0))

    def backoff_schedule(self, phase: str, task_id: int) -> list[float]:
        """The full retry delay sequence for one task."""
        return [
            self.backoff_delay(phase, task_id, retry)
            for retry in range(1, self.max_attempts)
        ]


def _interruptible_sleep(seconds: float, cancel: threading.Event) -> bool:
    """Sleep up to ``seconds`` (``inf`` allowed); False if cancelled."""
    deadline = (
        math.inf if math.isinf(seconds)
        else time.perf_counter() + seconds
    )
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return True
        if cancel.wait(min(remaining, _TICK)):
            return False


class TaskScheduler:
    """Executes one task's attempt loop under a :class:`SchedulerConfig`.

    Stateless apart from its configuration, so the runtimes create one
    per task (including inside worker processes) at negligible cost.
    """

    def __init__(
        self,
        config: SchedulerConfig,
        failure_injector: Optional[FailureInjector] = None,
    ) -> None:
        self.config = config
        self.failure_injector = failure_injector

    # ------------------------------------------------------------------
    def run_task(
        self,
        phase: str,
        task_id: int,
        body: Callable[[TaskContext], object],
        speculative: bool = False,
        transport: Optional[str] = None,
        attempt_base: int = 0,
    ) -> Tuple[TaskContext, object, float, Span]:
        """Run ``body`` with retry/timeout/backoff; commit only on success.

        Returns ``(ctx, out, wall, task_span)``; the last attempt's
        exception propagates.  Failed attempts are recorded on the
        successful attempt's context counters so they survive the trip
        back from worker processes.  ``speculative`` marks this
        execution as a duplicate straggler copy: its attempts are
        numbered from :data:`SPECULATIVE_ATTEMPT_BASE` so injectors can
        model it running on a healthy node.  ``transport`` annotates the
        task span with how the payload reached this process ("inline"
        or "shm").  ``attempt_base`` offsets attempt numbering
        for re-dispatches that already consumed attempts elsewhere — the
        parallel runtime uses it when it resubmits a task lost to a dead
        worker, so injectors see one monotonic attempt sequence instead
        of a task whose history resets with each respawned pool.
        """
        cfg = self.config
        base = SPECULATIVE_ATTEMPT_BASE if speculative else attempt_base
        injector = self.failure_injector
        if injector is not None and any(
            injector.should_kill(phase, task_id, base + retry)
            for retry in range(cfg.max_attempts)
        ):
            import multiprocessing

            if multiprocessing.parent_process() is None:
                # A kill injector only makes sense under a process pool:
                # in a serial runtime it would SIGKILL the driver (and
                # the test suite).  Refuse up front — inside the retry
                # loop the refusal would just be retried away.
                raise RuntimeError(
                    f"{phase} task {task_id}: WorkerKill injected but "
                    "this attempt runs in the driver process; use "
                    "ParallelRuntime for kill-based chaos"
                )
        task_span = Span.begin(
            f"{phase}[{task_id}]", "task", phase=phase, task_id=task_id
        )
        if transport is not None:
            task_span.annotate(transport=transport)
        if speculative:
            task_span.annotate(speculative=True)
        wall = 0.0
        failures = 0
        timeouts = 0
        for retry in range(cfg.max_attempts):
            attempt = base + retry
            pause = cfg.backoff_delay(phase, task_id, retry)
            if pause > 0:
                time.sleep(pause)
            ctx = TaskContext(task_id)
            attempt_span = task_span.child(
                f"attempt {attempt}", "attempt", attempt=attempt
            )
            if speculative:
                attempt_span.annotate(speculative=True)
            if pause > 0:
                attempt_span.annotate(backoff_seconds=pause)
            ctx.span = attempt_span
            task_start = time.perf_counter()
            try:
                out = self._execute_attempt(
                    phase, task_id, attempt, body, ctx
                )
            except Exception as exc:
                wall += time.perf_counter() - task_start
                failures += 1
                timed_out = isinstance(exc, TaskTimeout)
                if timed_out:
                    timeouts += 1
                attempt_span.finish(
                    status="timeout" if timed_out else "failed",
                    error=type(exc).__name__,
                )
                if retry == cfg.max_attempts - 1:
                    task_span.finish(
                        status="failed", failures=failures,
                        timeouts=timeouts, wall_seconds=wall,
                    )
                    raise
                continue
            wall += time.perf_counter() - task_start
            attempt_span.finish(status="ok")
            if failures:
                ctx.counters.incr(
                    "runtime", f"{phase}_task_failures", failures
                )
            if timeouts:
                ctx.counters.incr(
                    "runtime", f"{phase}_task_timeouts", timeouts
                )
            task_span.finish(
                status="ok", failures=failures, wall_seconds=wall,
                cost_units=ctx.cost_units,
                counters=ctx.counters.as_dict(),
            )
            return ctx, out, wall, task_span
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    def _execute_attempt(
        self,
        phase: str,
        task_id: int,
        attempt: int,
        body: Callable[[TaskContext], object],
        ctx: TaskContext,
    ):
        injector = self.failure_injector
        if injector is not None and injector.should_kill(
            phase, task_id, attempt
        ):
            import multiprocessing
            import os
            import signal

            if multiprocessing.parent_process() is None:
                # A kill injector only makes sense under a process pool:
                # in a serial runtime it would SIGKILL the driver (and
                # the test suite).  Refuse loudly instead.
                raise RuntimeError(
                    f"{phase} task {task_id}: WorkerKill injected but "
                    "this attempt runs in the driver process; use "
                    "ParallelRuntime for kill-based chaos"
                )
            # Die the way a real preempted/OOM-killed worker dies: no
            # exception, no cleanup, the pool just loses the process.
            os.kill(os.getpid(), signal.SIGKILL)
        if injector is not None and injector.should_fail(
            phase, task_id, attempt
        ):
            from .failures import SimulatedTaskFailure

            raise SimulatedTaskFailure(
                f"{phase} task {task_id} attempt {attempt}"
            )
        delay = (
            float(injector.delay(phase, task_id, attempt))
            if injector is not None else 0.0
        )
        timeout = self.config.timeout
        if timeout is None:
            if delay > 0:
                if not math.isfinite(delay):
                    raise RuntimeError(
                        f"{phase} task {task_id}: hanging-task latency "
                        "injected but the scheduler has no timeout to "
                        "abandon it; configure SchedulerConfig.timeout"
                    )
                time.sleep(delay)
            return body(ctx)

        # Timed path: injected latency + user code run in an abandonable
        # thread.  A thread cannot be killed, so on timeout the attempt
        # is *abandoned*: its result is never committed (the Hadoop
        # contract) and the cancel event cuts any injected sleep short so
        # simulated hangs don't leak threads.
        cancel = threading.Event()
        box: dict = {}

        def attempt_main() -> None:
            try:
                if delay > 0 and not _interruptible_sleep(delay, cancel):
                    return  # abandoned during injected latency
                box["out"] = body(ctx)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["exc"] = exc

        thread = threading.Thread(
            target=attempt_main, daemon=True,
            name=f"attempt-{phase}[{task_id}]#{attempt}",
        )
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            cancel.set()
            raise TaskTimeout(
                f"{phase} task {task_id} attempt {attempt} exceeded "
                f"{timeout:g}s"
            )
        if "exc" in box:
            raise box["exc"]
        return box["out"]
