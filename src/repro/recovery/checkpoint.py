"""Crash-safe detection: plan once, journal every partition verdict.

:func:`run_checkpointed` is the durable twin of
:func:`repro.core.detect_outliers`.  It persists two artifacts in a
checkpoint directory:

* ``manifest.json`` — the run's identity (dataset fingerprint, params,
  strategy, seed, sizing) plus the serialized partition plan, written
  atomically before any detection work starts;
* ``journal.jsonl`` — the per-partition result WAL
  (:class:`~repro.recovery.journal.ResultJournal`): as each reduce task
  lands in the driver, the verdict of every partition that task owned is
  fsynced to the journal.

A driver killed at any point can be resumed by calling
:func:`run_checkpointed` again with the same inputs (or ``repro
resume``): the manifest revalidates the run identity, committed
partitions are *replayed* from the journal, and only the uncommitted
rest is re-executed — the final outlier set is byte-identical to an
uninterrupted run, because partition verdicts are exact and independent
(Lemma 3.1).

Degradation is always toward recomputation, never toward wrong output:
a corrupt manifest or journal (checksum mismatch) is discarded with a
warning span and a ``recovery`` counter, and the run falls back to a
full re-run.  A manifest that is *valid but describes a different run*
(other dataset, params, or sizing) raises — silently clobbering someone
else's checkpoint is not a recovery.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from ..core.config import RunConfig
from ..core.dataset import Dataset
from ..core.execute import (
    TierPass,
    annotate_tier,
    route,
    run_routed,
    run_tier_prelude,
)
from ..mapreduce import ClusterConfig, Counters, LocalRuntime
from ..observability import Span, Tracer
from ..params import OutlierParams
from ..partitioning import plan_from_dict, plan_to_dict
from .journal import JournalCorrupt, ResultJournal
from .snapshot import SnapshotError, read_artifact, write_artifact

__all__ = [
    "MANIFEST_FILE",
    "JOURNAL_FILE",
    "CheckpointMismatch",
    "CheckpointedResult",
    "dataset_fingerprint",
    "read_manifest",
    "run_checkpointed",
]

MANIFEST_FILE = "manifest.json"
JOURNAL_FILE = "journal.jsonl"
_MANIFEST_KIND = "checkpoint-manifest"
_MANIFEST_VERSION = 1


class CheckpointMismatch(ValueError):
    """The checkpoint directory belongs to a different run."""


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash binding a checkpoint to its exact input."""
    digest = hashlib.sha256()
    digest.update(str(dataset.points.shape).encode())
    digest.update(np.ascontiguousarray(dataset.ids).tobytes())
    digest.update(np.ascontiguousarray(dataset.points).tobytes())
    return digest.hexdigest()


@dataclass
class CheckpointedResult:
    """What a checkpointed (possibly resumed) detection produced."""

    outlier_ids: Set[int]
    outliers_by_pid: Dict[int, Set[int]]
    replayed_partitions: List[int]
    executed_partitions: List[int]
    resumed: bool
    counters: Counters
    plan: object = None
    jobs: List = field(default_factory=list)
    trace: Optional[Span] = None
    tier: str = "exact"

    @property
    def n_partitions(self) -> int:
        return len(self.replayed_partitions) + len(
            self.executed_partitions
        )


def read_manifest(checkpoint_dir: str) -> dict:
    """Read a checkpoint manifest (raises :class:`SnapshotError`)."""
    return read_artifact(
        os.path.join(checkpoint_dir, MANIFEST_FILE),
        _MANIFEST_KIND,
        _MANIFEST_VERSION,
    )


def run_checkpointed(
    dataset: Dataset,
    params: OutlierParams,
    checkpoint_dir: str,
    strategy="DMT",
    detector: str = "nested_loop",
    runtime: Optional[LocalRuntime] = None,
    cluster: Optional[ClusterConfig] = None,
    n_partitions: Optional[int] = None,
    n_reducers: Optional[int] = None,
    seed: int = 1,
    tracer: Optional[Tracer] = None,
    abort_after_commits: Optional[int] = None,
    manifest_extra: Optional[dict] = None,
    kernel: Optional[str] = None,
    plan=None,
    metric: Optional[str] = None,
    tier: Optional[str] = None,
) -> CheckpointedResult:
    """Detect outliers with durable per-partition commits.

    Safe to call repeatedly with the same inputs and directory: each
    call replays every journaled partition and executes only the rest.
    ``abort_after_commits`` is the in-process chaos hook — the journal
    raises :class:`~repro.recovery.journal.SimulatedCrash` after that
    many commits (see the module for the SIGKILL environment hook).
    ``manifest_extra`` is stored verbatim in the manifest for tooling
    (the CLI keeps the input path there so ``repro resume`` can reload
    it); it does not participate in run-identity validation.
    ``kernel`` picks the distance backend; it is deliberately *not* part
    of the manifest's run identity (backends are observationally
    identical by the kernel ABI's exactness contract), so a checkpoint
    written under one backend resumes cleanly under another.
    ``metric``, by contrast, *defines* the answer, so it joins the run
    identity: resuming under a different metric raises
    :class:`CheckpointMismatch` rather than mixing verdicts from two
    different distance functions.
    ``tier`` selects the detection tier; ``"auto"`` resolves against the
    cost model *before* the manifest is written, so the identity always
    records a concrete tier ("fast" joins the config the same way a
    non-default metric does — pre-existing exact checkpoints keep their
    exact config dict).  The resolution is a deterministic function of
    the dataset, so re-calling with ``"auto"`` resumes cleanly.
    ``plan`` (optional) supplies a pre-built partition plan for a
    *fresh* run — the warm-worker path of the service tier, where a
    repeat submission of the same dataset skips the sampling
    pre-processing job.  It must have been built with the same inputs
    and sizing; a resumed run ignores it in favor of the manifest's
    plan (the durable identity always wins).
    """
    cluster = cluster or ClusterConfig()
    cfg = RunConfig.resolve(
        params, strategy=strategy, detector=detector, cluster=cluster,
        n=dataset.n, n_partitions=n_partitions, n_reducers=n_reducers,
        seed=seed, kernel=kernel, metric=metric, tier=tier, plan=plan,
    )
    return _run_resolved(
        dataset, cfg, checkpoint_dir, runtime or LocalRuntime(cluster),
        tracer, abort_after_commits, manifest_extra, plan,
    )


def _run_resolved(
    dataset: Dataset,
    cfg: RunConfig,
    checkpoint_dir: str,
    runtime: LocalRuntime,
    tracer: Optional[Tracer] = None,
    abort_after_commits: Optional[int] = None,
    manifest_extra: Optional[dict] = None,
    warm_plan=None,
) -> CheckpointedResult:
    """:func:`run_checkpointed` below its keyword surface (the service
    worker resolves the config itself, to key its plan memo on it)."""
    tracer = tracer or runtime.tracer or Tracer()
    os.makedirs(checkpoint_dir, exist_ok=True)
    counters = Counters()
    prev_tracer = runtime.tracer
    runtime.tracer = tracer
    try:
        with tracer.span(
            "checkpointed_run", "run",
            checkpoint_dir=checkpoint_dir,
            r=cfg.params.r, k=cfg.params.k, n_points=dataset.n,
        ) as run_span:
            # Tier work runs before the manifest is read/written: the
            # resolved tier is part of the run identity, and the
            # certified set is a deterministic function of the dataset,
            # so a resumed run recomputes the identical demotions.
            tier_pass = run_tier_prelude(runtime, dataset, cfg)
            if tier_pass.job is not None:
                counters.merge(tier_pass.job.counters)
            result = _run(
                dataset, cfg, tier_pass, checkpoint_dir, runtime,
                counters, run_span, abort_after_commits, manifest_extra,
                warm_plan,
            )
            if tier_pass.job is not None:
                result.jobs.insert(0, tier_pass.job)
            run_span.annotate(
                resumed=result.resumed,
                partitions_replayed=len(result.replayed_partitions),
                partitions_executed=len(result.executed_partitions),
                n_outliers=len(result.outlier_ids),
            )
            annotate_tier(
                run_span, cfg.tier, tier_pass.tier, tier_pass.certification
            )
    finally:
        runtime.tracer = prev_tracer
    result.trace = run_span
    return result


# ----------------------------------------------------------------------
def _run(
    dataset, cfg: RunConfig, tier_pass: TierPass, checkpoint_dir, runtime,
    counters, run_span, abort_after_commits, manifest_extra, warm_plan,
):
    journal_path = os.path.join(checkpoint_dir, JOURNAL_FILE)
    # With the dataset fingerprint, the run identity *is* the manifest's
    # config dict (the metric and a non-exact resolved tier join only
    # when non-default, so older checkpoints stay resumable).
    config = {
        "fingerprint": dataset_fingerprint(dataset),
        **cfg.identity(tier_pass.tier),
    }
    plan, resumed = _load_or_build_plan(
        dataset, cfg, config, checkpoint_dir, journal_path, runtime,
        counters, run_span, manifest_extra, warm_plan,
    )

    committed = _replay_journal(
        journal_path, plan, counters, run_span
    ) if resumed else {}

    # Route every record once (the map side's work, paid up front so
    # replayed partitions never touch their points again).
    partition_records = {
        pid: [batch]
        for pid, batch in route(
            plan, dataset.batch(), cfg.params.r,
            tier_pass.certified, tier_pass.dropped,
        )
    }

    all_pids = [p.pid for p in plan.partitions]
    pending = [pid for pid in all_pids if pid not in committed]
    counters.incr("recovery", "partitions_total", len(all_pids))
    counters.incr("recovery", "partitions_replayed", len(committed))
    counters.incr("recovery", "partitions_executed", len(pending))

    outliers_by_pid: Dict[int, Set[int]] = {
        pid: set(outs) for pid, outs in committed.items()
    }
    jobs: List = []
    if pending:
        with ResultJournal.open_for_resume(
            journal_path, abort_after_commits=abort_after_commits
        ) as journal:
            jobs = _detect_pending(
                pending, partition_records, plan, cfg, runtime, journal,
                counters, run_span, outliers_by_pid,
            )
    for job in jobs:
        counters.merge(job.counters)

    outlier_ids: Set[int] = set()
    for outs in outliers_by_pid.values():
        outlier_ids |= outs
    return CheckpointedResult(
        outlier_ids=outlier_ids,
        outliers_by_pid=outliers_by_pid,
        replayed_partitions=sorted(committed),
        executed_partitions=sorted(pending),
        resumed=resumed,
        counters=counters,
        plan=plan,
        jobs=jobs,
        tier=tier_pass.tier,
    )


def _load_or_build_plan(
    dataset, cfg: RunConfig, config, checkpoint_dir, journal_path, runtime,
    counters, run_span, manifest_extra, warm_plan=None,
):
    """Return ``(plan, resumed)``; fresh runs write the manifest."""
    manifest_path = os.path.join(checkpoint_dir, MANIFEST_FILE)
    try:
        manifest = read_artifact(
            manifest_path, _MANIFEST_KIND, _MANIFEST_VERSION
        )
    except SnapshotError as exc:
        if exc.reason != "missing":
            counters.incr("recovery", "manifest_discarded")
            run_span.child(
                "manifest_fallback", "event", reason=exc.reason,
            ).finish(warning=str(exc))
            warnings.warn(
                f"checkpoint manifest unusable ({exc}); starting a "
                "fresh run",
                RuntimeWarning,
                stacklevel=5,
            )
        manifest = None

    if manifest is not None:
        if manifest.get("config") != config:
            raise CheckpointMismatch(
                f"{checkpoint_dir} was created by a different run "
                "(dataset, parameters, or sizing differ); use a fresh "
                "--checkpoint-dir or delete it"
            )
        return plan_from_dict(manifest["plan"]), True

    # Fresh run: clear any stale journal *before* the manifest exists,
    # so no window pairs the new manifest with old verdicts.
    if os.path.exists(journal_path):
        os.remove(journal_path)
    if warm_plan is not None:
        # A warm worker already planned this exact (dataset, params,
        # sizing); the manifest still records the plan verbatim, so the
        # resume path never depends on the caller's cache.
        plan = warm_plan
        counters.incr("recovery", "plan_reused")
        run_span.child(
            "plan_reused", "event", strategy=plan.strategy,
        ).finish()
    else:
        plan = cfg.strategy.timed_plan(
            runtime, dataset.batch(),
            cfg.plan_request(dataset.bounds),
        )
    write_artifact(
        os.path.join(checkpoint_dir, MANIFEST_FILE),
        _MANIFEST_KIND,
        _MANIFEST_VERSION,
        {
            "config": config,
            "plan": plan_to_dict(plan),
            "extra": manifest_extra or {},
        },
    )
    counters.incr("recovery", "manifest_writes")
    return plan, False


def _replay_journal(journal_path, plan, counters, run_span):
    """Committed ``pid -> outliers`` from the journal, or ``{}``."""
    known = {p.pid for p in plan.partitions}
    try:
        records, torn = ResultJournal.replay(journal_path)
    except JournalCorrupt as exc:
        counters.incr("recovery", "journal_discarded")
        run_span.child(
            "journal_fallback", "event", reason="corrupt",
        ).finish(warning=str(exc))
        warnings.warn(
            f"result journal failed validation ({exc}); re-running "
            "every partition",
            RuntimeWarning,
            stacklevel=6,
        )
        os.remove(journal_path)
        return {}
    committed: Dict[int, List[int]] = {}
    for record in records:
        if record.get("kind") != "partition":
            continue
        pid = int(record["pid"])
        if pid not in known:
            continue
        committed[pid] = [int(x) for x in record["outliers"]]
    if torn:
        counters.incr("recovery", "torn_tail_dropped")
    counters.incr("recovery", "journal_replays")
    span = run_span.child(
        "journal_replay", "event",
        partitions=sorted(committed), torn_tail=torn,
    )
    span.finish()
    return committed


def _detect_pending(
    pending, partition_records, plan, cfg: RunConfig, runtime, journal,
    counters, run_span, outliers_by_pid,
):
    """Run the routed detection job over uncommitted partitions,
    journaling each reduce task's partitions as the task commits."""

    def on_commit(task_id, owned, outs) -> None:
        _commit_partitions(
            journal, outs, owned, counters, run_span, task_id=task_id
        )
        for pid in owned:
            outliers_by_pid[pid] = set(outs.get(pid, ()))

    result = run_routed(
        runtime, "ckpt", cfg, plan, partition_records, pending, on_commit
    )
    if result is not None:
        return [result]
    # Only empty partitions left: their verdicts are vacuous, but each
    # is still a durable commit (and a chaos boundary).
    for pid in sorted(pending):
        on_commit(None, [pid], {})
    return []


def _commit_partitions(
    journal, outs, owned, counters, run_span, task_id
):
    """Journal the verdicts of the partitions one reduce task owned."""
    span = run_span.child(
        "journal_commit", "event",
        partitions=sorted(owned),
    )
    if task_id is not None:
        span.annotate(task_id=task_id)
    try:
        for pid in sorted(owned):
            journal.append(
                "partition",
                pid=int(pid),
                outliers=sorted(int(x) for x in outs.get(pid, ())),
            )
            counters.incr("recovery", "journal_commits")
    finally:
        span.finish()
