"""Command-line interface.

Subcommands::

    python -m repro generate --kind state --name MA -n 30000 -o data.csv
    python -m repro detect data.csv -r 2.0 -k 12 --strategy DMT -o out.json
    python -m repro detect data.csv -r 2.0 -k 12 --trace-out run.jsonl
    python -m repro detect data.csv -r 2.0 -k 12 --workers 4
    python -m repro detect data.csv -r 2.0 -k 12 --kernel python
    python -m repro detect data.csv -r 2.0 -k 12 --append day2.csv
    python -m repro detect data.csv -r 2.0 -k 12 --checkpoint-dir ckpt/
    python -m repro resume ckpt/
    python -m repro stream data.csv -r 2.0 -k 12 --batch-size 500
    python -m repro stream data.csv -r 2.0 -k 12 --snapshot state.json
    python -m repro serve --spool spool/ --workers 4
    python -m repro submit data.csv -r 2.0 -k 12 --spool spool/ --tenant acme
    python -m repro status 3 --spool spool/
    python -m repro result 3 --spool spool/ --timeout 60
    python -m repro cancel 3 --spool spool/
    python -m repro clean-shm --dry-run
    python -m repro trace run.jsonl
    python -m repro plan data.csv -r 2.0 -k 12 --strategy DMT -o plan.json
    python -m repro info data.csv

Exit codes: 0 success, 2 usage or input error (an invalid flag value
included), 3 transient service condition (queue full, result timeout).

The run flags are declared once (``_RUN_FLAGS``) and every command turns
its flags into the library's own values before it reads any input
(``_configure``): a value is legal exactly when the library accepts it.

CSV format: one point per line, ``x,y[,z...]``; an optional leading
``id`` column is accepted with ``--with-ids``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import data as datagen
from .core import Dataset, detect_outliers
from .core.config import RunConfig
from .kernels import DEFAULT_KERNEL, KERNEL_CHOICES
from .metrics import DEFAULT_METRIC, METRIC_CHOICES, MetricUnsupported
from .mapreduce import (
    ClusterConfig,
    LocalRuntime,
    SchedulerConfig,
    make_runtime,
)
from .observability import RunReport, render_report
from .observability.report import DEFAULT_STRAGGLER_THRESHOLD
from .params import OutlierParams
from .partitioning import save_plan
from .tiers import DEFAULT_TIER, TIER_CHOICES

__all__ = ["main", "CLIError"]


class CLIError(Exception):
    """A user-facing failure: printed as ``error: ...``, exit code 2.

    The boundary between "the tool is broken" (traceback, please file a
    bug) and "the invocation is wrong or the input is bad" (clear
    message, no traceback).
    """


#: What the library raises for a value it refuses.
_REFUSED = (ValueError, MetricUnsupported)

#: ``RunConfig.resolve``'s own defaults, quoted by the help text.
_DEFAULTS = {
    name: param.default
    for name, param in inspect.signature(RunConfig.resolve).parameters.items()
}

#: The scheduler flags and the ``SchedulerConfig`` field each one sets;
#: an unset flag stays ``None`` and the field keeps its default.
_SCHEDULER_FLAGS = {
    "max_attempts": "max_attempts",
    "timeout": "timeout",
    "backoff": "backoff_base",
    "speculate": "speculate",
    "straggler_threshold": "speculation_threshold",
}
#: ``SchedulerConfig``'s own defaults, quoted by the help text.
_SCHEDULER_DEFAULTS = SchedulerConfig()

#: The run flags, each declared here once and named like the
#: ``RunConfig.resolve`` keyword it sets.  An unset flag stays ``None``
#: and is not passed on, so every default is the library's.
_RUN_FLAGS = {
    "strategy": dict(
        help=f"partitioning strategy (default {_DEFAULTS['strategy']})"
    ),
    "detector": dict(
        help="centralized detector; plans that choose one per partition "
             "by the cost model (DMT, CDriven) use it only as a fallback "
             f"(default {_DEFAULTS['detector']})"
    ),
    "seed": dict(
        type=int,
        help=f"sampling and scan seed (default {_DEFAULTS['seed']})",
    ),
    "kernel": dict(
        choices=list(KERNEL_CHOICES),
        help="distance backend for scan-based detectors ('python' scalar "
             "oracle, 'numpy' vectorized); results are identical, only "
             f"wall time changes (default {DEFAULT_KERNEL})",
    ),
    "metric": dict(
        metavar="SPEC",
        help="distance metric: " + ", ".join(METRIC_CHOICES)
             + "; minkowski takes 'minkowski:P' (e.g. minkowski:1 for "
             "Manhattan). Unlike --kernel this changes the answer: "
             "non-Euclidean runs use metric-safe pivot partitioning and "
             f"require a metric-generic detector (default {DEFAULT_METRIC})",
    ),
    "tier": dict(
        choices=list(TIER_CHOICES),
        help="detection tier: 'exact' runs the full machinery, 'fast' "
             "prepends a sensitivity-sampled certification pass "
             "(identical outlier set, less exact work), 'auto' picks via "
             f"the cost model (default {DEFAULT_TIER}; "
             "a submitted job takes its lane's: fast for interactive, "
             "exact for batch)",
    ),
}


class _InputReader:
    """Reads one command's CSV inputs; ``quarantined`` counts the rows
    ``--quarantine-out`` diverted across all of them."""

    def __init__(self, with_ids: bool, quarantine_out: str | None = None):
        self.with_ids = with_ids
        self.quarantine_out = quarantine_out
        self.quarantined = 0

    def load(self, path: str) -> Dataset:
        from .data.io import _read_table, _table_dataset

        try:
            raw, mask = _read_table(
                path, self.with_ids,
                source=sys.stdin if path == "-" else path,
            )
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        n_bad = int((~mask).sum())
        if n_bad:
            if self.quarantine_out is None:
                raise CLIError(
                    f"{path}: {n_bad} rows have NaN/inf coordinates; fix "
                    "the input or pass --quarantine-out FILE to divert "
                    "them and continue"
                )
            # One file per command: its first diverted rows replace what
            # an earlier command left there, later inputs' rows follow.
            mode = "a" if self.quarantined else "w"
            with open(self.quarantine_out, mode) as f:
                np.savetxt(f, raw[~mask], delimiter=",", fmt="%.8g")
            self.quarantined += n_bad
            print(
                f"quarantined {n_bad} rows with non-finite coordinates "
                f"-> {self.quarantine_out}",
                file=sys.stderr,
            )
            raw = raw[mask]
            if raw.shape[0] == 0:
                raise CLIError(f"{path}: every row was quarantined")
        return _table_dataset(raw, self.with_ids)


@dataclass(frozen=True)
class _Setup:
    """One command's flags as the library's values."""

    params: OutlierParams
    cluster: ClusterConfig
    #: The run flags that were set, as ``RunConfig.resolve`` keywords.
    flags: dict
    cfg: RunConfig
    #: ``None`` for commands without the scheduler flags.
    scheduler: SchedulerConfig | None
    reader: _InputReader


def _configure(args: argparse.Namespace, **fixed) -> _Setup:
    """Build the library's values from the command's flags, once.

    Runs before any input is read or the spool is opened, so every
    rejection is the library's own check, raised as a :class:`CLIError`.
    ``fixed`` holds the ``RunConfig.resolve`` keywords the command
    decides itself.
    """
    flags = {
        name: getattr(args, name)
        for name in _RUN_FLAGS
        if getattr(args, name, None) is not None
    }
    try:
        params = OutlierParams(r=args.r, k=args.k)
        cluster = ClusterConfig(nodes=args.nodes)
        cfg = RunConfig.resolve(
            params, cluster=cluster, **{**flags, **fixed}
        )
        scheduler = None
        if hasattr(args, "max_attempts"):
            scheduler = SchedulerConfig(seed=cfg.seed, **{
                field: getattr(args, flag)
                for flag, field in _SCHEDULER_FLAGS.items()
                if getattr(args, flag) is not None
            })
    except _REFUSED as exc:
        raise CLIError(str(exc)) from exc
    reader = _InputReader(args.with_ids, getattr(args, "quarantine_out", None))
    return _Setup(params, cluster, flags, cfg, scheduler, reader)


_NEGATIVE_WORKERS = "--workers must be >= 0 (0 = serial in-process execution)"


def _validate_runtime_flags(args) -> None:
    """The runtime-flag rules no library value can see.

    Every broken rule is reported together in one :class:`CLIError`; a
    warning goes to stderr and the run proceeds.
    """
    errors: list[str] = []
    if args.workers < 0:
        errors.append(_NEGATIVE_WORKERS)
    if args.speculate and args.workers <= 0:
        errors.append(
            "--speculate requires --workers > 0: the serial runtime "
            "runs one attempt at a time, so a duplicate straggler "
            "attempt could never overlap the original"
        )
    # SchedulerConfig refuses this too; here it is reported with its peers.
    if args.timeout is not None and args.timeout <= 0:
        errors.append("--timeout must be positive")
    if errors:
        raise CLIError("\nerror: ".join(errors))
    if args.speculate and args.timeout is None:
        print(
            "warning: --speculate without --timeout: stragglers are "
            "duplicated once detected, but a hung original attempt is "
            "never reaped; consider adding --timeout",
            file=sys.stderr,
        )


def _build_runtime(args: argparse.Namespace, setup: _Setup):
    return make_runtime(
        setup.cluster, workers=args.workers, scheduler=setup.scheduler
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "state":
        dataset = datagen.state_dataset(args.name, n=args.n,
                                        seed=args.seed)
    elif args.kind == "region":
        dataset = datagen.region_dataset(args.name, base_n=args.n,
                                         seed=args.seed)
    elif args.kind == "tiger":
        dataset = datagen.tiger_like(n=args.n, seed=args.seed)
    elif args.kind == "uniform":
        dataset = datagen.density_dataset(args.n, args.density,
                                          seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.kind)
    np.savetxt(args.output, dataset.points, delimiter=",", fmt="%.8g")
    print(f"wrote {dataset.n} points to {args.output}")
    return 0


def _write_report(report: dict, output: str | None) -> None:
    from .recovery import write_atomic

    text = json.dumps(report, indent=2)
    if output:
        write_atomic(output, [text.encode("utf-8")])
        print(f"{report['n_outliers']} outliers -> {output}")
    else:
        print(text)


def _cmd_detect(args: argparse.Namespace) -> int:
    _validate_runtime_flags(args)
    if args.checkpoint_dir and args.append:
        raise CLIError(
            "--checkpoint-dir journals a single detection run; it "
            "cannot be combined with --append (snapshot the stream "
            "with 'repro stream --snapshot' instead)"
        )
    setup = _configure(args)
    if args.checkpoint_dir:
        return _run_checkpointed_cli(args, setup)
    if args.append:
        return _detect_append(args, setup)
    dataset = setup.reader.load(args.input)
    with _build_runtime(args, setup) as runtime:
        result = detect_outliers(
            dataset, setup.params, cluster=setup.cluster, runtime=runtime,
            **setup.flags,
        )
    report = {
        "n_points": dataset.n,
        "params": {"r": setup.params.r, "k": setup.params.k},
        "strategy": result.strategy,
        # The backend the run resolved and recorded on its root span.
        "kernel": result.trace.attrs["kernel"],
        "metric": setup.cfg.metric or "euclidean",
        "tier": result.tier,
        "outliers": sorted(result.outlier_ids),
        "n_outliers": len(result.outlier_ids),
        "detector_usage": result.run.detector_usage,
        "breakdown_seconds": result.breakdown(),
        "load_imbalance": result.load_imbalance,
    }
    if result.certification is not None:
        report["tier_certified"] = result.certification.certified
        report["tier_bound"] = result.certification.bound
        report["residue_fraction"] = result.certification.residue_fraction
        report["tier_dropped"] = result.certification.dropped
    if args.quarantine_out:
        report["rows_quarantined"] = setup.reader.quarantined
    if args.trace_out:
        threshold = args.straggler_threshold
        run_report = result.report(
            DEFAULT_STRAGGLER_THRESHOLD if threshold is None else threshold
        )
        run_report.save(args.trace_out)
        print(f"trace report -> {args.trace_out}")
    _write_report(report, args.output)
    return 0


def _checkpoint_report(result, setup: _Setup) -> dict:
    report = {
        "params": {"r": setup.params.r, "k": setup.params.k},
        "outliers": sorted(result.outlier_ids),
        "n_outliers": len(result.outlier_ids),
        "resumed": result.resumed,
        "partitions_replayed": result.replayed_partitions,
        "partitions_executed": result.executed_partitions,
        "recovery": result.counters.group("recovery"),
        "metric": setup.cfg.metric or "euclidean",
        "tier": getattr(result, "tier", "exact"),
    }
    tier_counters = result.counters.group("tier")
    if tier_counters:
        report["tier_counters"] = tier_counters
    if setup.reader.quarantined:
        report["rows_quarantined"] = setup.reader.quarantined
    return report


def _run_checkpointed_cli(args, setup: _Setup) -> int:
    """Shared driver behind ``detect --checkpoint-dir`` and ``resume``."""
    from .recovery import CheckpointMismatch, run_checkpointed

    dataset = setup.reader.load(args.input)
    try:
        with _build_runtime(args, setup) as runtime:
            result = run_checkpointed(
                dataset, setup.params, args.checkpoint_dir,
                runtime=runtime, cluster=setup.cluster,
                **setup.flags,
                manifest_extra={
                    "input": args.input,
                    "with_ids": bool(args.with_ids),
                    "nodes": int(args.nodes),
                },
            )
    except CheckpointMismatch as exc:
        raise CLIError(str(exc)) from exc
    if result.resumed:
        print(
            f"resumed: {len(result.replayed_partitions)} partitions "
            f"replayed from the journal, "
            f"{len(result.executed_partitions)} re-executed",
            file=sys.stderr,
        )
    _write_report(_checkpoint_report(result, setup), args.output)
    return 0


#: What ``RunConfig.identity`` leaves out of a manifest's config when it
#: is the default.
_IDENTITY_OMITS = {"metric": "euclidean", "tier": "exact"}


def _cmd_resume(args: argparse.Namespace) -> int:
    """Finish an interrupted ``detect --checkpoint-dir`` run."""
    from .recovery import SnapshotError, read_manifest

    _validate_runtime_flags(args)
    try:
        manifest = read_manifest(args.checkpoint_dir)
    except SnapshotError as exc:
        raise CLIError(
            f"no resumable checkpoint: {exc}; run "
            "'repro detect --checkpoint-dir' first"
        ) from exc
    config = manifest["config"]
    extra = manifest.get("extra") or {}
    if "input" not in extra:
        raise CLIError(
            f"{args.checkpoint_dir}: manifest has no input path "
            "(checkpoint written by the library API, not the CLI); "
            "re-run via run_checkpointed() with the original dataset"
        )
    ns = argparse.Namespace(**vars(args))
    ns.input = extra["input"]
    ns.with_ids = bool(extra.get("with_ids", False))
    ns.nodes = int(extra.get("nodes", 4))
    ns.r = float(config["r"])
    ns.k = int(config["k"])
    # The run flags resume does not offer are run identity: the
    # manifest's record wins, so a resume never re-detects under another
    # strategy, distance or tier.
    for name in _RUN_FLAGS.keys() - vars(args).keys():
        setattr(ns, name, config.get(name, _IDENTITY_OMITS.get(name)))
    return _run_checkpointed_cli(ns, _configure(ns))


def _open_stream(args, setup: _Setup, runtime):
    """A fresh streaming detector, or the one ``--snapshot`` restores."""
    from .streaming import StreamingDetector

    kwargs = dict(
        runtime=runtime, cluster=setup.cluster,
        drift_threshold=args.drift_threshold, **setup.flags,
    )
    snapshot = getattr(args, "snapshot", None)
    try:
        if snapshot:
            return StreamingDetector.restore(
                snapshot, setup.params, **kwargs
            )
        return StreamingDetector(setup.params, **kwargs)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _batch_summary(report) -> dict:
    return {
        "batch": report.batch_index,
        "points": report.n_points,
        "points_seen": report.n_seen,
        "dirty_partitions": report.dirty_partitions,
        "total_partitions": report.total_partitions,
        "dirty_ratio": report.dirty_ratio,
        "cache_hit": report.cache_hit,
        "invalidation_reason": report.invalidation_reason,
        "n_outliers": len(report.outlier_ids),
        "wall_seconds": report.wall_seconds,
    }


def _stream_report(detector, setup: _Setup, batches: list) -> dict:
    report = {
        "n_points": detector.n_seen,
        "params": {"r": setup.params.r, "k": setup.params.k},
        "strategy": detector.strategy.name,
        "metric": detector.metric or "euclidean",
        "tier": detector.tier,
        "outliers": sorted(detector.outlier_ids),
        "n_outliers": len(detector.outlier_ids),
        "batches": batches,
        "streaming": detector.counters.group("streaming"),
    }
    if setup.reader.quarantined:
        report["rows_quarantined"] = setup.reader.quarantined
    return report


def _detect_append(args: argparse.Namespace, setup: _Setup) -> int:
    """``detect --append``: initial detection + incremental batches."""
    with _build_runtime(args, setup) as runtime:
        detector = _open_stream(args, setup, runtime)
        dataset = setup.reader.load(args.input)
        batches = [_batch_summary(detector.ingest(dataset))]
        for path in args.append:
            batch = setup.reader.load(path)
            try:
                if args.with_ids:
                    report = detector.ingest(batch)
                else:
                    report = detector.ingest_points(batch.points)
            except ValueError as exc:
                # Dimension mismatches and id reuse between the prior
                # state and the appended batch arrive as ValueError.
                raise CLIError(f"cannot append {path}: {exc}") from exc
            batches.append(_batch_summary(report))
            print(
                f"appended {path}: +{report.n_points} points, "
                f"{report.dirty_partitions}/{report.total_partitions} "
                "partitions re-detected",
                file=sys.stderr,
            )
        _write_report(_stream_report(detector, setup, batches), args.output)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    _validate_runtime_flags(args)
    if args.batch_size < 1:
        raise CLIError("--batch-size must be >= 1")
    setup = _configure(args)
    with _build_runtime(args, setup) as runtime:
        detector = _open_stream(args, setup, runtime)
        dataset = setup.reader.load(args.input)
        return _stream_batches(args, setup, detector, dataset)


def _stream_batches(args, setup: _Setup, detector, dataset) -> int:
    resumed = detector.n_seen > 0
    if resumed:
        print(
            f"resumed stream from {args.snapshot}: "
            f"{detector.n_seen} points, "
            f"{len(detector.outlier_ids)} outliers",
            file=sys.stderr,
        )
    n_initial = (
        args.initial if args.initial is not None else args.batch_size
    )
    n_initial = max(1, min(n_initial, dataset.n))
    cuts = [0, n_initial]
    while cuts[-1] < dataset.n:
        cuts.append(min(dataset.n, cuts[-1] + args.batch_size))
    batches = []
    # Auto-numbered ids must continue the resumed stream's sequence; a
    # file's own ids (--with-ids) are kept as they are.
    renumber = resumed and not args.with_ids
    for lo, hi in zip(cuts, cuts[1:]):
        batch = dataset.subset(np.arange(lo, hi))
        try:
            if renumber:
                report = detector.ingest_points(batch.points)
            else:
                report = detector.ingest(batch)
        except ValueError as exc:
            stream = "the resumed stream" if resumed else "the stream"
            raise CLIError(
                f"cannot ingest batch into {stream}: {exc}"
            ) from exc
        if args.snapshot:
            detector.save(args.snapshot)
        batches.append(_batch_summary(report))
        status = (
            "hit" if report.cache_hit
            else f"rebuild({report.invalidation_reason or 'initial'})"
        )
        print(
            f"batch {report.batch_index}: +{report.n_points} pts "
            f"(total {report.n_seen}), dirty "
            f"{report.dirty_partitions}/{report.total_partitions} "
            f"({report.dirty_ratio:.0%}), plan {status}, "
            f"outliers {len(report.outlier_ids)}",
            file=sys.stderr,
        )
    _write_report(_stream_report(detector, setup, batches), args.output)
    return 0


def _cmd_clean_shm(args: argparse.Namespace) -> int:
    """Sweep stale repo-prefixed /dev/shm segments (post-SIGKILL)."""
    from .mapreduce import clean_stale_segments, stale_segments

    if args.min_age < 0:
        raise CLIError("--min-age must be >= 0")
    if args.dry_run:
        victims = stale_segments(args.min_age)
        verb = "would remove"
    else:
        victims = clean_stale_segments(args.min_age)
        verb = "removed"
    for victim in victims:
        print(
            f"{verb} {victim['name']} "
            f"({victim['bytes']} bytes, "
            f"idle {victim['age_seconds']:.0f}s)"
        )
    total = sum(v["bytes"] for v in victims)
    print(f"{verb} {len(victims)} stale segments, {total} bytes")
    return 0


#: Exit code for transient service conditions: the request was valid
#: but the service cannot take or answer it *right now* (queue at its
#: backpressure bound, result timeout).  Distinct from 2 (usage/input
#: error) so callers can retry-with-backoff on 3 and not on 2.
EXIT_BACKPRESSURE = 3


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    if args.workers < 1:
        raise CLIError("--workers must be >= 1")

    def log(message: str) -> None:
        print(f"serve: {message}", file=sys.stderr)

    watermark = args.disk_low_watermark_mb
    return serve(
        args.spool,
        workers=args.workers,
        drain=args.drain,
        max_seconds=args.max_seconds,
        max_depth=args.max_depth,
        tenant_max_inflight=args.tenant_max_inflight,
        boost_after=args.boost_after,
        max_attempts=args.max_attempts,
        requeue_backoff=args.requeue_backoff,
        ttl_seconds=args.ttl,
        disk_low_watermark_bytes=(
            None if watermark is None else int(watermark * 1024 * 1024)
        ),
        log=log,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import QueueFull, ServiceClient, ServiceError
    from .service.worker import _lane_tier

    if not os.path.exists(args.input):
        raise CLIError(f"input file not found: {args.input}")
    if args.workers < 0:
        raise CLIError(_NEGATIVE_WORKERS)
    # Checked under the tier the job will run at; the spec keeps only
    # the flags that were set, so an unset tier stays the lane's.
    setup = _configure(args, tier=args.tier or _lane_tier(args.lane))
    with ServiceClient(args.spool) as client:
        try:
            job_id = client.submit(
                args.input, r=args.r, k=args.k, tenant=args.tenant,
                lane=args.lane, nodes=args.nodes, workers=args.workers,
                with_ids=args.with_ids,
                **setup.flags,
            )
        except QueueFull as exc:
            # Explicit backpressure: fail fast, tell the caller to
            # retry later — never hang waiting for space.
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BACKPRESSURE
        except ServiceError as exc:
            raise CLIError(str(exc)) from exc
        print(job_id)
        if args.wait is not None:
            return _await_result(client, job_id, args.wait, args.output)
    return 0


def _await_result(client, job_id: int, timeout, output) -> int:
    from .service import (
        JobDeadlineExceeded,
        JobExpired,
        JobFailed,
        JobTimeout,
    )

    try:
        report = client.result(
            job_id, timeout=timeout if timeout > 0 else None
        )
    except JobTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKPRESSURE
    except (JobDeadlineExceeded, JobExpired, JobFailed) as exc:
        raise CLIError(str(exc)) from exc
    _write_report(report, output)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import JobNotFound, ServiceClient

    with ServiceClient(args.spool) as client:
        if args.tenant is not None:
            if args.job_id is not None:
                raise CLIError(
                    "--tenant shows per-tenant rates for the whole "
                    "queue; drop the job id"
                )
            tenant = None if args.tenant == "*" else args.tenant
            stats = client.tenant_stats(tenant)
            if tenant is not None and tenant not in stats:
                raise CLIError(
                    f"tenant {tenant!r} has no jobs in this spool"
                )
            print(json.dumps(stats, indent=2))
            return 0
        if args.job_id is None:
            print(json.dumps(client.queue_stats(), indent=2))
            return 0
        try:
            job = client.status(args.job_id)
        except JobNotFound as exc:
            raise CLIError(str(exc)) from exc
    view = {
        key: job.get(key)
        for key in (
            "id", "tenant", "lane_name", "state", "cancel_requested",
            "attempts", "failure_kind", "submitted_at", "started_at",
            "finished_at", "queue_wait_seconds", "owner_pid", "error",
        )
        if job.get(key) is not None or key in ("state", "error")
    }
    print(json.dumps(view, indent=2))
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    from .service import JobNotFound, ServiceClient

    with ServiceClient(args.spool) as client:
        try:
            return _await_result(
                client, args.job_id, args.timeout, args.output
            )
        except JobNotFound as exc:
            raise CLIError(str(exc)) from exc


def _cmd_cancel(args: argparse.Namespace) -> int:
    from .service import JobNotFound, ServiceClient

    with ServiceClient(args.spool) as client:
        try:
            state = client.cancel(args.job_id)
        except JobNotFound as exc:
            raise CLIError(str(exc)) from exc
    print(f"job {args.job_id}: {state}")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    with ServiceClient(args.spool) as client:
        health = client.health()
    print(json.dumps(health, indent=2))
    # Degraded is a transient service condition, not a usage error:
    # exit 3 so wrappers can alert/back off, matching submit's contract.
    return 0 if health["ok"] else EXIT_BACKPRESSURE


def _cmd_gc(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    if args.ttl is not None and args.ttl < 0:
        raise CLIError("--ttl must be >= 0 seconds")
    with ServiceClient(args.spool) as client:
        if args.ttl is None:
            configured = client.queue_stats()["config"]["ttl_seconds"]
            if configured is None:
                raise CLIError(
                    "no retention TTL: pass --ttl SECONDS or configure "
                    "the spool with 'repro serve --ttl'"
                )
        swept = client.store.sweep_expired(
            ttl_seconds=args.ttl,
            include_quarantined=args.include_quarantined,
            dry_run=args.dry_run,
        )
    verb = "would reap" if args.dry_run else "reaped"
    for job_id in swept:
        print(f"{verb} job {job_id}")
    print(f"{verb} {len(swept)} settled job(s)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    report = RunReport.load(args.input)
    print(render_report(report))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    setup = _configure(
        args, n_partitions=args.partitions, n_reducers=args.reducers,
    )
    dataset = setup.reader.load(args.input)
    cfg = setup.cfg.sized(dataset.n)
    plan = cfg.strategy.timed_plan(
        LocalRuntime(setup.cluster), dataset.batch(),
        cfg.plan_request(dataset.bounds),
    )
    save_plan(plan, args.output)
    print(
        f"{plan.n_partitions} partitions "
        f"({plan.strategy}) -> {args.output}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = _InputReader(args.with_ids).load(args.input)
    bounds = dataset.bounds
    print(f"points:  {dataset.n}")
    print(f"dims:    {dataset.ndim}")
    print(f"bounds:  {list(bounds.low)} .. {list(bounds.high)}")
    print(f"area:    {bounds.area:.6g}")
    print(f"density: {dataset.density:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-tactic distance-based outlier detection (DOD).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--kind", choices=["state", "region", "tiger",
                                        "uniform"], default="state")
    gen.add_argument("--name", default="MA",
                     help="state/region name (state, region kinds)")
    gen.add_argument("-n", type=int, default=30_000)
    gen.add_argument("--density", type=float, default=1.0,
                     help="points per unit area (uniform kind)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    def add_common(p):
        p.add_argument("input", help="CSV of points")
        p.add_argument("--with-ids", action="store_true",
                       help="first CSV column is the point id")
        p.add_argument("-r", type=float, required=True,
                       help="distance threshold")
        p.add_argument("-k", type=int, required=True,
                       help="neighbor-count threshold")
        p.add_argument("--nodes", type=int, default=4)

    def add_run_flags(p, *names):
        for name in names or _RUN_FLAGS:
            p.add_argument(f"--{name}", **_RUN_FLAGS[name])

    def add_quarantine_flag(p):
        p.add_argument("--quarantine-out", metavar="CSV", default=None,
                       help="divert rows with NaN/inf coordinates to "
                            "this CSV and continue (default: such rows "
                            "are an error)")

    def add_runtime_flags(p):
        sched = _SCHEDULER_DEFAULTS
        p.add_argument("--straggler-threshold", type=float,
                       help="flag tasks costing more than this multiple "
                            "of the phase median (default "
                            f"{sched.speculation_threshold}); also the "
                            "speculation trigger with --speculate")
        p.add_argument("--workers", type=int, default=0,
                       help="run tasks in this many worker processes "
                            "(0 = serial in-process execution)")
        p.add_argument("--max-attempts", type=int,
                       help="attempts per task; a task that fails them "
                            "all fails the run (default "
                            f"{sched.max_attempts})")
        p.add_argument("--timeout", type=float,
                       help="per-attempt wall-clock timeout in seconds "
                            f"(default: {sched.timeout or 'none'})")
        p.add_argument("--backoff", type=float,
                       help="base delay before the first retry, doubling "
                            "per retry with seeded jitter (default "
                            f"{sched.backoff_base:g} = retry immediately)")
        p.add_argument("--speculate", action="store_true", default=None,
                       help="launch duplicate attempts for straggler "
                            "tasks (needs --workers > 0)")

    det = sub.add_parser("detect", help="run the detection pipeline")
    add_common(det)
    add_run_flags(det)
    add_quarantine_flag(det)
    det.add_argument("-o", "--output", help="write JSON report here")
    det.add_argument("--trace-out", metavar="PATH",
                     help="write the JSONL run report (spans, reducer "
                          "loads, skew, stragglers) here")
    det.add_argument("--append", metavar="CSV", action="append",
                     default=[],
                     help="after the initial detection, ingest this CSV "
                          "as an incremental micro-batch (repeatable); "
                          "only the partitions it dirties are re-run")
    det.add_argument("--drift-threshold", type=float, default=0.25,
                     help="density drift (total-variation distance) that "
                          "invalidates the cached partition plan with "
                          "--append (default 0.25)")
    det.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                     help="journal every partition verdict to DIR; a run "
                          "killed mid-flight is finished by 'repro "
                          "resume DIR' (replays committed partitions, "
                          "re-runs only the rest)")
    add_runtime_flags(det)
    det.set_defaults(func=_cmd_detect)

    resume = sub.add_parser(
        "resume",
        help="finish an interrupted 'detect --checkpoint-dir' run: "
             "replay journaled partitions, re-run the rest",
    )
    resume.add_argument("checkpoint_dir",
                        help="checkpoint directory of the killed run")
    resume.add_argument("-o", "--output",
                        help="write JSON report here")
    # Only --kernel: the other run flags are run identity, read from
    # the manifest, so a resume never re-detects under another distance.
    add_run_flags(resume, "kernel")
    add_runtime_flags(resume)
    resume.set_defaults(func=_cmd_resume)

    stream = sub.add_parser(
        "stream",
        help="incremental detection over micro-batches of a CSV (or "
             "stdin with '-'); re-runs only dirty partitions per batch",
    )
    add_common(stream)
    add_run_flags(stream)
    add_quarantine_flag(stream)
    stream.add_argument("--batch-size", type=int, default=500,
                        help="points per micro-batch (default 500)")
    stream.add_argument("--initial", type=int, default=None,
                        help="size of the initial bulk-load batch "
                             "(default: --batch-size)")
    stream.add_argument("--drift-threshold", type=float, default=0.25,
                        help="density drift (total-variation distance) "
                             "that invalidates the cached partition plan "
                             "(default 0.25)")
    stream.add_argument("-o", "--output",
                        help="write the final JSON report here")
    stream.add_argument("--snapshot", metavar="PATH", default=None,
                        help="persist the stream state here after every "
                             "batch; an existing snapshot is restored "
                             "first, so a killed stream resumes where "
                             "it stopped (corrupt snapshots fall back "
                             "to a clean start)")
    add_runtime_flags(stream)
    stream.set_defaults(func=_cmd_stream)

    def add_spool_flag(p):
        from .service.store import default_spool

        p.add_argument("--spool", metavar="DIR",
                       default=default_spool(),
                       help="service spool directory holding the job "
                            "queue, checkpoints, and results (default "
                            "./.repro-service)")

    serve = sub.add_parser(
        "serve",
        help="run the detection service: a worker pool over a durable "
             "job queue; submit work with 'repro submit'",
    )
    add_spool_flag(serve)
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes in the pool (default 2)")
    serve.add_argument("--drain", action="store_true",
                       help="exit once every queued job has settled "
                            "(batch mode; default: serve forever)")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="hard wall-clock bound; exits 3 if work "
                            "remains (liveness backstop)")
    serve.add_argument("--max-depth", type=int, default=None,
                       help="queue depth bound: submits past it are "
                            "rejected with QueueFull (default 64)")
    serve.add_argument("--tenant-max-inflight", type=int, default=None,
                       help="per-tenant queued+running quota "
                            "(default 8)")
    serve.add_argument("--boost-after", type=int, default=None,
                       help="serve a starved lane after it was passed "
                            "over this many times (default 4)")
    serve.add_argument("--max-attempts", type=int, default=None,
                       help="retry budget: a job whose workers died "
                            "this many times is quarantined instead of "
                            "re-queued (default 10; 0 disables)")
    serve.add_argument("--requeue-backoff", type=float, default=None,
                       metavar="SECONDS",
                       help="base hold before an orphaned job may be "
                            "re-claimed, doubling per attempt "
                            "(default 0: immediate)")
    serve.add_argument("--ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="retention TTL: settled jobs older than "
                            "this are tombstoned and their spool dirs "
                            "reaped (default: keep forever)")
    serve.add_argument("--disk-low-watermark-mb", type=float,
                       default=None, metavar="MB",
                       help="degrade (reject submissions) when the "
                            "spool volume's free space drops below "
                            "this; lifts at 2x (default: disabled)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="queue a detection job on the service; prints its job id",
    )
    add_common(submit)
    add_run_flags(submit)
    add_spool_flag(submit)
    submit.add_argument("--tenant", default="default",
                        help="tenant the job is accounted to "
                             "(admission quotas are per tenant)")
    submit.add_argument("--lane", choices=["interactive", "batch"],
                        default="batch",
                        help="priority lane: interactive beats batch, "
                             "FIFO within a lane (default batch)")
    submit.add_argument("--workers", type=int, default=0,
                        help="worker processes the job's runtime uses "
                             "(0 = serial)")
    submit.add_argument("--wait", type=float, metavar="SECONDS",
                        default=None,
                        help="block for the result up to SECONDS "
                             "(0 = forever); default: return "
                             "immediately after queueing")
    submit.add_argument("-o", "--output",
                        help="with --wait: write the result JSON here")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status",
        help="show one job's state, or the queue's shape without an id",
    )
    status.add_argument("job_id", nargs="?", type=int, default=None)
    add_spool_flag(status)
    status.add_argument("--tenant", nargs="?", const="*", default=None,
                        metavar="NAME",
                        help="per-tenant rates instead: submitted/done/"
                             "failed/quarantined counts and queue-wait "
                             "p50/p95 (bare --tenant shows every "
                             "tenant)")
    status.set_defaults(func=_cmd_status)

    result = sub.add_parser(
        "result", help="fetch (and wait for) a submitted job's report"
    )
    result.add_argument("job_id", type=int)
    add_spool_flag(result)
    result.add_argument("--timeout", type=float, default=60.0,
                        help="seconds to wait for the job to settle "
                             "(0 = forever; default 60)")
    result.add_argument("-o", "--output",
                        help="write the result JSON here")
    result.set_defaults(func=_cmd_result)

    cancel = sub.add_parser(
        "cancel",
        help="cancel a job: queued jobs immediately, running jobs "
             "cooperatively at their next commit",
    )
    cancel.add_argument("job_id", type=int)
    add_spool_flag(cancel)
    cancel.set_defaults(func=_cmd_cancel)

    health = sub.add_parser(
        "health",
        help="service health: queue depths per lane, worker liveness, "
             "degrade state, quarantine count (exit 3 when degraded)",
    )
    add_spool_flag(health)
    health.set_defaults(func=_cmd_health)

    gc = sub.add_parser(
        "gc",
        help="reap settled jobs past the retention TTL: tombstone the "
             "row (status/result answer 'expired'), remove the spool "
             "dir",
    )
    add_spool_flag(gc)
    gc.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                    help="retention age override; default: the spool's "
                         "configured ttl (error if neither is set)")
    gc.add_argument("--include-quarantined", action="store_true",
                    help="also reap quarantined jobs (their journals "
                         "are otherwise kept for post-mortem)")
    gc.add_argument("--dry-run", action="store_true",
                    help="list what would be reaped without touching "
                         "rows or directories")
    gc.set_defaults(func=_cmd_gc)

    clean = sub.add_parser(
        "clean-shm",
        help="remove orphaned shared-memory segments left in /dev/shm "
             "by killed runs (runtime exits sweep their own)",
    )
    clean.add_argument("--min-age", type=float, default=60.0,
                       help="only touch segments idle at least this "
                            "many seconds (default 60)")
    clean.add_argument("--dry-run", action="store_true",
                       help="list stale segments without removing them")
    clean.set_defaults(func=_cmd_clean_shm)

    trace = sub.add_parser(
        "trace", help="render a JSONL run report written by "
                      "'detect --trace-out'"
    )
    trace.add_argument("input", help="run report (.jsonl)")
    trace.set_defaults(func=_cmd_trace)

    plan = sub.add_parser("plan", help="build and save a partition plan")
    add_common(plan)
    add_run_flags(plan, "strategy", "seed")
    add_quarantine_flag(plan)
    plan.add_argument("--partitions", type=int, default=16)
    plan.add_argument("--reducers", type=int, default=8)
    plan.add_argument("-o", "--output", required=True)
    plan.set_defaults(func=_cmd_plan)

    info = sub.add_parser("info", help="describe a CSV dataset")
    info.add_argument("input")
    info.add_argument("--with-ids", action="store_true")
    info.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
