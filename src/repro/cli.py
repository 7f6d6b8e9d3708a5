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
    python -m repro bench --quick --check benchmarks/baselines/bench_smoke.json
    python -m repro bench --stream --quick
    python -m repro bench --recovery --quick
    python -m repro bench --service --quick

Exit codes: 0 success, 1 gate/consistency failure, 2 usage or input
error, 3 transient service condition (queue full, result timeout).

CSV format: one point per line, ``x,y[,z...]``; an optional leading
``id`` column is accepted with ``--with-ids``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data as datagen
from .core import Dataset, detect_outliers
from .core.config import RunConfig
from .kernels import KERNEL_CHOICES, KernelUnavailable, resolve_kernel
from .metrics import METRIC_CHOICES, MetricUnsupported, resolve_metric
from .mapreduce import (
    ClusterConfig,
    LocalRuntime,
    SchedulerConfig,
    make_runtime,
)
from .observability import RunReport, render_report
from .params import OutlierParams
from .partitioning import save_plan
from .tiers import TIER_CHOICES, resolve_tier

__all__ = ["main", "CLIError"]


class CLIError(Exception):
    """A user-facing failure: printed as ``error: ...``, exit code 2.

    The boundary between "the tool is broken" (traceback, please file a
    bug) and "the invocation is wrong or the input is bad" (clear
    message, no traceback).
    """


#: Rows diverted by ``--quarantine-out`` across the current command —
#: surfaced as the ``rows_quarantined`` counter in JSON reports.
_last_quarantined = 0


def _reset_quarantine_counter() -> None:
    """Zero the row-quarantine counter at command entry.

    Commands that read ``_last_quarantined`` must call this first:
    the module-level counter would otherwise accumulate across
    in-process invocations (tests, embedding callers that invoke
    ``_cmd_*`` directly) and over-report ``rows_quarantined``.
    """
    global _last_quarantined
    _last_quarantined = 0


def _load_dataset(
    path: str, with_ids: bool, quarantine_out: str | None = None
) -> Dataset:
    from .data.io import _read_table, _table_dataset

    global _last_quarantined
    try:
        raw, mask = _read_table(
            path, with_ids, source=sys.stdin if path == "-" else path
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    n_bad = int((~mask).sum())
    if n_bad:
        if quarantine_out is None:
            raise CLIError(
                f"{path}: {n_bad} rows have NaN/inf coordinates; fix "
                "the input or pass --quarantine-out FILE to divert "
                "them and continue"
            )
        # One file per command: its first diverted rows replace what an
        # earlier command left there, later inputs' rows follow them.
        with open(quarantine_out, "a" if _last_quarantined else "w") as f:
            np.savetxt(f, raw[~mask], delimiter=",", fmt="%.8g")
        _last_quarantined += n_bad
        print(
            f"quarantined {n_bad} rows with non-finite coordinates "
            f"-> {quarantine_out}",
            file=sys.stderr,
        )
        raw = raw[mask]
        if raw.shape[0] == 0:
            raise CLIError(f"{path}: every row was quarantined")
    return _table_dataset(raw, with_ids)


_NEGATIVE_WORKERS = "--workers must be >= 0 (0 = serial in-process execution)"


def _validate_runtime_flags(args) -> tuple[list, list]:
    """Reject or call out nonsensical runtime/scheduler flag combos.

    Returns ``(errors, warnings)``: errors abort the command (exit 2),
    warnings go to stderr but the run proceeds.
    """
    errors: list[str] = []
    warnings: list[str] = []
    if args.workers < 0:
        errors.append(_NEGATIVE_WORKERS)
    if args.speculate and args.workers <= 0:
        errors.append(
            "--speculate requires --workers > 0: the serial runtime "
            "runs one attempt at a time, so a duplicate straggler "
            "attempt could never overlap the original"
        )
    if args.timeout is not None and args.timeout <= 0:
        errors.append("--timeout must be positive")
    try:
        # Fail here, before any data is read, when the requested
        # backend's optional dependency is missing.
        resolve_kernel(getattr(args, "kernel", None))
    except KernelUnavailable as exc:
        errors.append(str(exc))
    try:
        # Same early-exit policy for a malformed --metric spec.
        resolve_metric(getattr(args, "metric", None))
    except (ValueError, MetricUnsupported) as exc:
        errors.append(str(exc))
    try:
        resolve_tier(getattr(args, "tier", None))
    except ValueError as exc:
        errors.append(str(exc))
    if args.speculate and args.timeout is None and not errors:
        warnings.append(
            "warning: --speculate without --timeout: stragglers are "
            "duplicated once detected, but a hung original attempt is "
            "never reaped; consider adding --timeout"
        )
    return errors, warnings


def _enforce_runtime_flags(args) -> int:
    """Print validation results; non-zero = abort the command."""
    errors, warnings = _validate_runtime_flags(args)
    for message in warnings:
        print(message, file=sys.stderr)
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 2 if errors else 0


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


def _detect(args: argparse.Namespace):
    dataset = _load_dataset(
        args.input, args.with_ids,
        getattr(args, "quarantine_out", None),
    )
    params = OutlierParams(r=args.r, k=args.k)
    cluster = ClusterConfig(nodes=args.nodes)
    return dataset, params, cluster


def _run_kwargs(args: argparse.Namespace) -> dict:
    """The run-configuration flags, as every entry point spells them."""
    return dict(
        strategy=args.strategy, detector=args.detector, seed=args.seed,
        kernel=args.kernel, metric=args.metric, tier=args.tier,
    )


def _build_runtime(args: argparse.Namespace, cluster: ClusterConfig):
    """Runtime + scheduler policy from the detect subcommand's flags."""
    scheduler = SchedulerConfig(
        max_attempts=args.max_attempts,
        timeout=args.timeout,
        backoff_base=args.backoff,
        seed=args.seed,
        speculate=args.speculate,
        speculation_threshold=args.straggler_threshold,
        degradation=args.degrade,
    )
    return make_runtime(cluster, workers=args.workers, scheduler=scheduler)


def _write_report(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2)
    if output:
        with open(output, "w") as f:
            f.write(text)
        print(f"{report['n_outliers']} outliers -> {output}")
    else:
        print(text)


def _cmd_detect(args: argparse.Namespace) -> int:
    _reset_quarantine_counter()
    code = _enforce_runtime_flags(args)
    if code:
        return code
    if args.checkpoint_dir:
        if args.append:
            raise CLIError(
                "--checkpoint-dir journals a single detection run; it "
                "cannot be combined with --append (snapshot the stream "
                "with 'repro stream --snapshot' instead)"
            )
        return _detect_checkpointed(args)
    if args.append:
        return _detect_append(args)
    dataset, params, cluster = _detect(args)
    with _build_runtime(args, cluster) as runtime:
        result = detect_outliers(
            dataset, params, cluster=cluster, runtime=runtime,
            **_run_kwargs(args),
        )
    report = {
        "n_points": dataset.n,
        "params": {"r": params.r, "k": params.k},
        "strategy": result.strategy,
        "kernel": resolve_kernel(args.kernel).name,
        "metric": resolve_metric(args.metric).spec(),
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
        report["rows_quarantined"] = _last_quarantined
    if args.trace_out:
        run_report = result.report(
            straggler_threshold=args.straggler_threshold
        )
        run_report.save(args.trace_out)
        print(f"trace report -> {args.trace_out}")
    _write_report(report, args.output)
    return 0


def _checkpoint_report(result, params, metric: str) -> dict:
    report = {
        "params": {"r": params.r, "k": params.k},
        "outliers": sorted(result.outlier_ids),
        "n_outliers": len(result.outlier_ids),
        "resumed": result.resumed,
        "partitions_replayed": result.replayed_partitions,
        "partitions_executed": result.executed_partitions,
        "recovery": result.counters.group("recovery"),
        "metric": metric,
        "tier": getattr(result, "tier", "exact"),
    }
    tier_counters = result.counters.group("tier")
    if tier_counters:
        report["tier_counters"] = tier_counters
    if _last_quarantined:
        report["rows_quarantined"] = _last_quarantined
    return report


def _run_checkpointed_cli(args, checkpoint_dir: str) -> int:
    """Shared driver behind ``detect --checkpoint-dir`` and ``resume``."""
    from .recovery import CheckpointMismatch, run_checkpointed

    dataset, params, cluster = _detect(args)
    try:
        with _build_runtime(args, cluster) as runtime:
            result = run_checkpointed(
                dataset, params, checkpoint_dir,
                runtime=runtime, cluster=cluster,
                **_run_kwargs(args),
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
    metric = resolve_metric(args.metric).spec()
    _write_report(
        _checkpoint_report(result, params, metric), args.output
    )
    return 0


def _detect_checkpointed(args: argparse.Namespace) -> int:
    return _run_checkpointed_cli(args, args.checkpoint_dir)


def _cmd_resume(args: argparse.Namespace) -> int:
    """Finish an interrupted ``detect --checkpoint-dir`` run."""
    from .recovery import SnapshotError, read_manifest

    _reset_quarantine_counter()
    code = _enforce_runtime_flags(args)
    if code:
        return code
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
    ns.strategy = config["strategy"]
    ns.detector = config["detector"]
    ns.seed = int(config["seed"])
    # The metric is run identity: the manifest's record wins, so a
    # resume never silently re-detects under a different distance.
    ns.metric = config.get("metric")
    # Same for the tier: a fast run resumes fast, an exact run exact
    # (old manifests predate tiers and were always exact).
    ns.tier = config.get("tier", "exact")
    ns.quarantine_out = None
    return _run_checkpointed_cli(ns, args.checkpoint_dir)


def _streaming_detector(args, params, cluster, runtime):
    from .streaming import StreamingDetector

    return StreamingDetector(
        params,
        runtime=runtime,
        cluster=cluster,
        drift_threshold=args.drift_threshold,
        **_run_kwargs(args),
    )


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


def _stream_report(detector, params, batches: list) -> dict:
    report = {
        "n_points": detector.n_seen,
        "params": {"r": params.r, "k": params.k},
        "strategy": detector.strategy.name,
        "metric": detector.metric or "euclidean",
        "tier": detector.tier,
        "outliers": sorted(detector.outlier_ids),
        "n_outliers": len(detector.outlier_ids),
        "batches": batches,
        "streaming": detector.counters.group("streaming"),
    }
    if _last_quarantined:
        report["rows_quarantined"] = _last_quarantined
    return report


def _detect_append(args: argparse.Namespace) -> int:
    """``detect --append``: initial detection + incremental batches."""
    dataset, params, cluster = _detect(args)
    with _build_runtime(args, cluster) as runtime:
        return _append_batches(args, dataset, params, cluster, runtime)


def _append_batches(args, dataset, params, cluster, runtime) -> int:
    detector = _streaming_detector(args, params, cluster, runtime)
    batches = [_batch_summary(detector.ingest(dataset))]
    for path in args.append:
        batch = _load_dataset(path, args.with_ids, args.quarantine_out)
        try:
            if args.with_ids:
                report = detector.ingest(batch)
            else:
                report = detector.ingest_points(batch.points)
        except ValueError as exc:
            # Dimension mismatches and id reuse between the prior state
            # and the appended batch arrive as ValueError.
            raise CLIError(f"cannot append {path}: {exc}") from exc
        batches.append(_batch_summary(report))
        print(
            f"appended {path}: +{report.n_points} points, "
            f"{report.dirty_partitions}/{report.total_partitions} "
            "partitions re-detected",
            file=sys.stderr,
        )
    _write_report(_stream_report(detector, params, batches), args.output)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    _reset_quarantine_counter()
    code = _enforce_runtime_flags(args)
    if code:
        return code
    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    dataset = _load_dataset(
        args.input, args.with_ids, args.quarantine_out
    )
    params = OutlierParams(r=args.r, k=args.k)
    cluster = ClusterConfig(nodes=args.nodes)
    with _build_runtime(args, cluster) as runtime:
        return _stream_batches(args, dataset, params, cluster, runtime)


def _stream_batches(args, dataset, params, cluster, runtime) -> int:
    if args.snapshot:
        from .streaming import StreamingDetector

        try:
            detector = StreamingDetector.restore(
                args.snapshot, params,
                runtime=runtime, cluster=cluster,
                drift_threshold=args.drift_threshold,
                **_run_kwargs(args),
            )
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        if detector.n_seen:
            print(
                f"resumed stream from {args.snapshot}: "
                f"{detector.n_seen} points, "
                f"{len(detector.outlier_ids)} outliers",
                file=sys.stderr,
            )
    else:
        detector = _streaming_detector(args, params, cluster, runtime)

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
    renumber = detector.n_seen > 0 and not args.with_ids
    for lo, hi in zip(cuts, cuts[1:]):
        batch = dataset.subset(np.arange(lo, hi))
        try:
            if renumber:
                report = detector.ingest_points(batch.points)
            else:
                report = detector.ingest(batch)
        except ValueError as exc:
            raise CLIError(
                f"cannot ingest batch into the resumed stream: {exc}"
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
    _write_report(_stream_report(detector, params, batches), args.output)
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

    if not os.path.exists(args.input):
        raise CLIError(f"input file not found: {args.input}")
    if args.workers < 0:
        raise CLIError(_NEGATIVE_WORKERS)
    with ServiceClient(args.spool) as client:
        try:
            job_id = client.submit(
                args.input, r=args.r, k=args.k, tenant=args.tenant,
                lane=args.lane, nodes=args.nodes, workers=args.workers,
                with_ids=args.with_ids,
                **_run_kwargs(args),
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
    dataset, params, cluster = _detect(args)
    # Plan files hold rectangle plans: Euclidean whatever REPRO_METRIC
    # says (a metric run plans for itself, with pivot balls).
    cfg = RunConfig.resolve(
        params, strategy=args.strategy, n=dataset.n,
        n_partitions=args.partitions, n_reducers=args.reducers,
        seed=args.seed, metric="euclidean", tier="exact",
    )
    plan = cfg.strategy.timed_plan(
        LocalRuntime(cluster), dataset.batch(),
        cfg.plan_request(dataset.bounds),
    )
    save_plan(plan, args.output)
    print(
        f"{plan.n_partitions} partitions "
        f"({plan.strategy}) -> {args.output}"
    )
    return 0


def _stream_bench(args: argparse.Namespace) -> int:
    from .bench import StreamBenchConfig, run_stream_bench, save_bench

    if args.check:
        print(
            "error: --check compares the fixed perf matrix; it does not "
            "apply to --stream",
            file=sys.stderr,
        )
        return 2
    overrides = {}
    if args.label:
        overrides["label"] = args.label
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.base_n is not None:
        overrides["base_n"] = args.base_n
    if args.quick:
        config = StreamBenchConfig.quick(**overrides)
    else:
        config = StreamBenchConfig(**overrides)

    result = run_stream_bench(config, log=print)
    out_path = args.output or f"STREAM_{config.label}.json"
    save_bench(result, out_path)
    print(f"stream bench result -> {out_path}")

    derived = result["derived"]
    print(
        f"incremental {derived['incremental_total_seconds']:.3f}s vs "
        f"full re-runs {derived['full_rerun_total_seconds']:.3f}s "
        f"({derived['speedup_vs_full']:.2f}x); identical outliers: "
        f"{derived['identical_outliers']}; plan cache hit rate "
        f"{derived['plan_cache_hit_rate']:.0%}"
    )
    return 0 if derived["identical_outliers"] else 1


def _recovery_bench(args: argparse.Namespace) -> int:
    from .bench import (
        RecoveryBenchConfig,
        run_recovery_bench,
        save_bench,
    )

    if args.check:
        print(
            "error: --check compares the fixed perf matrix; it does not "
            "apply to --recovery",
            file=sys.stderr,
        )
        return 2
    overrides = {}
    if args.label:
        overrides["label"] = args.label
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.base_n is not None:
        overrides["base_n"] = args.base_n
    if args.quick:
        config = RecoveryBenchConfig.quick(**overrides)
    else:
        config = RecoveryBenchConfig(**overrides)

    result = run_recovery_bench(config, log=print)
    out_path = args.output or f"RECOVERY_{config.label}.json"
    save_bench(result, out_path)
    print(f"recovery bench result -> {out_path}")

    derived = result["derived"]
    print(
        f"journal overhead {derived['journal_overhead_ratio']:.2f}x "
        f"over a plain run; mean resume cost "
        f"{derived['mean_resume_over_full_ratio']:.2f}x of a full run; "
        f"identical outliers: {derived['identical_outliers']}"
    )
    return 0 if derived["identical_outliers"] else 1


def _service_bench(args: argparse.Namespace) -> int:
    from .bench import (
        ServiceBenchConfig,
        run_service_bench,
        save_bench,
    )

    if args.check:
        print(
            "error: --check compares the fixed perf matrix; it does not "
            "apply to --service",
            file=sys.stderr,
        )
        return 2
    overrides = {}
    if args.label:
        overrides["label"] = args.label
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.base_n is not None:
        overrides["base_n"] = args.base_n
    if args.quick:
        config = ServiceBenchConfig.quick(**overrides)
    else:
        config = ServiceBenchConfig(**overrides)

    result = run_service_bench(config, log=print)
    out_path = args.output or f"SERVICE_{config.label}.json"
    save_bench(result, out_path)
    print(f"service bench result -> {out_path}")

    derived = result["derived"]
    print(
        f"{derived['n_jobs']} jobs drained in "
        f"{derived['drain_wall_seconds']:.3f}s "
        f"({derived['jobs_per_second']:.2f} jobs/s); mean latency "
        f"{derived['mean_latency_seconds']:.3f}s (queue wait "
        f"{derived['mean_queue_wait_seconds']:.3f}s); plan cache hit "
        f"rate {derived['plan_cache_hit_rate']:.0%}; identical "
        f"outliers: {derived['identical_outliers']}"
    )
    for tenant, rates in sorted(derived["tenant_rates"].items()):
        print(
            f"  {tenant}: {rates['submitted']} submitted, "
            f"{rates['done']} done, {rates['failed']} failed, "
            f"{rates['quarantined']} quarantined; queue wait "
            f"p50 {rates.get('queue_wait_p50_seconds', 0.0):.3f}s / "
            f"p95 {rates.get('queue_wait_p95_seconds', 0.0):.3f}s"
        )
    return 0 if derived["identical_outliers"] else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import BenchConfig, check_against, run_bench, save_bench

    modes = [
        name for name, on in [
            ("--stream", args.stream),
            ("--recovery", args.recovery),
            ("--service", args.service),
        ] if on
    ]
    if len(modes) > 1:
        print(
            f"error: pick one of {' / '.join(modes)}", file=sys.stderr
        )
        return 2
    if args.recovery:
        return _recovery_bench(args)
    if args.stream:
        return _stream_bench(args)
    if args.service:
        return _service_bench(args)
    overrides = {}
    if args.label:
        overrides["label"] = args.label
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.base_n is not None:
        overrides["base_n"] = args.base_n
    if args.r is not None:
        overrides["r"] = args.r
    if args.k is not None:
        overrides["k"] = args.k
    if args.detectors:
        overrides["detectors"] = tuple(args.detectors.split(","))
    if args.kernels:
        overrides["kernels"] = tuple(args.kernels.split(","))
    if args.transports is not None:
        transports = tuple(
            t for t in args.transports.split(",")
            if t and t != "none"
        )
        if not set(transports) <= {"shm"}:
            print(
                f"error: --transports accepts shm or none "
                f"(got {args.transports!r})",
                file=sys.stderr,
            )
            return 2
        overrides["transports"] = transports
    if args.tiers:
        tiers = tuple(args.tiers.split(","))
        for tier in tiers:
            if tier not in ("exact", "fast"):
                print(
                    f"error: --tiers accepts exact,fast (got {tier!r})",
                    file=sys.stderr,
                )
                return 2
        overrides["tiers"] = tiers
    if args.metric:
        try:
            overrides["metric"] = resolve_metric(args.metric).spec()
        except (ValueError, MetricUnsupported) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.quick:
        config = BenchConfig.quick(**overrides)
    else:
        config = BenchConfig(**overrides)

    result = run_bench(config, log=print)
    out_path = args.output or f"BENCH_{config.label}.json"
    save_bench(result, out_path)
    print(f"bench result -> {out_path}")

    derived = result["derived"]
    for detector, entry in derived["per_detector"].items():
        print(
            f"{detector}: identical outliers: "
            f"{entry['identical_outliers']}"
        )
        kernel_ratio = entry.get("kernel_speedup_ratio")
        if kernel_ratio is not None:
            print(
                f"{detector}: numpy kernel {kernel_ratio:.2f}x faster "
                "per reduce task than the python oracle"
            )

    if args.check:
        with open(args.check) as f:
            baseline = json.load(f)
        problems = check_against(
            result, baseline, tolerance=args.tolerance
        )
        if problems:
            print(f"\nBENCH GATE FAILED vs {args.check}:")
            for problem in problems:
                print(f"  {problem}")
            print(
                "(if intentional, regenerate the baseline with "
                f"repro bench --quick -o {args.check})"
            )
            return 1
        print(f"bench gate OK vs {args.check}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.input, args.with_ids)
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
        p.add_argument("--strategy", default="DMT")
        p.add_argument("--nodes", type=int, default=4)
        p.add_argument("--seed", type=int, default=1)

    def add_quarantine_flag(p):
        p.add_argument("--quarantine-out", metavar="CSV", default=None,
                       help="divert rows with NaN/inf coordinates to "
                            "this CSV and continue (default: such rows "
                            "are an error)")

    def add_runtime_flags(p):
        p.add_argument("--straggler-threshold", type=float, default=2.0,
                       help="flag tasks costing more than this multiple "
                            "of the phase median (default 2.0); also the "
                            "speculation trigger with --speculate")
        p.add_argument("--workers", type=int, default=0,
                       help="run tasks in this many worker processes "
                            "(0 = serial in-process execution)")
        p.add_argument("--max-attempts", type=int, default=4,
                       help="attempts per task before the degradation "
                            "policy applies (default 4)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-attempt wall-clock timeout in seconds "
                            "(default: none)")
        p.add_argument("--backoff", type=float, default=0.0,
                       help="base delay before the first retry, doubling "
                            "per retry with seeded jitter (default 0 = "
                            "retry immediately)")
        p.add_argument("--speculate", action="store_true",
                       help="launch duplicate attempts for straggler "
                            "tasks (needs --workers > 0)")
        p.add_argument("--degrade", choices=["fail", "skip"],
                       default="fail",
                       help="when a task exhausts its attempts: fail the "
                            "run, or skip its partition with a warning")

    def add_kernel_flag(p):
        p.add_argument("--kernel", choices=list(KERNEL_CHOICES),
                       default=None,
                       help="distance backend for scan-based detectors "
                            "('python' scalar oracle, 'numpy' vectorized "
                            "default, 'numba' optional JIT); results are "
                            "identical, only wall time changes "
                            "(default: auto = $REPRO_KERNEL or numpy)")

    def add_metric_flag(p):
        p.add_argument("--metric", default=None, metavar="SPEC",
                       help="distance metric: "
                            + ", ".join(METRIC_CHOICES)
                            + "; minkowski takes 'minkowski:P' (e.g. "
                            "minkowski:1 for Manhattan). Unlike --kernel "
                            "this changes the answer: non-Euclidean runs "
                            "use metric-safe pivot partitioning and "
                            "require a metric-generic detector "
                            "(default: auto = $REPRO_METRIC or euclidean)")

    def add_tier_flag(p):
        p.add_argument("--tier", choices=list(TIER_CHOICES),
                       default=None,
                       help="detection tier: 'exact' runs the full "
                            "machinery, 'fast' prepends a sensitivity-"
                            "sampled certification pass (identical "
                            "outlier set, less exact work), 'auto' "
                            "picks via the cost model (default: "
                            "$REPRO_TIER or exact)")

    det = sub.add_parser("detect", help="run the detection pipeline")
    add_common(det)
    add_quarantine_flag(det)
    det.add_argument("--detector", default="nested_loop")
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
    add_kernel_flag(det)
    add_metric_flag(det)
    add_tier_flag(det)
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
    # No --metric or --tier: both are run identity, read from the
    # manifest, so a resume never re-detects under another distance.
    add_runtime_flags(resume)
    add_kernel_flag(resume)
    resume.set_defaults(func=_cmd_resume)

    stream = sub.add_parser(
        "stream",
        help="incremental detection over micro-batches of a CSV (or "
             "stdin with '-'); re-runs only dirty partitions per batch",
    )
    add_common(stream)
    add_quarantine_flag(stream)
    stream.add_argument("--detector", default="nested_loop")
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
    add_kernel_flag(stream)
    add_metric_flag(stream)
    add_tier_flag(stream)
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
    submit.add_argument("--detector", default="nested_loop")
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
    add_kernel_flag(submit)
    add_metric_flag(submit)
    submit.add_argument("--tier", choices=list(TIER_CHOICES),
                        default=None,
                        help="detection tier for this job (default: "
                             "the lane's default — fast for "
                             "interactive, exact for batch)")
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
    add_quarantine_flag(plan)
    plan.add_argument("--partitions", type=int, default=16)
    plan.add_argument("--reducers", type=int, default=8)
    plan.add_argument("-o", "--output", required=True)
    plan.set_defaults(func=_cmd_plan)

    info = sub.add_parser("info", help="describe a CSV dataset")
    info.add_argument("input")
    info.add_argument("--with-ids", action="store_true")
    info.set_defaults(func=_cmd_info)

    bench = sub.add_parser(
        "bench",
        help="run the serial/parallel x detector perf matrix and emit "
             "BENCH_<label>.json",
    )
    bench.add_argument("--label", default=None,
                       help="output label (BENCH_<label>.json); "
                            "defaults to 'fig8', or 'smoke' with --quick")
    bench.add_argument("--quick", action="store_true",
                       help="small matrix for CI (one detector, fewer "
                            "points, 2 workers, 2 repeats)")
    bench.add_argument("--stream", action="store_true",
                       help="run the streaming benchmark instead: "
                            "incremental micro-batches vs full re-runs, "
                            "emitting STREAM_<label>.json")
    bench.add_argument("--recovery", action="store_true",
                       help="run the recovery benchmark instead: "
                            "journal overhead + crash/resume cost, "
                            "emitting RECOVERY_<label>.json")
    bench.add_argument("--service", action="store_true",
                       help="run the service benchmark instead: "
                            "submit->result latency under concurrent "
                            "tenants, emitting SERVICE_<label>.json")
    bench.add_argument("--repeats", type=int, default=None,
                       help="runs per matrix cell; min wall is reported")
    bench.add_argument("--workers", type=int, default=None,
                       help="worker processes for the parallel cells")
    bench.add_argument("--base-n", type=int, default=None,
                       help="base dataset size (region generator)")
    bench.add_argument("--r", type=float, default=None,
                       help="distance threshold in the metric's units "
                            "(km for haversine; default 2.0)")
    bench.add_argument("--k", type=int, default=None,
                       help="neighbor count threshold (default 12)")
    bench.add_argument("--detectors", default=None,
                       help="comma-separated detector list")
    bench.add_argument("--kernels", default=None,
                       help="comma-separated kernel backends for the "
                            "serial kernel axis (default python,numpy)")
    bench.add_argument("--tiers", default=None,
                       help="comma-separated detection tiers for the "
                            "serial tier axis (exact,fast); tiers other "
                            "than plain 'exact' join the workload "
                            "identity (default exact,fast; --quick "
                            "defaults to exact only)")
    bench.add_argument("--transports", default=None,
                       help="'shm' (default) runs one parallel cell per "
                            "detector; 'none' drops the parallel cells "
                            "for a serial-only deterministic matrix")
    bench.add_argument("--metric", default=None, metavar="SPEC",
                       help="distance metric for the whole matrix; "
                            "non-Euclidean metrics drop Euclidean-only "
                            "detectors from the detector axis and are "
                            "recorded in the workload identity")
    bench.add_argument("-o", "--output", default=None,
                       help="output path (default BENCH_<label>.json)")
    bench.add_argument("--check", metavar="BASELINE",
                       help="compare against a baseline BENCH json; "
                            "non-zero exit on regression")
    bench.add_argument("--tolerance", type=float, default=0.25,
                       help="relative tolerance for ratio comparisons "
                            "with --check (default 0.25)")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    global _last_quarantined
    _last_quarantined = 0
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
