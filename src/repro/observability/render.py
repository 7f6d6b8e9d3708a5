"""Plain-text rendering of a :class:`~repro.observability.RunReport`.

``repro trace run.jsonl`` prints this: a per-job phase timeline (wall
seconds, bar-scaled to the longest phase), the per-reducer load histogram
with its skew ratio, flagged stragglers, and the cost-model
predicted-vs-actual summary.  Pure string assembly — no terminal control
codes — so CI logs stay readable.
"""

from __future__ import annotations

from typing import List

from .report import RunReport

__all__ = ["render_report"]

_BAR_WIDTH = 36


def _bar(value: float, maximum: float, width: int = _BAR_WIDTH) -> str:
    if maximum <= 0:
        return ""
    filled = int(round(width * value / maximum))
    return "#" * max(filled, 1 if value > 0 else 0)


def render_report(report: RunReport) -> str:
    """Render the report as a multi-section plain-text summary."""
    lines: List[str] = []
    meta = report.meta
    lines.append("=== repro run report ===")
    lines.append(
        "strategy {strategy}  r={r:g} k={k}  outliers={n}  jobs={jobs}"
        .format(
            strategy=meta.get("strategy", "?"),
            r=float(meta.get("r", 0.0)),
            k=meta.get("k", "?"),
            n=meta.get("n_outliers", "?"),
            jobs=meta.get("n_jobs", "?"),
        )
    )

    # -- phase timeline -------------------------------------------------
    lines.append("")
    lines.append("phase timeline (wall seconds)")
    longest = max(
        (t for phases in report.phase_walls.values()
         for t in phases.values()),
        default=0.0,
    )
    for job_name, phases in report.phase_walls.items():
        lines.append(f"  job {job_name}")
        for phase, seconds in phases.items():
            lines.append(
                f"    {phase:<7} {_bar(seconds, longest):<{_BAR_WIDTH}} "
                f"{seconds:.4f}s"
            )

    # -- reducer load histogram ----------------------------------------
    lines.append("")
    lines.append("reducer load (cost units)")
    loads = report.reducer_loads
    peak = max(loads, default=0.0)
    for rid, load in enumerate(loads):
        lines.append(
            f"  r{rid:<3} {_bar(load, peak):<{_BAR_WIDTH}} {load:g}"
        )
    lines.append(f"skew ratio: {report.skew:.4f} (max/mean)")

    # -- stragglers -----------------------------------------------------
    if report.stragglers:
        lines.append("")
        lines.append(f"stragglers ({len(report.stragglers)} flagged)")
        for s in report.stragglers:
            lines.append(
                f"  {s.job} {s.phase}[{s.task_id}]: {s.cost:g} units "
                f"= {s.ratio:.2f}x phase median ({s.median:g})"
            )
    else:
        lines.append("stragglers: none")

    # -- cost model -----------------------------------------------------
    cm = report.cost_model
    # Strategies without a planning stage (e.g. uniSpace) carry no
    # est_cost, so "predicted 0" would be noise rather than a miss.
    if cm and cm.get("predicted_units", 0.0) > 0:
        lines.append("")
        lines.append(
            "cost model: predicted {pred:g} units vs actual {act:g} "
            "(ratio {ratio:.3f})".format(
                pred=cm.get("predicted_units", 0.0),
                act=cm.get("actual_reduce_units", 0.0),
                ratio=cm.get("ratio", 0.0),
            )
        )
        if "predicted_skew" in cm:
            lines.append(
                f"  predicted skew {cm['predicted_skew']:.4f} "
                f"vs actual {report.skew:.4f}"
            )

    # -- shuffle / failures --------------------------------------------
    lines.append("")
    lines.append(
        "shuffle: {records} records, {bytes} bytes".format(
            records=report.shuffle.get("records", 0),
            bytes=report.shuffle.get("bytes", 0),
        )
    )
    if report.failures:
        parts = ", ".join(
            f"{name}={value}" for name, value in report.failures.items()
        )
        lines.append(f"task failures (retried): {parts}")

    # -- scheduler ------------------------------------------------------
    sched = report.scheduler
    if sched.get("timeouts") or sched.get("speculative_attempts"):
        lines.append(
            "scheduler: {t} attempt timeout(s), {a} speculative "
            "attempt(s) ({w} won, {c} cancelled)".format(
                t=sched.get("timeouts", 0),
                a=sched.get("speculative_attempts", 0),
                w=sched.get("speculative_wins", 0),
                c=sched.get("speculative_cancelled", 0),
            )
        )
    # -- transport ------------------------------------------------------
    tp = report.transport
    if tp:
        lines.append(
            "transport {name}: {tasks} task dispatches, {db} bytes in "
            "{ds:.4f}s".format(
                name=tp.get("name", "?"),
                tasks=tp.get("tasks", 0),
                db=tp.get("dispatch_bytes", 0),
                ds=float(tp.get("dispatch_seconds", 0.0)),
            )
        )
        if tp.get("segments"):
            lines.append(
                "  shm: {segs} segment(s), {sb} bytes".format(
                    segs=tp.get("segments", 0),
                    sb=tp.get("segment_bytes", 0),
                )
            )
    if report.trace:
        n_tasks = len(report.task_spans())
        n_spans = sum(len(list(r.walk())) for r in report.trace)
        lines.append(f"trace: {n_spans} spans ({n_tasks} task spans)")
    return "\n".join(lines)
