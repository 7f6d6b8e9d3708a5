#!/usr/bin/env python3
"""perfbench driver: run workload children, aggregate, print the metrics.

    python3 perfbench/run.py --workload batch_dmt --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py                 # all workloads, 3 passes + traced pass
    python3 perfbench/run.py --repeat-check  # the suite twice, compared
    python3 perfbench/run.py --pin           # rewrite perfbench/expected.json

A *pass* runs each selected workload once, in order, in a fresh child
process of its own session (``A B C D A B C D ...``), so one workload's
samples are spread over the whole run.  ``--seconds`` is the timed
budget of one workload, split evenly over its passes.  With ``--trace 0``
all passes are untraced and the end-to-end metrics are printed; with
``--trace 1`` the first pass is untraced (the base of
``driver.trace_overhead``) and the rest are traced, and the per-layer
metrics are printed; without ``--trace`` one traced pass follows the
untraced ones and both sets are printed.

The last line of stdout is one JSON object — ``correct``, ``attempted``,
``failed``, ``metrics`` — when one workload was selected, else a document
with one such object per workload.  A fixed-width table of every metric
goes to stderr.  The exit code is 0 only if every op matched the oracle
and no process or shared-memory segment outlived its child.

The driver itself imports nothing heavy before the last child has ended:
a forked child's ``ru_maxrss`` starts at the driver's.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 7
DEFAULT_PASSES = 3
#: Allowance for a child's set-up, oracle and exit on top of its timed
#: budget; a child still running after ``3 x budget + this`` is hung.
CHILD_GRACE_SECONDS = 45.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
_live_sessions: set = set()
_child_pids: list = []


def _become_subreaper() -> None:
    """Have orphaned grandchildren (pool workers, the multiprocessing
    resource tracker) re-parent to the driver, so it can wait for them
    instead of leaving zombies to whoever runs the driver."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, which reaps them


def _session_members(sid: int) -> list:
    """Pids of live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # "pid (comm) state ppid pgrp session ..."; comm may
                # hold spaces and parentheses, so split after the last ")".
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _wait_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_session(sid: int, proc=None) -> int:
    """SIGKILL everything in session ``sid`` and wait until it is gone.

    Returns the number of processes still alive after five seconds
    (``driver.leaked_procs``).  Idempotent.
    """
    deadline = time.monotonic() + 5.0
    try:
        os.killpg(sid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if proc is not None:
        proc.wait()  # Popen must collect its own child's status
    while True:
        _wait_orphans()
        alive = _session_members(sid)
        if not alive or time.monotonic() > deadline:
            break
        for pid in alive:  # a member that left the process group
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.01)
    _live_sessions.discard(sid)
    return len(alive)


def _reap_all() -> None:
    for sid in list(_live_sessions):
        reap_session(sid)


def _on_signal(signum, frame) -> None:
    # SystemExit unwinds through run_child's ``finally`` (which kills the
    # session) and main's (which sweeps /dev/shm); atexit is the backstop
    # for a session registered but not yet inside that ``try``.
    raise SystemExit(128 + signum)


def install_hygiene() -> None:
    _become_subreaper()
    atexit.register(_reap_all)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)


def run_child(cmd: list, timeout: float, env: dict, tag: str) -> dict:
    """Run ``cmd`` in a new session; kill the whole session afterwards.

    Returns ``{"pid", "returncode" (None on timeout), "stdout",
    "leaked_procs"}``.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"child-{tag}.out")
    with open(out_path, "w") as out:
        proc = subprocess.Popen(
            cmd, stdout=out, cwd=ROOT, env=env, start_new_session=True
        )
        _live_sessions.add(proc.pid)
        _child_pids.append(proc.pid)
        try:
            try:
                returncode = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                returncode = None
        finally:
            leaked = reap_session(proc.pid, proc)
    with open(out_path) as f:
        stdout = f.read()
    os.unlink(out_path)
    return {"pid": proc.pid, "returncode": returncode, "stdout": stdout,
            "leaked_procs": leaked}


def sweep_segments(pids=None) -> int:
    """Unlink the shared-memory segments in ``/dev/shm`` named after
    ``pids`` (default: every child started); return how many there were.

    A child that ends on its own unlinks its segments, so any found were
    leaked — or belonged to a child this driver had to SIGKILL, which no
    in-process hook survives.  Foreign ``repro-dp-*`` leftovers are not
    ours to count or delete.  Imports ``repro``: call after the children,
    and not from ``atexit`` (``concurrent.futures`` cannot be imported
    once the interpreter shuts down).
    """
    pids = _child_pids if pids is None else pids
    if not pids:
        return 0
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        from repro.mapreduce.shm import SEGMENT_PREFIX, stale_segments
    except ImportError:  # no program, so no child got far enough
        return 0
    ours = tuple(f"{SEGMENT_PREFIX}-{pid % 10**7}-" for pid in pids)
    found = [
        segment["name"] for segment in stale_segments(0)
        if segment["name"].startswith(ours)
    ]
    for name in found:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    return len(found)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


# ----------------------------------------------------------------------
# Running the passes
# ----------------------------------------------------------------------
def run_passes(workloads, seed, seconds, passes, trace, quick) -> dict:
    """Run the children; return ``{workload: {"untraced": [...],
    "traced": [...], "hung": n, "leaked_procs": n, "pids": [...]}}``."""
    if trace == 0:
        kinds = [False] * passes
    elif trace == 1:
        kinds = [False] + [True] * max(1, passes - 1)
    else:
        kinds = [False] * passes + [True]
    budget = seconds / passes
    runs = {
        name: {"untraced": [], "traced": [], "hung": 0,
               "leaked_procs": 0, "pids": []}
        for name in workloads
    }
    env = child_env()
    for pass_no, traced in enumerate(kinds):
        for name in workloads:
            cmd = [
                sys.executable, "-m", "perfbench.child",
                "--workload", name, "--seed", str(seed),
                "--seconds", repr(budget), "--traced", str(int(traced)),
                "--quick", str(int(quick)), "--out-dir", OUT_DIR,
                "--spawned", repr(time.time()),
            ]
            done = run_child(
                cmd, 3 * budget + CHILD_GRACE_SECONDS, env,
                f"{name}-{pass_no}",
            )
            run = runs[name]
            run["pids"].append(done["pid"])
            run["leaked_procs"] += done["leaked_procs"]
            if done["returncode"] is None:
                print(f"perfbench: {name} pass {pass_no} hung; killed",
                      file=sys.stderr)
                run["hung"] += 1
                continue
            if done["returncode"] != 0:
                raise SystemExit(
                    f"perfbench: {name} child exited with "
                    f"{done['returncode']} before reporting"
                )
            report = json.loads(done["stdout"].strip().splitlines()[-1])
            run["traced" if traced else "untraced"].append(report)
    return runs


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
#: Layer numbers a traced op reports, by how the driver folds them.
#: Walls: per step the fastest traced execution, summed over the steps,
#: per op.  Counts: first traced execution, summed, per op.
LAYER_WALLS = (
    "sampling.stats_s", "dshc.cluster_s", "costmodel.select_s",
    "partitioning.plan_s", "partitioning.plan_self_s",
    "partitioning.route_s", "mapreduce.map_s", "mapreduce.shuffle_self_s",
    "mapreduce.reduce_s", "allocation.allocate_s", "detectors.detect_s",
    "kernels.count_s", "parallel.phase_wall_s",
    "parallel.task_wall_sum_s", "shm.dispatch_s",
    "streaming.ingest_self_s",
)
LAYER_COUNTS = (
    "sampling.calls", "dshc.aftree_inserts", "dshc.aftree_searches",
    "costmodel.select_calls", "partitioning.route_points",
    "mapreduce.shuffle_records", "mapreduce.shuffle_bytes",
    "mapreduce.jobs", "mapreduce.tasks", "mapreduce.task_retries",
    "detectors.calls", "detectors.distance_evals", "kernels.calls",
    "kernels.evals_charged", "kernels.evals_computed",
    "shm.dispatch_bytes", "shm.segments", "shm.segment_bytes",
    "observability.spans_per_op",
)
#: Ratios: mean over the steps that report one.
LAYER_MEANS = ("allocation.imbalance", "streaming.dirty_ratio")


def _merge_steps(reports: list) -> list:
    """One record per step with every child's executions side by side."""
    merged = []
    for index, first in enumerate(reports[0]["steps"]):
        step = dict(first, walls=[], layers=[], cal_py=[], cal_np=[])
        for report in reports:
            other = report["steps"][index]
            for key in ("walls", "layers", "cal_py", "cal_np"):
                step[key] += other[key]
            step["repeats"] = (
                step.get("repeats", True)
                and other["cost_units"] == first["cost_units"]
            )
        merged.append(step)
    return merged


def _quantile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _op_min(reports: list) -> float:
    """Seconds per op when every step runs as fast as it was ever seen
    to: per step the fastest execution, summed, per op."""
    steps = _merge_steps(reports)
    return (
        sum(min(s["walls"]) for s in steps)
        / reports[0]["ops_per_sequence"]
    )


def _host_factor(reports: list) -> float:
    """How much slower than the reference box's quiet state the host ran
    these children (``calibrate.py``).  The calibration loops are folded
    like the ops in ``_op_min`` — per step the fastest execution, then
    the mean over steps — so both see the host through the same filter."""
    weight = reports[0]["cal_weight"]
    steps = [s for s in _merge_steps(reports) if s["cal_py"]]
    return (
        weight * statistics.fmean(min(s["cal_py"]) for s in steps)
        + (1 - weight) * statistics.fmean(min(s["cal_np"]) for s in steps)
    )


def end_to_end(untraced: list) -> tuple:
    """The five end-to-end metrics and their sample counts.  The two
    walls are in calibrated seconds: divided by the host factor."""
    steps = _merge_steps(untraced)
    per_op = untraced[0]["ops_per_sequence"]
    raw = {
        "host_factor": _host_factor(untraced),
        "op_min_s": _op_min(untraced),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
    }
    metrics = {
        "setup_s": statistics.median(
            r["setup_s"] / _host_factor([r]) for r in untraced
        ),
        "op_min_s": raw["op_min_s"] / raw["host_factor"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
        "cost_units": sum(s["cost_units"] for s in steps) / per_op,
        "sim_detect_s": sum(s["sim_detect_s"] for s in steps) / per_op,
    }
    n_walls = sum(len(s["walls"]) for s in steps)
    samples = {
        "setup_s": len(untraced), "op_min_s": n_walls,
        "peak_rss_mb": len(untraced), "cost_units": len(steps),
        "sim_detect_s": len(steps),
    }
    return metrics, samples, raw


def per_layer(untraced: list, traced: list, run: dict) -> tuple:
    """Every per-layer metric (0 where a layer is not on the workload's
    path) plus the reconciliation figures of the traced ops."""
    steps = _merge_steps(traced)
    per_op = traced[0]["ops_per_sequence"]
    n_points = traced[0]["n_points"]
    fastest = [
        min(s["layers"], key=lambda l: l["_wall_s"]) for s in steps
    ]
    out = {}
    for name in LAYER_WALLS:
        out[name] = sum(
            min(l.get(name, 0.0) for l in s["layers"]) for s in steps
        ) / per_op
    for name in LAYER_COUNTS:
        out[name] = sum(
            s["layers"][0].get(name, 0) for s in steps
        ) / per_op
    for name in LAYER_MEANS:
        seen = [
            s["layers"][0][name] for s in steps if name in s["layers"][0]
        ]
        out[name] = statistics.fmean(seen) if seen else 0.0
    out["core.replication"] = sum(
        s["layers"][0].get("_detect_shuffle_records", 0) for s in steps
    ) / per_op / n_points
    out["kernels.eval_efficiency"] = _ratio(
        out["kernels.evals_charged"], out["kernels.evals_computed"]
    )
    out["data.generate_s"] = min(r["generate_s"] for r in traced)

    workers = traced[0]["workers"]
    traced_op = _op_min(traced)
    out["parallel.efficiency"] = _ratio(
        out["parallel.task_wall_sum_s"],
        workers * out["parallel.phase_wall_s"],
    )
    out["parallel.worker_peak_rss_mb"] = (
        max(r["worker_peak_rss_mb"] for r in traced) if workers > 1 else 0.0
    )
    # Serial passes over the same inputs, folded like the ops.
    serial = [
        r["extra"]["serial_walls"] for r in traced
        if "serial_walls" in r["extra"]
    ]
    out["parallel.speedup"] = _ratio(
        sum(map(min, zip(*serial))) / per_op, traced_op
    ) if serial else 0.0

    by_kind = {"append": [], "rebuild": [], "save": []}
    for s in steps:
        if s["kind"] in by_kind:
            by_kind[s["kind"]].append(min(s["walls"]))
    appends, rebuilds, saves = (
        by_kind["append"], by_kind["rebuild"], by_kind["save"]
    )
    stream = bool(appends)
    out["streaming.bulk_load_s"] = min(r["state_s"] for r in traced)
    out["streaming.append_p50_ms"] = (
        1e3 * statistics.median(appends) if stream else 0.0
    )
    out["streaming.append_p95_ms"] = (
        1e3 * _quantile(appends, 0.95) if stream else 0.0
    )
    out["streaming.rebuilds"] = len(rebuilds)
    out["streaming.rebuild_s"] = sum(rebuilds)
    out["streaming.plan_cache_hit_rate"] = _ratio(
        len(appends), len(appends) + len(rebuilds)
    )
    out["recovery.snapshot_save_s"] = (
        statistics.fmean(saves) if saves else 0.0
    )
    out["recovery.snapshot_bytes"] = max(
        r["extra"].get("snapshot_bytes", 0) for r in traced
    )
    loads = [
        r["extra"]["snapshot_load_s"] for r in traced
        if "snapshot_load_s" in r["extra"]
    ]
    out["recovery.snapshot_load_s"] = min(loads) if loads else 0.0

    # Host-interference diagnostics from the untraced ops: each wall
    # relative to the fastest execution of the same step.
    base_steps = _merge_steps(untraced)
    base_op = _op_min(untraced)
    slowdowns = [
        wall / min(s["walls"]) for s in base_steps for wall in s["walls"]
    ]
    quartiles = statistics.quantiles(slowdowns, n=4)
    p50 = statistics.median(slowdowns)
    out["driver.ops"] = sum(r["attempted"] for r in traced)
    out["driver.host_factor"] = _host_factor(untraced)
    out["driver.op_raw_min_s"] = base_op
    out["driver.op_p50_s"] = base_op * p50
    out["driver.op_p90_s"] = base_op * _quantile(slowdowns, 0.9)
    out["driver.op_spread"] = (quartiles[2] - quartiles[0]) / p50
    # Like with like: one traced child against one untraced child.
    out["driver.trace_overhead"] = _ratio(
        _op_min(traced[:1]), _op_min(untraced[:1])
    ) - 1.0
    wall_sum = sum(l["_wall_s"] for l in fastest)
    out["driver.unattributed_share"] = (
        sum(l["_unattributed_s"] for l in fastest) / wall_sum
    )
    out["driver.leaked_procs"] = run["leaked_procs"]
    out["driver.leaked_shm_segments"] = run["leaked_shm_segments"]
    reconcile = {
        "op_wall_s": wall_sum,
        "layers_sum_s": sum(l["_layers_sum_s"] for l in fastest),
        "unattributed_s": sum(l["_unattributed_s"] for l in fastest),
    }
    samples = {
        "traced_executions": sum(len(s["layers"]) for s in steps),
        "untraced_executions": len(slowdowns),
        "appends": len(appends),
    }
    return out, reconcile, samples


def check_pins(name: str, report: dict, metrics: dict) -> list:
    """Differences from ``expected.json`` (default seed, full size)."""
    if not os.path.exists(EXPECTED):
        return []
    with open(EXPECTED) as f:
        pinned = json.load(f)["workloads"].get(name)
    if pinned is None:
        return []
    found = {
        "n_points": report["n_points"],
        "n_outliers": report["n_outliers"],
        "outliers_sha256": report["outliers_sha256"],
        "cost_units": metrics["cost_units"],
        "sim_detect_s": round(metrics["sim_detect_s"], 9),
    }
    return [
        f"{name}.{key}: pinned {pinned[key]!r}, found {value!r}"
        for key, value in found.items() if pinned[key] != value
    ]


def summarize(name, run, seed, quick, want_e2e, want_layers) -> dict:
    """Fold one workload's children into the result object."""
    reports = run["untraced"] + run["traced"]
    attempted = sum(r["attempted"] for r in reports) + run["hung"]
    failed = sum(r["failed"] for r in reports) + run["hung"]
    problems = []
    metrics, samples, reconcile, raw = {}, {}, None, {}
    if not run["untraced"] or (want_layers and not run["traced"]):
        problems.append(f"{name}: no child reported")
    else:
        steps = _merge_steps(reports)
        if not all(s["repeats"] for s in steps):
            problems.append(f"{name}: cost units differ between children")
        e2e, e2e_samples, raw = end_to_end(run["untraced"])
        if seed == DEFAULT_SEED and not quick:
            problems += check_pins(name, run["untraced"][0], e2e)
        if want_e2e:
            metrics.update(e2e)
            samples.update(e2e_samples)
        if want_layers:
            layers, reconcile, layer_samples = per_layer(
                run["untraced"], run["traced"], run
            )
            metrics.update(layers)
            samples.update(layer_samples)
    if run["leaked_procs"] or run["leaked_shm_segments"]:
        problems.append(
            f"{name}: leaked {run['leaked_procs']} processes, "
            f"{run['leaked_shm_segments']} shm segments"
        )
    return {
        "correct": failed == 0 and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "reconcile": reconcile,
        "raw": raw,
        "problems": problems,
        "pins": {
            key: reports[0][key]
            for key in ("n_points", "n_outliers", "outliers_sha256")
        } if reports else {},
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def contract_object(summary: dict, spec: dict) -> dict:
    """The four-key object of the benchmark contract, metrics in
    BENCHMARK.json's order."""
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m["name"]: {
                "value": summary["metrics"][m["name"]], "unit": m["unit"]
            }
            for m in spec["end_to_end"] + spec["per_layer"]
            if m["name"] in summary["metrics"]
        },
    }


def print_table(summaries: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {
        m["name"]: m["unit"]
        for m in spec["end_to_end"] + spec["per_layer"]
    }
    err = sys.stderr
    for name, summary in summaries.items():
        samples = summary["samples"]
        print(f"\n== {name}: attempted {summary['attempted']}, failed "
              f"{summary['failed']}, correct {summary['correct']}", file=err)
        print(f"{'metric':34}{'value':>16} {'unit':8}{'samples':>8}"
              f"{'bound':>7}", file=err)
        for metric in units:
            if metric not in summary["metrics"]:
                continue
            value = summary["metrics"][metric]
            if metric in bounds:
                count = samples.get(metric, "")
            elif metric.startswith("streaming.append"):
                count = samples.get("appends", "")
            elif metric.startswith("driver.op_"):
                count = samples.get("untraced_executions", "")
            else:
                count = samples.get("traced_executions", "")
            bound = bounds.get(metric, "")
            print(f"{metric:34}{value:>16.6g} {units[metric]:8}{count:>8}"
                  f"{bound:>7}", file=err)
        if "op_min_s" in summary["metrics"]:
            rate = (
                summary["pins"]["n_points"] / summary["metrics"]["op_min_s"]
            )
            print(f"{'points/s (n_points / op_min_s)':34}{rate:>16.6g}",
                  file=err)
        for key, value in summary["raw"].items():  # before calibration
            print(f"raw {key} {value:.6g}", file=err)
        for problem in summary["problems"]:
            print(f"!! {problem}", file=err)


def run_suite(args) -> dict:
    runs = run_passes(
        args.workload, args.seed, args.seconds, args.passes, args.trace,
        args.quick,
    )
    for run in runs.values():
        run["leaked_shm_segments"] = sweep_segments(run["pids"])
    return {
        name: summarize(
            name, run, args.seed, args.quick,
            want_e2e=args.trace != 1, want_layers=args.trace != 0,
        )
        for name, run in runs.items()
    }


def repeat_check(args, spec: dict) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    args.trace = 0
    first, second = run_suite(args), run_suite(args)
    worst = 0
    print(f"{'workload':15}{'metric':14}{'first':>14}{'second':>14}"
          f"{'diff':>9}{'bound':>7}")
    for name in args.workload:
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]
            b = second[name]["metrics"][metric["name"]]
            diff = abs(b - a) / a
            exact = metric["name"] in ("cost_units", "sim_detect_s")
            bad = diff > (0.0 if exact else metric["bound"])
            worst |= bad
            print(f"{name:15}{metric['name']:14}{a:>14.6g}{b:>14.6g}"
                  f"{diff:>9.4f}{metric['bound']:>7}"
                  f"{'  FAIL' if bad else ''}")
    correct = all(
        s["correct"] for suite in (first, second) for s in suite.values()
    )
    return int(worst or not correct)


def pin(args) -> int:
    """Check every workload against ``brute_force_outliers`` and write
    ``expected.json`` for the default seed."""
    args.seed, args.trace, args.passes, args.seconds = DEFAULT_SEED, 0, 1, 0
    args.quick = False
    if os.path.exists(EXPECTED):
        os.unlink(EXPECTED)  # the run below must not compare with it
    summaries = run_suite(args)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import workloads
    from repro import brute_force_outliers

    pinned, ok = {}, True
    for name, summary in summaries.items():
        workload = workloads.REGISTRY[name](DEFAULT_SEED, False, OUT_DIR)
        workload.setup()
        digest = workloads.combined_sha256([
            workloads.outliers_sha256(
                brute_force_outliers(data, workload.params)
            )
            for data in workload.oracle_inputs()
        ])
        agrees = (
            summary["correct"]
            and digest == summary["pins"]["outliers_sha256"]
        )
        print(f"{name}: brute force {'agrees' if agrees else 'DIFFERS'}",
              file=sys.stderr)
        ok &= agrees
        pinned[name] = dict(
            summary["pins"],
            cost_units=summary["metrics"]["cost_units"],
            sim_detect_s=round(summary["metrics"]["sim_detect_s"], 9),
        )
    if ok:
        with open(EXPECTED, "w") as f:
            json.dump({"seed": DEFAULT_SEED, "workloads": pinned}, f,
                      indent=1)
            f.write("\n")
    return int(not ok)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="timed budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only")
    parser.add_argument("--passes", type=int, default=DEFAULT_PASSES)
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 4, one pass, one round per child")
    parser.add_argument("--out", help="also write the result here")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    if args.quick:
        args.passes, args.seconds = 1, 0.0
    if args.passes < 1 or args.seconds < 0:
        parser.error("--passes must be >= 1 and --seconds >= 0")

    install_hygiene()
    try:
        if args.pin:
            return pin(args)
        if args.repeat_check:
            return repeat_check(args, spec)
        return report(args, spec)
    finally:
        _reap_all()
        sweep_segments()


def report(args, spec: dict) -> int:
    """Run the selected workloads once and print the result."""
    summaries = run_suite(args)
    print_table(summaries, spec)
    if any(not s["metrics"] for s in summaries.values()):
        return 1  # nothing measured: no result to print
    if len(summaries) == 1 and args.trace is not None:
        document = contract_object(summaries[args.workload[0]], spec)
    else:
        document = {
            "seed": args.seed,
            "workloads": {
                name: dict(
                    contract_object(summary, spec),
                    reconcile=summary["reconcile"],
                )
                for name, summary in summaries.items()
            },
        }
    text = json.dumps(document)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return int(not all(s["correct"] for s in summaries.values()))


if __name__ == "__main__":
    sys.exit(main())
