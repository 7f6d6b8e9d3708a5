"""One workload, one fresh process: set up, time the steps, check, report.

Started by ``run.py`` as ``python -m perfbench.child`` in its own session.
Prints one JSON object as the last line of stdout:

* ``setup_s`` — spawn to ready: interpreter start, ``import repro``,
  input generation, state build, one warm-up op;
* per step ``cal_py`` / ``cal_np`` — the two host-speed loops of
  ``calibrate.py``, timed right before each execution of every
  ``cal_every``-th step, as multiples of their reference times;
* per step: the wall of every execution, the exact figures of the first
  one, and (traced) each execution's layer numbers;
* ``attempted`` / ``failed`` ops — an op fails if it raises, if its
  outlier set differs from the independent oracle's, or if its cost
  units differ between executions;
* ``peak_rss_mb`` — read before the oracle runs, so the oracle's memory
  is never charged to the system.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback


def _schedule(n_steps: int, single_shot: bool, deadline: float):
    """Yield ``(round, step index)``: the whole sequence once, then —
    unless it can run only once — again and again until the deadline."""
    round_no = 0
    while True:
        for i in range(n_steps):
            if round_no and time.perf_counter() >= deadline:
                return
            yield round_no, i
        round_no += 1
        if single_shot:
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    from perfbench import calibrate, trace, workloads

    rec = trace.install() if args.traced else None
    workload = workloads.REGISTRY[args.workload](
        args.seed, bool(args.quick), args.out_dir
    )
    workload.setup()
    workload.warm_up()
    setup_s = time.time() - args.spawned

    steps = [
        {"name": step.name, "kind": None, "walls": [], "units": [],
         "layers": [], "cal_py": [], "cal_np": []}
        for step in workload.steps
    ]
    first_ids: dict = {}
    raised: set = set()
    if workload.single_shot:
        gc.collect()
    deadline = time.perf_counter() + args.seconds
    for round_no, i in _schedule(
        len(steps), workload.single_shot, deadline
    ):
        step, record = workload.steps[i], steps[i]
        if i % workload.cal_every == 0:
            py, np = calibrate.measure()
            record["cal_py"].append(py)
            record["cal_np"].append(np)
        if not workload.single_shot:
            gc.collect()
        if rec is not None:
            rec.begin_op(f"{step.name}#{round_no}")
        start = time.perf_counter()
        try:
            raw = step.run()
            error = None
        except Exception as exc:  # one bad op must not end the run
            traceback.print_exc()
            error = exc
        wall = time.perf_counter() - start
        layers = rec.end_op(wall) if rec is not None else None
        record["walls"].append(wall)
        if error is not None:
            raised.add((i, round_no))
            record["units"].append(None)
            continue
        result = step.describe(raw)
        record["kind"] = result.kind
        record["units"].append(result.cost_units)
        if round_no == 0:
            record["sim_detect_s"] = result.sim_detect_s
            if result.outlier_ids is not None:
                first_ids[i] = result.outlier_ids
        if layers is not None:
            layers.update(result.observed)
            layers["_wall_s"] = wall
            layers["_layers_sum_s"] = sum(
                layers.get(name, 0.0) for name in trace.RECONCILE
            )
            record["layers"].append(layers)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    exact = workload.verify(first_ids)
    extra = workload.finish(bool(args.traced))
    if rec is not None:
        rec.dump(os.path.join(args.out_dir, f"trace-{args.workload}.jsonl"))

    n_outliers = sum(len(ids) for ids in first_ids.values())
    digests = [
        workloads.outliers_sha256(first_ids[i]) for i in sorted(first_ids)
    ]
    if workload.single_shot:
        attempted = 1
        failed = int(bool(raised) or not extra["final_ok"])
        n_outliers, digests = extra["n_outliers"], [extra["sha256"]]
    else:
        attempted = failed = 0
        for i, record in enumerate(steps):
            units = record["units"]
            for round_no in range(len(record["walls"])):
                attempted += 1
                failed += int(
                    (i, round_no) in raised
                    or not exact.get(i, False)
                    or units[round_no] != units[0]
                )
    for record in steps:
        record["cost_units"] = record.pop("units")[0] or 0.0
        record.setdefault("sim_detect_s", 0.0)

    print(json.dumps({
        "workload": args.workload,
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "cal_weight": workload.cal_weight,
        "generate_s": workload.generate_s,
        "state_s": workload.state_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "worker_peak_rss_mb": workers.ru_maxrss / 1024,
        "workers": getattr(workload, "workers", 1),
        "n_points": workload.n_points,
        "ops_per_sequence": workload.ops_per_sequence,
        "n_outliers": n_outliers,
        "outliers_sha256": workloads.combined_sha256(digests),
        "attempted": attempted,
        "failed": failed,
        "steps": steps,
        "extra": {k: v for k, v in extra.items() if k != "final_ok"},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
