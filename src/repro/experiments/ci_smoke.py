"""CI benchmark smoke: one small deterministic run, exact-match gated.

The simulated runtime's cost units (distance evaluations + weighted index
operations) are deterministic by construction — same dataset seed, same
plan, same work — so CI can regression-gate on *exact* equality against a
checked-in baseline instead of a noisy wall-clock threshold.  Any change
to partitioning, detector accounting, or the shuffle shows up as a
cost-unit diff here before it shows up as a performance regression.

Usage::

    python -m repro.experiments.ci_smoke --check benchmarks/baselines/ci_smoke.json
    python -m repro.experiments.ci_smoke --update benchmarks/baselines/ci_smoke.json
    python -m repro.experiments.ci_smoke --check ... --trace-out run.jsonl

``--check`` exits non-zero on any mismatch, printing a per-key diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from ..core import detect_outliers
from ..data import state_dataset
from ..observability import Tracer, render_report
from ..params import OutlierParams
from ..recovery import write_atomic
from .common import EXPERIMENT_CLUSTER, cost_summary

__all__ = ["run_smoke", "main"]

#: Fixed smoke configuration — small enough for seconds-scale CI, big
#: enough that every pipeline stage (sampling, DSHC, allocation, both
#: shuffle legs) does real work.
SMOKE_N = 4000
SMOKE_SEED = 7
SMOKE_PARAMS = dict(r=2.0, k=12)
SMOKE_REDUCERS = 8
SMOKE_PARTITIONS = 16


def run_smoke(trace_out: str | None = None) -> Dict[str, float]:
    """Run the smoke experiment; return its deterministic summary."""
    dataset = state_dataset("MA", n=SMOKE_N, seed=SMOKE_SEED)
    params = OutlierParams(**SMOKE_PARAMS)
    tracer = Tracer()
    result = detect_outliers(
        dataset, params, strategy="DMT", detector="nested_loop",
        n_partitions=SMOKE_PARTITIONS, n_reducers=SMOKE_REDUCERS,
        cluster=EXPERIMENT_CLUSTER, seed=1, tracer=tracer,
    )
    summary = cost_summary(result)
    if trace_out:
        report = result.report()
        report.save(trace_out)
        print(render_report(report))
        print(f"\ntrace report -> {trace_out}")
    return summary


def _compare(summary: Dict[str, float],
             baseline: Dict[str, float]) -> list[str]:
    """Exact-match comparison; returns human-readable mismatch lines."""
    problems = []
    for key in sorted(set(summary) | set(baseline)):
        got, want = summary.get(key), baseline.get(key)
        if got != want:
            problems.append(f"  {key}: baseline {want!r} != run {got!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Deterministic cost-unit smoke check for CI."
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", metavar="BASELINE",
                      help="compare against this baseline JSON; exit 1 "
                           "on any mismatch")
    mode.add_argument("--update", metavar="BASELINE",
                      help="(re)write the baseline JSON from this run")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="also write the JSONL run report here")
    args = parser.parse_args(argv)

    summary = run_smoke(trace_out=args.trace_out)
    print("run summary:")
    print(json.dumps(summary, indent=2, sort_keys=True))

    if args.update:
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        write_atomic(args.update, [text.encode("utf-8")])
        print(f"baseline updated -> {args.update}")
        return 0

    with open(args.check) as f:
        baseline = json.load(f)
    problems = _compare(summary, baseline)
    if problems:
        print(f"\nBASELINE MISMATCH vs {args.check}:")
        print("\n".join(problems))
        print("(if the change is intentional, regenerate with "
              f"--update {args.check})")
        return 1
    print(f"baseline match: {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
