"""Fault-injection invariance: failures must never change the answer.

The pipeline's outlier set must be byte-identical to the failure-free
serial run under crash injection, straggler latency, hangs, and mixed
plans — across retries, timeouts, backoff, speculative execution, and
any worker count.  This is the determinism contract that makes the
fault-tolerance machinery safe to enable in production.
"""

import numpy as np
import pytest

from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
)
from repro.mapreduce import (
    ClusterConfig,
    CompositeInjector,
    HangingTasks,
    LocalRuntime,
    ParallelRuntime,
    RandomFailures,
    SchedulerConfig,
    SlowTasks,
)
from repro.observability import render_report

#: Small blocks so the pipeline has several map tasks to fail/slow down.
CLUSTER = ClusterConfig(
    nodes=4, map_slots_per_node=2, reduce_slots_per_node=2,
    hdfs_block_records=128,
)

PARAMS = OutlierParams(r=2.0, k=5)


def dataset():
    rng = np.random.default_rng(17)
    return Dataset.from_points(rng.uniform(0, 40, size=(500, 2)))


def run_pipeline(runtime):
    return detect_outliers(
        dataset(), PARAMS, strategy="DMT", n_partitions=6, n_reducers=3,
        cluster=CLUSTER, runtime=runtime, sample_rate=0.5, seed=1,
    )


@pytest.fixture(scope="module")
def clean_outliers():
    """The failure-free serial answer every faulty run must reproduce."""
    result = run_pipeline(LocalRuntime(CLUSTER))
    assert result.outlier_ids == brute_force_outliers(dataset(), PARAMS)
    return sorted(result.outlier_ids)


INJECTORS = {
    "random-0.1": lambda: RandomFailures(rate=0.1, seed=5),
    "random-0.3": lambda: RandomFailures(rate=0.3, seed=9),
    "slow-tasks": lambda: SlowTasks(
        {("map", 1): 0.1, ("reduce", 0): 0.15}
    ),
    "mixed-crash-latency": lambda: CompositeInjector(
        RandomFailures(rate=0.2, seed=13),
        SlowTasks({("reduce", 1): 0.15}),
        HangingTasks({("map", 0): 1}),
    ),
}

#: Scheduler exercising every mitigation at once: timeouts abandon the
#: injected hang, backoff spaces the random-crash retries, speculation
#: duplicates the injected stragglers.
SCHEDULER = SchedulerConfig(
    max_attempts=6, timeout=1.0, backoff_base=0.01, seed=3,
    speculate=True,
)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(INJECTORS))
def test_outliers_invariant_under_faults(name, workers, clean_outliers):
    runtime = ParallelRuntime(
        CLUSTER, workers=workers,
        failure_injector=INJECTORS[name](),
        scheduler=SCHEDULER,
    )
    result = run_pipeline(runtime)
    assert sorted(result.outlier_ids) == clean_outliers


@pytest.mark.parametrize("name", sorted(INJECTORS))
def test_outliers_invariant_serial(name, clean_outliers):
    """The serial runtime under the same fault plans (no speculation)."""
    runtime = LocalRuntime(
        CLUSTER, failure_injector=INJECTORS[name](),
        scheduler=SchedulerConfig(
            max_attempts=6, timeout=1.0, backoff_base=0.01, seed=3
        ),
    )
    result = run_pipeline(runtime)
    assert sorted(result.outlier_ids) == clean_outliers


def test_acceptance_crashes_stragglers_and_hangs(clean_outliers, tmp_path):
    """The ISSUE 2 acceptance scenario.

    RandomFailures(rate=0.3) plus injected straggler delays and a hang:
    the parallel pipeline must (a) reproduce the failure-free serial
    outlier set exactly and (b) leave a trace recording at least one
    speculative attempt and one retried-after-timeout attempt.

    The slow straggler sits in the map phase (4 blocks), where the
    completed-task median triggers speculation; the hang sits in the
    reduce phase, where only 3 tasks exist so speculation (min 3
    completed) cannot rescue it before the timeout fires — the timeout
    path is guaranteed to be exercised, not raced away.
    """
    injector = CompositeInjector(
        RandomFailures(rate=0.3, seed=21),
        SlowTasks({("map", 2): 0.5}),
        HangingTasks({("reduce", 2): 2}),
    )
    runtime = ParallelRuntime(
        CLUSTER, workers=4, failure_injector=injector,
        scheduler=SchedulerConfig(
            max_attempts=8, timeout=1.0, backoff_base=0.01, seed=7,
            speculate=True,
        ),
    )
    result = run_pipeline(runtime)
    assert sorted(result.outlier_ids) == clean_outliers

    report = result.report()
    attempts = report.attempt_spans()
    speculative = [a for a in attempts if a.attrs.get("speculative")]
    timed_out = [
        a for a in attempts if a.attrs.get("status") == "timeout"
    ]
    assert speculative, "trace must record a speculative attempt"
    assert timed_out, "trace must record a timed-out (retried) attempt"
    assert report.scheduler["timeouts"] >= 1
    assert report.scheduler["speculative_attempts"] >= 1
    assert report.scheduler["retries"] >= 1

    # The scheduler stats survive the JSONL round-trip and render.
    path = tmp_path / "run.jsonl"
    report.save(str(path))
    from repro.observability import RunReport

    loaded = RunReport.load(str(path))
    assert loaded.scheduler == report.scheduler
    text = render_report(loaded)
    assert "scheduler:" in text
    assert "speculative" in text
