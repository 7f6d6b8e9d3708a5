"""Literal pins of the detection reduce path at reduced benchmark scale.

Each pin is the sha256 of what a run's detection jobs report in
deterministic terms: every reduce task's ``cost_units`` (as
``float.hex``, so the order the task adds its partitions' units in is
pinned too), each job's ``dod`` and ``kernel`` counter groups
(``evals_computed`` included), every detector span's attributes in task
order (clock readings left out), and the outlier ids.  The four runs are
a DMT run shaped like perfbench's ``batch_dmt``, a uniSpace Nested-Loop
run shaped like ``batch_scan``, a short stream whose last batch forces a
plan rebuild, and a Cell-Based ring run (its fallback scans share the
kernel's tile loop).  A change to how a reduce task splits, validates,
orders or scans its partitions, or to how the kernel walks its tiles,
must leave every digest unchanged.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import OutlierParams, detect_outliers
from repro.core import Dataset
from repro.data import region_dataset, state_dataset
from repro.mapreduce import LocalRuntime
from repro.streaming import StreamingDetector


class RecordingRuntime(LocalRuntime):
    """A serial runtime that keeps every job result it returns."""

    def __init__(self) -> None:
        super().__init__()
        self.jobs = []

    def run(self, job, *args, **kwargs):
        result = super().run(job, *args, **kwargs)
        self.jobs.append(result)
        return result


def sampled(pool: Dataset, n: int, seed: int) -> Dataset:
    """An ``n``-point sample of ``pool`` at the density of an ``n``-point
    map, as perfbench draws its inputs."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(pool.n, n, replace=False))
    return Dataset.from_points(
        pool.points[rows] * (n / pool.n) ** 0.5, pool.name
    )


def reduce_digest(jobs, outlier_ids) -> str:
    """sha256 of the detection jobs' reduce tasks, counters, detector
    spans and the outlier ids."""
    payload = []
    for job in jobs:
        spans = [
            span.attrs for span in job.trace.walk()
            if span.kind == "detector"
        ]
        if not spans:
            continue  # not a detection job (sampling, certification)
        payload.append({
            "job": job.job_name,
            "task_units": [t.cost_units.hex() for t in job.reduce_tasks],
            "dod": job.counters.group("dod"),
            "kernel": job.counters.group("kernel"),
            "spans": spans,
        })
    payload.append(sorted(int(i) for i in outlier_ids))
    blob = json.dumps(payload, sort_keys=True, default=int)
    return hashlib.sha256(blob.encode()).hexdigest()


def dmt_run() -> str:
    pool = region_dataset("NE", base_n=2500 * 8, seed=7)
    runtime = RecordingRuntime()
    outliers = set()
    for seed in (7, 8):
        result = detect_outliers(
            sampled(pool, pool.n // 8, seed), OutlierParams(r=2.0, k=12),
            strategy="DMT", n_partitions=32, n_reducers=16,
            runtime=runtime, kernel="numpy",
        )
        outliers |= {(seed, i) for i in result.outlier_ids}
    return reduce_digest(runtime.jobs, [i for _, i in sorted(outliers)])


def scan_run() -> str:
    pool = state_dataset("OH", n=12000 * 8, seed=7)
    runtime = RecordingRuntime()
    result = detect_outliers(
        sampled(pool, pool.n // 8, 7), OutlierParams(r=5.0, k=40),
        strategy="uniSpace", detector="nested_loop", n_partitions=16,
        n_reducers=8, runtime=runtime, kernel="numpy",
    )
    return reduce_digest(runtime.jobs, result.outlier_ids)


def stream_run() -> str:
    """Bulk-load 70 % of a map (its other bounding-box extremes
    included), append 200 more points in x order as 40-point batches; the
    last batch also holds the point of largest y, which lies outside the
    cached plan's domain and forces one rebuild."""
    pool = region_dataset("NE", base_n=1500 * 8, seed=7)
    data = sampled(pool, pool.n // 8, 7)
    x, y = data.points[:, 0], data.points[:, 1]
    top = int(np.argmax(y))
    rest = np.setdiff1d(np.arange(data.n), [top])
    rng = np.random.default_rng(7)
    head = np.union1d(
        rng.choice(rest, int(0.7 * data.n), replace=False),
        [np.argmin(x), np.argmax(x), np.argmin(y)],
    )
    tail = np.setdiff1d(rest, head)
    tail = tail[np.argsort(x[tail], kind="stable")][:200]
    batches = np.array_split(tail, 5)
    batches[-1] = np.append(batches[-1], top)
    runtime = RecordingRuntime()
    detector = StreamingDetector(
        OutlierParams(r=2.0, k=12), strategy="DMT", n_partitions=32,
        n_reducers=16, runtime=runtime, kernel="numpy",
    )
    detector.ingest(data.subset(head))
    rebuilds = []
    for rows in batches:
        report = detector.ingest(data.subset(rows))
        rebuilds.append(not report.cache_hit)
    assert rebuilds == [False] * 4 + [True]
    return reduce_digest(runtime.jobs, detector.outlier_ids)


def ring_run() -> str:
    pool = state_dataset("OH", n=3000 * 8, seed=7)
    runtime = RecordingRuntime()
    result = detect_outliers(
        sampled(pool, pool.n // 8, 7), OutlierParams(r=5.0, k=12),
        strategy="uniSpace", detector="cell_based_ring", n_partitions=8,
        n_reducers=4, runtime=runtime, kernel="numpy",
    )
    return reduce_digest(runtime.jobs, result.outlier_ids)


RUNS = {
    "dmt": dmt_run,
    "scan": scan_run,
    "stream": stream_run,
    "ring": ring_run,
}

PINS = {
    "dmt": (
        "98652306312d220b16567a4715138e25439e50b70c46064b8af9df0d608afe16"
    ),
    "scan": (
        "013be48b51a31d9730072c3c68916b800eb192472f483b19c81060553d991203"
    ),
    "stream": (
        "722d7c0ba8dcd9d1e8f5a725ac4a37bbf41805de471817987f0c096367142f34"
    ),
    "ring": (
        "3fc1fdd04a30e3e22200ce177fbf3575e2958bb6a4a04b26d50c938eb66764dd"
    ),
}


@pytest.mark.parametrize("run", sorted(PINS))
def test_reduce_pins(run):
    assert RUNS[run]() == PINS[run]
