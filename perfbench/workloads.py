"""The four perfbench workloads: inputs from a seed, steps, exact oracle.

Every workload is a fixed *sequence of steps* built from ``--seed``; a
child process (``child.py``) executes the sequence one or more times and
times each step.  For the three batch workloads a step is one
``detect_outliers`` call on one of several inputs; for ``stream_append``
a step is one ``ingest`` or ``save`` of a scripted stream, executed once
per child because it mutates the detector.

**What the seed draws.**  A workload is defined by its *map* — where the
generator put the dense cores, the sprawl and the empty land — as much as
by ``n``, ``r`` and ``k``: the largest partition, and with it peak
memory, reducer balance and simulated makespan, differ by 15-25 % between
two generated maps.  So the map is fixed (``MAP_SEED``) and the seed draws
the *points*: each input is a seeded sample of ``n`` rows from a pool of
``POOL x n`` points generated on that map, scaled so the sample has
exactly the density a directly generated ``n``-point set would have.  The
DMT plan is a discrete object and still moves cost units by ~5 % from
sample to sample, which is why a batch run averages several inputs.

Sizes below are the defaults; ``quick=True`` divides point counts by 4
and shortens the sequences (used by ``perfbench/tests``).
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro import OutlierParams, detect_outliers
from repro.core import Dataset, neighbor_counts
from repro.data import region_dataset, state_dataset
from repro.mapreduce import LocalRuntime, ParallelRuntime
from repro.params import JOB_STARTUP_SECONDS, UNIT_SECONDS
from repro.streaming import StreamingDetector

#: name -> one-line reason, in run order (mirrored in BENCHMARK.json).
WORKLOADS = {
    "batch_dmt": "framework-bound serial DMT run: plan, routing and "
                 "shuffle are ~85% of the op, reducers ~10%",
    "batch_scan": "kernel-bound serial uniSpace/nested-loop run: no "
                  "sampling job or DSHC, reducers ~75% of the op",
    "parallel_shm": "batch_dmt's exact inputs on a 2-worker process pool "
                    "over the shm transport: same work, other execution "
                    "layer",
    "stream_append": "the same layers used incrementally: micro-batch "
                     "appends, forced plan rebuilds and snapshots beside "
                     "each other",
}

#: Inputs per run for the batch workloads (see module docstring).
DMT_DATASETS = 8
SCAN_DATASETS = 4

#: The generator seed of every workload's map, and how many times more
#: points than one input its pool holds.
MAP_SEED = 7
POOL = 8


def sample_inputs(pool: Dataset, n: int, count: int, seed: int) -> list:
    """``count`` seeded ``n``-point samples of ``pool``, each scaled to
    the density of an ``n``-point map (every length the generators use —
    domain side, blob spread — grows with the square root of the
    cardinality)."""
    rng = np.random.default_rng(seed)
    scale = (n / pool.n) ** 0.5
    return [
        Dataset.from_points(
            pool.points[np.sort(rng.choice(pool.n, n, replace=False))]
            * scale,
            pool.name,
        )
        for _ in range(count)
    ]


def outliers_sha256(ids) -> str:
    """SHA-256 of the sorted outlier ids, the repo's result fingerprint."""
    text = ",".join(str(int(i)) for i in sorted(ids))
    return hashlib.sha256(text.encode()).hexdigest()


def combined_sha256(digests) -> str:
    """One fingerprint for a run's per-input fingerprints."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def oracle_outliers(dataset: Dataset, params: OutlierParams) -> set:
    """The exact outlier set, computed without the system under test.

    A k-d tree range count; points with a neighbour within one part in
    1e9 of distance ``r`` (where tree and detector arithmetic could
    round differently) are re-counted with the repo's all-pairs
    reference.  ``run.py --pin`` checks this oracle against
    ``repro.core.brute_force_outliers`` itself.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(dataset.points)
    inner = tree.query_ball_point(
        dataset.points, params.r * (1 - 1e-9), return_length=True
    )
    outer = tree.query_ball_point(
        dataset.points, params.r * (1 + 1e-9), return_length=True
    )
    counts = outer - 1  # a point is not its own neighbour
    unsure = np.flatnonzero(inner != outer)
    if unsure.size:
        counts[unsure] = neighbor_counts(
            dataset.points[unsure], dataset.points, params.r,
            exclude_self=True,
        )
    return set(dataset.ids[counts < params.k].tolist())


@dataclass
class StepResult:
    """What the child records about one executed step."""

    kind: str  # "detect" | "append" | "rebuild" | "save"
    cost_units: float = 0.0
    sim_detect_s: float = 0.0
    #: Outlier ids the step produced (batch steps), checked after the
    #: timed loop so the oracle never runs beside a measurement.
    outlier_ids: Optional[set] = None
    #: Exact per-step figures that only a traced run publishes.
    observed: dict = field(default_factory=dict)


@dataclass
class Step:
    """``run`` is the timed call into the repo and returns its result
    object; ``describe`` reads that object after the clock stopped."""

    name: str
    run: Callable[[], object]
    describe: Callable[[object], StepResult]


class Workload:
    """Base: ``setup()`` builds inputs and state, ``steps`` is the
    sequence, ``finish()`` does end-of-sequence checks."""

    name = ""
    #: Divisor turning summed step values into the per-op figure.
    ops_per_sequence = 1
    #: True when the sequence mutates state and can run only once.
    single_shot = False
    #: The host-speed loops run before every ``cal_every``-th step
    #: (the stream's appends are shorter than the loops).
    cal_every = 1
    #: Interpreter-bound share of the op, for ``calibrate.host_factor``:
    #: in a slow phase of the host ``batch_dmt`` slows like the mean of
    #: the two loops, ``batch_scan`` like the numpy loop alone.
    cal_weight = 0.5

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        self.seed = seed
        self.quick = quick
        self.out_dir = out_dir
        self.steps: List[Step] = []
        self.n_points = 0
        self.generate_s = 0.0
        self.state_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def oracle_inputs(self) -> List[Dataset]:
        """The point sets whose exact outlier sets the run must
        reproduce, in the order their fingerprints are combined."""
        raise NotImplementedError

    def verify(self, outlier_ids: dict) -> dict:
        """Step index -> whether that step's outlier set is the exact
        one; runs after the timed loop."""
        return {}

    def finish(self, traced: bool) -> dict:
        """End-of-sequence work; returns extra child-level numbers."""
        return {}


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
class _Batch(Workload):
    params: OutlierParams
    n_datasets = 1

    def _pool(self) -> Dataset:
        """The map's point pool: ``POOL`` times one input's size."""
        raise NotImplementedError

    def _runtime(self) -> LocalRuntime:
        return LocalRuntime()

    def _detect(self, dataset: Dataset):
        raise NotImplementedError

    def setup(self) -> None:
        n = 2 if self.quick else self.n_datasets
        self.ops_per_sequence = n
        start = time.perf_counter()
        pool = self._pool()
        self.datasets = sample_inputs(pool, pool.n // POOL, n, self.seed)
        self.generate_s = time.perf_counter() - start
        self.n_points = self.datasets[0].n
        self.runtime = self._runtime()
        self.steps = [
            Step(
                f"detect[{i}]",
                functools.partial(self._detect, dataset),
                self._describe,
            )
            for i, dataset in enumerate(self.datasets)
        ]

    def _describe(self, res) -> StepResult:
        return StepResult(
            kind="detect",
            cost_units=res.map_units + res.reduce_units,
            sim_detect_s=(
                res.job_startup_seconds
                + res.simulated_map_seconds
                + res.simulated_reduce_seconds
            ),
            outlier_ids=res.outlier_ids,
            observed={
                "_detect_shuffle_records": res.run.total_shuffle_records(),
                "allocation.imbalance": res.load_imbalance,
                "observability.spans_per_op": sum(
                    1 for _ in res.trace.walk()
                ),
            },
        )

    def warm_up(self) -> None:
        self._detect(self.datasets[0])

    def oracle_inputs(self) -> List[Dataset]:
        return self.datasets

    def verify(self, outlier_ids: dict) -> dict:
        return {
            i: ids == oracle_outliers(self.datasets[i], self.params)
            for i, ids in outlier_ids.items()
        }


class BatchDMT(_Batch):
    name = "batch_dmt"
    params = OutlierParams(r=2.0, k=12)
    n_datasets = DMT_DATASETS

    def _pool(self) -> Dataset:
        return region_dataset(
            "NE", base_n=(1250 if self.quick else 5000) * POOL,
            seed=MAP_SEED,
        )

    def _detect(self, dataset: Dataset):
        return detect_outliers(
            dataset, self.params, strategy="DMT", n_partitions=32,
            n_reducers=16, runtime=self.runtime, kernel="numpy",
        )


class ParallelShm(BatchDMT):
    name = "parallel_shm"

    def _runtime(self) -> LocalRuntime:
        self.workers = min(2, os.cpu_count() or 1)
        return ParallelRuntime(workers=self.workers, transport="shm")

    def finish(self, traced: bool) -> dict:
        if not traced:
            return {}
        # One serial pass over the same inputs, for parallel.speedup.
        serial, walls = LocalRuntime(), []
        for dataset in self.datasets:
            start = time.perf_counter()
            detect_outliers(
                dataset, self.params, strategy="DMT", n_partitions=32,
                n_reducers=16, runtime=serial, kernel="numpy",
            )
            walls.append(time.perf_counter() - start)
        return {"serial_walls": walls}


class BatchScan(_Batch):
    name = "batch_scan"
    cal_weight = 0.0
    params = OutlierParams(r=5.0, k=40)
    n_datasets = SCAN_DATASETS

    def _pool(self) -> Dataset:
        return state_dataset(
            "OH", n=(7500 if self.quick else 30000) * POOL,
            seed=MAP_SEED,
        )

    def _detect(self, dataset: Dataset):
        return detect_outliers(
            dataset, self.params, strategy="uniSpace",
            detector="nested_loop", n_partitions=16, n_reducers=8,
            runtime=self.runtime, kernel="numpy",
        )


# ----------------------------------------------------------------------
# Streaming workload
# ----------------------------------------------------------------------
class StreamAppend(Workload):
    """Bulk-load 70 % of a region, then a scripted stream.

    The stream is ``n_batches`` micro-batches of ``batch_size`` points in
    ascending x (spatially local, so an append dirties few partitions),
    a snapshot after every ``save_every``-th batch, and exactly
    ``n_rebuilds`` plan rebuilds.  Rebuilds are forced, not left to the
    data: the ``n_rebuilds`` points with the largest y are held back and
    fed one at a time, in ascending y, to evenly spaced batches — each
    lies outside the cached plan's domain, which invalidates the plan.
    The bulk load holds the other bounding-box extremes, so no other
    batch can expand the domain, and a 30 % random tail cannot reach the
    0.25 density-drift threshold.  The rebuild count is therefore the
    same for every seed, which x-sorting the raw tail does not give
    (5 rebuilds for seed 7, 10 for seed 3).
    """

    name = "stream_append"
    single_shot = True
    cal_every = 5
    params = OutlierParams(r=2.0, k=12)
    batch_size = 40
    n_batches = 60
    save_every = 30
    n_rebuilds = 3

    def setup(self) -> None:
        if self.quick:
            self.n_batches, self.save_every = 24, 12
        start = time.perf_counter()
        pool = region_dataset(
            "NE", base_n=(2500 if self.quick else 10000) * POOL,
            seed=MAP_SEED,
        )
        data = sample_inputs(pool, pool.n // POOL, 1, self.seed)[0]
        self.generate_s = time.perf_counter() - start
        self.data = data
        head, batches = self._script(data)
        self.n_points = sum(len(b) for b in batches)
        self.snapshot_path = os.path.join(
            self.out_dir, f"snapshot-{os.getpid()}.json"
        )
        self.seen = np.concatenate([head] + batches)

        start = time.perf_counter()
        self.detector = self._new_detector()
        self.detector.ingest(data.subset(np.sort(head)))
        self.state_s = time.perf_counter() - start

        self.steps = []
        for i, rows in enumerate(batches):
            self.steps.append(Step(
                f"ingest[{i}]",
                functools.partial(self.detector.ingest, data.subset(rows)),
                self._describe_ingest,
            ))
            if (i + 1) % self.save_every == 0:
                self.steps.append(Step(
                    f"save[{i}]",
                    functools.partial(
                        self.detector.save, self.snapshot_path
                    ),
                    lambda _: StepResult(kind="save"),
                ))

    def _new_detector(self) -> StreamingDetector:
        return StreamingDetector(
            self.params, strategy="DMT", n_partitions=32, n_reducers=16,
            runtime=LocalRuntime(), kernel="numpy",
        )

    def _script(self, data: Dataset):
        n, r = data.n, self.n_rebuilds
        by_y = np.argsort(data.points[:, 1], kind="stable")
        triggers = by_y[-r:]
        pinned = np.array([
            int(np.argmin(data.points[:, 0])),
            int(np.argmax(data.points[:, 0])),
            int(by_y[0]),
            int(by_y[-r - 1]),
        ])
        rest = np.setdiff1d(
            np.arange(n), np.concatenate([triggers, pinned])
        )
        rng = np.random.default_rng(self.seed)
        rng.shuffle(rest)
        n_head = int(0.7 * n) - len(pinned)
        head = np.concatenate([pinned, rest[:n_head]])
        tail = rest[n_head:]
        tail = tail[np.argsort(data.points[tail, 0], kind="stable")]
        at = {
            (j + 1) * self.n_batches // (r + 1): triggers[j]
            for j in range(r)
        }
        batches, cursor = [], 0
        for i in range(self.n_batches):
            take = self.batch_size - (1 if i in at else 0)
            rows = tail[cursor:cursor + take]
            cursor += take
            if i in at:
                rows = np.append(rows, at[i])
            batches.append(rows)
        return head, batches

    def _describe_ingest(self, report) -> StepResult:
        cluster = self.detector.cluster
        observed = {
            "_detect_shuffle_records": sum(
                job.shuffle_records for job in report.jobs
            ),
            "observability.spans_per_op": sum(
                1 for _ in report.trace.walk()
            ),
        }
        loads = [
            t.cost_units for job in report.jobs for t in job.reduce_tasks
            if t.cost_units > 0
        ]
        if loads:
            observed["allocation.imbalance"] = (
                max(loads) * len(loads) / sum(loads)
            )
        if report.cache_hit:
            observed["streaming.dirty_ratio"] = report.dirty_ratio
        return StepResult(
            kind="append" if report.cache_hit else "rebuild",
            cost_units=sum(
                t.cost_units for job in report.jobs
                for t in job.map_tasks + job.reduce_tasks
            ),
            sim_detect_s=sum(
                JOB_STARTUP_SECONDS + UNIT_SECONDS * (
                    job.simulated_phase_time("map", cluster, "units")
                    + job.simulated_phase_time("reduce", cluster, "units")
                )
                for job in report.jobs
            ),
            observed=observed,
        )

    def warm_up(self) -> None:
        # A throw-away detector over a sliver of the data: first-call
        # costs of ingest and save (lazy imports, numpy paths) are paid
        # here, not in the first timed step.
        warm = self._new_detector()
        sliver = self.data.subset(np.arange(0, self.data.n, 10))
        warm.ingest(sliver.subset(np.arange(sliver.n - 40)))
        warm.ingest(sliver.subset(np.arange(sliver.n - 40, sliver.n)))
        warm.save(self.snapshot_path)
        os.unlink(self.snapshot_path)

    def oracle_inputs(self) -> List[Dataset]:
        return [self.data.subset(np.sort(self.seen))]

    def finish(self, traced: bool) -> dict:
        final = set(self.detector.outlier_ids)
        oracle = oracle_outliers(self.oracle_inputs()[0], self.params)
        extra = {
            "final_ok": final == oracle,
            "n_outliers": len(final),
            "sha256": outliers_sha256(final),
            "snapshot_bytes": 0,
        }
        if os.path.exists(self.snapshot_path):
            extra["snapshot_bytes"] = os.path.getsize(self.snapshot_path)
            if traced:
                # The sequence ends on a save, so a load must restore
                # the final answer.
                start = time.perf_counter()
                loaded = StreamingDetector.load(
                    self.snapshot_path, runtime=LocalRuntime()
                )
                extra["snapshot_load_s"] = time.perf_counter() - start
                extra["final_ok"] = (
                    extra["final_ok"] and set(loaded.outlier_ids) == final
                )
            os.unlink(self.snapshot_path)
        return extra


REGISTRY = {
    cls.name: cls
    for cls in (BatchDMT, BatchScan, ParallelShm, StreamAppend)
}
