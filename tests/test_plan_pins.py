"""Literal pins of complete DMT plans at benchmark scale.

Each pin is the sha256 of a plan's every partition — rect, ``est_points``,
``est_cost`` (as ``float.hex``) and algorithm — plus its allocation
table.  The inputs are perfbench's eight ``batch_dmt`` inputs at seed 7,
the plan ``stream_append``'s bulk load builds at seed 7 (its first
rebuild) and a 3-D map, each planned through the entry point that runs
it.  A planner change that moves any float of any plan fails here.

``est_cost`` and the budget that bounds refinement are totals the
planner accumulates with builtin ``sum``, which is compensated from
Python 3.12 on.  So the digests are asserted where ``sum`` adds left to
right (3.10, 3.11: CI's ``perfbench-pins`` job runs this file on 3.11,
the interpreter ``perfbench/expected.json`` was pinned with); on a later
interpreter the pins without ``est_cost`` are.  (Summing with 3.12's
algorithm moves some ``est_cost`` by an ulp and nothing else of these
plans.)
"""

import hashlib
import sys

import numpy as np
import pytest

from repro import OutlierParams, detect_outliers
from repro.core import Dataset
from repro.data import region_dataset
from repro.mapreduce import LocalRuntime
from repro.partitioning import DMTPartitioner
from repro.streaming import StreamingDetector

#: Where builtin ``sum`` adds left to right, one rounding per item.
PLAIN_SUM = sys.version_info < (3, 12)


class _Planned(Exception):
    def __init__(self, plan):
        super().__init__()
        self.plan = plan


def first_dmt_plan(call):
    """The first plan ``DMTPartitioner`` builds inside ``call()``; the
    call is cut off there (nothing after planning runs)."""
    build = DMTPartitioner.build_plan

    def spy(self, *args, **kwargs):
        raise _Planned(build(self, *args, **kwargs))

    DMTPartitioner.build_plan = spy
    try:
        call()
    except _Planned as planned:
        return planned.plan
    finally:
        DMTPartitioner.build_plan = build
    raise AssertionError("no DMT plan was built")


def plan_digest(plan, costs: bool = True) -> str:
    """sha256 of every partition's rect, ``est_points``, algorithm and
    (with ``costs``) ``est_cost``, and of the allocation table."""
    payload = repr((
        [
            (p.pid, p.rect.low, p.rect.high, p.est_points.hex(),
             p.est_cost.hex() if costs else None, p.algorithm)
            for p in plan.partitions
        ],
        sorted(plan.allocation.items()),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def ne_samples(base_n: int, count: int, seed: int = 7) -> list:
    """perfbench's ``sample_inputs`` of its NE map: ``count`` seeded
    samples of an eighth of an eight-fold pool, rescaled to the density
    of an input-sized map."""
    pool = region_dataset("NE", base_n=base_n * 8, seed=7)
    n = pool.n // 8
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


PARAMS = OutlierParams(r=2.0, k=12)


def batch_dmt_plans() -> list:
    """The plans of ``batch_dmt``'s eight seed-7 inputs."""
    return [
        first_dmt_plan(lambda: detect_outliers(
            data, PARAMS, strategy="DMT", n_partitions=32, n_reducers=16,
            runtime=LocalRuntime(), kernel="numpy",
        ))
        for data in ne_samples(5000, 8)
    ]


def stream_bulk_load_plan():
    """The plan ``stream_append``'s bulk load builds at seed 7: 70 % of
    its input, the four bounding-box extremes included."""
    [data] = ne_samples(10000, 1)
    n, held = data.n, 3
    by_y = np.argsort(data.points[:, 1], kind="stable")
    pinned = np.array([
        int(np.argmin(data.points[:, 0])), int(np.argmax(data.points[:, 0])),
        int(by_y[0]), int(by_y[-held - 1]),
    ])
    rest = np.setdiff1d(np.arange(n), np.concatenate([by_y[-held:], pinned]))
    np.random.default_rng(7).shuffle(rest)
    head = np.concatenate([pinned, rest[:int(0.7 * n) - len(pinned)]])
    detector = StreamingDetector(
        PARAMS, strategy="DMT", n_partitions=32, n_reducers=16,
        runtime=LocalRuntime(), kernel="numpy",
    )
    return first_dmt_plan(
        lambda: detector.ingest(data.subset(np.sort(head)))
    )


def cube_plan():
    """A 3-D map: two blobs in a uniform cube."""
    rng = np.random.default_rng(11)
    points = np.vstack([
        rng.normal((10.0, 10.0, 10.0), 1.5, size=(3000, 3)),
        rng.normal((28.0, 30.0, 12.0), 3.0, size=(1500, 3)),
        rng.uniform(0.0, 40.0, size=(3000, 3)),
    ])
    return first_dmt_plan(lambda: detect_outliers(
        Dataset.from_points(points), OutlierParams(r=3.0, k=10),
        strategy="DMT", n_partitions=24, n_reducers=64,
        runtime=LocalRuntime(),
    ))


def _check(plan, pin):
    n_partitions, shape, full = pin
    assert len(plan.partitions) == n_partitions
    assert plan_digest(plan, costs=False) == shape
    if PLAIN_SUM:
        assert plan_digest(plan) == full


#: ``(partitions, digest without est_cost, full digest)``, computed on
#: the planner that walked one rectangle's mini buckets at a time.
BATCH_DMT_PINS = [
    (183, "c970c437249381f9afca831dac2f9787f86872a09fe67a41e9d6ba84fb227b71",
     "322d8c4a6949c4da70ee30fdf80727a9bd9d18e4ea7d19eea6851add61ac22fc"),
    (168, "6f62a2b37330e90ea974ce00e10852728c04e4cacb771be048838b4e3617f726",
     "31056fd055a8897c2834e0beb2c1f9c03cd8b6cdb06fae53e930fd5111cdd763"),
    (164, "d8399044e3f66a5d54e1505e13ecc1f369b4364269e6e1880b7308031e007e5f",
     "307e0e3b4b7312d1312ffa5145435abc212fde8e348539d039674ea388f2928f"),
    (177, "29b42e7ffed8c683197c07aefea7eac29c59f209c2373ebe7447038eec0cf671",
     "3f8c9cdd09f32d0b4da4dbfd87db6e0ee19c5016aad025a0984b5407a0ba89ab"),
    (158, "19bf03c1ecea85c18664afb87e4c4bb6ffeb084dc5401c6ae13ad94fec5fe36b",
     "5c98c1aa7d18c5c14c788225bd3c82202f82798763468ddc5b6de2e49e3b23f3"),
    (167, "bc3b508bc41a55c1df9014a4c50e1da24c673d000c3a7c8f2b1c16ebc6342361",
     "24ffaaf08d94f12f739196029cd6f2b876c4db91e5efad247e0c975d670dc7b2"),
    (174, "18e448b925c25bf3521694c99efc44a56c89705785f7c945dd7ff55dee39834e",
     "5f2a8cc63385acec083e4fadb97fe8465fe540a2301516270e8ffb5e20d7f031"),
    (177, "8568c15244c53b5a14b7ac3d6645dcf16a28ba5e0892d48bad34fd89f48035a5",
     "b38c352e643c9c44465d87967a6af93466a09276343e072480af84969bfb183f"),
]
STREAM_PIN = (
    247, "b6eeedd4949802fa8f5f769bf00f3e03b0a1b59c3f3c4bf3269a013fa4adfaf4",
    "f11b14afa90a7f4638b377f53963ff4999364fc82839ed04f8e7a9b6e21dc330",
)
CUBE_PIN = (
    113, "0a1099494cffe5f414825511fa77b2e9349584fc055bc5af8be738fdf13d6464",
    "6bd86cde0c2e9a050293f2f5b9a13f3c47eb9eb7e36b6bbb34d21459fcbf4efd",
)


@pytest.fixture(scope="module")
def dmt_plans():
    return batch_dmt_plans()


@pytest.mark.parametrize("i", range(8))
def test_batch_dmt_plan(dmt_plans, i):
    _check(dmt_plans[i], BATCH_DMT_PINS[i])


def test_stream_bulk_load_plan():
    _check(stream_bulk_load_plan(), STREAM_PIN)


def test_cube_plan():
    """Refinement halves some of DSHC's 104 clusters here."""
    _check(cube_plan(), CUBE_PIN)
