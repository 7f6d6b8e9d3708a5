"""Literal pins of the deterministic fields of four small benchmark runs.

Each pin is a value copied from a former baseline JSON, not regenerated:
outlier count and hash, distance evaluations, cost units and shuffle
records per run, plus the proximity graph's residue share and the fast
tier's residue share and certification bound where the run has them.
The runs are the MA region at ``base_n=1500``, DMT over 8 partitions and
4 reducers on a 4-node cluster with 250-record blocks, seed 7:

* ``bench_smoke`` — Nested-Loop at r=2, k=12: serial on the ``python``
  and ``numpy`` kernels, and on a 2-worker pool;
* ``geo_smoke`` — Nested-Loop and the proximity graph under haversine at
  r=250 km, each serial and pooled;
* ``tier_smoke`` — the fast tier's serial cell of ``bench_smoke``'s
  workload (its two exact cells are ``bench_smoke``'s serial ones);
* ``ci_smoke`` — the cost summary of ``repro.experiments.ci_smoke``.

The cells of one workload pin the same outlier hash: a kernel, a pool,
a metric-generic tactic or a tier changes how the verdicts are reached,
never what they are.
"""

import hashlib

import pytest

from repro import OutlierParams, detect_outliers
from repro.data import region_dataset
from repro.experiments import ci_smoke
from repro.mapreduce import ClusterConfig, Counters, make_runtime


def outliers_hash(outlier_ids) -> str:
    blob = ",".join(str(i) for i in sorted(outlier_ids)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def smoke_fields(result) -> dict:
    """A run's deterministic fields, named and derived as the pinned
    baselines recorded them."""
    counters = Counters()
    for job in result.run.jobs:
        counters.merge(job.counters)
    fields = {
        "n_outliers": len(result.outlier_ids),
        "outliers_hash": outliers_hash(result.outlier_ids),
        "distance_evals": counters.get("dod", "distance_evals"),
        "cost_units": result.map_units + result.reduce_units,
        "shuffle_records": result.run.total_shuffle_records(),
    }
    if result.certification is not None:
        fields["tier_residue_fraction"] = (
            result.certification.residue_fraction
        )
        fields["tier_certification_bound"] = result.certification.bound
    certified = counters.get("graph", "certified")
    residue = counters.get("graph", "residue")
    if certified or residue:
        fields["residue_fraction"] = residue / (certified + residue)
    return fields


#: (baseline, detector, kernel, workers, metric, r, tier) -> fields.
CELLS = [
    (("bench_smoke", "nested_loop", "python", 0, None, 2.0, "exact"), {
        "cost_units": 107991.0, "distance_evals": 100994,
        "n_outliers": 85, "outliers_hash": "fbaa018ec659296e",
        "shuffle_records": 5497,
    }),
    (("bench_smoke", "nested_loop", "numpy", 0, None, 2.0, "exact"), {
        "cost_units": 107991.0, "distance_evals": 100994,
        "n_outliers": 85, "outliers_hash": "fbaa018ec659296e",
        "shuffle_records": 5497,
    }),
    (("bench_smoke", "nested_loop", "numpy", 2, None, 2.0, "exact"), {
        "cost_units": 107991.0, "distance_evals": 100994,
        "n_outliers": 85, "outliers_hash": "fbaa018ec659296e",
        "shuffle_records": 5497,
    }),
    (("geo_smoke", "nested_loop", "numpy", 0, "haversine", 250.0,
      "exact"), {
        "cost_units": 173295.0, "distance_evals": 168634,
        "n_outliers": 62, "outliers_hash": "394988b97991bb4a",
        "shuffle_records": 3161,
    }),
    (("geo_smoke", "nested_loop", "numpy", 2, "haversine", 250.0,
      "exact"), {
        "cost_units": 173295.0, "distance_evals": 168634,
        "n_outliers": 62, "outliers_hash": "394988b97991bb4a",
        "shuffle_records": 3161,
    }),
    (("geo_smoke", "proximity_graph", "numpy", 0, "haversine", 250.0,
      "exact"), {
        "cost_units": 1222869.0, "distance_evals": 1218208,
        "n_outliers": 62, "outliers_hash": "394988b97991bb4a",
        "residue_fraction": 0.04133333333333333,
        "shuffle_records": 3161,
    }),
    (("geo_smoke", "proximity_graph", "numpy", 2, "haversine", 250.0,
      "exact"), {
        "cost_units": 1222869.0, "distance_evals": 1218208,
        "n_outliers": 62, "outliers_hash": "394988b97991bb4a",
        "residue_fraction": 0.04133333333333333,
        "shuffle_records": 3161,
    }),
    (("tier_smoke", "nested_loop", "numpy", 0, None, 2.0, "fast"), {
        "cost_units": 186732.0, "distance_evals": 30607,
        "n_outliers": 85, "outliers_hash": "fbaa018ec659296e",
        "shuffle_records": 2757, "tier_certification_bound": 12,
        "tier_residue_fraction": 0.19466666666666665,
    }),
]

#: ``benchmarks/baselines/ci_smoke.json``, copied.
CI_SMOKE = {
    "dod_counter_total": 380402,
    "map_units": 19597.0,
    "n_outliers": 226,
    "reduce_units": 368689.0,
    "shuffle_records": 15597,
    "skew_ratio": 1.0884837898608313,
    "support_records": 11597,
    "total_units": 388286.0,
}


@pytest.fixture(scope="module")
def dataset():
    return region_dataset("MA", base_n=1500, seed=7)


def cell_id(cell) -> str:
    baseline, detector, kernel, workers, _, _, tier = cell
    where = f"pool{workers}" if workers else "serial"
    return f"{baseline}-{detector}-{kernel}-{where}-{tier}"


@pytest.mark.parametrize(
    "cell,expected", CELLS, ids=[cell_id(cell) for cell, _ in CELLS]
)
def test_cell_fields_match_the_pins(dataset, cell, expected):
    _, detector, kernel, workers, metric, r, tier = cell
    cluster = ClusterConfig(nodes=4, hdfs_block_records=250)
    with make_runtime(cluster, workers=workers) as runtime:
        result = detect_outliers(
            dataset, OutlierParams(r=r, k=12),
            strategy="DMT", detector=detector,
            n_partitions=8, n_reducers=4,
            cluster=cluster, runtime=runtime, seed=7,
            kernel=kernel, metric=metric, tier=tier,
        )
    assert smoke_fields(result) == expected


def test_ci_smoke_summary_matches_the_pins():
    assert ci_smoke.run_smoke() == CI_SMOKE
