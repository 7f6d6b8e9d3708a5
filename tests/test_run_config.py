"""One resolved ``RunConfig`` behind the three entry points.

``detect_outliers``, ``run_checkpointed`` and ``StreamingDetector`` take
the same keyword arguments; these tests pin that they resolve them to
the *same* frozen value, exactly once, that every rejection fires before
any job runs, and that the value's ``identity()`` is byte-for-byte the
run identity older checkpoints and snapshots were written with.
"""

import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
)
from repro.core.config import RunConfig
from repro.kernels import NumpyKernel
from repro.mapreduce import ClusterConfig, LocalRuntime
from repro.metrics import MetricUnsupported, resolve_metric
from repro.observability import Tracer
from repro.partitioning import (
    DomainPartitioner,
    MetricSafePartitioner,
    PlanRequest,
    UniSpacePartitioner,
    plan_to_dict,
)
from repro.recovery import CheckpointMismatch, run_checkpointed
from repro.recovery.checkpoint import dataset_fingerprint
from repro.recovery.snapshot import read_artifact, write_artifact
from repro.service import ServiceClient, ServiceWorker
from repro.streaming import StreamingDetector

CLUSTER = ClusterConfig(nodes=2, hdfs_block_records=64)
PARAMS = OutlierParams(r=1.5, k=4)
SIZING = dict(n_partitions=6, n_reducers=3, seed=5)


def clustered(n=160, seed=2) -> Dataset:
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal((10.0, 10.0), 1.0, size=(n - 12, 2)),
        rng.uniform(0.0, 30.0, size=(12, 2)),
    ])
    return Dataset.from_points(pts)


DATA = clustered()


def metric_oracle(dataset, params, metric) -> set:
    m = resolve_metric(metric)
    out = set()
    for i in range(dataset.n):
        within = m.within_block(
            dataset.points[i:i + 1], dataset.points, params.r
        )[0]
        if int(within.sum()) - 1 < params.k:  # self always matches
            out.add(int(dataset.ids[i]))
    return out


class CountingRuntime(LocalRuntime):
    """Counts the MapReduce jobs an entry point schedules."""

    def __init__(self):
        super().__init__(CLUSTER)
        self.jobs_run = 0

    def run(self, job, input_data, block_records=None):
        self.jobs_run += 1
        return super().run(job, input_data, block_records)


@pytest.fixture
def resolved(monkeypatch):
    """Every ``RunConfig`` resolved while the test runs."""
    seen = []
    real = RunConfig.resolve.__func__

    def spy(cls, *args, **kwargs):
        cfg = real(cls, *args, **kwargs)
        seen.append(cfg)
        return cfg

    monkeypatch.setattr(RunConfig, "resolve", classmethod(spy))
    return seen


def entry_points(tmp_path, runtime=None, **kwargs):
    """The three entry points as thunks over identical kwargs."""
    kwargs = {**SIZING, "cluster": CLUSTER, "runtime": runtime, **kwargs}
    return {
        "batch": lambda: detect_outliers(DATA, PARAMS, **kwargs),
        "checkpointed": lambda: run_checkpointed(
            DATA, PARAMS, str(tmp_path / "ckpt"), **kwargs
        ),
        "stream": lambda: StreamingDetector(PARAMS, **kwargs),
    }


# ----------------------------------------------------------------------
# The same kwargs mean the same run, whichever entry point takes them
# ----------------------------------------------------------------------
ACCEPTED = [
    dict(),
    dict(strategy="uniSpace", detector="cell_based"),
    dict(strategy="dmt", tier="fast"),
    dict(strategy="CDriven", tier="auto"),
    dict(metric="euclidean", kernel="python"),
    dict(metric="minkowski:1", tier="fast"),
    dict(metric="haversine", strategy="uniSpace",
         detector="proximity_graph"),
    dict(metric="haversine", strategy="MetricSafe", tier="auto"),
    dict(strategy=UniSpacePartitioner()),
]

REJECTED = [
    (dict(metric="haversine", detector="cell_based"), MetricUnsupported),
    (dict(metric="no-such-metric"), ValueError),
    (dict(tier="turbo"), ValueError),
    (dict(strategy="kmeans"), ValueError),
    (dict(kernel="no-such-backend"), ValueError),
    (dict(strategy="Domain", tier="fast"), ValueError),
    (dict(detector="bogus"), ValueError),
    (dict(n_partitions=0), ValueError),
]


class TestOneResolution:
    @pytest.mark.parametrize("kwargs", ACCEPTED, ids=repr)
    def test_entry_points_resolve_equal_configs(
        self, tmp_path, resolved, kwargs
    ):
        configs = {}
        for name, call in entry_points(tmp_path, **kwargs).items():
            del resolved[:]
            call()
            assert len(resolved) == 1, f"{name} resolved {len(resolved)}x"
            configs[name] = resolved[0]
        # A stream sizes its buckets/sample at each plan build; at the
        # batch run's cardinality it is the batch run's config.
        assert configs["batch"] == configs["checkpointed"]
        assert configs["stream"].sized(DATA.n) == configs["batch"]
        assert configs["stream"].n_buckets is None

    @pytest.mark.parametrize("kwargs,error", REJECTED, ids=repr)
    def test_rejections_fire_before_any_job(
        self, tmp_path, kwargs, error
    ):
        runtime = CountingRuntime()
        for name, call in entry_points(
            tmp_path, runtime=runtime, **kwargs
        ).items():
            with pytest.raises(error):
                call()
        assert runtime.jobs_run == 0
        assert not os.path.exists(tmp_path / "ckpt")

    def test_unknown_detector_is_refused_under_dmt(self):
        # DMT plans name a detector per partition, so a bogus fallback
        # used to run unnoticed; uniSpace failed inside a reduce task.
        for strategy in ("DMT", "uniSpace"):
            with pytest.raises(ValueError, match="unknown detector 'bogus'"):
                RunConfig.resolve(PARAMS, strategy=strategy, detector="bogus")

    def test_domain_auto_stays_exact_everywhere_it_runs(self, tmp_path):
        calls = entry_points(tmp_path, strategy="Domain", tier="auto")
        assert calls["batch"]().tier == "exact"
        assert calls["checkpointed"]().tier == "exact"
        with pytest.raises(ValueError, match="supporting-area"):
            calls["stream"]()

    def test_fast_on_domain_is_refused_before_planning(self, tmp_path):
        # The tier rule used to fire after the planning job was paid.
        planned = []

        class SpyDomain(DomainPartitioner):
            def build_plan(self, runtime, input_data, request):
                planned.append(request)
                return super().build_plan(runtime, input_data, request)

        calls = entry_points(tmp_path, strategy=SpyDomain(), tier="fast")
        for name in ("batch", "checkpointed"):
            with pytest.raises(ValueError, match="supporting area"):
                calls[name]()
        assert planned == []


def build_plan(strategy, metric=None):
    request = PlanRequest(
        domain=DATA.bounds, params=PARAMS, n_partitions=6,
        n_reducers=3, n_buckets=64, sample_rate=0.5, seed=5,
        metric=metric,
    )
    return strategy.timed_plan(
        LocalRuntime(CLUSTER), DATA.batch(), request
    )


class TestPrecomputedPlan:
    """``plan=`` gets the same metric check in both entry points that
    accept one (a stream always plans for itself)."""

    def entry_points(self, tmp_path, runtime, **kwargs):
        calls = entry_points(tmp_path, runtime=runtime, **kwargs)
        return [calls["batch"], calls["checkpointed"]]

    def test_rectangle_plan_under_a_metric_is_refused(self, tmp_path):
        runtime = CountingRuntime()
        plan = build_plan(UniSpacePartitioner())
        for call in self.entry_points(
            tmp_path, runtime, plan=plan, metric="minkowski:1"
        ):
            with pytest.raises(MetricUnsupported, match="rectangle"):
                call()
        assert runtime.jobs_run == 0

    def test_plan_built_under_another_metric_is_refused(self, tmp_path):
        runtime = CountingRuntime()
        plan = build_plan(MetricSafePartitioner(), metric="minkowski:1")
        for call in self.entry_points(
            tmp_path, runtime, plan=plan, metric="minkowski:3"
        ):
            with pytest.raises(ValueError, match="built under metric"):
                call()
        assert runtime.jobs_run == 0

    def test_matching_metric_plan_runs(self, tmp_path):
        plan = build_plan(MetricSafePartitioner(), metric="minkowski:1")
        oracle = metric_oracle(DATA, PARAMS, "minkowski:1")
        for call in self.entry_points(
            tmp_path, None, plan=plan, metric="minkowski:1"
        ):
            assert call().outlier_ids == oracle


# ----------------------------------------------------------------------
# identity(): the manifest config, written out literally
# ----------------------------------------------------------------------
GOLDEN_DEFAULT = {
    "r": 1.5, "k": 4, "strategy": "DMT", "detector": "nested_loop",
    "seed": 5, "n_partitions": 6, "n_reducers": 3,
}
GOLDEN_HAVERSINE = {
    "r": 1.5, "k": 4, "strategy": "MetricSafe",
    "detector": "nested_loop", "seed": 5, "n_partitions": 6,
    "n_reducers": 3, "metric": "haversine",
}
GOLDEN_FAST = {
    "r": 1.5, "k": 4, "strategy": "DMT", "detector": "nested_loop",
    "seed": 5, "n_partitions": 6, "n_reducers": 3, "tier": "fast",
}


class TestIdentity:
    def test_golden_identities(self):
        default = RunConfig.resolve(PARAMS, **SIZING)
        assert default.identity() == GOLDEN_DEFAULT
        assert default.identity("exact") == GOLDEN_DEFAULT
        assert default.identity("fast") == GOLDEN_FAST
        geo = RunConfig.resolve(PARAMS, metric="haversine", **SIZING)
        assert geo.identity() == GOLDEN_HAVERSINE

    def test_default_spellings_share_one_identity(self):
        plain = RunConfig.resolve(PARAMS, **SIZING)
        spelled = RunConfig.resolve(
            PARAMS, strategy="dmt", metric="euclidean", tier="exact",
            kernel="python", **SIZING,
        )
        assert spelled.identity() == plain.identity()
        assert spelled.metric is None

    def test_sizing_defaults(self):
        cfg = RunConfig.resolve(PARAMS, cluster=CLUSTER, n=10_000)
        assert cfg.n_reducers == min(CLUSTER.reduce_slots, 64)
        assert cfg.n_partitions == 2 * cfg.n_reducers
        assert cfg.n_buckets == 500
        assert cfg.sample_rate == 0.2
        tiny = RunConfig.resolve(PARAMS, n=100, n_buckets=7)
        assert (tiny.n_buckets, tiny.sample_rate) == (7, 0.5)

    def test_frozen_and_picklable(self):
        cfg = RunConfig.resolve(
            PARAMS, metric="haversine", tier="fast", n=DATA.n, **SIZING
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 9
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert clone.identity("fast") == cfg.identity("fast")

    @pytest.mark.parametrize(
        "golden,kwargs",
        [
            (GOLDEN_DEFAULT, dict()),
            (GOLDEN_HAVERSINE, dict(metric="haversine")),
            (GOLDEN_FAST, dict(tier="fast")),
        ],
        ids=["default", "haversine", "fast"],
    )
    def test_manifest_written_before_runconfig_still_resumes(
        self, tmp_path, golden, kwargs
    ):
        # A manifest exactly as the pre-RunConfig driver wrote it: the
        # literal config dict plus the dataset fingerprint.
        strategy = (
            MetricSafePartitioner() if "metric" in golden
            else UniSpacePartitioner()
        )
        plan = build_plan(strategy, golden.get("metric"))
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        write_artifact(
            str(ckpt / "manifest.json"), "checkpoint-manifest", 1,
            {
                "config": {
                    "fingerprint": dataset_fingerprint(DATA), **golden
                },
                "plan": plan_to_dict(plan),
                "extra": {},
            },
        )
        runtime = CountingRuntime()
        result = run_checkpointed(
            DATA, PARAMS, str(ckpt), runtime=runtime, cluster=CLUSTER,
            **SIZING, **kwargs,
        )
        assert result.resumed
        assert result.tier == golden.get("tier", "exact")
        assert result.outlier_ids == metric_oracle(
            DATA, PARAMS, golden.get("metric", "euclidean")
        )
        # ...and any other identity is still somebody else's checkpoint.
        other = dict(metric="minkowski:1") if not kwargs else dict()
        with pytest.raises(CheckpointMismatch):
            run_checkpointed(
                DATA, PARAMS, str(ckpt), cluster=CLUSTER, **SIZING, **other
            )


# ----------------------------------------------------------------------
# Streaming snapshots: payload written out literally
# ----------------------------------------------------------------------
def literal_snapshot(path, **overrides) -> None:
    """An empty stream's snapshot with every payload key spelled out."""
    payload = {
        "params": {"r": 1.5, "k": 4},
        "strategy": "DMT",
        "detector": "nested_loop",
        "kernel": None,
        "metric": None,
        "seed": 5,
        "drift_threshold": 0.25,
        "n_partitions": 6,
        "n_reducers": 3,
        "tier": "exact",
        "tier_resolved": "exact",
        "sample": None,
        "batch_index": 0,
        "ids": None,
        "points": None,
        "cache": None,
        "partition_records": {},
        "outliers_by_pid": {},
        "counters": {},
    }
    payload.update(overrides)
    write_artifact(str(path), "streaming-snapshot", 1, payload)


SNAPSHOTS = {
    "default": (dict(), dict()),
    "haversine": (
        dict(strategy="MetricSafe", metric="haversine"),
        dict(metric="haversine"),
    ),
    "fast": (dict(tier="fast", tier_resolved="fast"), dict(tier="fast")),
}


class TestSnapshotIdentity:
    @pytest.mark.parametrize("name", sorted(SNAPSHOTS))
    def test_literal_snapshot_restores_and_continues(self, tmp_path, name):
        overrides, kwargs = SNAPSHOTS[name]
        path = tmp_path / "stream.snap"
        literal_snapshot(path, **overrides)
        det = StreamingDetector.restore(
            str(path), PARAMS, cluster=CLUSTER, **SIZING, **kwargs
        )
        assert det.counters.get("recovery", "snapshot_loads") == 1
        det.ingest(DATA)
        assert det.tier == overrides.get("tier", "exact")
        assert det.outlier_ids == metric_oracle(
            DATA, PARAMS, overrides.get("metric") or "euclidean"
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(metric="haversine"),
            dict(tier="fast"),
            dict(tier="auto"),
            dict(detector="cell_based"),
            dict(strategy="uniSpace"),
        ],
        ids=repr,
    )
    def test_restore_refuses_another_identity(self, tmp_path, kwargs):
        path = tmp_path / "stream.snap"
        literal_snapshot(path)
        with pytest.raises(ValueError, match="was taken with"):
            StreamingDetector.restore(
                str(path), PARAMS, cluster=CLUSTER, **SIZING, **kwargs
            )

    def test_restore_ignores_what_is_not_identity(self, tmp_path):
        # seed, sizing and kernel are not compared: the snapshot's win,
        # except the kernel, which a restored stream adopts.
        path = tmp_path / "stream.snap"
        literal_snapshot(path)
        det = StreamingDetector.restore(
            str(path), PARAMS, cluster=CLUSTER, seed=99, n_reducers=2,
            kernel="python", metric="euclidean",
        )
        assert det.kernel == "python"
        assert (det.config.seed, det.config.n_reducers) == (5, 3)

    def test_stream_with_a_kernel_instance_saves_and_loads(self, tmp_path):
        path = str(tmp_path / "stream.snap")
        det = StreamingDetector(
            PARAMS, cluster=CLUSTER, kernel=NumpyKernel(), **SIZING
        )
        det.ingest(DATA)
        det.save(path)
        assert read_artifact(path, "streaming-snapshot", 2)[
            "kernel"] == "numpy"
        loaded = StreamingDetector.load(path, cluster=CLUSTER)
        assert loaded.kernel == "numpy"
        assert loaded.outlier_ids == det.outlier_ids

    @pytest.mark.parametrize("stored", ["numba", "fortran"])
    def test_unregistered_stored_kernel_is_only_a_hint(
        self, tmp_path, stored
    ):
        path = str(tmp_path / "stream.snap")
        literal_snapshot(path, kernel=stored)
        assert StreamingDetector.load(path, cluster=CLUSTER).kernel is None
        det = StreamingDetector.restore(
            path, PARAMS, cluster=CLUSTER, kernel="python", **SIZING
        )
        assert det.kernel == "python"
        det.ingest(DATA)
        assert det.outlier_ids == brute_force_outliers(DATA, PARAMS)

    def test_saved_payload_keys_are_frozen(self, tmp_path):
        path = str(tmp_path / "stream.snap")
        det = StreamingDetector(
            PARAMS, cluster=CLUSTER, tier="fast", **SIZING
        )
        det.ingest(DATA)
        det.save(path)
        payload = read_artifact(path, "streaming-snapshot", 2)
        # The literal is the old format: routed records are derived
        # state, so a save no longer writes them.
        reference = tmp_path / "reference.snap"
        literal_snapshot(reference)
        assert set(payload) == set(
            read_artifact(str(reference), "streaming-snapshot", 1)
        ) - {"partition_records"}
        assert (payload["tier"], payload["seed"]) == ("fast", 5)
        assert (payload["n_partitions"], payload["n_reducers"]) == (6, 3)


class TestRestoreFallbacks:
    """Both fresh-start branches are built from the requested config."""

    def check_fresh_haversine(self, det):
        assert det.n_seen == 0
        assert det.metric == "haversine"
        geo = Dataset.from_points(
            np.random.default_rng(4).uniform(
                (40.0, -75.0), (44.0, -70.0), size=(150, 2)
            )
        )
        params = det.params
        det.ingest(geo)
        assert det.plan.strategy == "MetricSafe"
        assert det.outlier_ids == metric_oracle(geo, params, "haversine")

    def test_missing_snapshot_keeps_the_metric(self, tmp_path):
        det = StreamingDetector.restore(
            str(tmp_path / "new.snap"), OutlierParams(r=60.0, k=4),
            cluster=CLUSTER, metric="haversine", **SIZING,
        )
        self.check_fresh_haversine(det)

    def test_corrupt_snapshot_keeps_the_metric(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_text("{ not a snapshot")
        with pytest.warns(RuntimeWarning, match="snapshot unusable"):
            det = StreamingDetector.restore(
                str(path), OutlierParams(r=60.0, k=4),
                cluster=CLUSTER, metric="haversine", **SIZING,
            )
        assert det.counters.get("recovery", "snapshot_fallbacks") == 1
        self.check_fresh_haversine(det)

    def test_cli_stream_first_run_with_snapshot_and_metric(
        self, tmp_path, capsys
    ):
        rng = np.random.default_rng(4)
        points = rng.uniform((40.0, -75.0), (44.0, -70.0), size=(150, 2))
        csv = tmp_path / "geo.csv"
        np.savetxt(csv, points, delimiter=",", fmt="%.10g")
        out = tmp_path / "report.json"
        code = cli_main([
            "stream", str(csv), "-r", "60", "-k", "4",
            "--metric", "haversine", "--batch-size", "50",
            "--snapshot", str(tmp_path / "new.snap"), "-o", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        report = json.loads(out.read_text())
        assert report["metric"] == "haversine"
        assert report["strategy"] == "MetricSafe"
        assert set(report["outliers"]) == metric_oracle(
            Dataset.from_points(points), OutlierParams(r=60.0, k=4),
            "haversine",
        )


# ----------------------------------------------------------------------
# A run is what its arguments say: REPRO_* variables change nothing
# ----------------------------------------------------------------------
class TestEnvironment:
    def test_stream_ignores_metric_env_set_between_batches(
        self, monkeypatch
    ):
        det = StreamingDetector(PARAMS, cluster=CLUSTER, **SIZING)
        half = DATA.n // 2
        det.ingest_points(DATA.points[:half], ids=DATA.ids[:half])
        monkeypatch.setenv("REPRO_METRIC", "minkowski:1")
        det.ingest_points(DATA.points[half:], ids=DATA.ids[half:])
        assert det.metric is None
        assert det.outlier_ids == brute_force_outliers(DATA, PARAMS)

    def test_detect_outliers_ignores_the_environment(self, monkeypatch):
        clean = detect_outliers(DATA, PARAMS, cluster=CLUSTER, **SIZING)
        monkeypatch.setenv("REPRO_METRIC", "minkowski:1")
        monkeypatch.setenv("REPRO_TIER", "fast")
        monkeypatch.setenv("REPRO_KERNEL", "python")
        tracer = Tracer()
        result = detect_outliers(
            DATA, PARAMS, cluster=CLUSTER, tracer=tracer, **SIZING
        )
        assert result.outlier_ids == clean.outlier_ids
        assert result.tier == "exact"
        assert tracer.roots[0].attrs["kernel"] == "numpy"

    def test_domain_runs_under_tier_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "fast")
        result = detect_outliers(
            DATA, PARAMS, strategy="Domain", cluster=CLUSTER, **SIZING
        )
        assert result.outlier_ids == brute_force_outliers(DATA, PARAMS)

    def test_service_worker_ignores_its_environment(
        self, tmp_path, monkeypatch
    ):
        csv = tmp_path / "points.csv"
        np.savetxt(csv, DATA.points, delimiter=",", fmt="%.17g")
        spool = str(tmp_path / "spool")
        with ServiceClient(spool) as client:
            job_id = client.submit(
                str(csv), r=PARAMS.r, k=PARAMS.k, nodes=2, **SIZING
            )
            monkeypatch.setenv("REPRO_METRIC", "minkowski:1")
            assert ServiceWorker(spool).run_forever(drain=True) == 1
            report = client.result(job_id, timeout=5.0)
        assert set(report["outliers"]) == brute_force_outliers(DATA, PARAMS)

    def test_unknown_kernel_fails_before_any_job(self, tmp_path):
        runtime = CountingRuntime()
        for call in entry_points(
            tmp_path, runtime=runtime, kernel="no-such-backend"
        ).values():
            with pytest.raises(ValueError, match="no-such-backend"):
                call()
        assert runtime.jobs_run == 0
