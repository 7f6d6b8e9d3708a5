"""Tests for the tiered fast→exact detection layer (repro.tiers).

The contract: the fast tier is an *optimization*, never an answer
change.  Certification is sound (every certified point really has >= k
neighbors within r), the support-halo drop removes only points no
residue query can reach, grid pruning is invisible (pruned and
full-scan certification agree bit-for-bit), and the pipeline /
checkpoint / streaming entry points return byte-identical outlier sets
under every tier.
"""

import json

import numpy as np
import pytest

from repro.core import (
    Dataset,
    OutlierParams,
    brute_force_outliers,
    detect_outliers,
)
from repro.core.config import RunConfig
from repro.costmodel import default_sample_size, select_tier
from repro.mapreduce import ClusterConfig, LocalRuntime
from repro.mapreduce.counters import Counters
from repro.metrics import resolve_metric
from repro.recovery import (
    CheckpointMismatch,
    SimulatedCrash,
    read_manifest,
    run_checkpointed,
)
from repro.sampling import collect_minibucket_stats
from repro.streaming import StreamingDetector
from repro.tiers import (
    DEFAULT_TIER,
    SensitivitySample,
    build_sensitivity_sample,
    certified_mask,
    pick_tier,
    resolve_tier,
    support_halo,
)

PARAMS = OutlierParams(r=2.0, k=4)
CFG = RunConfig.resolve(PARAMS)
CLUSTER = ClusterConfig(nodes=4)


def runtime():
    return LocalRuntime(CLUSTER)


def clustered_points(seed=0, n=600):
    """Dense cores plus uniform dust — the fast tier's home turf."""
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal((10.0, 10.0), 1.2, size=(n - n // 10, 2)),
        rng.uniform(0.0, 40.0, size=(n // 10, 2)),
    ])


def merged_counters(run) -> Counters:
    merged = Counters()
    for job in run.jobs:
        merged.merge(job.counters)
    return merged


def metric_oracle(points, ids, params, metric) -> set:
    """The O(n^2) definition, via the metric's canonical predicate."""
    m = resolve_metric(metric)
    out = set()
    for i in range(points.shape[0]):
        within = m.within_block(points[i:i + 1], points, params.r)[0]
        if int(within.sum()) - 1 < params.k:  # self always matches
            out.add(int(ids[i]))
    return out


def stats_for(dataset, n_buckets=64, rate=0.5, seed=3):
    return collect_minibucket_stats(
        runtime(), dataset.batch(), dataset.bounds,
        n_buckets=n_buckets, rate=rate, seed=seed,
    )


def sample_for(dataset, seed=3, target_size=None, rate=0.5):
    return build_sensitivity_sample(
        dataset.points, dataset.ids,
        stats_for(dataset, seed=seed, rate=rate),
        PARAMS, seed=seed, target_size=target_size,
    )


class TestResolveTier:
    def test_default_is_exact(self):
        assert resolve_tier(None) == DEFAULT_TIER == "exact"

    def test_environment_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "fast")
        assert resolve_tier(None) == DEFAULT_TIER

    def test_case_insensitive(self):
        assert resolve_tier("FAST") == "fast"
        assert resolve_tier("Auto") == "auto"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            resolve_tier("turbo")


class TestSensitivitySample:
    def test_sample_is_a_subset_with_matching_rows(self):
        data = Dataset.from_points(clustered_points())
        sample = sample_for(data)
        assert 0 < sample.size <= data.n
        index = {int(i): row for i, row in zip(data.ids, data.points)}
        for sid, spoint in zip(sample.ids, sample.points):
            np.testing.assert_array_equal(index[int(sid)], spoint)

    def test_deterministic_and_seed_sensitive(self):
        data = Dataset.from_points(clustered_points())
        a = sample_for(data, seed=3)
        b = sample_for(data, seed=3)
        c = sample_for(data, seed=4)
        np.testing.assert_array_equal(a.ids, b.ids)
        assert not np.array_equal(a.ids, c.ids)

    def test_target_size_clamped(self):
        data = Dataset.from_points(clustered_points(n=200))
        # Full-rate stats: every occupied bucket carries mass, so an
        # oversized target saturates at the whole dataset.
        huge = sample_for(data, target_size=10_000, rate=1.0)
        assert huge.size == data.n
        tiny = sample_for(data, target_size=0)
        assert tiny.size >= 1

    def test_default_sample_size_shape(self):
        # Floor of 16(k+1) for small n, 0.4n cap for large n.
        assert default_sample_size(50, PARAMS) == 50
        assert default_sample_size(1_000, PARAMS) == pytest.approx(400)
        assert default_sample_size(0, PARAMS) == 0.0

    def test_empty_input(self):
        sample = SensitivitySample(
            ids=np.empty(0, dtype=np.int64), points=np.empty((0, 2))
        )
        mask, evals = certified_mask(
            np.empty((0, 2)), np.empty(0, dtype=np.int64), sample, CFG
        )
        assert mask.shape == (0,) and evals == 0


class TestCertification:
    def test_certified_points_are_true_inliers(self):
        data = Dataset.from_points(clustered_points())
        sample = sample_for(data)
        mask, evals = certified_mask(data.points, data.ids, sample, CFG)
        assert mask.any() and evals > 0
        oracle = brute_force_outliers(data, PARAMS)
        certified = {int(i) for i in data.ids[mask]}
        assert not certified & oracle

    def test_self_witness_excluded(self):
        # Three stacked points, k=3: each has only 2 true neighbors, so
        # none may certify even though the kernel sees 3 sample hits
        # (including the query itself).
        points = np.zeros((3, 2))
        data = Dataset.from_points(points)
        sample = SensitivitySample(ids=data.ids, points=data.points)
        mask, _ = certified_mask(
            data.points, data.ids, sample,
            RunConfig.resolve(OutlierParams(r=1.0, k=3)),
        )
        assert not mask.any()

    def test_pruned_and_full_scan_agree(self):
        # The grid only prunes candidates; dropping it must never change
        # the certified set (grid-less = full sample scan).
        data = Dataset.from_points(clustered_points(seed=7))
        sample = sample_for(data)
        assert sample.grid is not None
        bare = SensitivitySample(ids=sample.ids, points=sample.points)
        pruned, _ = certified_mask(data.points, data.ids, sample, CFG)
        full, _ = certified_mask(data.points, data.ids, bare, CFG)
        np.testing.assert_array_equal(pruned, full)

    def test_metric_certification_uses_the_metric(self):
        # Under L1 a diagonal offset of (1.5, 1.5) is 3.0 > r even
        # though its Euclidean length ~2.12 is also > r here; use a
        # point Euclidean-close but L1-far to catch a metric mixup.
        center = np.zeros((6, 2))
        probe = np.array([[1.1, 1.1]])  # L2 ~1.56 <= 2.0, L1 2.2 > 2.0
        points = np.vstack([center, probe])
        data = Dataset.from_points(points)
        sample = SensitivitySample(ids=data.ids, points=data.points)
        params = OutlierParams(r=2.0, k=5)
        l2, _ = certified_mask(
            data.points, data.ids, sample,
            RunConfig.resolve(params, metric="euclidean"),
        )
        l1, _ = certified_mask(
            data.points, data.ids, sample,
            RunConfig.resolve(params, metric="minkowski:1"),
        )
        assert bool(l2[-1]) is True
        assert bool(l1[-1]) is False


class TestSupportHalo:
    def test_dropped_points_are_far_from_every_residue_point(self):
        data = Dataset.from_points(clustered_points(seed=5))
        sample = sample_for(data)
        mask, _ = certified_mask(data.points, data.ids, sample, CFG)
        dropped, evals = support_halo(
            data.points, data.ids, mask, CFG, grid=sample.grid
        )
        assert dropped and evals > 0
        certified_ids = {int(i) for i in data.ids[mask]}
        assert dropped <= certified_ids
        residue = data.points[~mask]
        for pid in dropped:
            row = data.points[int(pid)]
            dists = np.linalg.norm(residue - row, axis=1)
            assert (dists > PARAMS.r).all()

    def test_grid_and_full_scan_drops_agree(self):
        data = Dataset.from_points(clustered_points(seed=6))
        sample = sample_for(data)
        mask, _ = certified_mask(data.points, data.ids, sample, CFG)
        with_grid, _ = support_halo(
            data.points, data.ids, mask, CFG, grid=sample.grid
        )
        without, _ = support_halo(
            data.points, data.ids, mask, CFG, grid=None
        )
        assert with_grid == without

    def test_no_certified_points_drops_nothing(self):
        data = Dataset.from_points(clustered_points(n=50))
        mask = np.zeros(data.n, dtype=bool)
        dropped, evals = support_halo(data.points, data.ids, mask, CFG)
        assert dropped == set() and evals == 0

    def test_everything_certified_drops_everything(self):
        data = Dataset.from_points(clustered_points(n=50))
        mask = np.ones(data.n, dtype=bool)
        dropped, evals = support_halo(data.points, data.ids, mask, CFG)
        assert dropped == {int(i) for i in data.ids} and evals == 0


class TestTierSelection:
    def test_pick_tier_passes_through_concrete_tiers(self):
        assert pick_tier("exact", 1000, 100.0, PARAMS) == "exact"
        assert pick_tier("fast", 1000, 100.0, PARAMS) == "fast"

    def test_auto_resolves_to_a_concrete_tier(self):
        data = Dataset.from_points(clustered_points())
        stats = stats_for(data)
        tier = pick_tier(
            "auto", data.n, data.bounds.area, PARAMS, stats=stats
        )
        assert tier in ("exact", "fast")

    def test_zero_area_stays_finite(self):
        # Degenerate domains hit the inf-density limit; the comparison
        # must still return a concrete tier, not propagate inf/nan.
        assert select_tier(1000.0, 0.0, PARAMS) in ("exact", "fast")
        points = np.repeat([[3.0, 7.0]], 60, axis=0)
        data = Dataset.from_points(points)
        stats = stats_for(data, rate=1.0)
        tier = pick_tier("auto", data.n, 0.0, PARAMS, stats=stats)
        assert tier in ("exact", "fast")


class TestPipelineTiers:
    def run(self, tier, **kwargs):
        data = Dataset.from_points(clustered_points())
        kwargs.setdefault("n_partitions", 8)
        kwargs.setdefault("n_reducers", 4)
        kwargs.setdefault("cluster", CLUSTER)
        kwargs.setdefault("seed", 3)
        return data, detect_outliers(data, PARAMS, tier=tier, **kwargs)

    def test_fast_exact_auto_agree_with_oracle(self):
        data, exact = self.run("exact")
        _, fast = self.run("fast")
        _, auto = self.run("auto")
        oracle = brute_force_outliers(data, PARAMS)
        assert exact.outlier_ids == oracle
        assert fast.outlier_ids == oracle
        assert auto.outlier_ids == oracle

    def test_certification_report_fields(self):
        _, fast = self.run("fast")
        cert = fast.certification
        assert fast.tier == "fast"
        assert cert is not None
        assert cert.bound == PARAMS.k
        assert cert.certified + cert.residue == cert.n_points
        assert 0 <= cert.dropped <= cert.certified
        assert 0.0 <= fast.residue_fraction <= 1.0
        assert cert.distance_evals > 0
        counters = merged_counters(fast.run).group("tier")
        assert counters["certified"] == cert.certified
        assert counters["shuffle_dropped"] == cert.dropped

    def test_residue_fraction_deterministic(self):
        _, a = self.run("fast")
        _, b = self.run("fast")
        assert a.residue_fraction == b.residue_fraction
        assert a.certification == b.certification

    def test_exact_has_no_certification(self):
        _, exact = self.run("exact")
        assert exact.tier == "exact"
        assert exact.certification is None
        assert exact.residue_fraction is None

    def test_drop_shrinks_the_shuffle(self):
        _, exact = self.run("exact")
        _, fast = self.run("fast")
        assert fast.certification.dropped > 0
        assert fast.run.total_shuffle_records() < \
            exact.run.total_shuffle_records()
        assert merged_counters(fast.run).get("dod", "dropped_records") \
            == fast.certification.dropped

    def test_domain_rejects_fast(self):
        with pytest.raises(ValueError, match="supporting area"):
            self.run("fast", strategy="Domain")

    def test_domain_auto_degrades_to_exact(self):
        data, result = self.run("auto", strategy="Domain")
        assert result.tier == "exact"
        assert result.outlier_ids == brute_force_outliers(data, PARAMS)

    def test_metric_run_degrades_and_stays_exact(self):
        # MetricSafe degrade path: certification verifies witnesses with
        # the actual metric, so verdicts still match the metric oracle.
        data = Dataset.from_points(clustered_points(n=300))
        common = dict(
            n_partitions=8, n_reducers=4, cluster=CLUSTER, seed=3,
            metric="minkowski:1",
        )
        exact = detect_outliers(data, PARAMS, tier="exact", **common)
        fast = detect_outliers(data, PARAMS, tier="fast", **common)
        assert fast.strategy == "MetricSafe"
        assert fast.outlier_ids == exact.outlier_ids
        assert fast.outlier_ids == metric_oracle(
            data.points, data.ids, PARAMS, "minkowski:1"
        )

    def test_trace_annotates_tier(self):
        _, fast = self.run("fast")
        assert fast.trace.attrs["tier"] == "fast"
        assert fast.trace.attrs["tier_dropped"] == \
            fast.certification.dropped
        stages = {
            child.attrs.get("stage")
            for child in fast.trace.children if child.kind == "job"
        }
        assert "tier" in stages


class TestCheckpointTiers:
    def checkpointed(self, ckpt, tier=None, **kwargs):
        data = Dataset.from_points(clustered_points(n=400))
        kwargs.setdefault("n_partitions", 8)
        kwargs.setdefault("n_reducers", 4)
        kwargs.setdefault("seed", 3)
        return data, run_checkpointed(
            data, PARAMS, ckpt, tier=tier, cluster=CLUSTER, **kwargs
        )

    def test_fast_matches_exact_and_records_identity(self, tmp_path):
        data, exact = self.checkpointed(str(tmp_path / "exact"), "exact")
        _, fast = self.checkpointed(str(tmp_path / "fast"), "fast")
        assert fast.outlier_ids == exact.outlier_ids
        assert fast.outlier_ids == brute_force_outliers(data, PARAMS)
        manifest = read_manifest(str(tmp_path / "fast"))
        assert manifest["config"]["tier"] == "fast"
        # Exact checkpoints keep the pre-tier config shape.
        manifest = read_manifest(str(tmp_path / "exact"))
        assert "tier" not in manifest["config"]

    def test_tier_mismatch_refuses_resume(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        self.checkpointed(ckpt, "fast")
        with pytest.raises(CheckpointMismatch):
            self.checkpointed(ckpt, "exact")

    def test_crash_resume_under_fast_tier(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(SimulatedCrash):
            self.checkpointed(ckpt, "fast", abort_after_commits=2)
        data, resumed = self.checkpointed(ckpt, "fast")
        assert resumed.resumed
        assert resumed.outlier_ids == brute_force_outliers(data, PARAMS)

    def test_auto_persists_resolved_tier_and_resumes(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        _, first = self.checkpointed(ckpt, "auto")
        manifest = read_manifest(ckpt)
        if first.tier == "fast":
            assert manifest["config"]["tier"] == "fast"
        else:
            assert "tier" not in manifest["config"]
        # auto re-resolves deterministically, so the rerun resumes.
        _, again = self.checkpointed(ckpt, "auto")
        assert again.resumed
        assert again.outlier_ids == first.outlier_ids


class TestStreamingTiers:
    def detector(self, tier=None, **kwargs):
        kwargs.setdefault("n_partitions", 8)
        kwargs.setdefault("n_reducers", 4)
        kwargs.setdefault("seed", 3)
        return StreamingDetector(
            PARAMS, cluster=CLUSTER, tier=tier, **kwargs
        )

    def test_fast_stream_matches_exact_every_batch(self):
        points = clustered_points(seed=9, n=500)
        fast = self.detector("fast")
        exact = self.detector("exact")
        for start in range(0, len(points), 125):
            batch = points[start:start + 125]
            fast.ingest_points(batch)
            exact.ingest_points(batch)
            assert fast.outlier_ids == exact.outlier_ids
        oracle = brute_force_outliers(
            Dataset.from_points(points), PARAMS
        )
        assert fast.outlier_ids == oracle
        assert fast.counters.get("tier", "certified") > 0

    def test_snapshot_roundtrip_keeps_tier_and_sample(self, tmp_path):
        points = clustered_points(seed=11, n=400)
        det = self.detector("fast")
        det.ingest_points(points[:300])
        path = str(tmp_path / "snap.json")
        det.save(path)
        restored = StreamingDetector.load(path, cluster=CLUSTER)
        assert restored.tier == "fast"
        assert restored._sample is not None
        assert restored._sample.grid is not None
        np.testing.assert_array_equal(
            restored._sample.ids, det._sample.ids
        )
        det.ingest_points(points[300:])
        restored.ingest_points(points[300:])
        assert restored.outlier_ids == det.outlier_ids

    def test_domain_strategy_still_rejected(self):
        with pytest.raises(ValueError, match="supporting-area"):
            self.detector("fast", strategy="Domain")


class TestTierCLI:
    @pytest.fixture
    def csv_points(self, tmp_path):
        path = tmp_path / "points.csv"
        np.savetxt(path, clustered_points(n=400), delimiter=",")
        return str(path)

    def test_detect_tier_report(self, csv_points, tmp_path):
        from repro.cli import main

        exact_out = tmp_path / "exact.json"
        fast_out = tmp_path / "fast.json"
        base = ["detect", csv_points, "-r", "2.0", "-k", "4"]
        assert main(base + ["-o", str(exact_out)]) == 0
        assert main(
            base + ["--tier", "fast", "-o", str(fast_out)]
        ) == 0
        exact = json.loads(exact_out.read_text())
        fast = json.loads(fast_out.read_text())
        assert fast["tier"] == "fast"
        assert exact["tier"] == "exact"
        assert sorted(fast["outliers"]) == sorted(exact["outliers"])
        assert fast["tier_bound"] == 4
        assert 0.0 <= fast["residue_fraction"] <= 1.0
        assert fast["tier_dropped"] >= 0
        assert fast["tier_certified"] > 0
        assert "tier_certified" not in exact

    def test_detect_rejects_unknown_tier(self, csv_points, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "detect", csv_points, "-r", "2.0", "-k", "4",
                "--tier", "turbo",
            ])

    def test_resume_keeps_fast_tier(self, csv_points, tmp_path):
        from repro.cli import main

        ckpt = str(tmp_path / "ckpt")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main([
            "detect", csv_points, "-r", "2.0", "-k", "4",
            "--tier", "fast", "--checkpoint-dir", ckpt,
            "-o", str(out_a),
        ]) == 0
        assert main(["resume", ckpt, "-o", str(out_b)]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert b["tier"] == "fast"
        assert sorted(a["outliers"]) == sorted(b["outliers"])
