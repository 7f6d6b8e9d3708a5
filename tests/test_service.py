"""Service tier end-to-end: warm workers, client API, CLI acceptance.

The in-process tests drive :class:`ServiceWorker` directly (fast, stays
in tier-1): results must be byte-identical to one-shot
``detect_outliers``, repeat submissions must hit the warm plan memo,
bad inputs must settle as ``failed`` jobs rather than dead workers.

The ``slow``-marked tests are the PR's acceptance path: three tenants
submit through the real CLI, ``repro serve --drain`` runs a 2-worker
pool of spawned processes, and every tenant's result matches a one-shot
``repro detect`` byte for byte; submits past the queue bound fail fast
with exit code 3.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.core import Dataset, detect_outliers
from repro.observability import RunReport
from repro.params import OutlierParams
from repro.service import (
    JobDeadlineExceeded,
    JobExpired,
    JobFailed,
    JobStore,
    QueueFull,
    ServiceClient,
    ServiceWorker,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def service_dataset(n=240, seed=11) -> Dataset:
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal((8.0, 8.0), 1.0, size=(n - 15, 2)),
        rng.uniform(0.0, 40.0, size=(15, 2)),
    ])
    return Dataset.from_points(pts)


DATASET = service_dataset()
PARAMS = OutlierParams(r=1.2, k=8)
#: Explicit small sizing keeps the in-process jobs sub-second; the
#: one-shot oracle uses the same numbers so equality is exact.
SIZING = dict(n_partitions=6, n_reducers=3, seed=5)

ORACLE = sorted(detect_outliers(
    DATASET, PARAMS, strategy="DMT", detector="nested_loop",
    **SIZING,
).outlier_ids)


@pytest.fixture
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    np.savetxt(path, DATASET.points, delimiter=",", fmt="%.10g")
    return str(path)


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


def _submit(client, points_csv, **overrides):
    kwargs = dict(
        r=PARAMS.r, k=PARAMS.k, seed=SIZING["seed"],
        n_partitions=SIZING["n_partitions"],
        n_reducers=SIZING["n_reducers"], nodes=2,
    )
    kwargs.update(overrides)
    return client.submit(points_csv, **kwargs)


# ----------------------------------------------------------------------
# In-process: worker + client (tier-1 fast path)
# ----------------------------------------------------------------------
class TestWorkerInProcess:
    def test_result_matches_one_shot_detect(self, spool, points_csv):
        with ServiceClient(spool) as client:
            job_id = _submit(client, points_csv, tenant="acme")
            worker = ServiceWorker(spool)
            assert worker.run_forever(drain=True) == 1
            report = client.result(job_id, timeout=5.0)
        assert report["outliers"] == ORACLE
        assert report["plan_cache_hit"] is False
        assert report["queue_wait_seconds"] >= 0.0
        assert report["run_seconds"] > 0.0

    def test_repeat_submission_reuses_warm_plan(self, spool, points_csv):
        with ServiceClient(spool) as client:
            first = _submit(client, points_csv, tenant="a")
            second = _submit(client, points_csv, tenant="b")
            worker = ServiceWorker(spool)
            assert worker.run_forever(drain=True) == 2
            assert client.result(first, timeout=5.0)[
                "plan_cache_hit"] is False
            repeat = client.result(second, timeout=5.0)
        # Same dataset + params + sizing on the same warm worker: the
        # planning job is skipped, the outliers are still exact.
        assert repeat["plan_cache_hit"] is True
        assert repeat["outliers"] == ORACLE
        assert worker.plan_hits == 1 and worker.plan_misses == 1
        assert repeat["recovery"].get("plan_reused") == 1

    def test_explicit_euclidean_shares_the_default_memo(
        self, spool, points_csv
    ):
        # ``--metric euclidean`` and no flag are the same run (identical
        # manifests), so they must share one warm plan.
        with ServiceClient(spool) as client:
            _submit(client, points_csv)
            explicit = _submit(client, points_csv, metric="euclidean")
            worker = ServiceWorker(spool)
            worker.run_forever(drain=True)
            repeat = client.result(explicit, timeout=5.0)
        assert repeat["plan_cache_hit"] is True
        assert repeat["outliers"] == ORACLE

    def test_different_params_miss_the_memo(self, spool, points_csv):
        with ServiceClient(spool) as client:
            _submit(client, points_csv)
            other = _submit(client, points_csv, k=PARAMS.k + 1)
            worker = ServiceWorker(spool)
            worker.run_forever(drain=True)
            assert client.result(other, timeout=5.0)[
                "plan_cache_hit"] is False
        assert worker.plan_misses == 2

    def test_trace_artifact_splits_wait_from_run(self, spool, points_csv):
        with ServiceClient(spool) as client:
            job_id = _submit(client, points_csv)
            ServiceWorker(spool).run_forever(drain=True)
            trace_path = client.trace_path(job_id)
            client.result(job_id, timeout=5.0)
        report = RunReport.load(trace_path)
        walls = report.phase_walls[f"service_job:{job_id}"]
        assert set(walls) == {"queue_wait", "run"}
        root = report.trace[0]
        assert root.name == f"service_job:{job_id}"
        assert root.children[0].name == "queue_wait"
        assert report.counters["service"]["jobs_completed"] == 1

    def test_unreadable_input_fails_the_job_not_the_worker(
        self, spool, tmp_path, points_csv
    ):
        with ServiceClient(spool) as client:
            bad = client.submit(
                str(tmp_path / "missing.csv"), r=1.0, k=2
            )
            good = _submit(client, points_csv)
            worker = ServiceWorker(spool)
            assert worker.run_forever(drain=True) == 2
            with pytest.raises(JobFailed, match="not found"):
                client.result(bad, timeout=5.0)
            assert client.status(bad)["state"] == "failed"
            # The worker survived to run the next job.
            assert client.result(good, timeout=5.0)["outliers"] == ORACLE

    def test_nonfinite_input_fails_with_clear_error(
        self, spool, tmp_path
    ):
        path = tmp_path / "nan.csv"
        pts = DATASET.points.copy()
        pts[0, 0] = np.nan
        np.savetxt(path, pts, delimiter=",", fmt="%.10g")
        with ServiceClient(spool) as client:
            job_id = client.submit(str(path), r=1.0, k=2)
            ServiceWorker(spool).run_forever(drain=True)
            with pytest.raises(JobFailed, match="NaN/inf"):
                client.result(job_id, timeout=5.0)

    def test_cancelled_job_is_never_run(self, spool, points_csv):
        with ServiceClient(spool) as client:
            job_id = _submit(client, points_csv)
            assert client.cancel(job_id) == "cancelled"
            assert ServiceWorker(spool).run_forever(drain=True) == 0
            with pytest.raises(JobFailed):
                client.result(job_id, timeout=5.0)

    def test_in_process_server_drains_spawned_pool(
        self, spool, points_csv
    ):
        # The driver itself runs in-process here (its workers are real
        # spawned processes), so supervision/adoption code is traced.
        from repro.service import ServiceServer

        with ServiceClient(spool) as client:
            job_id = _submit(client, points_csv)
            server = ServiceServer(spool, workers=1)
            assert server.run(drain=True, max_seconds=180) == 0
            assert server.workers_spawned >= 1
            assert server.worker_pids() == []  # pool shut down
            assert client.result(job_id, timeout=5.0)[
                "outliers"] == ORACLE

    def test_worker_reuses_runtime_across_jobs(self, spool, points_csv):
        with ServiceClient(spool) as client:
            _submit(client, points_csv, tenant="a")
            _submit(client, points_csv, tenant="b")
            worker = ServiceWorker(spool)
            worker.run_forever(drain=True)
        assert len(worker._runtimes) == 1  # one (nodes, workers)

    def test_stored_pickle_transport_spec_still_runs(
        self, spool, points_csv, tmp_path
    ):
        """A spec queued before shared memory became the only transport
        still names one; it runs over shared memory all the same."""
        out = tmp_path / "detect.json"
        assert main(["detect", points_csv, "-r", str(PARAMS.r),
                     "-k", str(PARAMS.k), "-o", str(out)]) == 0
        spec = {
            "input": points_csv, "with_ids": False,
            "r": PARAMS.r, "k": PARAMS.k, "strategy": "DMT",
            "detector": "nested_loop", "seed": SIZING["seed"],
            "nodes": 2, "workers": 2, "transport": "pickle",
            "kernel": None, "metric": None,
            "n_partitions": SIZING["n_partitions"],
            "n_reducers": SIZING["n_reducers"], "tier": None,
        }
        with ServiceClient(spool) as client:
            job_id = client.store.submit(spec, tenant="old", lane="batch")
            worker = ServiceWorker(spool)
            try:
                assert worker.run_forever(drain=True) == 1
                assert list(worker._runtimes) == [(2, 2)]
            finally:
                worker.close()
            report = client.result(job_id, timeout=5.0)
            trace = RunReport.load(client.trace_path(job_id))
        assert report["outliers"] == json.loads(out.read_text())["outliers"]
        assert trace.counters["transport"]["segments"] > 0


# ----------------------------------------------------------------------
# In-process: the self-healing layer (deadlines, gc, degrade, health)
# ----------------------------------------------------------------------
class TestSelfHealingInProcess:
    def test_health_and_tenant_stats_after_drain(
        self, spool, points_csv
    ):
        with ServiceClient(spool) as client:
            _submit(client, points_csv, tenant="acme")
            worker = ServiceWorker(spool, worker_id=7)
            assert worker.run_forever(drain=True) == 1
            health = client.health()
            stats = client.tenant_stats("acme")
        assert health["ok"] is True
        assert health["quarantined"] == 0
        assert health["workers_alive"] == 1  # this very process
        (row,) = health["workers"]
        assert row["worker_id"] == 7 and row["pid"] == os.getpid()
        assert row["alive"] is True
        assert row["heartbeat_age_seconds"] >= 0.0
        assert stats["acme"]["submitted"] == 1
        assert stats["acme"]["done"] == 1
        assert stats["acme"]["queue_wait_p50_seconds"] >= 0.0
        assert stats["acme"]["queue_wait_p95_seconds"] >= 0.0

    def test_run_deadline_fails_job_with_typed_error(
        self, spool, points_csv
    ):
        with ServiceClient(spool) as client:
            client.store.configure(run_deadline_batch=1e-4)
            job_id = _submit(client, points_csv)
            # The worker aborts at its first commit boundary past the
            # deadline: the job settles failed/deadline, not the worker.
            assert ServiceWorker(spool).run_forever(drain=True) == 1
            with pytest.raises(JobDeadlineExceeded,
                               match="run deadline"):
                client.result(job_id, timeout=5.0)
            status = client.status(job_id)
        assert status["state"] == "failed"
        assert status["failure_kind"] == "deadline"

    def test_queue_deadline_fails_job_before_it_runs(
        self, spool, points_csv
    ):
        import time as _time

        with ServiceClient(spool) as client:
            client.store.configure(queue_deadline_batch=1e-6)
            job_id = _submit(client, points_csv)
            _time.sleep(0.01)
            # The claim itself expires the stale job; nothing runs.
            assert ServiceWorker(spool).run_forever(drain=True) == 0
            with pytest.raises(JobDeadlineExceeded,
                               match="queue deadline"):
                client.result(job_id, timeout=5.0)

    def test_ttl_gc_makes_results_expire(self, spool, points_csv):
        import time as _time

        with ServiceClient(spool) as client:
            job_id = _submit(client, points_csv)
            ServiceWorker(spool).run_forever(drain=True)
            assert client.result(job_id, timeout=5.0)[
                "outliers"] == ORACLE
            job_dir = client.store.job_dir(job_id)
            assert os.path.isdir(job_dir)  # ckpt + result artifacts
            swept = client.store.sweep_expired(
                ttl_seconds=0.0, now=_time.time() + 1.0
            )
            assert swept == [job_id]
            assert not os.path.isdir(job_dir)
            with pytest.raises(JobExpired, match="reaped after ttl"):
                client.result(job_id, timeout=5.0)
            assert client.status(job_id)["state"] == "expired"

    def test_enospc_degrades_service_without_corruption(
        self, spool, points_csv, monkeypatch
    ):
        from repro.recovery import ENOSPC_AFTER_ENV

        monkeypatch.setenv(ENOSPC_AFTER_ENV, "2")
        with ServiceClient(spool) as client:
            job_id = _submit(client, points_csv)
            worker = ServiceWorker(spool)
            worker.run_forever(drain=True)
            assert worker.degraded_events == 1
            status = client.status(job_id)
            assert status["state"] == "failed"
            assert status["failure_kind"] == "disk"
            assert "DiskPressureError" in status["error"]
            # The whole service is degraded: health says so and new
            # submissions bounce with typed backpressure.
            assert client.health()["ok"] is False
            with pytest.raises(QueueFull) as excinfo:
                _submit(client, points_csv)
            assert excinfo.value.reason == "disk"
            # The ops trail: a service.degraded span + counter.
            trace = RunReport.load(client.trace_path(job_id))
            assert trace.counters["service"]["degraded"] == 1
            assert trace.trace[0].children[0].name == "service.degraded"
            # The journal truncated itself to its committed prefix —
            # every surviving record is a complete line.
            ckpt = os.path.join(client.store.job_dir(job_id), "ckpt")
            journals = [
                os.path.join(root, name)
                for root, _, names in os.walk(ckpt)
                for name in names if name.endswith(".jsonl")
            ]
            for path in journals:
                with open(path) as f:
                    for line in f:
                        json.loads(line)
            # Recovery: fault gone, degrade lifted, service heals.
            monkeypatch.delenv(ENOSPC_AFTER_ENV)
            client.store.clear_degraded()
            retry = _submit(client, points_csv)
            worker.run_forever(drain=True)
            assert client.result(retry, timeout=5.0)[
                "outliers"] == ORACLE

    def test_lost_ownership_is_shrugged_off(self, spool, points_csv):
        with ServiceClient(spool) as client:
            job_id = _submit(client, points_csv)
            worker = ServiceWorker(spool)
            job = worker.store.claim(owner_pid=worker.pid)
            assert job["id"] == job_id
            # A clock-skewed sweep declares the lease dead, re-queues
            # the job, and another worker settles it first.
            client.store.requeue_orphans(is_alive=lambda pid: False)
            stolen = client.store.claim(owner_pid=worker.pid + 1)
            assert stolen["id"] == job_id
            client.store.finish(
                job_id, "failed", error="settled elsewhere",
                owner_pid=worker.pid + 1,
            )
            # The original worker finishes its (now moot) run and must
            # not die on InvalidTransition — it reports "lost".
            assert worker.run_job(job) == "lost"
            assert client.status(job_id)["state"] == "failed"


# ----------------------------------------------------------------------
# CLI acceptance: three tenants through a real spawned worker pool
# ----------------------------------------------------------------------
def _repro(args, cwd, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.pop("REPRO_CHAOS_KILL_AFTER_COMMITS", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.mark.slow
class TestServeAcceptance:
    def test_three_tenants_two_workers_byte_identical(
        self, tmp_path, points_csv, spool
    ):
        oracle_json = tmp_path / "oracle.json"
        proc = _repro(
            ["detect", points_csv, "-r", str(PARAMS.r),
             "-k", str(PARAMS.k), "--seed", "5",
             "-o", str(oracle_json)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        oracle = json.loads(oracle_json.read_text())["outliers"]

        job_ids = []
        for index, tenant in enumerate(
            ["acme", "beta", "gamma"] * 2
        ):
            lane = "interactive" if index % 3 == 0 else "batch"
            proc = _repro(
                ["submit", points_csv, "-r", str(PARAMS.r),
                 "-k", str(PARAMS.k), "--seed", "5",
                 "--spool", spool, "--tenant", tenant,
                 "--lane", lane],
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            job_ids.append(int(proc.stdout.strip()))

        proc = _repro(
            ["serve", "--spool", spool, "--drain", "--workers", "2"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "queue drained" in proc.stderr

        pids = set()
        for job_id in job_ids:
            out = tmp_path / f"result-{job_id}.json"
            proc = _repro(
                ["result", str(job_id), "--spool", spool,
                 "-o", str(out)],
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            report = json.loads(out.read_text())
            assert report["outliers"] == oracle
            pids.add(report["worker_pid"])
        # All six jobs are done and byte-identical.  How they split
        # over the pool is scheduling: one worker may drain the queue
        # before the second has finished spawning.
        assert 1 <= len(pids) <= 2

    def test_queue_full_submit_exits_3(self, tmp_path, points_csv, spool):
        with JobStore(spool) as store:
            store.configure(max_depth=1)
        ok = _repro(
            ["submit", points_csv, "-r", "1.2", "-k", "8",
             "--spool", spool],
            tmp_path,
        )
        assert ok.returncode == 0
        full = _repro(
            ["submit", points_csv, "-r", "1.2", "-k", "8",
             "--spool", spool],
            tmp_path,
        )
        assert full.returncode == 3
        assert "queue is full" in full.stderr

    def test_status_and_cancel_round_trip(self, tmp_path, points_csv, spool):
        proc = _repro(
            ["submit", points_csv, "-r", "1.2", "-k", "8",
             "--spool", spool],
            tmp_path,
        )
        job_id = proc.stdout.strip()
        status = _repro(["status", job_id, "--spool", spool], tmp_path)
        assert json.loads(status.stdout)["state"] == "queued"
        cancel = _repro(["cancel", job_id, "--spool", spool], tmp_path)
        assert cancel.returncode == 0
        assert "cancelled" in cancel.stdout
        stats = _repro(["status", "--spool", spool], tmp_path)
        assert json.loads(stats.stdout)["states"]["cancelled"] == 1
