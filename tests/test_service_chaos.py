"""Fault-matrix chaos harness for the service tier.

Faults crossed with the lifecycle stage they strike:

===================  =====================================================
fault                stage it strikes
===================  =====================================================
worker SIGKILL       *commit* (``REPRO_CHAOS_KILL_AFTER_COMMITS`` fires
                     right after a durable journal commit) and *claim*
                     (a poison spec kills the worker the instant the job
                     is picked up, before any progress)
driver SIGKILL       *supervision* — nobody left to adopt the orphan
ENOSPC injection     *commit* (``REPRO_CHAOS_ENOSPC_AFTER_COMMITS`` makes
                     the journal's fsync path fail) and *settle*
                     (``REPRO_CHAOS_ENOSPC_AT=trace`` / ``=result``
                     fails the trace / result artifact write, ``=error``
                     a failed job's ``error.txt``)
clock-skewed lease   *settle* — a skewed sweeper re-queues a live
                     worker's job; two owners race to finish it
SQLite busy          *submit/claim/settle* — concurrent connections
                     hammer one spool through BEGIN IMMEDIATE
TTL gc               every stage — the sweeper runs while jobs churn
===================  =====================================================

Invariants, checked throughout: no hang (every drain exits), no byte
divergence for any job that completes, poison jobs quarantine within
their retry budget with journals preserved, gc never reaps an
unsettled job, and disk pressure degrades (typed rejection) instead of
corrupting.

Everything here spawns real processes and real SIGKILLs — marked
``chaos`` (and ``slow``) so tier-1 CI skips it; the service CI job runs
it.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import Dataset, detect_outliers
from repro.params import OutlierParams
from repro.recovery import ENOSPC_AFTER_ENV, ENOSPC_AT_ENV
from repro.service import (
    InvalidTransition,
    JobFailed,
    JobStore,
    ServiceClient,
)
from repro.service.worker import CHAOS_SPEC_ENV

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def chaos_dataset(n=240, seed=11) -> Dataset:
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal((8.0, 8.0), 1.0, size=(n - 15, 2)),
        rng.uniform(0.0, 40.0, size=(15, 2)),
    ])
    return Dataset.from_points(pts)


DATASET = chaos_dataset()
PARAMS = OutlierParams(r=1.2, k=8)
SIZING = dict(n_partitions=6, n_reducers=3, seed=5)

ORACLE = sorted(detect_outliers(
    DATASET, PARAMS, strategy="DMT", detector="nested_loop", **SIZING,
).outlier_ids)


@pytest.fixture
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    np.savetxt(path, DATASET.points, delimiter=",", fmt="%.10g")
    return str(path)


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


def _submit(spool, points_csv, **overrides):
    with ServiceClient(spool) as client:
        kwargs = dict(
            r=PARAMS.r, k=PARAMS.k, seed=SIZING["seed"],
            n_partitions=SIZING["n_partitions"],
            n_reducers=SIZING["n_reducers"], nodes=2,
        )
        kwargs.update(overrides)
        return client.submit(points_csv, **kwargs)


def _serve_env(kill_after=None, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    for key in ("REPRO_CHAOS_KILL_AFTER_COMMITS", ENOSPC_AFTER_ENV,
                ENOSPC_AT_ENV, CHAOS_SPEC_ENV):
        env.pop(key, None)
    if kill_after is not None:
        # The journal lives in the worker process, so this SIGKILLs
        # workers (never the driver) right after a durable commit.
        env["REPRO_CHAOS_KILL_AFTER_COMMITS"] = str(kill_after)
    if env_extra:
        env.update(env_extra)
    return env


def _serve(spool, tmp_path, kill_after=None, timeout=240, extra=(),
           env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--spool", spool,
         "--drain", "--workers", "1", *extra],
        cwd=str(tmp_path), env=_serve_env(kill_after, env_extra),
        capture_output=True, text=True, timeout=timeout,
    )


def _repro(args, tmp_path, env_extra=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(tmp_path), env=_serve_env(env_extra=env_extra),
        capture_output=True, text=True, timeout=timeout,
    )


def _result(spool, job_id):
    with ServiceClient(spool) as client:
        return client.result(job_id, timeout=10.0)


class TestWorkerKill:
    def test_killed_worker_resumes_byte_identical(
        self, spool, points_csv, tmp_path
    ):
        job_id = _submit(spool, points_csv)
        proc = _serve(spool, tmp_path, kill_after=2)
        assert proc.returncode == 0, proc.stderr
        # The driver really lost workers and re-queued their job.
        assert "exited with code" in proc.stderr
        assert "re-queued 1 orphaned job" in proc.stderr

        report = _result(spool, job_id)
        assert report["outliers"] == ORACLE
        assert report["attempts"] > 1
        assert report["resumed"] is True
        assert len(report["partitions_replayed"]) >= 1

    def test_every_kill_still_converges_with_two_jobs(
        self, spool, points_csv, tmp_path
    ):
        first = _submit(spool, points_csv, tenant="a")
        second = _submit(spool, points_csv, tenant="b",
                         lane="interactive")
        proc = _serve(spool, tmp_path, kill_after=2)
        assert proc.returncode == 0, proc.stderr
        for job_id in (first, second):
            assert _result(spool, job_id)["outliers"] == ORACLE


class TestDriverKill:
    def _wait_for(self, predicate, timeout=60.0, interval=0.005):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(interval)
        pytest.fail("condition not reached before timeout")

    def test_restarted_serve_adopts_and_finishes(
        self, spool, points_csv, tmp_path
    ):
        job_id = _submit(spool, points_csv)
        # Serve forever (no --drain): the worker will SIGKILL itself
        # after 3 commits; we SIGKILL the driver as soon as the job is
        # claimed, so nobody is left to re-queue the orphan.
        driver = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--spool", spool,
             "--workers", "1"],
            cwd=str(tmp_path), env=_serve_env(kill_after=3),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            with JobStore(spool) as store:
                self._wait_for(
                    lambda: store.get(job_id)["state"] == "running"
                )
                os.kill(driver.pid, signal.SIGKILL)
                driver.wait(timeout=30)

                def orphaned():
                    job = store.get(job_id)
                    if job["state"] != "running":
                        return False
                    try:
                        os.kill(int(job["owner_pid"]), 0)
                    except (ProcessLookupError, TypeError):
                        return True
                    return False

                self._wait_for(orphaned)
                # Driver dead, worker dead, job stuck running: the
                # exact state a crashed host leaves behind.
                assert store.get(job_id)["state"] == "running"
        finally:
            if driver.poll() is None:  # pragma: no cover - lost race
                driver.kill()
                driver.wait(timeout=30)

        restarted = _serve(spool, tmp_path)  # clean env: no kill hook
        assert restarted.returncode == 0, restarted.stderr
        assert "adopted 1 in-flight job" in restarted.stderr

        report = _result(spool, job_id)
        assert report["outliers"] == ORACLE
        assert report["attempts"] >= 2
        assert report["resumed"] is True
        assert len(report["partitions_replayed"]) >= 1


class TestPoisonQuarantine:
    def test_poison_job_quarantined_within_budget(
        self, spool, points_csv, tmp_path
    ):
        # A spec that SIGKILLs every worker the moment the job is
        # claimed: no incarnation ever makes progress, so only the
        # retry budget can end the crash loop.  A healthy job rides
        # alongside to prove the pool stays usable throughout.
        with JobStore(spool) as store:
            poison = store.submit({
                "input": points_csv, "r": PARAMS.r, "k": PARAMS.k,
                "chaos_kill_at_start": True,
            })
        healthy = _submit(spool, points_csv, tenant="bystander")

        proc = _serve(
            spool, tmp_path,
            extra=("--max-attempts", "2"),
            env_extra={CHAOS_SPEC_ENV: "1"},
        )
        # Drain exited: quarantined is terminal, so the poison job
        # cannot wedge the queue (the no-hang invariant).
        assert proc.returncode == 0, proc.stderr
        assert "quarantined 1 poison job" in proc.stderr

        with JobStore(spool) as store:
            row = store.get(poison)
            assert row["state"] == "quarantined"
            assert row["attempts"] == 2  # exactly the budget, no more
            assert row["failure_kind"] == "quarantine"
            assert "post-mortem" in row["error"]
            # The spool dir (journal home) survives for post-mortem.
            assert os.path.isdir(store.job_dir(poison))

        with ServiceClient(spool) as client:
            with pytest.raises(JobFailed, match="poison job"):
                client.result(poison, timeout=5.0)
            assert client.health()["quarantined"] == 1
        assert _result(spool, healthy)["outliers"] == ORACLE

    def test_health_cli_reports_quarantine(
        self, spool, points_csv, tmp_path
    ):
        with JobStore(spool) as store:
            store.submit({
                "input": points_csv, "r": PARAMS.r, "k": PARAMS.k,
                "chaos_kill_at_start": True,
            })
        proc = _serve(
            spool, tmp_path, extra=("--max-attempts", "1"),
            env_extra={CHAOS_SPEC_ENV: "1"},
        )
        assert proc.returncode == 0, proc.stderr
        health = _repro(["health", "--spool", spool], tmp_path)
        assert health.returncode == 0, health.stderr  # not degraded
        assert '"quarantined": 1' in health.stdout


class TestDiskPressure:
    def test_enospc_at_commit_degrades_and_recovers(
        self, spool, points_csv, tmp_path
    ):
        job_id = _submit(spool, points_csv)
        proc = _serve(
            spool, tmp_path, env_extra={ENOSPC_AFTER_ENV: "2"}
        )
        assert proc.returncode == 0, proc.stderr  # drain still exits

        with JobStore(spool) as store:
            row = store.get(job_id)
            assert row["state"] == "failed"
            assert row["failure_kind"] == "disk"
            assert store.degraded() is not None

        # Degrade mode: typed rejection at the CLI boundary (exit 3),
        # health answers with exit 3 too.
        refused = _repro(
            ["submit", points_csv, "-r", str(PARAMS.r),
             "-k", str(PARAMS.k), "--spool", spool],
            tmp_path,
        )
        assert refused.returncode == 3
        assert "degraded" in refused.stderr
        health = _repro(["health", "--spool", spool], tmp_path)
        assert health.returncode == 3
        assert '"ok": false' in health.stdout

        # Space "returns": degrade lifts, a resubmission converges.
        with JobStore(spool) as store:
            assert store.clear_degraded() is True
        retry = _submit(spool, points_csv)
        proc = _serve(spool, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert _result(spool, retry)["outliers"] == ORACLE

    def test_enospc_at_settle_fails_job_not_worker(
        self, spool, points_csv, tmp_path
    ):
        self.check_enospc_at_artifact("result", spool, points_csv, tmp_path)

    def test_enospc_at_trace_write_fails_job_not_worker(
        self, spool, points_csv, tmp_path
    ):
        self.check_enospc_at_artifact("trace", spool, points_csv, tmp_path)

    def check_enospc_at_artifact(self, site, spool, points_csv, tmp_path):
        # The fault strikes a job artifact write (trace.jsonl, then
        # result.json), after the whole detection ran: the job must
        # settle failed/disk (never half-done), the service degrade, no
        # result.json or temp file be left, and the journal survive.
        job_id = _submit(spool, points_csv)
        healthy_after = _submit(spool, points_csv, tenant="later")
        proc = _serve(
            spool, tmp_path,
            env_extra={ENOSPC_AT_ENV: site},
        )
        assert proc.returncode == 0, proc.stderr
        with JobStore(spool) as store:
            row = store.get(job_id)
            assert row["state"] == "failed"
            assert row["failure_kind"] == "disk"
            assert row["result"] is None
            assert store.degraded() is not None
            job_dir = store.job_dir(job_id)
            left = os.listdir(job_dir)
            assert "result.json" not in left
            assert not [name for name in left if name.endswith(".tmp")]
            ckpt = os.path.join(job_dir, "ckpt")
            assert os.path.isdir(ckpt)  # journal kept, not torn down
            # Both jobs hit the same fault; both settled, neither hung.
            assert store.get(healthy_after)["state"] == "failed"
            store.clear_degraded()
        retry = _submit(spool, points_csv)
        proc = _serve(spool, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert _result(spool, retry)["outliers"] == ORACLE


    def test_enospc_at_error_file_keeps_the_jobs_own_failure(
        self, spool, points_csv, tmp_path
    ):
        # A job fails on its input (a NaN row), then the disk is full
        # for its error.txt: the row keeps the job's own error and kind,
        # but a full disk is always a disk event, so the service
        # degrades; nothing is left half-written in the job directory.
        bad_csv = tmp_path / "nan.csv"
        with open(points_csv) as src:
            rows = src.read().splitlines()
        rows.insert(3, "nan,1.0")
        bad_csv.write_text("\n".join(rows) + "\n")
        job_id = _submit(spool, str(bad_csv))
        proc = _serve(spool, tmp_path, env_extra={ENOSPC_AT_ENV: "error"})
        assert proc.returncode == 0, proc.stderr
        with JobStore(spool) as store:
            row = store.get(job_id)
            assert row["state"] == "failed"
            assert "nan" in row["error"].lower()
            assert "disk pressure" not in row["error"]
            assert row["failure_kind"] != "disk"
            assert store.degraded() is not None
            job_dir = store.job_dir(job_id)
            left = os.listdir(job_dir) if os.path.isdir(job_dir) else []
            assert "error.txt" not in left
            assert not [name for name in left if name.endswith(".tmp")]


class TestClockSkewedLease:
    def test_double_claim_settles_exactly_once(self, spool, points_csv):
        # A sweeper with a fast clock re-queues a perfectly healthy
        # worker's job; a second worker claims it.  Whoever settles
        # first wins; the loser's settle is refused — one result, no
        # byte divergence, no crash.
        job_id = _submit(spool, points_csv)
        with JobStore(spool) as store:
            first = store.claim(owner_pid=11111)
            assert first["id"] == job_id
            deadline = store.get(job_id)["lease_deadline"]
            report = store.requeue_orphans(
                is_alive=lambda pid: True,  # the owner IS alive
                now=deadline + 3600.0,      # but the clock says expired
            )
            assert report["requeued"] == [job_id]
            second = store.claim(owner_pid=22222)
            assert second["id"] == job_id
            store.finish(
                job_id, "done", result={"winner": 2}, owner_pid=22222
            )
            with pytest.raises(InvalidTransition):
                store.finish(
                    job_id, "done", result={"winner": 1},
                    owner_pid=11111,
                )
            row = store.get(job_id)
            assert row["result"] == {"winner": 2}
            assert row["attempts"] == 2


class TestSqliteContention:
    def test_concurrent_submit_claim_settle_conserves_jobs(
        self, spool, points_csv
    ):
        # Many connections hammer one spool through BEGIN IMMEDIATE:
        # busy_timeout must absorb the contention — no "database is
        # locked" escapes, every job settles exactly once.
        n_submitters, per_submitter, n_claimers = 4, 8, 2
        total = n_submitters * per_submitter
        with JobStore(spool) as store:
            store.configure(max_depth=1000, tenant_max_inflight=1000)
        errors, settled = [], []
        stop = threading.Event()

        def submitter(index):
            try:
                with JobStore(spool) as store:
                    for _ in range(per_submitter):
                        store.submit(
                            {"input": points_csv, "r": 1.2, "k": 8},
                            tenant=f"t{index}",
                        )
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        def claimer():
            try:
                with JobStore(spool) as store:
                    while not stop.is_set():
                        job = store.claim(owner_pid=os.getpid())
                        if job is None:
                            time.sleep(0.001)
                            continue
                        store.finish(
                            job["id"], "done", result={"ok": 1},
                            owner_pid=os.getpid(),
                        )
                        settled.append(job["id"])
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(i,))
            for i in range(n_submitters)
        ] + [
            threading.Thread(target=claimer)
            for _ in range(n_claimers)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 120.0
        while len(settled) < total and time.monotonic() < deadline:
            if errors:
                break
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert len(settled) == total          # no hang, no loss
        assert len(set(settled)) == total     # no double execution
        with JobStore(spool) as store:
            assert store.stats()["states"]["done"] == total


class TestGcUnderChurn:
    def test_sweeper_only_ever_reaps_settled_jobs(
        self, spool, points_csv, tmp_path
    ):
        # A tight TTL keeps the sweeper reaping every housekeeping pass
        # while the kill hook churns workers.  The tombstone records
        # the pre-expiry state, so "gc never reaps unsettled" is
        # checkable after the fact: every expired row must have been
        # settled 'done' first.
        first = _submit(spool, points_csv, tenant="a")
        second = _submit(spool, points_csv, tenant="b")
        proc = _serve(
            spool, tmp_path, kill_after=2,
            extra=("--ttl", "0.001"),
        )
        assert proc.returncode == 0, proc.stderr
        with JobStore(spool) as store:
            for job_id in (first, second):
                row = store.get(job_id)
                if row["state"] == "done":
                    assert row["result"]["outliers"] == ORACLE
                else:
                    assert row["state"] == "expired"
                    assert "settled 'done'" in row["error"]

    def test_gc_cli_end_to_end(self, spool, points_csv, tmp_path):
        # The CI gc-smoke path: run to done, sweep via the CLI, then
        # status/result must answer with the typed expired state.
        job_id = _submit(spool, points_csv)
        proc = _serve(spool, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert _result(spool, job_id)["outliers"] == ORACLE

        dry = _repro(
            ["gc", "--spool", spool, "--ttl", "0", "--dry-run"],
            tmp_path,
        )
        assert dry.returncode == 0, dry.stderr
        assert f"would reap job {job_id}" in dry.stdout

        swept = _repro(
            ["gc", "--spool", spool, "--ttl", "0"], tmp_path
        )
        assert swept.returncode == 0, swept.stderr
        assert f"reaped job {job_id}" in swept.stdout

        status = _repro(
            ["status", str(job_id), "--spool", spool], tmp_path
        )
        assert '"state": "expired"' in status.stdout
        result = _repro(
            ["result", str(job_id), "--spool", spool], tmp_path
        )
        assert result.returncode == 2
        assert "expired" in result.stderr
