"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def csv_points(tmp_path):
    rng = np.random.default_rng(0)
    pts = np.vstack([
        rng.normal((10, 10), 1.0, size=(300, 2)),
        rng.uniform(0, 60, size=(20, 2)),
    ])
    path = tmp_path / "points.csv"
    np.savetxt(path, pts, delimiter=",")
    return str(path)


class TestGenerate:
    def test_state(self, tmp_path, capsys):
        out = tmp_path / "ma.csv"
        assert main(["generate", "--kind", "state", "--name", "MA",
                     "-n", "500", "-o", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (500, 2)

    def test_uniform_density(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["generate", "--kind", "uniform", "-n", "400",
                     "--density", "2.0", "-o", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (400, 2)

    def test_tiger(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["generate", "--kind", "tiger", "-n", "300",
                     "-o", str(out)]) == 0


class TestDetect:
    def test_json_report(self, csv_points, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "detect", csv_points, "-r", "2.0", "-k", "5",
            "--strategy", "uniSpace", "-o", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_points"] == 320
        assert report["n_outliers"] == len(report["outliers"])
        assert report["strategy"] == "uniSpace"
        assert set(report["breakdown_seconds"]) == {
            "preprocess", "map", "reduce"
        }

    def test_stdout_report(self, csv_points, capsys):
        assert main([
            "detect", csv_points, "-r", "2.0", "-k", "5",
            "--strategy", "uniSpace",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "outliers" in report

    def test_matches_oracle(self, csv_points, tmp_path):
        from repro.core import Dataset, OutlierParams, brute_force_outliers

        out = tmp_path / "report.json"
        main(["detect", csv_points, "-r", "2.0", "-k", "5",
              "--strategy", "DMT", "-o", str(out)])
        report = json.loads(out.read_text())
        pts = np.loadtxt(csv_points, delimiter=",")
        oracle = brute_force_outliers(
            Dataset.from_points(pts), OutlierParams(r=2.0, k=5)
        )
        assert set(report["outliers"]) == oracle

    def test_scheduler_flags(self, csv_points, tmp_path):
        """Scheduler knobs reach the runtime and don't change answers."""
        base = tmp_path / "base.json"
        main(["detect", csv_points, "-r", "2.0", "-k", "5",
              "--strategy", "DMT", "-o", str(base)])
        tuned = tmp_path / "tuned.json"
        code = main([
            "detect", csv_points, "-r", "2.0", "-k", "5",
            "--strategy", "DMT", "-o", str(tuned),
            "--workers", "2", "--max-attempts", "6",
            "--timeout", "30", "--backoff", "0.01",
            "--speculate", "--degrade", "skip",
        ])
        assert code == 0
        assert (json.loads(base.read_text())["outliers"]
                == json.loads(tuned.read_text())["outliers"])

    def test_scheduler_flag_validation(self, csv_points):
        with pytest.raises(ValueError):
            main(["detect", csv_points, "-r", "2.0", "-k", "5",
                  "--max-attempts", "0"])

    def test_trace_out_records_scheduler(self, csv_points, tmp_path,
                                         capsys):
        trace = tmp_path / "run.jsonl"
        assert main([
            "detect", csv_points, "-r", "2.0", "-k", "5",
            "--strategy", "DMT", "--trace-out", str(trace),
            "--workers", "2", "--speculate",
        ]) == 0
        from repro.observability import RunReport

        report = RunReport.load(str(trace))
        assert "speculative_attempts" in report.scheduler
        assert main(["trace", str(trace)]) == 0


def refused(argv) -> int:
    """Exit code of an invocation argparse refuses (it raises)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestRuntimeFlagValidation:
    def test_shm_without_workers_errors(self, csv_points, capsys):
        assert refused(["detect", csv_points, "-r", "2.0", "-k", "5",
                        "--transport", "shm", "--workers", "0"]) == 2
        assert "unrecognized arguments: --transport" in (
            capsys.readouterr().err
        )

    def test_transport_flag_is_gone(self, csv_points, tmp_path):
        """Shared memory is the only transport: resume and submit offer
        no choice either (detect and stream are refused above and
        below), whatever the worker count."""
        assert refused(["resume", str(tmp_path / "ckpt"), "--workers", "2",
                        "--transport", "shm"]) == 2
        spool = tmp_path / "spool"
        assert refused(["submit", csv_points, "-r", "2.0", "-k", "5",
                        "--spool", str(spool), "--workers", "2",
                        "--transport", "shm"]) == 2
        assert not spool.exists()

    @pytest.mark.parametrize("extra", [
        [], ["--speculate"], ["--transport", "shm"],
    ])
    @pytest.mark.parametrize("command", ["detect", "stream"])
    def test_negative_workers_error(
        self, command, extra, csv_points, capsys
    ):
        """A negative count is not a spelling of serial: it used to
        slip past both ``requires --workers > 0`` rules and run."""
        argv = [command, csv_points, "-r", "2.0", "-k", "5",
                "--workers", "-3", *extra]
        if extra[:1] == ["--transport"]:
            # Refused before any rule runs: the flag no longer exists.
            assert refused(argv) == 2
            return
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("--workers must be >= 0") == 1
        assert "running serially" not in err
        if extra:
            assert f"{extra[0]} " in err and "requires --workers > 0" in err

    def test_resume_and_submit_reject_negative_workers(
        self, csv_points, tmp_path, capsys
    ):
        assert main(["resume", str(tmp_path / "ckpt"),
                     "--workers", "-1"]) == 2
        assert "--workers must be >= 0" in capsys.readouterr().err
        spool = tmp_path / "spool"
        assert main(["submit", csv_points, "-r", "2.0", "-k", "5",
                     "--spool", str(spool), "--workers", "-1"]) == 2
        assert "--workers must be >= 0" in capsys.readouterr().err
        assert not spool.exists()

    def test_speculate_without_workers_errors(self, csv_points, capsys):
        code = main(["detect", csv_points, "-r", "2.0", "-k", "5",
                     "--speculate"])
        assert code == 2
        assert "--speculate requires" in capsys.readouterr().err

    def test_nonpositive_timeout_errors(self, csv_points, capsys):
        code = main(["detect", csv_points, "-r", "2.0", "-k", "5",
                     "--timeout", "0"])
        assert code == 2
        assert "--timeout must be positive" in capsys.readouterr().err

    def test_speculate_without_timeout_warns_but_runs(
        self, csv_points, tmp_path, capsys
    ):
        out = tmp_path / "r.json"
        code = main(["detect", csv_points, "-r", "2.0", "-k", "5",
                     "--workers", "2", "--speculate", "-o", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning" in err and "--timeout" in err

    def test_stream_subcommand_validates_too(self, csv_points, capsys):
        code = main(["stream", csv_points, "-r", "2.0", "-k", "5",
                     "--speculate"])
        assert code == 2
        assert "--workers > 0" in capsys.readouterr().err

    def test_submit_refuses_quarantine_out(self, csv_points, tmp_path):
        """The service refuses non-finite rows, so submit offers no
        quarantine file it would then ignore."""
        spool = tmp_path / "spool"
        assert refused(["submit", csv_points, "-r", "2.0", "-k", "5",
                        "--spool", str(spool),
                        "--quarantine-out", str(tmp_path / "q.csv")]) == 2
        assert not spool.exists()


class TestStreaming:
    def test_stream_matches_detect(self, csv_points, tmp_path):
        full = tmp_path / "full.json"
        main(["detect", csv_points, "-r", "2.0", "-k", "5", "-o",
              str(full)])
        streamed = tmp_path / "stream.json"
        code = main([
            "stream", csv_points, "-r", "2.0", "-k", "5",
            "--batch-size", "60", "--initial", "200",
            "-o", str(streamed),
        ])
        assert code == 0
        full_report = json.loads(full.read_text())
        stream_report = json.loads(streamed.read_text())
        assert stream_report["outliers"] == full_report["outliers"]
        counters = stream_report["streaming"]
        assert counters["batches"] == 3
        assert counters["points"] == 320
        assert len(stream_report["batches"]) == 3

    def test_stream_rejects_bad_batch_size(self, csv_points, capsys):
        code = main(["stream", csv_points, "-r", "2.0", "-k", "5",
                     "--batch-size", "0"])
        assert code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_detect_append_matches_one_shot(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = np.vstack([
            rng.normal((10, 10), 1.0, size=(250, 2)),
            rng.uniform(0, 30, size=(30, 2)),
        ])
        base, day2 = tmp_path / "base.csv", tmp_path / "day2.csv"
        np.savetxt(base, pts[:200], delimiter=",")
        np.savetxt(day2, pts[200:], delimiter=",")
        everything = tmp_path / "all.csv"
        np.savetxt(everything, pts, delimiter=",")

        appended = tmp_path / "appended.json"
        code = main([
            "detect", str(base), "-r", "2.0", "-k", "5",
            "--append", str(day2), "-o", str(appended),
        ])
        assert code == 0
        oneshot = tmp_path / "oneshot.json"
        main(["detect", str(everything), "-r", "2.0", "-k", "5",
              "-o", str(oneshot)])
        app_report = json.loads(appended.read_text())
        assert app_report["n_points"] == 280
        assert (app_report["outliers"]
                == json.loads(oneshot.read_text())["outliers"])
        assert app_report["streaming"]["batches"] == 2


class TestPlanAndInfo:
    def test_plan_roundtrip(self, csv_points, tmp_path):
        from repro.partitioning import load_plan

        out = tmp_path / "plan.json"
        assert main([
            "plan", csv_points, "-r", "2.0", "-k", "5",
            "--strategy", "CDriven", "--partitions", "8",
            "--reducers", "4", "-o", str(out),
        ]) == 0
        plan = load_plan(str(out))
        assert plan.strategy == "CDriven"
        assert plan.n_partitions >= 1

    def test_info(self, csv_points, capsys):
        assert main(["info", csv_points]) == 0
        out = capsys.readouterr().out
        assert "points:  320" in out
        assert "density" in out

    def test_with_ids(self, tmp_path, capsys):
        pts = np.hstack([
            np.arange(10)[:, None] * 7,  # ids 0,7,14,...
            np.random.default_rng(1).uniform(0, 5, size=(10, 2)),
        ])
        path = tmp_path / "ids.csv"
        np.savetxt(path, pts, delimiter=",")
        assert main(["info", str(path), "--with-ids"]) == 0
        assert "points:  10" in capsys.readouterr().out


class TestInputHardening:
    """NaN/inf rows and unreadable inputs fail clearly, never silently."""

    def test_nonfinite_rows_error_without_quarantine(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,nan\n4,5\ninf,6\n")
        code = main(["detect", str(path), "-r", "2.0", "-k", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "NaN/inf" in err and "--quarantine-out" in err

    def test_quarantine_diverts_and_reports(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "1,2\n3,nan\n1.5,2.5\n4,5\ninf,6\n1,1\n2,2\n9,9\n"
        )
        quarantine = tmp_path / "quarantine.csv"
        out = tmp_path / "report.json"
        code = main([
            "detect", str(path), "-r", "2.0", "-k", "2",
            "--quarantine-out", str(quarantine), "-o", str(out),
        ])
        assert code == 0
        assert "quarantined 2 rows" in capsys.readouterr().err
        bad = np.loadtxt(quarantine, delimiter=",", ndmin=2)
        assert bad.shape == (2, 2)
        report = json.loads(out.read_text())
        assert report["rows_quarantined"] == 2
        assert report["n_points"] == 6

    @pytest.mark.parametrize("command", ["detect", "stream"])
    def test_quarantine_keeps_every_input_files_rows(
        self, command, tmp_path, capsys
    ):
        """One bad row in each of two inputs: both reach the quarantine
        file, in input order, and the stream-shaped report counts them."""
        first = tmp_path / "in.csv"
        first.write_text("1,2\nnan,1\n1.5,2.5\n4,5\n1,1\n2,2\n")
        second = tmp_path / "more.csv"
        second.write_text("9,9\ninf,2\n8,8\n")
        quarantine = tmp_path / "q.csv"
        quarantine.write_text("7,7\n")  # an earlier command's leftovers
        out = tmp_path / "report.json"
        argv = [command, str(first), "-r", "2.0", "-k", "2",
                "--quarantine-out", str(quarantine), "-o", str(out)]
        if command == "detect":
            argv += ["--append", str(second)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        if command == "detect":
            assert quarantine.read_text() == "nan,1\ninf,2\n"
            assert report["rows_quarantined"] == 2
            assert report["n_points"] == 7
        else:
            assert quarantine.read_text() == "nan,1\n"
            assert report["rows_quarantined"] == 1
            assert report["n_points"] == 5

    def test_quarantine_counter_resets_per_command(self, tmp_path):
        # Embedders (and tests) invoke command functions directly,
        # bypassing main(): the module-level counter must be zeroed at
        # command entry, not only in main(), or repeated in-process
        # invocations over-report rows_quarantined.
        import repro.cli as cli_module

        path = tmp_path / "bad.csv"
        path.write_text(
            "1,2\n3,nan\n1.5,2.5\n4,5\ninf,6\n1,1\n2,2\n9,9\n"
        )
        quarantine = tmp_path / "quarantine.csv"
        out = tmp_path / "report.json"
        args = cli_module.build_parser().parse_args([
            "detect", str(path), "-r", "2.0", "-k", "2",
            "--quarantine-out", str(quarantine), "-o", str(out),
        ])
        cli_module._last_quarantined = 99  # stale prior-run state
        assert args.func(args) == 0
        assert json.loads(out.read_text())["rows_quarantined"] == 2

    def test_missing_input_is_clean_error(self, tmp_path, capsys):
        code = main([
            "detect", str(tmp_path / "nope.csv"), "-r", "1", "-k", "1",
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_ragged_csv_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        code = main(["detect", str(path), "-r", "1", "-k", "1"])
        assert code == 2
        assert "could not read" in capsys.readouterr().err


class TestServiceOpsCLI:
    """The no-daemon ops commands: health, gc, status --tenant."""

    def test_health_on_fresh_spool(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["health", "--spool", spool]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["depth"] == 0
        assert payload["workers"] == []
        assert payload["quarantined"] == 0

    def test_health_exits_3_when_degraded(self, tmp_path, capsys):
        from repro.service import JobStore

        spool = str(tmp_path / "spool")
        with JobStore(spool) as store:
            store.set_degraded("disk probe tripped")
        assert main(["health", "--spool", spool]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["degraded"]["reason"] == "disk probe tripped"

    def test_gc_requires_a_ttl(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["gc", "--spool", spool]) == 2
        assert "no retention TTL" in capsys.readouterr().err

    def test_gc_reaps_and_status_reports_expired(
        self, tmp_path, capsys
    ):
        from repro.service import JobStore

        spool = str(tmp_path / "spool")
        with JobStore(spool) as store:
            job_id = store.submit({"input": "x.csv", "r": 1.0, "k": 2})
            store.claim()
            store.finish(job_id, "done", result={"ok": 1})
        assert main(["gc", "--spool", spool, "--ttl", "0"]) == 0
        out = capsys.readouterr().out
        assert f"reaped job {job_id}" in out
        assert main(["status", str(job_id), "--spool", spool]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["state"] == "expired"
        assert view["failure_kind"] == "expired"

    def test_status_tenant_renders_rates(self, tmp_path, capsys):
        from repro.service import JobStore

        spool = str(tmp_path / "spool")
        with JobStore(spool) as store:
            store.submit(
                {"input": "x.csv", "r": 1.0, "k": 2}, tenant="acme"
            )
        assert main(["status", "--tenant", "acme",
                     "--spool", spool]) == 0
        rates = json.loads(capsys.readouterr().out)
        assert rates["acme"]["submitted"] == 1
        assert rates["acme"]["queued"] == 1

    def test_status_tenant_conflicts_with_job_id(
        self, tmp_path, capsys
    ):
        spool = str(tmp_path / "spool")
        code = main(["status", "1", "--tenant", "acme",
                     "--spool", spool])
        assert code == 2
        assert "drop the job id" in capsys.readouterr().err

    def test_status_unknown_tenant_is_clean_error(
        self, tmp_path, capsys
    ):
        spool = str(tmp_path / "spool")
        assert main(["status", "--tenant", "ghost",
                     "--spool", spool]) == 2
        assert "no jobs" in capsys.readouterr().err


class TestRecoveryCLI:
    def test_checkpoint_then_noop_resume(self, csv_points, tmp_path,
                                         capsys):
        ckpt = tmp_path / "ckpt"
        out = tmp_path / "first.json"
        assert main([
            "detect", csv_points, "-r", "2.0", "-k", "5",
            "--checkpoint-dir", str(ckpt), "-o", str(out),
        ]) == 0
        resumed_out = tmp_path / "second.json"
        assert main([
            "resume", str(ckpt), "-o", str(resumed_out),
        ]) == 0
        first = json.loads(out.read_text())
        second = json.loads(resumed_out.read_text())
        assert first["outliers"] == second["outliers"]
        assert second["resumed"] is True
        assert second["partitions_executed"] == []
        assert "resumed:" in capsys.readouterr().err

    def test_resume_refuses_metric(self, csv_points, tmp_path):
        """The metric is run identity, read from the manifest: resume
        offers no --metric it would then overwrite."""
        ckpt = tmp_path / "ckpt"
        assert main([
            "detect", csv_points, "-r", "2.0", "-k", "5",
            "--checkpoint-dir", str(ckpt), "-o", str(tmp_path / "a.json"),
        ]) == 0
        assert refused(["resume", str(ckpt), "--metric", "minkowski:1",
                        "-o", str(tmp_path / "b.json")]) == 2
        assert not (tmp_path / "b.json").exists()

    def test_stream_snapshot_resume_keeps_file_ids(self, tmp_path):
        """A resumed ``--with-ids`` stream ingests the file's ids, not a
        continuation of the snapshot's: non-contiguous ids end on the
        one-shot stream's outliers."""
        rng = np.random.default_rng(4)
        pts = np.vstack([
            rng.normal((10, 10), 1.0, size=(260, 2)),
            rng.uniform(0, 40, size=(40, 2)),
        ])[rng.permutation(300)]
        ids = np.concatenate([np.arange(1000, 1200), np.arange(5000, 5100)])
        table = np.hstack([ids[:, None], pts])
        part1, part2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        everything = tmp_path / "all.csv"
        np.savetxt(part1, table[:200], delimiter=",", fmt="%.10g")
        np.savetxt(part2, table[200:], delimiter=",", fmt="%.10g")
        np.savetxt(everything, table, delimiter=",", fmt="%.10g")
        common = ["-r", "2.0", "-k", "5", "--with-ids",
                  "--batch-size", "100"]
        snap = tmp_path / "snap.json"
        for path in (part1, part2):
            assert main(["stream", str(path), *common, "--snapshot",
                         str(snap), "-o", str(tmp_path / "s.json")]) == 0
        assert main(["stream", str(everything), *common,
                     "-o", str(tmp_path / "one.json")]) == 0
        resumed = json.loads((tmp_path / "s.json").read_text())
        oneshot = json.loads((tmp_path / "one.json").read_text())
        assert any(i >= 5000 for i in oneshot["outliers"])
        assert resumed["outliers"] == oneshot["outliers"]

    def test_stream_snapshot_resume_matches_uninterrupted(
        self, csv_points, tmp_path, capsys
    ):
        snap = tmp_path / "snap.json"
        full = tmp_path / "full.json"
        assert main([
            "stream", csv_points, "-r", "2.0", "-k", "5",
            "--batch-size", "120", "-o", str(full),
        ]) == 0
        # Same stream, snapshotting every batch, then a second process
        # resumes from the snapshot and ingests more data.
        assert main([
            "stream", csv_points, "-r", "2.0", "-k", "5",
            "--batch-size", "120", "--snapshot", str(snap),
            "-o", str(tmp_path / "s1.json"),
        ]) == 0
        report = json.loads((tmp_path / "s1.json").read_text())
        assert (report["outliers"]
                == json.loads(full.read_text())["outliers"])
        assert main([
            "stream", csv_points, "-r", "2.0", "-k", "5",
            "--batch-size", "120", "--snapshot", str(snap),
            "-o", str(tmp_path / "s2.json"),
        ]) == 0
        assert "resumed stream" in capsys.readouterr().err
        resumed = json.loads((tmp_path / "s2.json").read_text())
        assert resumed["n_points"] == 2 * report["n_points"]

    def test_stream_snapshot_param_mismatch_is_clean_error(
        self, csv_points, tmp_path, capsys
    ):
        snap = tmp_path / "snap.json"
        assert main([
            "stream", csv_points, "-r", "2.0", "-k", "5",
            "--batch-size", "200", "--snapshot", str(snap),
        ]) == 0
        code = main([
            "stream", csv_points, "-r", "3.0", "-k", "5",
            "--batch-size", "200", "--snapshot", str(snap),
        ])
        assert code == 2
        assert "snapshot" in capsys.readouterr().err

    def test_clean_shm_dry_run(self, capsys):
        assert main(["clean-shm", "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
