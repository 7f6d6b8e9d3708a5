"""Tests of the benchmark itself, driven by ``run.py --quick``.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run with

    python -m pytest perfbench/tests -q        # about a minute
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
sys.path.insert(0, ROOT)

from perfbench import run as driver  # noqa: E402

RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SPEC = driver.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SERIAL = ["batch_dmt", "batch_scan", "stream_append"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_quick(*extra, cwd=ROOT, command=RUN):
    # An inherited PYTHONPATH could lend a copy of the tree this
    # checkout's program; the driver adds its own src/ itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        command + ["--quick", *extra], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


def last_json(done):
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_twice():
    return [last_json(run_quick())["workloads"] for _ in range(2)]


def values(document, workload):
    return {
        name: entry["value"]
        for name, entry in document[workload]["metrics"].items()
    }


# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = WORKLOADS + E2E + LAYERS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    budget = (4 + 22 * len(WORKLOADS)) * (SPEC["run_seconds"] + 12)
    assert budget <= 3420, "the driver's run set would not fit its limit"


def test_quick_output_has_every_metric(quick_twice):
    for document in quick_twice:
        assert list(document) == WORKLOADS
        for name, result in document.items():
            assert result["correct"] is True, name
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == E2E + LAYERS
            for metric, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), metric
            for metric in E2E:
                assert result["metrics"][metric]["value"] > 0, metric


def test_exact_metrics_repeat(quick_twice):
    exact = [
        "cost_units", "mapreduce.shuffle_records", "mapreduce.jobs",
        "mapreduce.tasks", "core.replication", "detectors.distance_evals",
        "kernels.evals_charged", "kernels.evals_computed",
        "dshc.aftree_inserts", "dshc.aftree_searches",
        "costmodel.select_calls", "streaming.rebuilds",
        "recovery.snapshot_bytes", "observability.spans_per_op",
    ]
    for workload in WORKLOADS:
        first, second = (values(d, workload) for d in quick_twice)
        for metric in exact:
            assert first[metric] == second[metric], (workload, metric)
        assert first["sim_detect_s"] == pytest.approx(
            second["sim_detect_s"], rel=1e-9
        )


def test_layer_times_reconcile_with_the_op_wall(quick_twice):
    for workload in SERIAL:
        figures = quick_twice[0][workload]["reconcile"]
        assert figures["layers_sum_s"] + figures["unattributed_s"] == (
            pytest.approx(figures["op_wall_s"], rel=1e-6)
        )
        share = values(quick_twice[0], workload)["driver.unattributed_share"]
        assert 0 <= share < 0.15


def test_workloads_stress_the_layers_they_claim(quick_twice):
    document = quick_twice[0]
    scan = values(document, "batch_scan")
    assert scan["sampling.calls"] == 0 and scan["dshc.cluster_s"] == 0
    assert scan["mapreduce.reduce_s"] > scan["mapreduce.map_s"]
    dmt = values(document, "batch_dmt")
    assert dmt["sampling.calls"] == 1 and dmt["partitioning.plan_s"] > 0
    for workload in WORKLOADS:
        metrics = values(document, workload)
        assert (metrics["shm.dispatch_s"] > 0) == (workload == "parallel_shm")
        assert metrics["driver.leaked_procs"] == 0
        assert metrics["driver.leaked_shm_segments"] == 0
    shm = values(document, "parallel_shm")
    assert shm["cost_units"] == dmt["cost_units"]
    assert shm["sim_detect_s"] == pytest.approx(dmt["sim_detect_s"], rel=1e-9)
    stream = values(document, "stream_append")
    assert stream["streaming.rebuilds"] == 3
    assert stream["recovery.snapshot_save_s"] > 0
    assert stream["recovery.snapshot_load_s"] > 0


@pytest.mark.parametrize("trace, expected", [("0", E2E), ("1", LAYERS)])
def test_contract_invocation(trace, expected):
    done = run_quick("--workload", "batch_scan", "--seed", "11",
                     "--trace", trace)
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == expected
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = run_quick(
        "--workload", "batch_dmt", "--trace", "0", cwd=tmp_path,
        command=[sys.executable, "perfbench/run.py"],
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


# ----------------------------------------------------------------------
HANG = """
import multiprocessing, time
if __name__ == "__main__":
    worker = multiprocessing.Process(target=time.sleep, args=(600,))
    worker.start()
    time.sleep(600)
"""


def test_hung_child_is_killed_with_its_workers():
    started = time.monotonic()
    done = driver.run_child(
        [sys.executable, "-c", HANG], timeout=1.5, env=dict(os.environ),
        tag="hang-test",
    )
    assert done["returncode"] is None  # timed out
    assert done["leaked_procs"] == 0
    assert driver._session_members(done["pid"]) == []
    assert time.monotonic() - started < 10


def _children_of_run(marker):
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as f:
                    if marker.encode() in f.read():
                        found.append(int(entry))
            except OSError:
                pass
    return found


def test_sigterm_to_the_driver_leaves_nothing_running(tmp_path):
    # A copy of the tree gives the children a command line of their own.
    for name in ("BENCHMARK.json", "perfbench", "src"):
        source = os.path.join(ROOT, name)
        if os.path.isdir(source):
            shutil.copytree(
                source, tmp_path / name,
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
        else:
            shutil.copy(source, tmp_path)
    marker = str(tmp_path / "perfbench" / "out")
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "parallel_shm",
         "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 20
    while not _children_of_run(marker) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _children_of_run(marker), "the driver never started a child"
    time.sleep(2.5)  # let the child get into its pool work
    pids = _children_of_run(marker)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=15) == 128 + signal.SIGTERM
    assert _children_of_run(marker) == []
    ours = tuple(f"repro-dp-{pid % 10**7}-" for pid in pids)
    assert [n for n in os.listdir("/dev/shm") if n.startswith(ours)] == []
