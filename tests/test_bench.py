"""Tests for the ``repro bench`` harness and its regression gate."""

import copy

import pytest

from repro.bench import (
    BenchConfig,
    check_against,
    load_bench,
    run_bench,
    save_bench,
)

TINY = BenchConfig(
    label="tiny", base_n=120, r=2.0, k=3,
    detectors=("nested_loop",),
    workers=2, repeats=1, n_partitions=4, n_reducers=2,
    block_records=30,
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_bench(TINY)


class TestBenchConfig:
    def test_quick_shrinks_the_matrix(self):
        q = BenchConfig.quick()
        full = BenchConfig()
        assert q.label == "smoke"
        assert q.base_n < full.base_n
        assert q.repeats <= full.repeats
        assert len(q.detectors) <= len(full.detectors)

    def test_quick_accepts_overrides(self):
        q = BenchConfig.quick(label="x", workers=1, repeats=3)
        assert (q.label, q.workers, q.repeats) == ("x", 1, 3)


class TestRunBench:
    def test_matrix_shape(self, tiny_result):
        runs = tiny_result["runs"]
        # one serial cell per kernel + one parallel cell + one serial
        # cell per non-exact tier, per detector
        extra_tiers = [t for t in TINY.tiers if t != "exact"]
        assert len(runs) == len(TINY.detectors) * (
            len(TINY.kernels) + 1 + len(extra_tiers)
        )
        kinds = {(r["runtime"], r["transport"], r["kernel"]) for r in runs}
        assert kinds == {
            ("serial", "inline", "python"),
            ("serial", "inline", "numpy"),
            ("parallel", "shm", "numpy"),
        }

    def test_transports_none_is_a_serial_only_matrix(self):
        serial_only = run_bench(BenchConfig(
            label="serial", base_n=120, r=2.0, k=3,
            detectors=("nested_loop",), kernels=("numpy",), tiers=("exact",),
            transports=(), workers=2, repeats=1, n_partitions=4,
            n_reducers=2, block_records=30,
        ))
        assert [r["runtime"] for r in serial_only["runs"]] == ["serial"]

    def test_deterministic_fields_agree_across_cells(self, tiny_result):
        runs = tiny_result["runs"]
        # Verdicts agree everywhere, tiers included; the work profile
        # (evals, shuffle volume) is only comparable among exact cells —
        # the fast tier certifies and drops by design.
        for field in ("n_outliers", "outliers_hash"):
            assert len({r[field] for r in runs}) == 1, field
        exact = [r for r in runs if r.get("tier", "exact") == "exact"]
        for field in ("distance_evals", "shuffle_records"):
            assert len({r[field] for r in exact}) == 1, field
        assert tiny_result["derived"]["identical_outliers"] is True

    def test_parallel_cells_carry_dispatch_stats(self, tiny_result):
        for cell in tiny_result["runs"]:
            if cell["runtime"] == "parallel":
                assert cell["transport_stats"]["tasks"] > 0
                assert cell["dispatch_per_task_us"] > 0
            else:
                assert "transport_stats" not in cell

    def test_derived_has_dispatch_cost_per_task(self, tiny_result):
        entry = tiny_result["derived"]["per_detector"]["nested_loop"]
        (cell,) = [
            c for c in tiny_result["runs"] if c["runtime"] == "parallel"
        ]
        assert entry["dispatch_per_task_us"] == {
            "shm": cell["dispatch_per_task_us"]
        }
        assert "dispatch_overhead_ratio" not in entry

    def test_derived_has_kernel_speedup(self, tiny_result):
        entry = tiny_result["derived"]["per_detector"]["nested_loop"]
        assert set(entry["kernel_wall_per_task_us"]) == {
            "python", "numpy"
        }
        assert entry["kernel_speedup_ratio"] > 0

    def test_serial_cells_carry_kernel_wall(self, tiny_result):
        for cell in tiny_result["runs"]:
            if cell["runtime"] == "serial":
                assert cell["kernel_wall_per_task_us"] > 0
            else:
                assert "kernel_wall_seconds" not in cell


class TestCheckAgainst:
    def test_identical_result_passes(self, tiny_result):
        assert check_against(tiny_result, tiny_result) == []

    def test_changed_outliers_fail(self, tiny_result):
        fresh = copy.deepcopy(tiny_result)
        fresh["runs"][0]["outliers_hash"] = "deadbeefdeadbeef"
        problems = check_against(tiny_result, fresh)
        assert any("outliers_hash" in p for p in problems)

    def test_ratio_regression_fails_one_sided(self, tiny_result):
        """The per-task dispatch cost is a reported number, not a gate:
        a sub-millisecond wall.  The kernel ratio and the exact fields
        gate."""
        fresh = copy.deepcopy(tiny_result)
        entry = fresh["derived"]["per_detector"]["nested_loop"]
        for moved in (0.01, 1e6):
            entry["dispatch_per_task_us"] = {"shm": moved}
            assert check_against(fresh, tiny_result, tolerance=0.25) == []
        entry["kernel_speedup_ratio"] *= 0.5
        fresh["runs"][0]["cost_units"] += 1
        problems = check_against(fresh, tiny_result, tolerance=0.25)
        assert any("kernel_speedup_ratio" in p for p in problems)
        assert any("cost_units" in p for p in problems)
        assert not any("dispatch" in p for p in problems)

    def test_kernel_ratio_regression_fails_one_sided(self, tiny_result):
        fresh = copy.deepcopy(tiny_result)
        entry = fresh["derived"]["per_detector"]["nested_loop"]
        base = tiny_result["derived"]["per_detector"]["nested_loop"][
            "kernel_speedup_ratio"
        ]
        entry["kernel_speedup_ratio"] = base * 0.5
        problems = check_against(fresh, tiny_result, tolerance=0.25)
        assert any("kernel_speedup_ratio" in p for p in problems)
        # a faster numpy kernel is an improvement, never a failure
        entry["kernel_speedup_ratio"] = base * 10
        assert check_against(fresh, tiny_result, tolerance=0.25) == []

    def test_kernel_ratio_absolute_floor(self, tiny_result):
        from repro.bench import KERNEL_SPEEDUP_FLOOR

        baseline = copy.deepcopy(tiny_result)
        fresh = copy.deepcopy(tiny_result)
        base_entry = baseline["derived"]["per_detector"]["nested_loop"]
        run_entry = fresh["derived"]["per_detector"]["nested_loop"]
        # Baseline proves the floor; the run sits just below it but
        # within the relative tolerance -> the absolute floor catches it.
        base_entry["kernel_speedup_ratio"] = KERNEL_SPEEDUP_FLOOR
        run_entry["kernel_speedup_ratio"] = KERNEL_SPEEDUP_FLOOR - 0.2
        problems = check_against(fresh, baseline, tolerance=0.25)
        assert any("absolute floor" in p for p in problems)
        # A baseline that never reached the floor only gets the
        # relative check (toy workloads).
        base_entry["kernel_speedup_ratio"] = 1.5
        run_entry["kernel_speedup_ratio"] = 1.4
        assert check_against(fresh, baseline, tolerance=0.25) == []

    def test_workload_mismatch_short_circuits(self, tiny_result):
        fresh = copy.deepcopy(tiny_result)
        fresh["workload"]["n_points"] += 1
        problems = check_against(fresh, tiny_result)
        assert len(problems) == 1 and "workload" in problems[0]

    def test_matrix_mismatch_reported(self, tiny_result):
        fresh = copy.deepcopy(tiny_result)
        fresh["runs"] = fresh["runs"][:-1]
        problems = check_against(fresh, tiny_result)
        assert any("matrix mismatch" in p for p in problems)

    def test_divergent_transports_fail(self, tiny_result):
        fresh = copy.deepcopy(tiny_result)
        fresh["derived"]["per_detector"]["nested_loop"][
            "identical_outliers"
        ] = False
        problems = check_against(fresh, tiny_result)
        assert any("differ across matrix cells" in p for p in problems)


class TestBenchIO:
    def test_save_load_roundtrip(self, tiny_result, tmp_path):
        path = tmp_path / "BENCH_tiny.json"
        save_bench(tiny_result, str(path))
        assert load_bench(str(path)) == tiny_result


class TestStreamBench:
    def test_tiny_stream_bench(self):
        from repro.bench import StreamBenchConfig, run_stream_bench

        config = StreamBenchConfig(
            label="tiny_stream", base_n=400, n_batches=2,
            n_partitions=4, n_reducers=2, initial_fraction=0.6,
        )
        result = run_stream_bench(config)
        assert result["mode"] == "stream"
        assert len(result["batches"]) == 2
        assert result["derived"]["identical_outliers"]
        counters = result["derived"]["streaming_counters"]
        assert counters["batches"] == 3  # initial load + 2 micro-batches
        for row in result["batches"]:
            assert row["incremental_wall_seconds"] > 0
            assert row["full_rerun_wall_seconds"] > 0
            assert 0 < row["dirty_ratio"] <= 1.0
