"""Unit suite for the distance-kernel ABI (``repro.kernels``).

Covers the contract edges every backend must agree on — empty blocks,
``need <= 0``, ``need`` larger than the candidate set, duplicate points,
single-column inputs — plus registry resolution and the per-instance
stat accounting the detectors and bench rely on.
"""

import numpy as np
import pytest

from repro.kernels import (
    DEFAULT_KERNEL,
    KERNEL_CHOICES,
    KERNEL_REGISTRY,
    Kernel,
    NumpyKernel,
    PythonKernel,
    make_kernel,
    resolve_kernel,
)
from repro.kernels import base, numpy_backend
from repro.metrics.builtin import MinkowskiMetric

BACKENDS = ["python", "numpy"]


@pytest.fixture(params=BACKENDS)
def kernel(request):
    return make_kernel(request.param)


rng = np.random.default_rng(1234)
Q = rng.uniform(0, 4, size=(12, 2))
C = rng.uniform(0, 4, size=(40, 2))


class TestRegistry:
    def test_choices_cover_registry_plus_auto(self):
        assert KERNEL_CHOICES[0] == "auto"
        assert set(KERNEL_CHOICES[1:]) == set(KERNEL_REGISTRY)

    def test_make_kernel_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            make_kernel("fortran")

    def test_python_and_numpy_always_available(self):
        assert set(KERNEL_REGISTRY) == {"python", "numpy"}
        for name in KERNEL_REGISTRY:
            assert make_kernel(name).name == name

    def test_unknown_name_is_not_available(self):
        assert "fortran" not in KERNEL_REGISTRY
        with pytest.raises(ValueError, match="fortran"):
            resolve_kernel("fortran")


class TestResolution:
    def test_instance_passthrough(self):
        instance = make_kernel("python")
        assert resolve_kernel(instance) is instance

    def test_name_resolution(self):
        assert resolve_kernel("python").name == "python"

    def test_auto_falls_back_to_default(self):
        assert resolve_kernel(None).name == DEFAULT_KERNEL == "numpy"
        assert resolve_kernel("auto").name == DEFAULT_KERNEL

    def test_auto_ignores_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert resolve_kernel(None).name == DEFAULT_KERNEL
        assert resolve_kernel("auto").name == DEFAULT_KERNEL

    def test_non_string_spec_rejected(self):
        with pytest.raises(TypeError):
            resolve_kernel(42)


class TestContractEdges:
    def test_empty_query_block(self, kernel):
        counts, evals = kernel.count_neighbors(
            np.empty((0, 2)), C, 1.0, 3
        )
        assert counts.shape == (0,) and evals == 0

    def test_empty_candidate_block(self, kernel):
        counts, evals = kernel.count_neighbors(
            Q, np.empty((0, 2)), 1.0, 3
        )
        assert np.array_equal(counts, np.zeros(len(Q), dtype=np.int64))
        assert evals == 0

    @pytest.mark.parametrize("need", [0, -1, -100])
    def test_need_nonpositive_charges_nothing(self, kernel, need):
        # A scalar loop checks "found >= need" before each distance, so
        # nothing is ever examined — the accounting fix of ISSUE 6.
        counts, evals = kernel.count_neighbors(Q, C, 10.0, need)
        assert np.array_equal(counts, np.zeros(len(Q), dtype=np.int64))
        assert evals == 0

    def test_need_beyond_candidates_scans_everything(self, kernel):
        need = len(C) + 5
        counts, evals = kernel.count_neighbors(Q, C, 10.0, need)
        # r=10 covers the whole square: every candidate matches, nobody
        # reaches ``need``, so every query scans (and is charged) all.
        assert np.array_equal(
            counts, np.full(len(Q), len(C), dtype=np.int64)
        )
        assert evals == len(Q) * len(C)

    def test_duplicate_points_count_as_neighbors(self, kernel):
        point = np.array([[1.5, 1.5]])
        dupes = np.repeat(point, 7, axis=0)
        counts, evals = kernel.count_neighbors(point, dupes, 0.5, 4)
        assert counts.tolist() == [4]
        assert evals == 4  # stopped at the 4th duplicate

    def test_single_column_inputs(self, kernel):
        q = np.array([[0.0], [5.0]])
        c = np.array([[0.1], [0.2], [0.3], [9.0]])
        counts, evals = kernel.count_neighbors(q, c, 0.25, 2)
        assert counts.tolist() == [2, 0]
        # query 0 stops at candidate 2; query 1 scans all 4
        assert evals == 2 + 4

    def test_early_exit_pins_count_at_need(self, kernel):
        # r covers everything, so each query's scan stops at exactly
        # ``need`` matches — never the tile's full match count.
        counts, _ = kernel.count_neighbors(Q, C, 10.0, 3)
        assert np.array_equal(counts, np.full(len(Q), 3, dtype=np.int64))

    def test_boundary_distance_is_inclusive(self, kernel):
        q = np.array([[0.0, 0.0]])
        c = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        counts, _ = kernel.count_neighbors(q, c, 1.0, 5)
        assert counts.tolist() == [2]

    def test_dimension_mismatch_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.count_neighbors(Q, rng.uniform(0, 1, (5, 3)), 1.0, 2)
        with pytest.raises(ValueError):
            kernel.count_neighbors(Q[:, 0], C, 1.0, 2)

    @pytest.mark.parametrize("r", [-1.0, -np.inf, np.nan])
    def test_impossible_radius_rejected(self, kernel, r):
        # ``r * r`` squared a negative radius into a positive one (a
        # neighbour at 0.5 counted under r = -1), and a NaN radius
        # matched nothing yet charged a full scan.
        with pytest.raises(ValueError, match="r must be"):
            kernel.count_neighbors(
                np.array([[0.0]]), np.array([[0.5]]), r, 1
            )

    @pytest.mark.parametrize("need", [0.5, 1.5, -0.5])
    def test_fractional_need_rejected(self, kernel, need):
        # ``int(need)`` used to truncate after the ``need <= 0`` check:
        # at need = 0.5 numpy scanned for zero matches (counts [0, 0], 2
        # evals) while the oracle stopped at its first (counts [1, 0],
        # 3 evals); need = 1.5 silently scanned for one.
        queries = np.array([[0.0, 0.0], [5.0, 5.0]])
        candidates = np.array([[0.0, 0.1], [9.0, 9.0]])
        with pytest.raises(ValueError, match="need must be a whole"):
            kernel.count_neighbors(queries, candidates, 1.0, need)
        with pytest.raises(ValueError, match="need must be a whole"):
            kernel.count_neighbors_batch(
                [(queries, candidates), (queries, candidates)], 1.0, need
            )
        assert kernel.calls == 0

    def test_whole_float_need_is_the_integer(self, kernel):
        counts, evals = kernel.count_neighbors(Q, C, 1.0, 2.0)
        expected = make_kernel(kernel.name).count_neighbors(Q, C, 1.0, 2)
        assert (counts.tolist(), evals) == (expected[0].tolist(), expected[1])


class TestAccounting:
    def test_inputs_stay_off_the_sweep(self):
        # ``computed >= charged`` below holds on the plain tiled scan
        # only: a swept call computes less than it charges.
        assert len(Q) < numpy_backend.SWEEP_MIN_QUERIES

    def test_stats_accumulate_across_calls(self, kernel):
        assert kernel.calls == 0 and kernel.evals_charged == 0
        kernel.count_neighbors(Q, C, 1.0, 3)
        kernel.count_neighbors(Q, C, 1.0, 3)
        assert kernel.calls == 2
        assert kernel.evals_charged > 0
        assert kernel.evals_computed >= kernel.evals_charged
        assert kernel.wall_seconds > 0

    def test_python_oracle_computes_exactly_what_it_charges(self):
        oracle = make_kernel("python")
        oracle.count_neighbors(Q, C, 1.0, 3)
        assert oracle.evals_computed == oracle.evals_charged

    def test_numpy_reports_tile_overshoot(self, monkeypatch):
        monkeypatch.setattr(base, "TILE", 32)
        batched = NumpyKernel()
        oracle = PythonKernel()
        _, charged_b = batched.count_neighbors(Q, C, 1.0, 3)
        _, charged_o = oracle.count_neighbors(Q, C, 1.0, 3)
        assert charged_b == charged_o
        assert batched.evals_computed >= batched.evals_charged

    def test_tile_width_never_changes_results(self, monkeypatch):
        expected_counts, expected_evals = PythonKernel().count_neighbors(
            Q, C, 1.0, 3
        )
        for tile in (1, 2, 7, 64, 1024):
            monkeypatch.setattr(base, "TILE", tile)
            counts, evals = NumpyKernel().count_neighbors(Q, C, 1.0, 3)
            assert np.array_equal(counts, expected_counts), tile
            assert evals == expected_evals, tile

    def test_one_candidate_tiles_compute_what_they_charge(self, monkeypatch):
        # ``TILE`` is a cap: at 1 there is no tile to overshoot in.
        monkeypatch.setattr(base, "TILE", 1)
        batched = NumpyKernel()
        _, charged = batched.count_neighbors(Q, C, 1.0, 3)
        assert charged == PythonKernel().count_neighbors(Q, C, 1.0, 3)[1]
        assert batched.evals_computed == batched.evals_charged

    @pytest.mark.parametrize("tile", [1, 2, 7])
    def test_no_match_tile_is_wider_than_tile(self, tile, monkeypatch):
        monkeypatch.setattr(base, "TILE", tile)
        widths = []

        class Recording(MinkowskiMetric):
            def within_block(self, queries, candidates, r):
                widths.append(candidates.shape[0])
                return super().within_block(queries, candidates, r)

        NumpyKernel().count_neighbors(Q, C, 1.0, 3, metric=Recording(1.0))
        assert widths and max(widths) <= tile

    def test_need_nonpositive_still_counts_the_call(self, kernel):
        kernel.count_neighbors(Q, C, 1.0, 0)
        assert kernel.calls == 1
        assert kernel.evals_charged == 0


class TestABCShape:
    def test_every_registered_backend_is_a_kernel(self):
        for name, cls in KERNEL_REGISTRY.items():
            assert issubclass(cls, Kernel)
            assert cls.name == name
