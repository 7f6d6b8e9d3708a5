"""The batched kernel entry and the reduce task that feeds it.

``Kernel.count_neighbors_batch`` is the one scan entry: it scans several
independent ``(queries, candidates)`` problems at once, and
``count_neighbors`` is its batch of one.  Its promise is that batching
is invisible per problem: counts, charged evals *and* computed evals
equal what that problem's own ``count_neighbors`` returns and books, on
every backend.  Every non-trivial Euclidean problem of a call reaches
the backend's ``_count_batch`` in one call; other metrics go problem by
problem through ``_count_metric``.  The numpy backend earns that with tiled passes whose rows
scan their own problem's candidates (padded with ``+inf``) and are
booked against their own ``n_c``: one over the problems scanned whole,
and one over the cells of the swept ones.

One level up, ``_DODReducer.reduce_block`` hands a reduce task's
Nested-Loop partitions to that entry together; the task's outputs, cost
units (an exact float sum), counters and detector spans must equal
those of one block per key.

CI runs this file in the kernel-equivalence job under
``HYPOTHESIS_PROFILE=ci``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, detect_outliers
from repro.core.execute import _DODReducer
from repro.data import region_dataset
from repro.detectors import NestedLoopDetector
from repro.kernels import base, make_kernel, numpy_backend
from repro.mapreduce import LocalRuntime, Reducer, TaskContext
from repro.metrics import MinkowskiMetric, resolve_metric
from repro.observability import Span
from repro.params import OutlierParams

BACKENDS = ["python", "numpy"]

# Quantized coordinates: duplicates and exact ``d == r`` boundaries are
# common, where a batched scan that mixed up rows would diverge first.
coordinate = st.integers(min_value=0, max_value=12).map(lambda v: v * 0.25)


@st.composite
def problem(draw, d):
    n_q = draw(st.integers(min_value=0, max_value=24))
    points = draw(st.lists(coordinate, min_size=n_q * d, max_size=n_q * d))
    queries = np.asarray(points, dtype=float).reshape(n_q, d)
    if draw(st.booleans()):
        # A partition without support: its pool is its core points.
        return queries, queries.copy()
    n_c = draw(st.integers(min_value=0, max_value=90))
    points = draw(st.lists(coordinate, min_size=n_c * d, max_size=n_c * d))
    return queries, np.asarray(points, dtype=float).reshape(n_c, d)


@st.composite
def problem_lists(draw):
    """1–6 problems of one dimension, or of mixed ones."""
    if draw(st.booleans()):
        dims = [draw(st.integers(min_value=1, max_value=3))] * 6
    else:
        dims = draw(st.lists(
            st.integers(min_value=1, max_value=3), min_size=6, max_size=6
        ))
    size = draw(st.integers(min_value=1, max_value=6))
    return [draw(problem(d)) for d in dims[:size]]


def one_by_one(backend, tile, problems, r, need, metric=None):
    """Each problem through its own ``count_neighbors`` on a fresh
    kernel: ``(counts, charged, computed)``."""
    out = []
    for queries, candidates in problems:
        kernel = make_kernel(backend, tile=tile)
        counts, charged = kernel.count_neighbors(
            queries, candidates, r, need, metric=metric
        )
        assert charged == kernel.evals_charged
        out.append((counts, charged, kernel.evals_computed))
    return out


def assert_same(got, expected):
    assert len(got) == len(expected)
    for (counts, charged, computed), (e_counts, e_charged, e_computed) in zip(
        got, expected
    ):
        assert counts.dtype == e_counts.dtype
        assert counts.tolist() == e_counts.tolist()
        assert (charged, computed) == (e_charged, e_computed)


def batched(backend, tile, problems, r, need, metric=None):
    kernel = make_kernel(backend, tile=tile)
    got = kernel.count_neighbors_batch(problems, r, need, metric=metric)
    assert kernel.calls == len(problems)
    assert kernel.evals_charged == sum(c for _, c, _ in got)
    assert kernel.evals_computed == sum(m for _, _, m in got)
    return got


class TestBatchDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        problems=problem_lists(),
        r=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]),
        need=st.integers(min_value=-1, max_value=40),
        tile=st.sampled_from([1, 3, 16, 256]),
        rows=st.sampled_from([None, 1, 7, 16]),
    )
    @settings(deadline=None)
    def test_each_problem_as_its_own_call(
        self, backend, problems, r, need, tile, rows
    ):
        # ``rows`` patches the row block down so one block holds pieces
        # of several problems and one problem spans several blocks.
        with pytest.MonkeyPatch.context() as patch:
            if rows is not None:
                patch.setattr(base, "ROW_BLOCK", rows)
            got = batched(backend, tile, problems, r, need)
            assert_same(got, one_by_one(backend, tile, problems, r, need))
        oracle = one_by_one("python", 256, problems, r, need)
        for (counts, charged, _), (e_counts, e_charged, _) in zip(
            got, oracle
        ):
            assert counts.tolist() == e_counts.tolist()
            assert charged == e_charged

    @given(
        problems=problem_lists(),
        r=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        need=st.integers(min_value=1, max_value=12),
    )
    @settings(deadline=None)
    def test_swept_problems_mixed_with_scanned_ones(self, problems, r, need):
        # With the gate open from 8 queries on, the larger problems of a
        # list are scanned as cells, in the same call as the rest.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numpy_backend, "SWEEP_MIN_QUERIES", 8)
            patch.setattr(numpy_backend, "SWEEP_STOP_SHARE", 0.0)
            patch.setattr(numpy_backend, "CELL_LENGTHS", (0.5, 0.5))
            got = batched("numpy", 16, problems, r, need)
            assert_same(got, one_by_one("numpy", 16, problems, r, need))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_non_euclidean_metric_goes_problem_by_problem(self, backend):
        rng = np.random.default_rng(5)
        problems = [
            (rng.integers(0, 6, (n_q, 2)) * 0.5, rng.integers(0, 6, (n_c, 2))
             * 0.5)
            for n_q, n_c in [(5, 40), (12, 9), (1, 70)]
        ]
        metric = MinkowskiMetric(1.0)
        got = batched(backend, 8, problems, 1.0, 4, metric)
        assert_same(got, one_by_one(backend, 8, problems, 1.0, 4, metric))


class TestBatchShape:
    def test_a_short_problem_leaves_mid_tile(self):
        # Problem 0 has 3 candidates, problem 1 has 200; at need 13 the
        # first tile is 26 wide, past problem 0's end.  Its rows must be
        # charged and booked 3 each, never a padded column.
        far = np.full((3, 2), 100.0)
        near = np.zeros((200, 2))
        problems = [(np.zeros((4, 2)), far), (np.zeros((6, 2)), near)]
        got = batched("numpy", 256, problems, 1.0, 13)
        assert got[0][0].tolist() == [0] * 4
        assert got[0][1:] == (12, 12)
        assert got[1][0].tolist() == [13] * 6
        assert_same(got, one_by_one("numpy", 256, problems, 1.0, 13))

    def test_a_row_deciding_past_its_own_end_is_booked_its_n_c(self):
        # Problem 0's only match is its last candidate (column 9), so
        # its rows decide in the second tile, [8, 24): computed 10 each,
        # what its own call computes — not the shared tile's 24.
        candidates = np.vstack([np.full((9, 1), 50.0), [[0.0]]])
        problems = [
            (np.zeros((3, 1)), candidates),
            (np.zeros((5, 1)), np.full((100, 1), 50.0)),
        ]
        got = batched("numpy", 256, problems, 1.0, 1)
        assert got[0][0].tolist() == [1] * 3
        assert got[0][1:] == (30, 30)
        assert got[1][1:] == (500, 500)
        assert_same(got, one_by_one("numpy", 256, problems, 1.0, 1))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trivial_problems_charge_nothing_but_count(self, backend):
        problems = [
            (np.zeros((0, 2)), np.zeros((5, 2))),
            (np.zeros((3, 2)), np.zeros((0, 2))),
            (np.zeros((2, 2)), np.zeros((4, 2))),
        ]
        got = batched(backend, 256, problems, 1.0, 2)
        assert [g[0].tolist() for g in got] == [[], [0, 0, 0], [2, 2]]
        assert [g[1:] for g in got[:2]] == [(0, 0), (0, 0)]
        assert batched(backend, 256, problems, 1.0, 0)[2][1:] == (0, 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bad_radius_is_refused(self, backend):
        with pytest.raises(ValueError, match="r must be"):
            make_kernel(backend).count_neighbors_batch(
                [(np.zeros((1, 2)), np.zeros((1, 2)))], -1.0, 1
            )


class TestZeroDimensional:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_entries_refuse_d_zero(self, backend):
        kernel = make_kernel(backend)
        with pytest.raises(ValueError, match="d >= 1"):
            kernel.count_neighbors(np.zeros((3, 0)), np.zeros((4, 0)), 1.0, 2)
        with pytest.raises(ValueError, match="d >= 1"):
            kernel.count_neighbors_batch(
                [(np.zeros((1, 2)), np.zeros((1, 2))),
                 (np.zeros((3, 0)), np.zeros((4, 0)))], 1.0, 2,
            )
        assert kernel.calls == 0

    def test_dataset_refuses_d_zero(self):
        with pytest.raises(ValueError, match="d >= 1"):
            Dataset(np.zeros((5, 0)), np.arange(5))


class TestIntegralTile:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fractional_tile_is_refused(self, backend):
        with pytest.raises(ValueError, match="tile"):
            make_kernel(backend, tile=2.5)

    def test_fractional_chunk_is_refused(self):
        with pytest.raises(ValueError, match="chunk"):
            NestedLoopDetector(chunk=2.5)

    def test_whole_float_tile_is_the_integer(self):
        assert make_kernel("numpy", tile=16.0).tile == 16
        queries = np.random.default_rng(1).random((30, 2))
        assert_same(
            [make_kernel("numpy", tile=16.0).count_neighbors_batch(
                [(queries, queries)], 0.2, 3
            )[0]],
            one_by_one("numpy", 16, [(queries, queries)], 0.2, 3),
        )


# ----------------------------------------------------------------------
# The reduce task: one batched scan, per-partition books unchanged
# ----------------------------------------------------------------------
def _captured_detect_tasks():
    """``(reducer, groups)`` of every reduce task of a DMT run's
    detection job (many small Nested-Loop partitions per task)."""
    tasks = []
    original = LocalRuntime._reduce_attempt

    def capture(self, job, groups, ctx):
        if isinstance(job.reducer, _DODReducer):
            tasks.append((job.reducer, groups))
        return original(self, job, groups, ctx)

    data = region_dataset("NE", base_n=1500, seed=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LocalRuntime, "_reduce_attempt", capture)
        detect_outliers(
            data, OutlierParams(r=2.0, k=12), strategy="DMT",
            n_partitions=16, n_reducers=4, kernel="numpy",
        )
    return tasks


def _task(reducer, groups, block: bool):
    ctx = TaskContext(0)
    ctx.span = Span.begin("attempt", "attempt")
    if block:
        outputs = list(reducer.reduce_block(groups, ctx))
    else:
        outputs = list(Reducer.reduce_block(reducer, groups, ctx))
    spans = [
        (child.name, child.kind, {
            key: value for key, value in child.attrs.items()
        })
        for child in ctx.span.children
    ]
    return outputs, ctx.cost_units, list(ctx.counters), spans


class TestReduceBlock:
    def test_a_task_equals_its_per_key_path(self):
        tasks = _captured_detect_tasks()
        batched_tasks = 0
        for reducer, groups in tasks:
            nested = sum(
                1 for key in groups
                if (reducer.algorithm_plan.get(key) or reducer.cfg.detector)
                == "nested_loop"
            )
            batched_tasks += nested > 1
            got = _task(reducer, groups, block=True)
            expected = _task(reducer, groups, block=False)
            assert got[0] == expected[0]
            assert got[1] == expected[1]  # exact float: same sum order
            assert got[2] == expected[2]  # counters, insertion order too
            assert got[3] == expected[3]
        # The run must actually exercise the batched path.
        assert batched_tasks >= 2

    def test_job_books_equal_the_per_key_jobs(self):
        data = region_dataset("NE", base_n=1500, seed=3)
        params = OutlierParams(r=2.0, k=12)

        def run():
            result = detect_outliers(
                data, params, strategy="DMT", n_partitions=16,
                n_reducers=4, kernel="numpy",
            )
            jobs = result.run.jobs
            return (
                sorted(result.outlier_ids),
                [[t.cost_units for t in job.reduce_tasks] for job in jobs],
                [job.counters.as_dict() for job in jobs],
            )

        block = run()
        whole_task = _DODReducer.reduce_block

        def one_key_at_a_time(self, groups, ctx):
            for key in sorted(groups):
                yield from whole_task(self, {key: groups[key]}, ctx)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_DODReducer, "reduce_block", one_key_at_a_time)
            per_key = run()
        assert block == per_key

    def test_python_oracle_task_equals_numpy_task(self):
        tasks = _captured_detect_tasks()
        for reducer, groups in tasks[:4]:
            numpy_task = _task(reducer, groups, block=True)
            oracle = _DODReducer(
                dataclasses.replace(reducer.cfg, kernel="python"),
                reducer.algorithm_plan,
            )
            python_task = _task(oracle, groups, block=True)
            assert python_task[0] == numpy_task[0]
            assert python_task[1] == numpy_task[1]
            counters = [c for c in numpy_task[2] if c[0] == "dod"]
            assert [c for c in python_task[2] if c[0] == "dod"] == counters


def _recorded(kernel, body):
    """Record the query counts of the problems of every call ``kernel``
    makes to its backend ``body`` (``"_count_batch"`` or
    ``"_count_metric"``)."""
    seen = []
    inner = getattr(kernel, body)

    def record(*args, **kwargs):
        problems = args[0] if body == "_count_batch" else [args[:2]]
        seen.append([len(queries) for queries, _ in problems])
        return inner(*args, **kwargs)

    setattr(kernel, body, record)
    return seen


def _problems(seed, sizes):
    rng = np.random.default_rng(seed)
    return [
        (rng.random((n_q, 2)) * 6, rng.random((n_c, 2)) * 6)
        for n_q, n_c in sizes
    ]


class TestOneEntry:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("sizes, scanned", [
        ([(7, 30)], [7]),
        ([(7, 30), (3, 12), (5, 50)], [7, 3, 5]),
        ([(0, 30), (7, 30), (4, 0), (3, 12), (0, 0)], [7, 3]),
    ])
    def test_one_backend_call_holds_every_scanned_problem(
        self, backend, sizes, scanned
    ):
        problems = _problems(3, sizes)
        kernel = make_kernel(backend)
        seen = _recorded(kernel, "_count_batch")
        got = kernel.count_neighbors_batch(problems, 1.0, 3)
        assert seen == [scanned]
        assert kernel.calls == len(problems)
        assert_same(got, one_by_one(backend, 256, problems, 1.0, 3))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trivial_problems_never_reach_the_backend(self, backend):
        problems = _problems(4, [(0, 5), (3, 0)])
        kernel = make_kernel(backend)
        seen = _recorded(kernel, "_count_batch")
        kernel.count_neighbors_batch(problems, 1.0, 2)
        kernel.count_neighbors_batch(_problems(4, [(3, 5)]), 1.0, 0)
        assert seen == []
        assert kernel.calls == 3
        assert (kernel.evals_charged, kernel.evals_computed) == (0, 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("spec, scale, r", [
        ("haversine", 0.5, 30.0), ("minkowski:1", 6.0, 1.0),
    ])
    def test_other_metrics_go_problem_by_problem(
        self, backend, spec, scale, r
    ):
        rng = np.random.default_rng(6)
        problems = [
            (40.0 + rng.random((n_q, 2)) * scale,
             40.0 + rng.random((n_c, 2)) * scale)
            for n_q, n_c in [(6, 40), (0, 10), (9, 25), (1, 70)]
        ]
        metric = resolve_metric(spec)
        kernel = make_kernel(backend, tile=8)
        batches = _recorded(kernel, "_count_batch")
        singles = _recorded(kernel, "_count_metric")
        got = kernel.count_neighbors_batch(problems, r, 4, metric)
        assert batches == []
        assert singles == [[6], [9], [1]]
        assert kernel.calls == len(problems)
        oracle = one_by_one("python", 256, problems, r, 4, metric)
        for (counts, charged, _), (e_counts, e_charged, _) in zip(
            got, oracle
        ):
            assert counts.tolist() == e_counts.tolist()
            assert charged == e_charged

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("sizes, need", [
        ([(12, 80)], 3), ([(0, 10)], 3), ([(5, 9)], 0), ([(600, 600)], 4),
    ])
    def test_count_neighbors_is_the_batch_of_one(self, backend, sizes, need):
        ((queries, candidates),) = _problems(8, sizes)
        single, batch = make_kernel(backend), make_kernel(backend)
        counts, charged = single.count_neighbors(
            queries, candidates, 0.4, need
        )
        ((b_counts, b_charged, b_computed),) = batch.count_neighbors_batch(
            [(queries, candidates)], 0.4, need
        )
        assert counts.dtype == b_counts.dtype
        assert counts.tolist() == b_counts.tolist()
        assert charged == b_charged == single.evals_charged
        assert single.evals_computed == b_computed == batch.evals_computed
        assert single.calls == batch.calls == 1
