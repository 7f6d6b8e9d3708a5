"""Routing equivalence: the cell table vs. the rectangle broadcast.

``PartitionPlan.assign_batch`` resolves a point's core partition by one
``searchsorted`` per axis and a gather from a per-plan cell table.  The
implementation it replaced — a broadcast of every point against every
partition rectangle — is kept here verbatim as the oracle.  Hypothesis
draws points from where the two could disagree: partition faces shifted
by 0, ±r and one ulp, the closed upper edge of the domain, outside the
domain, gaps in the tiling, and a zero-width axis.  The replication
(Def. 3.3) must not move by a single record, in value or in order.

``route`` now emits one batch per partition instead of the oracle's
flat ``(pid, (tag, id, point))`` list; what a reducer sees is each
partition's records in order, so that is what is compared: the oracle's
list grouped by ``pid`` against every emitted batch expanded to rows.

The support set (and the core partition past the cell cap) is found by
a slab sweep: the block sorted on one axis, each partition's expanded
interval a contiguous run of that order.  The per-axis ``(n, m)`` mask
it replaced is the second oracle, kept verbatim; the plans added for it
are the sweep's worst cases — stripes whose slab on the sorted axis
holds every row, and a one-dimensional line.
"""

import pickle
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.execute import route
from repro.data import clustered_mixture
from repro.geometry import Rect, UniformGrid
from repro.mapreduce import ClusterConfig, LocalRuntime, RecordBatch
from repro.params import OutlierParams
from repro.partitioning import (
    CDrivenPartitioner,
    DMTPartitioner,
    MetricSafePartitioner,
    Partition,
    PartitionPlan,
    PlanRequest,
    UniSpacePartitioner,
    base,
)

from .helpers import batch_rows

RADII = [0.0, 0.5, 1.0, 2.0]


# ----------------------------------------------------------------------
# The oracle: assign_batch / _nearest_pid / route as they were before
# the cell table, kept verbatim (``self`` -> ``plan``).
# ----------------------------------------------------------------------
def nearest_pid(plan, point):
    point = np.asarray(point, dtype=float)
    best_pid, best_d = plan.partitions[0].pid, float("inf")
    for part in plan.partitions:
        clamped = np.clip(point, part.rect.low, part.rect.high)
        d = float(np.sum((clamped - point) ** 2))
        if d < best_d:
            best_pid, best_d = part.pid, d
    return best_pid


def broadcast_assign(plan, points, r):
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    lows = np.asarray([p.rect.low for p in plan.partitions])  # (m, d)
    highs = np.asarray([p.rect.high for p in plan.partitions])
    pids = np.asarray([p.pid for p in plan.partitions], dtype=np.int64)
    dom_high = np.asarray(plan.domain.high)

    expanded = points[:, None, :]  # (n, m, d) via broadcasting
    ge = expanded >= lows[None, :, :]
    lt = np.where(
        highs[None, :, :] < dom_high[None, None, :],
        expanded < highs[None, :, :],
        expanded <= highs[None, :, :],
    )
    core_mask = (ge & lt).all(axis=2)  # (n, m)
    core_pos = core_mask.argmax(axis=1)
    covered = core_mask.any(axis=1)
    core = pids[core_pos]
    for i in np.nonzero(~covered)[0]:
        core[i] = nearest_pid(plan, points[i])

    if r is None:
        return core, None
    support_mask = (
        (expanded >= (lows - r)[None, :, :])
        & (expanded <= (highs + r)[None, :, :])
    ).all(axis=2)
    # A point never supports its own core partition.
    own = np.nonzero(covered)[0]
    support_mask[own, core_pos[own]] = False
    for i in np.nonzero(~covered)[0]:
        pos = np.nonzero(pids == core[i])[0]
        if pos.size:
            support_mask[i, pos[0]] = False
    srows, spos = np.nonzero(support_mask)
    pairs = np.stack([srows, pids[spos]], axis=1)
    return core, pairs


def broadcast_route(plan, ids, points, r, certified=frozenset(),
                    dropped=frozenset()):
    if dropped:
        keep = [i for i, pid in enumerate(ids) if pid not in dropped]
        ids = [ids[i] for i in keep]
        points = points[keep]
    if not ids:
        return []
    core, support_pairs = broadcast_assign(plan, points, r)
    tuples = [tuple(map(float, p)) for p in points]
    pairs = [
        (int(core[i]), (1 if pid in certified else 0, pid, tuples[i]))
        for i, pid in enumerate(ids)
    ]
    for row, pid in support_pairs:
        pairs.append((int(pid), (1, ids[row], tuples[row])))
    return pairs


# ----------------------------------------------------------------------
# The second oracle: assign_batch as it was before the slab sweep — the
# per-axis (n, m) mask, kept verbatim (``self`` -> ``plan``).
# ----------------------------------------------------------------------
def _axis_mask(
    points: np.ndarray, lows: np.ndarray, highs: np.ndarray, upper_cmp
) -> np.ndarray:
    """``(n, m)`` mask of ``lows[j] <= points[i]`` and
    ``upper_cmp(points[i], highs[j])`` on every axis, built one axis at
    a time so no ``(n, m, d)`` temporary exists."""
    mask = np.ones((points.shape[0], lows.shape[0]), dtype=bool)
    for axis in range(lows.shape[1]):
        x = points[:, axis, None]
        mask &= x >= lows[:, axis]
        mask &= upper_cmp(x, highs[:, axis])
    return mask


def mask_core_positions(plan, points):
    """Row -> position of the covering partition, -1 if none."""
    cells = plan._cells
    if cells is None:
        inside = _axis_mask(points, plan._lows, plan._upper, np.less)
        pos = inside.argmax(axis=1)
        pos[~inside.any(axis=1)] = -1
        return pos
    edges, table = cells
    return table[tuple(
        np.searchsorted(e, points[:, a], "right")
        for a, e in enumerate(edges)
    )]


def mask_assign(plan, points, r):
    points = np.asarray(points, dtype=float)
    pos = mask_core_positions(plan, points)
    for i in np.nonzero(pos < 0)[0]:
        pos[i] = plan._nearest_position(points[i])
    core = plan._pids[pos]
    if r is None:
        return core, None
    support = _axis_mask(
        points, plan._lows - r, plan._highs + r, np.less_equal
    )
    # A point never supports its own core partition.
    support[np.arange(points.shape[0]), pos] = False
    srows, spos = np.nonzero(support)
    return core, np.stack([srows, plan._pids[spos]], axis=1)


def per_partition_assign(plan, points, radii):
    """What ``assign_batch`` owes a radius array: per partition, the
    scalar call's pairs at that partition's own radius, merged in
    row-major ``(row, partition position)`` order."""
    core, _ = plan.assign_batch(points, None)
    keep = [np.empty((0, 3), dtype=np.int64)]
    for pos, (part, r) in enumerate(zip(plan.partitions, radii)):
        _, pairs = plan.assign_batch(points, r)
        mine = pairs[pairs[:, 1] == part.pid]
        keep.append(np.column_stack([mine, np.full(len(mine), pos)]))
    rows = np.concatenate(keep)
    rows = rows[np.lexsort((rows[:, 2], rows[:, 0]))]
    return core, rows[:, :2]


def by_partition(pairs):
    """The oracle's flat list as a reducer receives it:
    ``{pid: [(tag, id, point), ...]}``, each partition in list order."""
    grouped = {}
    for pid, record in pairs:
        grouped.setdefault(pid, []).append(record)
    return grouped


def rows_by_partition(blocks_pairs):
    """``route`` outputs of consecutive blocks, as the shuffle hands them
    to reducers: per partition, its batches in block order, expanded to
    ``(tag, id, point)`` rows of Python scalars."""
    grouped = {}
    for pairs in blocks_pairs:
        for pid, batch in pairs:
            assert type(pid) is int and len(batch) > 0
            assert batch.keys is None
            grouped.setdefault(pid, []).extend(batch_rows(batch))
    return grouped


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def _strategy_plan(strategy, ndim, n_buckets=64, n_reducers=4):
    domain = Rect((0.0,) * ndim, (60.0,) * ndim)
    data = clustered_mixture(3000, domain, n_clusters=3, seed=3)
    runtime = LocalRuntime(
        ClusterConfig(nodes=2, hdfs_block_records=1024)
    )
    request = PlanRequest(
        domain=data.bounds, params=OutlierParams(r=2.0, k=4),
        n_partitions=9, n_reducers=n_reducers, n_buckets=n_buckets,
        sample_rate=0.5, seed=1,
    )
    return strategy.build_plan(runtime, data.batch(), request)


def _gap_plan(ndim):
    """Faces on no common grid, and nothing covering x > 7.1, y > 6."""
    rects = [
        ((0.0, 0.0), (4.0, 10.0)),
        ((4.0, 0.0), (10.0, 3.3)),
        ((4.0, 3.3), (7.1, 10.0)),
        ((7.1, 3.3), (10.0, 6.0)),
    ]
    if ndim == 2:
        domain = Rect((0.0, 0.0), (10.0, 10.0))
        boxes = [Rect(lo, hi) for lo, hi in rects]
    else:
        domain = Rect((0.0, 0.0, 0.0), (10.0, 10.0, 5.0))
        boxes = [Rect(lo + (0.0,), hi + (2.5,)) for lo, hi in rects]
        boxes.append(Rect((0.0, 0.0, 2.5), (10.0, 10.0, 5.0)))
    # pids deliberately not equal to positions
    return PartitionPlan(
        domain, [Partition(10 + 3 * i, box) for i, box in enumerate(boxes)]
    )


def _flat_plan():
    """Every point shares y = 5: the domain has a zero-width axis."""
    return PartitionPlan(
        Rect((0.0, 5.0), (10.0, 5.0)),
        [
            Partition(0, Rect((0.0, 5.0), (3.0, 5.0))),
            Partition(1, Rect((3.0, 5.0), (6.5, 5.0))),
            Partition(2, Rect((6.5, 5.0), (10.0, 5.0))),
        ],
    )


def _stripe_plan(axis):
    """Stripes across the whole domain, cut on ``axis`` only: on the
    other axis every partition's slab holds every row."""
    cuts = [0.0, 2.0, 5.0, 5.5, 10.0]
    boxes = []
    for lo, hi in zip(cuts, cuts[1:]):
        low, high = [0.0, 0.0], [10.0, 10.0]
        low[axis], high[axis] = lo, hi
        boxes.append(Rect(tuple(low), tuple(high)))
    return PartitionPlan(
        Rect((0.0, 0.0), (10.0, 10.0)),
        [Partition(20 - i, box) for i, box in enumerate(boxes)],
    )


def _line_plan():
    """One dimension: intervals of uneven width, pids out of order."""
    cuts = [0.0, 1.5, 4.0, 4.25, 10.0]
    return PartitionPlan(
        Rect((0.0,), (10.0,)),
        [
            Partition(7 * (4 - i), Rect((lo,), (hi,)))
            for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        ],
    )


PLAN_BUILDERS = {
    "uniSpace-2d": lambda: _strategy_plan(UniSpacePartitioner(), 2),
    "uniSpace-3d": lambda: _strategy_plan(UniSpacePartitioner(), 3),
    "CDriven-2d": lambda: _strategy_plan(CDrivenPartitioner(), 2),
    "CDriven-3d": lambda: _strategy_plan(CDrivenPartitioner(), 3),
    # Many reducers -> a small per-reducer budget -> _refine_by_cost
    # halves DSHC clusters at midpoints.
    "DMT-2d": lambda: _strategy_plan(DMTPartitioner(), 2, 64, 16),
    "DMT-3d": lambda: _strategy_plan(DMTPartitioner(), 3, 125, 48),
    "gap-2d": lambda: _gap_plan(2),
    "gap-3d": lambda: _gap_plan(3),
    "flat-2d": _flat_plan,
    "hstripes-2d": lambda: _stripe_plan(1),
    "vstripes-2d": lambda: _stripe_plan(0),
    "line-1d": _line_plan,
}
PLAN_NAMES = list(PLAN_BUILDERS)


@lru_cache(maxsize=None)
def plan_named(name):
    return PLAN_BUILDERS[name]()


@lru_cache(maxsize=None)
def axis_values(name):
    """Per axis, the coordinates where routing decisions flip."""
    plan = plan_named(name)
    out = []
    for axis in range(plan.domain.ndim):
        lo, hi = plan.domain.low[axis], plan.domain.high[axis]
        faces = {p.rect.low[axis] for p in plan.partitions}
        faces |= {p.rect.high[axis] for p in plan.partitions}
        values = {lo - 7.0, hi + 7.0, (lo + hi) / 2.0}
        for face in faces:
            for shift in [0.0] + RADII[1:] + [-r for r in RADII[1:]]:
                at = face + shift
                values |= {
                    at, np.nextafter(at, np.inf), np.nextafter(at, -np.inf)
                }
        out.append(sorted(values))
    return out


@st.composite
def point_blocks(draw, name):
    axes = [st.sampled_from(values) for values in axis_values(name)]
    rows = draw(st.lists(st.tuples(*axes), min_size=1, max_size=30))
    return np.array(rows, dtype=float)


def assert_same_assignment(plan, points, r, oracle=None):
    core, pairs = plan.assign_batch(points, r)
    want_core, want_pairs = (oracle or broadcast_assign)(plan, points, r)
    assert core.dtype == want_core.dtype
    assert np.array_equal(core, want_core)
    if r is None:
        assert pairs is None
    else:
        assert pairs.dtype == want_pairs.dtype
        assert pairs.shape == want_pairs.shape
        assert np.array_equal(pairs, want_pairs)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
def test_dmt_refinement_leaves_the_minibucket_grid():
    """The premise: cost refinement halves clusters at midpoints, so a
    DMT plan's faces are not all mini-bucket faces and the table must
    come from the rectangles themselves."""
    for name, n_buckets in (("DMT-2d", 64), ("DMT-3d", 125)):
        plan = plan_named(name)
        grid = UniformGrid.with_cells(plan.domain, n_buckets)
        off_grid = 0
        for axis, width in enumerate(grid.cell_widths):
            faces = np.array(
                [p.rect.low[axis] for p in plan.partitions]
                + [p.rect.high[axis] for p in plan.partitions]
            )
            steps = (faces - plan.domain.low[axis]) / width
            off_grid += int((np.abs(steps - np.round(steps)) > 1e-6).sum())
        assert off_grid > 0, name


@pytest.mark.parametrize("name", PLAN_NAMES)
class TestRoutingEquivalence:
    @given(data=st.data(), r=st.one_of(
        st.sampled_from(RADII + [None]), st.just("per-partition")
    ))
    def test_batch_equals_broadcast(self, name, data, r):
        points = data.draw(point_blocks(name))
        plan = plan_named(name)
        if r != "per-partition":
            assert_same_assignment(plan, points, r)
            return
        # One radius per partition (the blocks hold points exactly at
        # low - r and high + r); at least one admits no support.
        radii = data.draw(st.lists(
            st.sampled_from(RADII + [-np.inf]),
            min_size=plan.n_partitions, max_size=plan.n_partitions,
        ))
        radii[data.draw(st.integers(0, plan.n_partitions - 1))] = -np.inf
        assert_same_assignment(
            plan, points, np.array(radii), per_partition_assign
        )

    @given(data=st.data(), r=st.sampled_from(RADII))
    def test_mask_scan_equals_broadcast(self, name, data, r):
        """Past the cell cap no table is built; same answers."""
        points = data.draw(point_blocks(name))
        plan = pickle.loads(pickle.dumps(plan_named(name)))
        cap, base._MAX_TABLE_CELLS = base._MAX_TABLE_CELLS, 0
        try:
            assert plan._cells is None
            assert_same_assignment(plan, points, r)
        finally:
            base._MAX_TABLE_CELLS = cap

    @given(data=st.data(), r=st.sampled_from(RADII + [None]),
           table=st.booleans())
    def test_sweep_equals_mask(self, name, data, r, table):
        """Values, row-major order and dtypes of the mask it replaced,
        with the cell table and without it (the core by sweep too)."""
        points = data.draw(point_blocks(name))
        plan = pickle.loads(pickle.dumps(plan_named(name)))
        cap = base._MAX_TABLE_CELLS
        if not table:
            base._MAX_TABLE_CELLS = 0
        try:
            assert (plan._cells is None) is not table
            assert_same_assignment(plan, points, r, mask_assign)
        finally:
            base._MAX_TABLE_CELLS = cap

    @pytest.mark.parametrize("table", [True, False])
    def test_empty_and_single_row_blocks(self, name, table):
        plan = pickle.loads(pickle.dumps(plan_named(name)))
        ndim = plan.domain.ndim
        cap = base._MAX_TABLE_CELLS
        if not table:
            base._MAX_TABLE_CELLS = 0
        try:
            values = axis_values(name)
            longest = max(len(v) for v in values)
            blocks = [np.empty((0, ndim))] + [
                np.array([row])
                for row in zip(*(np.resize(v, longest) for v in values))
            ]
            for points in blocks:
                for r in RADII + [None]:
                    assert_same_assignment(plan, points, r, mask_assign)
            core, pairs = plan.assign_batch(np.empty((0, ndim)), 1.0)
            assert core.shape == (0,) and pairs.shape == (0, 2)
        finally:
            base._MAX_TABLE_CELLS = cap

    @given(data=st.data(), r=st.sampled_from(RADII))
    def test_scalar_agrees_with_broadcast(self, name, data, r):
        plan = plan_named(name)
        points = data.draw(point_blocks(name))
        core, pairs = broadcast_assign(plan, points, r)
        for i, point in enumerate(points):
            assert plan.core_pid(tuple(point)) == core[i]
            support = plan.support_pids(tuple(point), r)
            assert len(support) == len(set(support))
            assert set(support) == set(pairs[pairs[:, 0] == i, 1].tolist())

    @given(data=st.data(), r=st.sampled_from(RADII))
    def test_route_equals_reference(self, name, data, r):
        plan = plan_named(name)
        points = data.draw(point_blocks(name))
        ids = [100 + 7 * i for i in range(len(points))]
        subsets = st.frozensets(st.sampled_from(ids))
        certified, dropped = data.draw(subsets), data.draw(subsets)
        got = route(plan, RecordBatch(ids, points), r, certified, dropped)
        assert [pid for pid, _ in got] == sorted({pid for pid, _ in got})
        assert rows_by_partition([got]) == by_partition(
            broadcast_route(plan, ids, points, r, certified, dropped)
        )

    @given(data=st.data(), r=st.sampled_from(RADII),
           cuts=st.lists(st.integers(0, 30), min_size=2, max_size=4))
    def test_blocks_arrive_as_several_batches(self, name, data, r, cuts):
        """A dataset cut into >= 3 blocks: a partition's rows reach its
        reducer as one batch per block, in block order — the oracle
        routed block by block and concatenated."""
        plan = plan_named(name)
        points = data.draw(point_blocks(name))
        ids = [100 + 7 * i for i in range(len(points))]
        subsets = st.frozensets(st.sampled_from(ids))
        certified, dropped = data.draw(subsets), data.draw(subsets)
        bounds = [0, *sorted(min(c, len(ids)) for c in cuts), len(ids)]
        batch = RecordBatch(ids, points)
        got, want = [], []
        for lo, hi in zip(bounds, bounds[1:]):
            got.append(route(plan, batch[lo:hi], r, certified, dropped))
            want += broadcast_route(
                plan, ids[lo:hi], points[lo:hi], r, certified, dropped
            )
        assert rows_by_partition(got) == by_partition(want)

    @given(data=st.data(), r=st.sampled_from(RADII))
    def test_pickled_plan_routes_identically(self, name, data, r):
        plan = plan_named(name)
        points = data.draw(point_blocks(name))
        batch = RecordBatch(list(range(len(points))), points)
        want = route(plan, batch, r)  # builds the table
        assert "_cells" in vars(plan)
        clone = pickle.loads(pickle.dumps(plan))
        assert "_cells" not in vars(clone)
        assert clone == plan
        assert rows_by_partition([route(clone, batch, r)]) == (
            rows_by_partition([want])
        )


# ----------------------------------------------------------------------
# Literals
# ----------------------------------------------------------------------
def test_route_literal():
    """One block through the gap plan, written out record by record."""
    plan = plan_named("gap-2d")
    ids = [1, 2, 3, 4, 5, 6]
    points = np.array([
        [4.0, 3.3],    # on two shared faces: the upper partitions own it
        [10.0, 1.0],   # closed upper edge of the domain
        [9.0, 8.0],    # in the gap: snaps to the nearest partition
        [3.0, 5.0],    # exactly r left of partition 16's closed low face
        [12.0, -1.0],  # outside the domain
        [2.0, 2.0],    # interior, dropped below
    ])
    got = route(
        plan, RecordBatch(ids, points), 1.0,
        certified=frozenset({2, 6}), dropped=frozenset({6}),
    )
    assert [pid for pid, _ in got] == [10, 13, 16]
    assert rows_by_partition([got]) == {
        10: [(0, 4, (3.0, 5.0)), (1, 1, (4.0, 3.3))],
        13: [
            (1, 2, (10.0, 1.0)),
            (0, 5, (12.0, -1.0)),
            (1, 1, (4.0, 3.3)),
        ],
        16: [
            (0, 1, (4.0, 3.3)),
            (0, 3, (9.0, 8.0)),
            (1, 4, (3.0, 5.0)),
        ],
    }


def test_metric_safe_plan_takes_per_partition_radii():
    """The pivot-ball plan's support rule, one radius per partition: each
    partition's scalar rule at its own radius (``-inf``: no support)."""
    data = clustered_mixture(400, Rect((0.0, 0.0), (60.0, 60.0)),
                             n_clusters=3, seed=3)
    request = PlanRequest(
        domain=data.bounds, params=OutlierParams(r=2.0, k=4),
        n_partitions=6, n_reducers=2, seed=1,
    )
    plan = MetricSafePartitioner("minkowski:1").build_plan(
        LocalRuntime(ClusterConfig(nodes=2)), data.batch(), request
    )
    radii = np.resize([0.0, 2.0, -np.inf, 5.0], plan.n_partitions)
    assert_same_assignment(
        plan, data.points, radii, per_partition_assign
    )


def test_table_is_derived_state():
    plan = plan_named("gap-3d")
    fresh = _gap_plan(3)
    plan.core_pid((1.0, 1.0, 1.0))
    assert "_cells" in vars(plan) and "_cells" not in vars(fresh)
    assert plan == fresh
    assert "_cells" not in repr(plan) and "table" not in repr(plan)
    edges, table = plan._cells
    assert table.shape == tuple(len(e) + 1 for e in edges)
    assert (table == -1).any()  # the gap, and the rim outside the domain
