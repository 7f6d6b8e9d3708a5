"""Unit and regression tests for the proximity-graph detector.

Equivalence with the O(n^2) oracle under every metric lives in
``test_metric_equivalence.py``; this file covers the detector's own
contract:

* determinism — the NN-descent graph is seeded, so repeated runs give
  bitwise-identical outlier sets *and* identical ``graph_*`` cost
  extras, while a different seed may move work between certification
  and the residue scan without changing the answer;
* the certification invariant ``graph_certified + graph_residue ==
  n_core`` on arbitrary generated partitions;
* edge semantics: empty partitions, ``k <= 0`` (need-exhausted calls
  from the reducers), singleton pools with no possible graph edge, and
  the degree's cap at the pool size;
* a pinned regression on the fig8 smoke workload: the merged ``graph``
  counter group is deterministic end to end, so its exact values are
  part of the repo's behavioural baseline (update deliberately, with
  the derivation rerun, never to silence a diff).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OutlierParams, detect_outliers
from repro.data.generators import region_dataset
from repro.detectors import make_partition_detector
from repro.detectors import proximity_graph
from repro.detectors.proximity_graph import ProximityGraphDetector

coordinate = st.integers(min_value=0, max_value=12).map(lambda v: v * 0.25)


@st.composite
def partitions(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    n_core = draw(st.integers(min_value=1, max_value=30))
    n_support = draw(st.integers(min_value=0, max_value=15))
    flat = draw(
        st.lists(
            coordinate,
            min_size=(n_core + n_support) * d,
            max_size=(n_core + n_support) * d,
        )
    )
    pts = np.asarray(flat, dtype=float).reshape(n_core + n_support, d)
    k = draw(st.integers(min_value=1, max_value=6))
    return pts[:n_core], pts[n_core:], k


def _run(core, support, params, **kw):
    det = ProximityGraphDetector(**kw)
    ids = np.arange(core.shape[0], dtype=np.int64)
    return det.run(core, ids, support, params)


class TestDeterminism:
    @given(part=partitions())
    @settings(deadline=None)
    def test_same_seed_same_everything(self, part):
        core, support, k = part
        params = OutlierParams(r=0.75, k=k)
        a = _run(core, support, params, seed=7)
        b = _run(core, support, params, seed=7)
        assert a.outlier_ids == b.outlier_ids
        assert a.distance_evals == b.distance_evals
        for key in (
            "graph_certified",
            "graph_residue",
            "graph_distance_evals",
        ):
            assert a.extras[key] == b.extras[key], key

    @given(part=partitions())
    @settings(deadline=None)
    def test_seed_moves_work_not_answers(self, part):
        # Graph quality is seed-dependent; the outlier set is not.
        core, support, k = part
        params = OutlierParams(r=0.75, k=k)
        results = [
            _run(core, support, params, seed=s) for s in (7, 8, 101)
        ]
        answers = {tuple(sorted(r.outlier_ids)) for r in results}
        assert len(answers) == 1

    def test_iters_zero_still_exact(self, monkeypatch):
        # No refinement rounds: worst-possible graph, same answer.
        rng = np.random.default_rng(5)
        core = rng.uniform(0, 10, size=(120, 2)).round(1)
        params = OutlierParams(r=1.0, k=4)
        monkeypatch.setattr(proximity_graph, "GRAPH_ROUNDS", 0)
        lazy = _run(core, np.empty((0, 2)), params)
        monkeypatch.setattr(proximity_graph, "GRAPH_ROUNDS", 6)
        full = _run(core, np.empty((0, 2)), params)
        assert sorted(lazy.outlier_ids) == sorted(full.outlier_ids)
        # Less graph work can only grow the residue, never shrink it.
        assert lazy.extras["graph_residue"] >= full.extras["graph_residue"]


class TestInvariants:
    @given(part=partitions())
    @settings(deadline=None)
    def test_certified_plus_residue_is_n_core(self, part):
        core, support, k = part
        result = _run(core, support, OutlierParams(r=0.75, k=k))
        assert (
            result.extras["graph_certified"]
            + result.extras["graph_residue"]
            == core.shape[0]
        )
        assert result.extras["graph_certified"] >= 0
        assert result.extras["graph_residue"] >= 0

    @given(part=partitions())
    @settings(deadline=None)
    def test_certified_points_are_inliers(self, part):
        # Certification is one-sided: certified implies oracle-inlier,
        # so no outlier id may belong to a certified point — with a
        # fully-certified partition the outlier set must be empty.
        core, support, k = part
        result = _run(core, support, OutlierParams(r=0.75, k=k))
        if result.extras["graph_residue"] == 0:
            assert result.outlier_ids == []

    def test_support_points_feed_certification(self):
        # A core point whose k neighbors are all support points must
        # still certify (the pool, not just the core, builds the graph).
        core = np.asarray([[0.0, 0.0]])
        support = np.asarray([[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        result = _run(core, support, OutlierParams(r=1.0, k=3))
        assert result.outlier_ids == []
        assert result.extras["graph_certified"] == 1


class TestEdges:
    def test_empty_partition(self):
        det = ProximityGraphDetector()
        result = det.run(
            np.empty((0, 2)),
            np.empty((0,), dtype=np.int64),
            np.empty((0, 2)),
            OutlierParams(r=1.0, k=3),
        )
        assert result.outlier_ids == []
        assert result.distance_evals == 0

    def test_need_exhausted_short_circuits(self):
        # Reducers may re-enter with the need already satisfied; the
        # detector must decide "all inliers" without any distance work.
        det = ProximityGraphDetector()
        core = np.arange(10, dtype=float).reshape(5, 2)
        result = det.detect(
            core,
            np.arange(5, dtype=np.int64),
            np.empty((0, 2)),
            SimpleNamespace(r=1.0, k=0),
        )
        assert result.outlier_ids == []
        assert result.extras["graph_certified"] == 5
        assert result.extras["graph_residue"] == 0
        assert result.extras["graph_distance_evals"] == 0
        assert result.extras["kernel_evals_computed"] == 0

    def test_singleton_pool_has_no_edges(self):
        # One core point, no support: K caps to 0, nothing certifies,
        # and the exact scan correctly reports it isolated.
        result = _run(
            np.asarray([[3.0, 4.0]]),
            np.empty((0, 2)),
            OutlierParams(r=1.0, k=2),
        )
        assert result.outlier_ids == [0]
        assert result.extras["graph_certified"] == 0
        assert result.extras["graph_residue"] == 1
        assert result.extras["graph_distance_evals"] == 0

    def test_graph_k_caps_at_pool_size(self):
        core = np.zeros((4, 2))
        result = _run(core, np.empty((0, 2)), OutlierParams(r=1.0, k=2))
        assert result.extras["graph_k"] == 3  # n_pool - 1, not k + 4
        assert result.outlier_ids == []

    def test_registry_constructs_it(self):
        det = make_partition_detector("proximity_graph", 0)
        assert isinstance(det, ProximityGraphDetector)
        assert det.metric_generic


class TestFig8SmokeRegression:
    """Pin the merged ``graph`` counter group end to end.

    The workload is the fig8-scale MA region under the uniSpace
    strategy (DMT would override the default detector with its
    per-partition algorithm plan; uniSpace has none, so the
    proximity-graph tactic actually runs in every task).  Every value
    below is deterministic — seeded sampling, seeded graph, integer
    counters — so an exact pin is safe and any drift means the
    detector's work profile changed.
    """

    def test_graph_counters_pinned(self):
        dataset = region_dataset("MA", base_n=1200, seed=3)
        result = detect_outliers(
            dataset,
            OutlierParams(r=2.0, k=12),
            strategy="uniSpace",
            detector="proximity_graph",
            n_partitions=8,
            n_reducers=4,
            seed=1,
        )
        merged: dict = {}
        for job in result.run.jobs:
            for name, value in job.counters.group("graph").items():
                merged[name] = merged.get(name, 0) + value
        assert merged == {
            "tasks": 9,
            "certified": 1148,
            "residue": 52,
            "graph_distance_evals": 772529,
        }
        assert merged["certified"] + merged["residue"] == len(dataset)
        # The same run must agree with the exact tactic byte for byte.
        exact = detect_outliers(
            dataset,
            OutlierParams(r=2.0, k=12),
            strategy="uniSpace",
            detector="nested_loop",
            n_partitions=8,
            n_reducers=4,
            seed=1,
        )
        assert result.outlier_ids == exact.outlier_ids
