"""Literal pins of the Cell-Based detectors and the fast tier's pruning.

Each digest is the sha256 of what a run reports in deterministic terms:
the sorted outlier ids, ``distance_evals``, ``index_ops``, ``cell_ops``
and every ``extras`` field but the kernel's wall seconds — or, for the
fast tier, the ``(mask, evals)`` pair of :func:`certified_mask` and
:func:`support_halo`.  A change to how the cell index is built or
walked must leave every digest unchanged.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.data import density_dataset
from repro.detectors import CellBasedDetector, CellBasedRingDetector
from repro.geometry import Rect, UniformGrid
from repro.params import OutlierParams
from repro.tiers import SensitivitySample, certified_mask, support_halo

FIG5 = OutlierParams(r=5.0, k=4)
DETECTORS = {"paper": CellBasedDetector, "ring": CellBasedRingDetector}


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=int)
    return hashlib.sha256(blob.encode()).hexdigest()


def _result_digest(result) -> str:
    extras = {
        key: value for key, value in result.extras.items()
        if key != "kernel_wall_seconds"
    }
    return _digest([
        sorted(int(i) for i in result.outlier_ids),
        int(result.distance_evals),
        int(result.index_ops),
        int(result.cell_ops),
        extras,
    ])


def _fig5(density):
    def build():
        data = density_dataset(2_000, density, seed=11)
        return data.points, data.ids, np.empty((0, 2)), FIG5
    return build


def _three_d():
    rng = np.random.default_rng(3)
    points = np.vstack([
        rng.normal(10.0, 1.5, size=(400, 3)),
        rng.uniform(0.0, 40.0, size=(600, 3)),
    ])
    return (points, np.arange(points.shape[0]), np.empty((0, 3)),
            OutlierParams(r=3.0, k=4))


def _with_support():
    """A partition's core box plus its ``r``-halo as support points."""
    data = density_dataset(3_000, 0.06, seed=5)
    params = OutlierParams(r=5.0, k=4)
    lo, hi = np.array([40.0, 40.0]), np.array([120.0, 120.0])
    core = np.all((data.points >= lo) & (data.points < hi), axis=1)
    halo = ~core & np.all(
        (data.points >= lo - params.r) & (data.points < hi + params.r),
        axis=1,
    )
    return data.points[core], data.ids[core], data.points[halo], params


def _quantised():
    """Integer lattice points with ``r = 2 sqrt(2)``: the cell side is
    exactly 1, so every point lies on cell faces, and (2, 2) steps are
    exactly ``r`` apart.  A dense corner stacks several points per cell;
    the sparse rest leaves cells unresolved or pruned as outliers."""
    rng = np.random.default_rng(9)
    points = np.vstack([
        rng.integers(0, 8, size=(150, 2)),
        rng.integers(0, 40, size=(350, 2)),
    ]).astype(float)
    params = OutlierParams(r=2.0 * math.sqrt(2.0), k=6)
    return points, np.arange(points.shape[0]), np.empty((0, 2)), params


CASES = {
    "fig5-0.005": _fig5(0.005),
    "fig5-0.06": _fig5(0.06),
    "fig5-5.0": _fig5(5.0),
    "3d": _three_d,
    "support": _with_support,
    "quantised": _quantised,
}

PINS = {
    ("paper", "fig5-0.005"): (
        "b4ca365c939989e3faa32e067e989ff54d2a124022c4f90c67aac4a32b0e7546"
    ),
    ("ring", "fig5-0.005"): (
        "89d47aea7de6002b5fc1a21d99477e73fec40fe53b6b1463c5b11f72194b0aaf"
    ),
    ("paper", "fig5-0.06"): (
        "e12fe2340845d73f9159dca45cf688dd19bb4de8bbbc271c5febf00ded5036d8"
    ),
    ("ring", "fig5-0.06"): (
        "b05e2a528183849b53d80f053c391be3eb3692739b07007598c8a950b2a5ca81"
    ),
    ("paper", "fig5-5.0"): (
        "5305c9fb07ba2a0e1455cea02be9c9aae26a69c4d0dc6d644b913c4a8125921d"
    ),
    ("ring", "fig5-5.0"): (
        "f4cf9571536a2ccfd19a73bc462683ca4d8c1105ae1d75cd16c23da0d85c62e0"
    ),
    ("paper", "3d"): (
        "28e3c423545151ad4ac8af6ca525d558e0a001adb6ed305d650cc1a3139791ff"
    ),
    ("ring", "3d"): (
        "cd7e3e96b59c89408d9f7e648f49f0d556a77d0afa52fa54102a251ed491b50e"
    ),
    ("paper", "support"): (
        "5b7ab2f697316ea3c5dad53f4aa03c9bee165bf9707e72bfa514ae1308e3ab5c"
    ),
    ("ring", "support"): (
        "c2f0a5a571417c7ddb522d80f25b2af02da214e51517ee232aca0de1c7d162f4"
    ),
    ("paper", "quantised"): (
        "26a384ff2859625dd1194c7eaeb662587158e9bb178e6a3007cd0f976d16aa78"
    ),
    ("ring", "quantised"): (
        "188ae3aecf428f7beadb43e7ddbf802d629620cbdcedbd475a5cfc9f9091db7d"
    ),
}


@pytest.mark.parametrize(
    "detector,case", sorted(PINS), ids=[f"{d}-{c}" for d, c in sorted(PINS)]
)
def test_cell_based_pins(detector, case):
    result = DETECTORS[detector]().detect(*CASES[case]())
    assert _result_digest(result) == PINS[(detector, case)]


def _gridded_sample(flat=False):
    """Every third point of a clustered set, on a 24 x 20 grid over its
    bounds; ``flat`` stretches the set tenfold along one line, so the
    grid's second axis has zero width."""
    rng = np.random.default_rng(4)
    points = np.vstack([
        rng.normal((12.0, 12.0), 1.5, size=(1_200, 2)),
        rng.uniform(0.0, 40.0, size=(300, 2)),
    ])
    if flat:
        points[:, 0] *= 10.0
        points[:, 1] = 5.0
    ids = np.arange(points.shape[0])
    low, high = points.min(axis=0), points.max(axis=0)
    grid = UniformGrid(Rect(tuple(low), tuple(high)), (24, 20))
    rows = np.flatnonzero(ids % 3 == 0)
    sample = SensitivitySample(ids=ids[rows], points=points[rows], grid=grid)
    return points, ids, sample


TIER_PINS = {
    (False, "certified_mask"): (
        "48ddf3b8cf212403556518abd93dda0d8c59a2d365fc860c6c510966be5312fd"
    ),
    (False, "support_halo"): (
        "3785e3ddf78a3045ea408a95a911b4155221a458f8d6b3c3bc0121a2a7b39dbb"
    ),
    (True, "certified_mask"): (
        "54fe587950cf06984bcad55d7af7f386d57b12f42ad53f54ad85ac68565c0105"
    ),
    (True, "support_halo"): (
        "21002e1c41aa2e1f8a8a0059ebc2cbac2faffc640b3a6b9b86470992df35df09"
    ),
}


@pytest.mark.parametrize("flat", [False, True], ids=["2d", "flat"])
def test_certified_mask_pin(flat):
    points, ids, sample = _gridded_sample(flat)
    cfg = RunConfig.resolve(OutlierParams(2.0, 4))
    mask, evals = certified_mask(points, ids, sample, cfg)
    assert _digest([mask.tolist(), evals]) == TIER_PINS[
        (flat, "certified_mask")
    ]


@pytest.mark.parametrize("flat", [False, True], ids=["2d", "flat"])
def test_support_halo_pin(flat):
    points, ids, sample = _gridded_sample(flat)
    cfg = RunConfig.resolve(OutlierParams(2.0, 4))
    mask, _ = certified_mask(points, ids, sample, cfg)
    dropped, evals = support_halo(points, ids, mask, cfg, grid=sample.grid)
    assert _digest([sorted(dropped), evals]) == TIER_PINS[
        (flat, "support_halo")
    ]
