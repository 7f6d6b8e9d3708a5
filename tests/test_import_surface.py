"""The default import is the detection path and nothing else.

``import repro`` — and every entry point built on it — must not pull in
scipy (loaded only when its tactic is selected) nor the four
extension packages nothing in the detection path
uses; those are imported by name.  Checked in a fresh interpreter, where
``sys.modules`` is the whole truth.
"""

import os
import subprocess
import sys

_SCRIPT = """
import sys

import repro, repro.cli, repro.streaming, repro.recovery, repro.service
import repro.experiments

EXTENSIONS = ("repro.clustering", "repro.knn", "repro.loci", "repro.viz")


def loaded(*roots):
    return sorted(
        m for m in sys.modules
        if m in roots or m.split(".")[0] in roots
    )


assert not loaded("scipy"), loaded("scipy")
assert not loaded(*EXTENSIONS), loaded(*EXTENSIONS)

import numpy as np
from repro.core import OutlierParams
from repro.detectors import make_detector

rng = np.random.default_rng(0)
points = np.vstack([rng.uniform(0, 4, size=(60, 2)), [[40.0, 40.0]]])
ids = np.arange(len(points))
params = OutlierParams(r=1.0, k=3)
empty = np.empty((0, 2))
detector = make_detector("kdtree")
assert not loaded("scipy"), "building the detector must not load scipy"
got = set(detector.detect(points, ids, empty, params).outlier_ids)
want = set(
    make_detector("nested_loop").detect(points, ids, empty, params)
    .outlier_ids
)
assert got == want and 60 in got, (got, want)
assert "scipy.spatial" in sys.modules

import repro.clustering, repro.knn, repro.loci, repro.viz
print("ok")
"""


def test_default_import_loads_only_the_detection_path():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
