"""Host-speed calibration: two fixed loops timed beside the ops.

The box this benchmark must repeat on is a small VM on a shared host.
For minutes at a time a neighbour slows it down, and not evenly:
interpreter-bound code (pointer chasing) runs up to 1.8x slower, numpy
code streaming a few MB per call up to 1.5x, cache-resident arithmetic
1.2x.  A 30 s run that falls inside such a phase reads 1.3-1.8x slow
however its samples are filtered.  So a child also times two loops that
never change — one of each kind, ~45 ms each — right before its steps,
and the driver folds those times exactly as it folds the steps' own
(per step the fastest execution, then the mean over steps) and divides
the run's wall metrics by

    host_factor = w * py / PY_REF + (1 - w) * np / NP_REF

(``_host_factor`` in ``run.py``), where ``w`` is the workload's
interpreter-bound share (``cal_weight`` in ``workloads.py``).  ``*_REF``
are the loops' best times on the reference box in a quiet phase, so a
calibrated second is a second there.  Replayed over 20 min of logged ops
with four slow phases, in 30 s windows of 5 steps x 4 executions: raw
``batch_dmt`` estimates spread (inter-quartile) over 13 % of their median
and ranged over 66 %, calibrated ones 6 % and 20 %.
"""

from __future__ import annotations

import time

import numpy as np

#: Best observed loop times on the reference box (2 vCPU Xeon @ 2.1 GHz
#: Firecracker VM, CPython 3.11, numpy 1.26), seconds.
PY_REF = 0.0380
NP_REF = 0.0455

_RNG = np.random.default_rng(0)
_POINTS = _RNG.uniform(0, 100, size=(2000, 2))
_LOW = _RNG.uniform(0, 90, size=(180, 2))
_HIGH = _LOW + 10


def _interpreter_loop(repeats: int = 3, n: int = 60_000) -> int:
    """Tuples, dict lookups, list appends: what mappers and the shuffle
    spend their time on.  The working set (~7 MB, like one op's
    shuffle) is dropped between repeats, so the loop stays below the
    ops' own memory peak and never shows in ``peak_rss_mb``."""
    total = 0
    for _ in range(repeats):
        groups: dict = {}
        for i in range(n):
            key = (i * 7) % 97
            groups.setdefault(key, []).append((i, float(i), key))
        total += len(groups)
    return total


def _numpy_loop(repeats: int = 3) -> int:
    """Broadcast compares and a cumulative sum over ~3 MB of
    temporaries: what ``assign_batch`` and the tiled kernel do."""
    total = 0
    for _ in range(repeats):
        expanded = _POINTS[:, None, :]
        inside = (
            (expanded >= _LOW[None]) & (expanded < _HIGH[None])
        ).all(axis=2)
        total += int(np.cumsum(inside, axis=1).argmax(axis=1).sum())
    return total


def measure() -> tuple:
    """Time both loops once; ``(interpreter, numpy)`` as multiples of
    their reference times."""
    start = time.perf_counter()
    _interpreter_loop()
    middle = time.perf_counter()
    _numpy_loop()
    end = time.perf_counter()
    return (middle - start) / PY_REF, (end - middle) / NP_REF
