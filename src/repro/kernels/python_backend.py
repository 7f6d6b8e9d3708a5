"""The ``python`` backend: the scalar reference loop, kept as the oracle.

This is deliberately the dumbest possible implementation of the contract
in :mod:`repro.kernels.base` — one query at a time, one candidate at a
time, plain float arithmetic — because its job is to *define* the
semantics the batched backends must reproduce byte for byte.  The
differential CI job diffs every other backend against this one; its
slowness is also what ``benchmarks/test_kernel_speedup.py`` measures
the ``numpy`` speedup against.
"""

from __future__ import annotations

import numpy as np

from .base import Kernel, scalar_metric_count

__all__ = ["PythonKernel"]


class PythonKernel(Kernel):
    """Scalar per-point scan; charged evals equal computed evals."""

    name = "python"

    def _count_metric(self, queries, candidates, r, need, metric):
        # Always the scalar reference loop — even for vectorizable
        # metrics — so this backend stays the oracle the tiled metric
        # path is diffed against.
        return scalar_metric_count(queries, candidates, r, need, metric)

    def _count_batch(
        self, problems, r: float, need: int
    ) -> list[tuple[np.ndarray, int, int]]:
        r2 = r * r
        results = []
        for queries, candidates in problems:
            counts = np.zeros(queries.shape[0], dtype=np.int64)
            evals = 0
            cand_rows = candidates.tolist()
            for i, q in enumerate(queries.tolist()):
                found = 0
                examined = 0
                for row in cand_rows:
                    examined += 1
                    acc = 0.0
                    for a, b in zip(q, row):
                        diff = a - b
                        acc += diff * diff
                    if acc <= r2:
                        found += 1
                        if found >= need:
                            break
                counts[i] = found
                evals += examined
            results.append((counts, evals, evals))
        return results
