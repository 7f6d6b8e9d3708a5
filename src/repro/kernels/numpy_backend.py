"""The ``numpy`` backend: query-block x candidate-tile batched scan.

The scan is :meth:`~repro.kernels.base.Kernel._scan_tiles`, the one
tiled driver shared with the vectorised-metric path; this backend
supplies only the Euclidean match tile.  Per tile a row count settles
which queries reached ``need``, and those alone pay the prefix sum that
recovers where a scalar loop would have stopped.  Decided queries leave
the working set — masked early termination at tile granularity, with
*charged* evals kept scalar-faithful at candidate granularity:

* a query whose cumulative count reaches ``need`` at tile column ``j`` is
  charged ``j + 1`` evals for that tile (its scalar stop position) and
  its count is pinned at exactly ``need``, the scalar stop count;
* an undecided query is charged the whole tile and keeps its exact count.

The dense products the tile actually computed (including the part past
each stop position) are reported as ``evals_computed`` — the price of
batching, visible in the ``kernel`` counter group as the
charged/computed ratio.

Tile widths grow geometrically from ``~2 x need`` up to the ``tile``
cap: most queries of an early-exit-friendly workload stop within their
first few dozen candidates, where a fixed wide tile would compute an
order of magnitude more distances than the scalar loop charges.  Neither
tile width nor query blocking affects results — the prefix sum
reconstructs the same scalar stop positions under any split.

Nothing but the boolean result is allocated per tile: distances
accumulate through ``out=`` into two flat buffers made once per call,
sized to the call and reshaped (contiguous views) per tile.  A fresh
``(rows, tile)`` float64 temporary arrives as page-faulted memory and
costs several times the arithmetic it holds.
"""

from __future__ import annotations

import numpy as np

from . import base

__all__ = ["NumpyKernel"]


class NumpyKernel(base.Kernel):
    """Tiled vectorized scan with masked early termination."""

    name = "numpy"

    def _count(
        self,
        queries: np.ndarray,
        candidates: np.ndarray,
        r: float,
        need: int,
    ) -> tuple[np.ndarray, int, int]:
        r2 = r * r
        n_c = candidates.shape[0]
        columns = np.ascontiguousarray(candidates.T)
        scratch = np.empty(
            (2, min(base.ROW_BLOCK, queries.shape[0]) * min(self.tile, n_c))
        )

        def match(q: np.ndarray, start: int, stop: int) -> np.ndarray:
            # Per-coordinate accumulation, in coordinate order: the same
            # float ops the scalar oracle performs, so d2 is bitwise
            # identical (no a^2+b^2-2ab expansion, whose rounding could
            # flip exact boundary distances).
            rows, width = q.shape[0], stop - start
            d2, sq = scratch[:, :rows * width].reshape(2, rows, width)
            np.subtract(q[:, :1], columns[0, start:stop], out=d2)
            np.square(d2, out=d2)
            for j in range(1, q.shape[1]):
                np.subtract(q[:, j:j + 1], columns[j, start:stop], out=sq)
                np.square(sq, out=sq)
                np.add(d2, sq, out=d2)
            return d2 <= r2

        return self._scan_tiles(queries, n_c, need, match)
