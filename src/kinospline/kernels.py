"""Grid collision scan of sampled trajectory points (plain numpy).

Span evaluation, extrema and feasibility live in ``splines``; successor
sets come from the step-pattern tables in ``patterns``.
"""

import numpy as np


def numba_active() -> bool:
    """Always False: every kernel runs as plain numpy.

    Kept because benchmark reports record it in their environment block.
    """
    return False


def occupied(points, occ, dims, origin, cells) -> np.ndarray:
    """Per sample, whether its cell is occupied in the flat grid occ.

    Samples outside the grid count as occupied (conservative).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    c = np.floor((pts - origin) / cells).astype(np.int64)
    dims = np.asarray(dims, dtype=np.int64)
    hit = ~np.all((c >= 0) & (c < dims), axis=1)
    inside = c[~hit]
    hit[~hit] = occ[(inside[:, 0] * dims[1] + inside[:, 1]) * dims[2]
                    + inside[:, 2]] != 0
    return hit


def collision_scan(points, occ, dims, origin, cells):
    """Index of the first sample whose cell is occupied, or -1.

    Samples outside the grid count as collisions (conservative).
    """
    first = np.flatnonzero(occupied(points, occ, dims, origin, cells))
    return int(first[0]) if first.size else -1
