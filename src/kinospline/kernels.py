"""Grid collision scan of sampled trajectory points (plain numpy).

The occupancy lookup itself is `world.occupied`; span evaluation,
extrema and feasibility live in ``splines``.
"""

import numpy as np

from .world import occupied


def numba_active() -> bool:
    """Always False: every kernel runs as plain numpy.

    Kept because benchmark reports record it in their environment block.
    """
    return False


def collision_scan(points, occ, dims, origin, cells):
    """Index of the first sample whose cell is occupied, or -1.

    Samples outside the grid count as collisions (conservative).
    """
    first = np.flatnonzero(occupied(points, occ, dims, origin, cells))
    return int(first[0]) if first.size else -1
