"""Which kernel path runs: plain numpy, always.

The occupancy lookup of sampled points is `world.occupied`; span
evaluation, extrema and feasibility live in ``splines``.
"""


def numba_active() -> bool:
    """Always False: every kernel runs as plain numpy.

    Kept because benchmark reports record it in their environment block.
    """
    return False
