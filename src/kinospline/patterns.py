"""Step-pattern tables for the tuple search.

A vertex tuple's control points are cell centers, so along one axis its
span is fixed by the k cell steps in {-1, 0, 1} between consecutive cells
up to a translation. Velocity and acceleration ignore translations, and
with per-axis bounds feasibility splits by axis. One table of 3^k entries
per axis therefore decides every successor of the search: a successor is
feasible exactly when its three axis patterns are (the state-lattice idea
of precomputed controls; Pivtoraiko, Knepper & Kelly, JFR 2009).

A pattern is encoded as sum_i (step_i + 1) * 3^i over its k steps, so
appending a step to a tuple's pattern is ``code // 3 + (step + 1) * 3^(k-1)``.

Control costs ignore translations too and split by axis, so a second
table per axis holds each pattern's span cost: a node's cost is lam*dt
plus three lookups, the same for every translate of a tuple.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from .splines import _motion_extrema, blending_tables, span_cost


def axis_patterns(steps: np.ndarray) -> tuple:
    """Pattern code per axis of a (k, 3) integer array of cell steps, each
    in {-1, 0, 1}."""
    return tuple(((3 ** np.arange(steps.shape[0])) @ (steps + 1)).tolist())


def all_steps(k: int) -> np.ndarray:
    """The 3^k step sequences as a (3^k, k) float array; row r has code r."""
    return np.array(list(product((-1, 0, 1), repeat=k)), dtype=float)[:, ::-1]


def _pattern_profiles(k: int, cell: float) -> np.ndarray:
    """(3^k, k+1) profiles, row r of pattern r: each starts at 0 and moves
    by step * cell per knot."""
    steps = all_steps(k)
    pos = np.zeros((steps.shape[0], k + 1))
    pos[:, 1:] = np.cumsum(steps, axis=1) * cell
    return pos


@lru_cache(maxsize=256)
def feasible_table(k: int, dt: float, cell: float, v_lo: float, v_hi: float,
                   a_lo: float, a_hi: float) -> list:
    """Per-pattern feasibility along one axis (a list of 3^k bools).

    Velocity and acceleration extrema of the pattern profiles come from
    one batched root finder call over all patterns
    (splines._motion_extrema). The coefficients are one matrix product
    over the whole table, which is only ever built whole.
    """
    pos = _pattern_profiles(k, cell)
    lo, hi = _motion_extrema(pos @ blending_tables(k).M.T, dt)
    return ((v_lo <= lo[:, 0]) & (hi[:, 0] <= v_hi)
            & (a_lo <= lo[:, 1]) & (hi[:, 1] <= a_hi)).tolist()


def feasible_tables(k: int, dt: float, cell_sizes, bounds) -> tuple:
    """The three per-axis feasibility tables of a search configuration."""
    return tuple(feasible_table(k, float(dt), float(cell_sizes[a]),
                                float(bounds.v_min[a]), float(bounds.v_max[a]),
                                float(bounds.a_min[a]), float(bounds.a_max[a]))
                 for a in range(3))


@lru_cache(maxsize=256)
def cost_table(k: int, order: int, dt: float, cell: float) -> list:
    """Per-pattern control cost along one axis (a list of 3^k floats).

    Entry r is splines.span_cost of pattern r's profile as a one-axis span.
    """
    spans = np.zeros((3 ** k, k + 1, 3))
    spans[:, :, 0] = _pattern_profiles(k, cell)
    return span_cost(spans, order, dt).tolist()

