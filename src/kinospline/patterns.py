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

Node costs come from `WindowCosts`: a span's cost split into a quadratic
qc + 2 ql c + qkk c c in the appended coordinate c, summed in a fixed
floating-point order from absolute coordinates and cached per window.
Costs that agree mathematically but not in their last bits break search
ties differently, so that order is part of the contract: the start cost
(`splines.span_cost` on one span) and the test oracle's direct scan sum
in it too.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from .splines import _motion_extrema, blending_tables


def encode(steps) -> int:
    """Pattern code of k steps, or -1 when a step leaves {-1, 0, 1}."""
    code = 0
    for i, s in enumerate(steps):
        s = int(s)
        if s < -1 or s > 1:
            return -1
        code += (s + 1) * 3 ** i
    return code


def axis_patterns(cells) -> tuple:
    """Pattern code per axis of a (k+1, 3) cell array (-1 if not unit steps)."""
    steps = np.diff(np.asarray(cells, dtype=np.int64), axis=0)
    return tuple(encode(steps[:, a]) for a in range(3))


def all_steps(k: int) -> np.ndarray:
    """The 3^k step sequences as a (3^k, k) float array; row r has code r."""
    return np.array(list(product((-1, 0, 1), repeat=k)), dtype=float)[:, ::-1]


@lru_cache(maxsize=256)
def feasible_table(k: int, dt: float, cell: float, v_lo: float, v_hi: float,
                   a_lo: float, a_hi: float) -> list:
    """Per-pattern feasibility along one axis (a list of 3^k bools).

    Each pattern's profile starts at 0 and moves by step * cell per knot.
    Its velocity and acceleration extrema come from one batched root
    finder call over all patterns (splines._motion_extrema). The
    coefficients are one matrix product over the whole table, which is
    only ever built whole.
    """
    steps = all_steps(k)
    pos = np.zeros((steps.shape[0], k + 1))
    pos[:, 1:] = np.cumsum(steps, axis=1) * cell
    lo, hi = _motion_extrema(pos @ blending_tables(k).M.T, dt)
    return ((v_lo <= lo[:, 0]) & (hi[:, 0] <= v_hi)
            & (a_lo <= lo[:, 1]) & (hi[:, 1] <= a_hi)).tolist()


def feasible_tables(k: int, dt: float, cell_sizes, bounds) -> tuple:
    """The three per-axis feasibility tables of a search configuration."""
    return tuple(feasible_table(k, float(dt), float(cell_sizes[a]),
                                float(bounds.v_min[a]), float(bounds.v_max[a]),
                                float(bounds.a_min[a]), float(bounds.a_max[a]))
                 for a in range(3))


class WindowCosts:
    """Per-axis successor cost pieces, cached by the tuple's shared window.

    A successor drops the tuple's first cell and appends one, so its span
    shares the k cells c_1..c_k (the window) with the tuple. Along one
    axis its cost is qc + 2 ql c + qkk c^2 in the appended coordinate c,
    where qc and ql depend only on the window. They are summed in nested
    loop order from cell-center coordinates and cached under (last cell,
    window pattern).
    """

    def __init__(self, k: int, order: int, origin: float, cell: float,
                 n_cells: int):
        cm = blending_tables(k).cost_mat(order).tolist()
        self.k = k
        self.rows = [r[:k] for r in cm[:k]]
        self.lin = cm[k][:k]
        self.qkk = cm[k][k]
        self.coord = (origin + (np.arange(n_cells) + 0.5) * cell).tolist()
        self.top = 3 ** (k - 1)
        self.cache = {}

    def window(self, last: int, wcode: int) -> tuple:
        """(qc, ql) of the window ending at cell last with steps wcode."""
        key = last * self.top + wcode
        hit = self.cache.get(key)
        if hit is None:
            k = self.k
            cells = [last]
            for i in range(k - 2, -1, -1):
                cells.append(cells[-1] - ((wcode // 3 ** i) % 3 - 1))
            p = [self.coord[c] for c in reversed(cells)]
            qc = 0.0
            ql = 0.0
            for i in range(k):
                row = 0.0
                ri = self.rows[i]
                for j in range(k):
                    row += ri[j] * p[j]
                qc += row * p[i]
                ql += self.lin[i] * p[i]
            hit = self.cache[key] = (qc, ql)
        return hit

    def term(self, qc: float, ql: float, cell: int) -> float:
        """The axis term of a successor whose appended cell is cell."""
        c = self.coord[cell]
        return qc + 2.0 * ql * c + self.qkk * c * c


@lru_cache(maxsize=64)
def window_costs(k: int, order: int, origin: float, cell: float,
                 n_cells: int) -> WindowCosts:
    return WindowCosts(k, order, origin, cell, n_cells)
