"""Output checks that share no code with the planner.

Everything here is rebuilt from first principles with numpy: the uniform
B-spline basis comes from the Cox-de Boor recursion, obstacle inflation
from center-to-box distances, and goal reachability from a Dijkstra over
the aggregated tuple graph whose span feasibility and cost come from
per-axis step-pattern tables. Nothing imports `kinospline`.
"""

import heapq
from itertools import product

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

# slack for comparing sampled derivatives with their bounds (m/s, m/s^2)
BOUND_TOL = 1e-6


def _cox_de_boor(i, k, t, knots):
    if k == 0:
        return np.where((knots[i] <= t) & (t < knots[i + 1]), 1.0, 0.0)
    left = (t - knots[i]) / (knots[i + k] - knots[i]) \
        * _cox_de_boor(i, k - 1, t, knots)
    right = (knots[i + k + 1] - t) / (knots[i + k + 1] - knots[i + 1]) \
        * _cox_de_boor(i + 1, k - 1, t, knots)
    return left + right


def basis_coefficients(k: int) -> np.ndarray:
    """(k+1, k+1) monomial coefficients of the k+1 basis functions of a span.

    Row i holds the coefficients (in u = normalized span time, ascending
    powers) of the weight of the span's i-th control point, obtained by
    fitting the Cox-de Boor basis on integer knots at k+1 nodes.
    """
    knots = np.arange(2 * k + 2, dtype=float)
    nodes = 0.5 - 0.5 * np.cos(np.pi * (np.arange(k + 1) + 0.5) / (k + 1))
    vander = np.vander(nodes, k + 1, increasing=True)
    coef = np.empty((k + 1, k + 1))
    for i in range(k + 1):
        vals = _cox_de_boor(i, k, k + nodes, knots)
        coef[i] = np.linalg.solve(vander, vals)
    return coef


class SplineProbe:
    """Evaluates uniform B-splines of one degree: samples and costs."""

    def __init__(self, k: int):
        self.k = k
        self.coef = basis_coefficients(k)

    def _span_polys(self, points, order=0):
        """(spans, k+1-order, 3) coefficients of each span's derivative.

        Ascending powers of u; the time scaling 1/dt^order is left out.
        """
        pts = np.asarray(points, dtype=float)
        win = np.lib.stride_tricks.sliding_window_view(pts, self.k + 1, axis=0)
        # win: (spans, 3, k+1); poly[s, p, a] = sum_i coef[i, p] * P[s, i, a]
        polys = np.einsum("ip,sai->spa", self.coef, win)
        for _ in range(order):
            polys = polys[:, 1:] * np.arange(1, polys.shape[1])[None, :, None]
        return polys

    def sample(self, points, dt: float, per_span: int, order: int = 0):
        """(spans * per_span + 1, 3) values of the order-th time derivative."""
        polys = self._span_polys(points, order)
        us = np.linspace(0.0, 1.0, per_span + 1)
        powers = us[:, None] ** np.arange(polys.shape[1])[None, :]
        vals = np.einsum("up,spa->sua", powers, polys) / dt ** order
        body = vals[:, :-1].reshape(-1, 3)
        return np.vstack([body, vals[-1, -1]])

    def at(self, points, dt: float, times, order: int = 0):
        """(len(times), 3) values of the order-th time derivative at times."""
        polys = self._span_polys(points, order)
        t = np.asarray(times, dtype=float) / dt
        j = np.clip(np.floor(t).astype(np.int64), 0, polys.shape[0] - 1)
        u = np.clip(t - j, 0.0, 1.0)
        powers = u[:, None] ** np.arange(polys.shape[1])[None, :]
        return np.einsum("tp,tpa->ta", powers, polys[j]) / dt ** order

    def cost(self, points, dt: float, order: int) -> float:
        """Integral over the spline of the squared order-th derivative."""
        polys = self._span_polys(points, order)
        x, w = leggauss(self.k + 2)
        u = 0.5 * (x + 1.0)
        powers = u[:, None] ** np.arange(polys.shape[1])[None, :]
        vals = np.einsum("up,spa->sua", powers, polys)
        per_span = 0.5 * np.einsum("u,sua->s", w, vals * vals)
        return float(per_span.sum() * dt ** (1 - 2 * order))


def collides(samples, occ, origin, cell_sizes) -> bool:
    """True when a sample lies in an occupied cell or off the map."""
    idx = np.floor((np.asarray(samples) - origin)
                   / cell_sizes).astype(np.int64)
    dims = np.asarray(occ.shape)
    outside = np.any((idx < 0) | (idx >= dims), axis=1)
    clipped = np.clip(idx, 0, dims - 1)
    return bool(np.any(outside
                       | occ[clipped[:, 0], clipped[:, 1], clipped[:, 2]]))


def trajectory_fault(probe: SplineProbe, points, dt, occ, origin, cell_sizes,
                     vmax, amax, per_span: int = 64):
    """Name of the first failed trajectory check, or None when all hold.

    Dense samples (per_span per knot interval) are tested against the raw
    occupancy and the per-axis velocity and acceleration bounds.
    """
    pos = probe.sample(points, dt, per_span, 0)
    if collides(pos, occ, origin, cell_sizes):
        return "check:collision"
    vel = probe.sample(points, dt, per_span, 1)
    if np.max(np.abs(vel)) > vmax + BOUND_TOL:
        return "check:velocity"
    acc = probe.sample(points, dt, per_span, 2)
    if np.max(np.abs(acc)) > amax + BOUND_TOL:
        return "check:acceleration"
    return None


def inflate(occ, cell_sizes, delta: float) -> np.ndarray:
    """Cells whose center lies within delta of an occupied cell's box."""
    cs = np.asarray(cell_sizes, dtype=float)
    reach = np.ceil(delta / cs + 0.5).astype(int)
    out = occ.copy()
    dims = occ.shape
    for off in product(*(range(-r, r + 1) for r in reach)):
        gap = np.maximum(np.abs(np.asarray(off)) - 0.5, 0.0) * cs
        if float(gap @ gap) > delta * delta + 1e-12:
            continue
        src = tuple(slice(max(-o, 0), dims[a] - max(o, 0))
                    for a, o in enumerate(off))
        dst = tuple(slice(max(o, 0), dims[a] - max(-o, 0))
                    for a, o in enumerate(off))
        out[dst] |= occ[src]
    return out


class StepTables:
    """Per-axis feasibility and cost of every k-step pattern in {-1,0,1}^k.

    A tuple of cell centers has control points origin + (c + 0.5) * cell,
    so a span's derivatives depend only on its per-axis cell steps; the
    velocity and acceleration extrema come from the real roots of the
    derivative polynomials plus the span ends.
    """

    def __init__(self, k, dt, cell_sizes, vmax, amax, order):
        coef = basis_coefficients(k)
        pats = np.array(list(product((-1, 0, 1), repeat=k)), dtype=float)
        steps = np.hstack([np.zeros((pats.shape[0], 1)),
                           np.cumsum(pats, axis=1)])
        polys = steps @ coef                          # (3^k, k+1), unit cell
        vel = [npoly.polyder(p) / dt for p in polys]
        acc = [npoly.polyder(p, 2) / dt ** 2 for p in polys]
        x, w = leggauss(k + 2)
        u = 0.5 * (x + 1.0)
        unit_cost = np.array([0.5 * float(w @ npoly.polyval(
            u, npoly.polyder(p, order)) ** 2) for p in polys])
        scale = dt ** (1 - 2 * order)
        self.feasible = []
        self.cost = []
        for c in cell_sizes:
            self.feasible.append(np.array(
                [_poly_within(v * c, vmax) and _poly_within(a * c, amax)
                 for v, a in zip(vel, acc)]))
            self.cost.append(unit_cost * scale * c * c)

    @staticmethod
    def pattern(steps) -> int:
        """Index of a k-step sequence with entries in {-1, 0, 1}."""
        idx = 0
        for s in steps:
            idx = 3 * idx + s + 1
        return idx


def _poly_within(p, bound) -> bool:
    """True when |p(u)| <= bound on [0, 1] (exact extrema via roots)."""
    cand = [0.0, 1.0]
    d = np.trim_zeros(npoly.polyder(p), "b")
    if d.size > 1:
        cand += [float(r.real) for r in npoly.polyroots(d)
                 if abs(r.imag) < 1e-9 and 0.0 < r.real < 1.0]
    vals = npoly.polyval(np.asarray(cand), p)
    return bool(np.max(np.abs(vals)) <= bound)


def reachable_goals(start_cells, free, cell_sizes, k, dt, lam, order,
                    vmax, amax):
    """Last cells of every node the aggregated (d = 1) search can close.

    Dijkstra over vertex tuples keyed by their last cell: each key keeps
    its cheapest representative tuple, ties going to the lexicographically
    smallest tuple of flat cell codes, and a node closes on its first pop.
    Returns {flat code: cost at closing}.
    """
    tabs = StepTables(k, dt, cell_sizes, vmax, amax, order)
    dims = free.shape
    nyz = dims[1] * dims[2]
    nz = dims[2]
    free_flat = free.reshape(-1)
    step_cost = lam * dt

    def decode(code):
        x, rem = divmod(code, nyz)
        return (x,) + divmod(rem, nz)

    def span_cost_ok(cells):
        total = 0.0
        for ax in range(3):
            steps = [cells[i + 1][ax] - cells[i][ax] for i in range(k)]
            p = tabs.pattern(steps)
            if not tabs.feasible[ax][p]:
                return None
            total += tabs.cost[ax][p]
        return total

    start_cells = [tuple(int(v) for v in c) for c in start_cells]
    start_full = tuple((c[0] * dims[1] + c[1]) * nz + c[2]
                       for c in start_cells)
    start_cost = step_cost + (span_cost_ok(start_cells) or 0.0)
    visited = {start_full[-1]: [start_cost, start_full, False]}
    heap = [(start_cost, start_cost, start_full[-1])]
    closed = {}
    offsets = list(product((-1, 0, 1), repeat=3))
    while heap:
        _, g, key = heapq.heappop(heap)
        node = visited[key]
        if node[2] or g > node[0]:
            continue
        node[2] = True
        closed[key] = g
        full = node[1]
        cells = [decode(c) for c in full]
        tail = full[1:]
        last = cells[-1]
        for dx, dy, dz in offsets:
            nxt = (last[0] + dx, last[1] + dy, last[2] + dz)
            if not (0 <= nxt[0] < dims[0] and 0 <= nxt[1] < dims[1]
                    and 0 <= nxt[2] < dims[2]):
                continue
            code = (nxt[0] * dims[1] + nxt[1]) * nz + nxt[2]
            if not free_flat[code]:
                continue
            cost = span_cost_ok(cells[1:] + [nxt])
            if cost is None:
                continue
            ng = g + step_cost + cost
            entry = visited.get(code)
            child = tail + (code,)
            if entry is None:
                visited[code] = [ng, child, False]
                heapq.heappush(heap, (ng, ng, code))
            elif not entry[2]:
                if ng < entry[0]:
                    entry[0], entry[1] = ng, child
                    heapq.heappush(heap, (ng, ng, code))
                elif ng == entry[0] and child < entry[1]:
                    entry[1] = child
    return closed

