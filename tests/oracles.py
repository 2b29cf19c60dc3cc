"""Independent reference implementations used as test oracles."""

import heapq
import time
from itertools import product

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import optimize

from kinospline import certify, patterns
from kinospline.splines import blending_tables, eval_span_many, span_cost
from kinospline.search import cell_code
from kinospline.world import VoxelWorld


def quadrature_span_cost(P, l, dt, nodes=24):
    """Gauss-Legendre integral of the squared l-th derivative over a span.

    The integrand is a polynomial of degree <= 2k, so enough nodes make
    the quadrature exact up to roundoff.
    """
    x, w = leggauss(nodes)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    vals = eval_span_many(P, u, l, dt)
    return float(dt * np.sum(wu * np.sum(vals * vals, axis=1)))


def sampled_extrema(P, l, dt, n=200001):
    """Dense-sampling (min, max) per axis of the l-th derivative."""
    us = np.linspace(0.0, 1.0, n)
    vals = eval_span_many(P, us, l, dt)
    return np.column_stack([vals.min(axis=0), vals.max(axis=0)])


def brute_force_nn(cs, point):
    """Nearest inflated-occupied center or boundary plane by full scan."""
    w = cs.world
    occ_pts = w.cell_center(np.argwhere(cs.occ_inflated))
    best = np.inf
    if occ_pts.size:
        best = float(np.sqrt(((occ_pts - point) ** 2).sum(axis=1)).min())
    lo = w.origin
    hi = lo + w.extent
    for ax in range(3):
        best = min(best, point[ax] - lo[ax], hi[ax] - point[ax])
    return best


def _brute_force_nearest(cs, point):
    """(nearest obstacle point, distance) by full scan: boundary planes in
    the order lo_x, hi_x, lo_y, hi_y, lo_z, hi_z, then an inflated-occupied
    center only when strictly closer."""
    w = cs.world
    best, near = np.inf, None
    for ax in range(3):
        for face in (w.origin[ax], w.origin[ax] + w.extent[ax]):
            dist = abs(point[ax] - face)
            if dist < best:
                best, near = dist, point.copy()
                near[ax] = face
    occ_pts = w.cell_center(np.argwhere(cs.occ_inflated))
    if occ_pts.size:
        d = np.sqrt(((occ_pts - point) ** 2).sum(axis=1))
        i = int(np.argmin(d))
        if d[i] < best:
            best, near = float(d[i]), occ_pts[i]
    return near, best


def tube_expansion(points, cs, d_max):
    """Per point, its clearance ball pushed away from the nearest obstacle,
    by a scalar bisection over [0, d_max] on brute-force clearances.

    A push d is accepted when its candidate center lies in the world box
    (faces included) and its clearance r satisfies |r - d - r0| within a
    quarter of the smallest cell; bisection stops at a bracket one
    smallest cell wide. The ball is the last accepted center with its
    clearance. Returns (centers, radii); raises ValueError for a point
    without clearance.
    """
    w = cs.world
    res = float(min(w.cell_sizes))
    lo_box, hi_box = w.origin, w.origin + w.extent
    centers, radii = [], []
    for p in np.asarray(points, dtype=float).reshape(-1, 3):
        near, r0 = _brute_force_nearest(cs, p)
        if r0 <= 0.0:
            raise ValueError(f"point {p.tolist()} has no clearance")
        away = p - near
        length = float(np.sqrt((away ** 2).sum()))
        lo, hi = 0.0, d_max
        if length >= 1e-12:
            u = away / length
            while hi - lo > res:
                d = 0.5 * (lo + hi)
                q = p + d * u
                if np.all((q >= lo_box) & (q <= hi_box)) and \
                        abs(brute_force_nn(cs, q) - d - r0) <= 0.25 * res:
                    lo = d
                else:
                    hi = d
            p = p + lo * u
        centers.append(p)
        radii.append(brute_force_nn(cs, p))
    return np.array(centers).reshape(-1, 3), np.array(radii)


def brute_force_inflation(world, delta):
    """Cells whose center lies within delta of some obstacle cell's box.

    For every obstacle cell, the per-axis gap from each cell center to
    the box [origin + q * c, origin + (q + 1) * c] is clipped at zero and
    the squared gaps are summed; the same 1e-12 tolerance on delta**2
    keeps boundary cases inside.
    """
    dims = np.asarray(world.dims)
    c = np.asarray(world.cell_sizes, dtype=float)
    org = np.asarray(world.origin, dtype=float)
    idx = np.indices(tuple(dims)).reshape(3, -1).T
    centers = org + (idx + 0.5) * c
    out = np.zeros(idx.shape[0], dtype=bool)
    for q in np.argwhere(world.occ):
        lo = org + q * c
        hi = org + (q + 1) * c
        gap = np.maximum(np.maximum(lo - centers, centers - hi), 0.0)
        out |= (gap ** 2).sum(axis=1) <= delta ** 2 + 1e-12
    return out.reshape(tuple(dims))


_OFFSETS27 = np.array(list(product((-1, 0, 1), repeat=3)))


def neighbors26(cell, dims):
    """In-grid cells at Chebyshev distance 1 from a cell, as tuples."""
    return [tuple(int(v) for v in c) for c in np.asarray(cell) + _OFFSETS27
            if np.any(c != cell) and np.all((c >= 0) & (c < dims))]


def balls_chained(centers, radii, slack=0.0):
    """Whether each ball of a chain meets the next: center gap at most the
    radius sum plus slack."""
    gaps = np.sqrt((np.diff(centers, axis=0) ** 2).sum(axis=1))
    return bool(np.all(gaps <= radii[:-1] + radii[1:] + slack))


def _extrema01(q):
    """(min, max) over [0, 1] of each row polynomial q, ascending powers.

    Candidates are the ends and the real parts of the near-real roots of
    q' inside (0, 1). Roots are eigenvalues of the top-row (Frobenius)
    companion matrix of q' at the degree left after dropping exactly-zero
    top coefficients. Any candidate is a value of q on [0, 1], so a
    spurious one cannot widen the range; unused slots repeat u = 0.
    """
    n, m1 = q.shape
    dq = q[:, 1:] * np.arange(1, m1)
    # a constant (or empty) row has no derivative coefficient at all
    top = np.where(dq != 0.0, np.arange(m1 - 1), -1).max(axis=1, initial=-1)
    xs = np.zeros((n, max(m1 - 2, 0) + 2))
    xs[:, 1] = 1.0
    for g in range(1, m1 - 1):
        rows = np.flatnonzero(top == g)
        if rows.size == 0:
            continue
        comp = np.zeros((rows.size, g, g))
        comp[:, 0, :] = -dq[rows, g - 1::-1] / dq[rows, g:g + 1]
        comp[:, np.arange(1, g), np.arange(g - 1)] = 1.0
        r = np.linalg.eigvals(comp)
        keep = (np.abs(r.imag) < 1e-6) & (r.real > 0.0) & (r.real < 1.0)
        xs[rows, 2:2 + g] = np.where(keep, r.real, 0.0)
    vals = np.zeros(xs.shape)
    for i in range(m1 - 1, -1, -1):
        vals = vals * xs + q[:, i:i + 1]
    return vals.min(axis=1), vals.max(axis=1)


def _scan(positions, last_cells, cs, bounds, dt, lam, l, tab):
    """The 27 shift-and-append successors of each tuple in a stack.

    positions is (n, k+1, 3) and last_cells (n, 3). Candidates follow
    lexicographic offset order over {-1, 0, 1}^3. One survives when its
    cell is inside the grid, free, and its span's velocity and
    acceleration extrema (_extrema01 on all spans at once) respect the
    bounds. Node costs are lam*dt plus the span's control cost, computed
    per axis from the span positions relative to its first control point.
    Returns (mask, costs, cells), shaped (n, 27), (n, 27) and (n, 27, 3).
    """
    world = cs.world
    dims = np.asarray(world.dims)
    n, k1, _ = positions.shape
    k = k1 - 1
    cells = np.asarray(last_cells, dtype=np.int64)[:, None, :] + _OFFSETS27
    inside = np.all((cells >= 0) & (cells < dims), axis=2)
    flat = (cells[..., 0] * dims[1] + cells[..., 1]) * dims[2] + cells[..., 2]
    free = inside & ~cs.occ_inflated.reshape(-1)[np.where(inside, flat, 0)]
    cand = world.origin + (cells + 0.5) * world.cell_sizes
    spans = np.concatenate([np.broadcast_to(positions[:, None, 1:],
                                            (n, 27, k, 3)),
                            cand[:, :, None, :]], axis=2)
    free_at = np.flatnonzero(free)
    a = np.einsum("ij,njx->nxi", tab.M, spans.reshape(n * 27, k1, 3)[free_at])
    good = np.ones(free_at.size, dtype=bool)
    for order, lo_b, hi_b in ((1, bounds.v_min, bounds.v_max),
                              (2, bounds.a_min, bounds.a_max)):
        fac = np.array([np.prod(np.arange(i - order + 1, i + 1))
                        for i in range(order, k + 1)], dtype=float)
        lo, hi = _extrema01((a[..., order:] * fac)
                            .reshape(3 * free_at.size, k1 - order))
        lo = lo.reshape(-1, 3) / dt ** order
        hi = hi.reshape(-1, 3) / dt ** order
        good &= np.all((lo >= lo_b) & (hi <= hi_b), axis=1)
    ok = np.zeros((n, 27), dtype=bool)
    ok.flat[free_at[good]] = True

    # control costs ignore translations: take each span relative to its
    # first control point, then add the three axis costs in turn
    rel = spans - spans[:, :, :1, :]
    axis = np.einsum("nmia,ij,nmja->nma", rel, tab.cost_mat(l), rel) \
        * dt ** (1 - 2 * l)
    costs = np.where(ok, lam * dt + (axis[..., 0] + axis[..., 1]
                                     + axis[..., 2]), 0.0)
    return ok, costs, cells


def _scan27(positions, last_cell, cs, bounds, dt, lam, l, tab):
    """_scan for one tuple: (mask, costs, cells) over the 27 offsets."""
    mask, costs, cells = _scan(np.asarray(positions, dtype=float)[None],
                               np.asarray(last_cell)[None], cs, bounds, dt,
                               lam, l, tab)
    return mask[0], costs[0], cells[0]


def build_tuple_graph(start_cells, cs, bounds, dt, lam, l):
    """Explicit feasibility-filtered tuple graph reachable from the start.

    Nodes are tuples of cell-code tuples; edges carry the node cost of the
    successor from the oracle's own direct scan (_scan). The graph is
    built breadth first, scanning up to 1024 tuples per call to bound the
    scan's memory.
    """
    world = cs.world
    dims = world.dims
    nyz = int(dims[1]) * int(dims[2])
    tab = blending_tables(start_cells.shape[0] - 1)
    start = tuple(int(c) for c in cell_code(start_cells, dims))
    graph = {}
    frontier = [start]
    while frontier:
        nxt = {}
        for b in range(0, len(frontier), 1024):
            nodes = frontier[b:b + 1024]
            codes = np.array(nodes, dtype=np.int64)
            cells = np.empty(codes.shape + (3,), dtype=np.int64)
            cells[..., 0], rem = np.divmod(codes, nyz)
            cells[..., 1], cells[..., 2] = np.divmod(rem, int(dims[2]))
            mask, costs, ncells = _scan(world.cell_center(cells),
                                        cells[:, -1], cs, bounds, dt, lam,
                                        l, tab)
            succs = [[] for _ in nodes]
            ii, mm = np.nonzero(mask)
            for i, code, cost in zip(ii.tolist(),
                                     cell_code(ncells[ii, mm], dims).tolist(),
                                     costs[ii, mm].tolist()):
                child = nodes[i][1:] + (code,)
                succs[i].append((child, cost))
                if child not in graph:
                    nxt[child] = None
            graph.update(zip(nodes, succs))
        frontier = [c for c in nxt if c not in graph]
    return graph, start


def aggregated_dijkstra(graph, start, start_cost, goal_codes, d):
    """Textbook Dijkstra over aggregated keys with representative tuples.

    Keys are the last d codes; each key stores the representative tuple of
    its best-known cost (ties broken toward the lexicographically smallest
    tuple), successors come from the representative via the prebuilt
    graph. Returns (cost to the goal key, expansions) or (None, n).
    """
    goal_key = goal_codes[-d:]
    best = {start[-d:]: (start_cost, start)}
    closed = set()
    heap = [(start_cost, start[-d:])]
    expanded = 0
    while heap:
        g, key = heapq.heappop(heap)
        if key in closed or g > best[key][0]:
            continue
        closed.add(key)
        if key == goal_key:
            return g, expanded
        expanded += 1
        rep = best[key][1]
        for child, cost in graph[rep]:
            ck = child[-d:]
            ng = g + cost
            cur = best.get(ck)
            if cur is None or ng < cur[0]:
                best[ck] = (ng, child)
                heapq.heappush(heap, (ng, ck))
            elif ck not in closed and ng == cur[0] and child < cur[1]:
                best[ck] = (ng, child)
    return None, expanded


def tuple_search(q, cs, collect_closed=False, best_effort=False,
                 exhaust=False, use_heuristic=True):
    """Best-first search over aggregated vertex tuples: the reference for
    search.search, as a dict of its result fields (wall_time left out).

    Each node keeps its full cell codes from the moment it is pushed. A
    popped tuple's successors are built whole, as a list: the product over
    the axes of the steps whose appended pattern the feasibility tables
    accept inside the crop box, filtered by occupancy before the visited
    lookup, each with its node cost lam*dt plus the three cost table
    entries and its Chebyshev cell distance to the goal. Heap entries,
    tie rules, budgets and the best-effort pick follow search.search's
    docstring; exhaust drains the open set against a goal key that
    matches nothing, and use_heuristic=False orders the heap by g alone
    (f = g). The endpoints are not validated.
    """
    world = cs.world
    dims = [int(v) for v in world.dims]
    lam, dt, l, d = q.lam, q.dt, q.order, q.d
    k = q.start.cells.shape[0] - 1
    feas = patterns.feasible_tables(k, dt, world.cell_sizes, q.bounds)
    costs = [patterns.cost_table(k, l, float(dt), float(world.cell_sizes[a]))
             for a in range(3)]
    top = 3 ** (k - 1)
    strides = (dims[1] * dims[2], dims[2], 1)
    if q.region is None:
        lo, hi = [0, 0, 0], [n - 1 for n in dims]
    else:
        lo, hi = ([int(v) for v in q.region[0]],
                  [int(v) for v in q.region[1]])
    goal = [int(v) for v in q.goal.cells[-1]]
    occ = cs.occ_bytes
    sc = lam * dt
    hs = lam * dt if use_heuristic else 0.0

    def options(a, c0, wcode):
        out = []
        for step in (-1, 0, 1):
            c = c0 + step
            child = wcode + (step + 1) * top
            if lo[a] <= c <= hi[a] and feas[a][child]:
                out.append((step * strides[a], costs[a][child], child,
                            abs(c - goal[a])))
        return out

    def successors(full, pats):
        last = full[-1]
        cell = (last // strides[0], last // dims[2] % dims[1],
                last % dims[2])
        xs, ys, zs = (options(a, cell[a], pats[a] // 3) for a in range(3))
        out = []
        for ox, tx, px, hx in xs:
            for oy, ty, py, hy in ys:
                for oz, tz, pz, hz in zs:
                    code = last + ox + oy + oz
                    if occ[code] == 0:
                        out.append((code, sc + ((tx + ty) + tz),
                                    (px, py, pz), max(max(hx, hy), hz)))
        return out

    start_cells = np.asarray(q.start.cells)
    start_full = tuple(int(c) for c in cell_code(start_cells, dims))
    goal_full = tuple(int(c) for c in cell_code(q.goal.cells, dims))
    start_key = start_full[-d:]
    goal_key = None if exhaust else goal_full[-d:]
    start_cost = lam * dt + float(span_cost(q.start.positions, l, dt))
    h0 = hs * max(abs(int(a) - b) for a, b in zip(start_cells[-1], goal))
    # key -> [g, full codes, parent key, closed, axis patterns]
    visited = {start_key: [start_cost, start_full, None, False,
                           patterns.axis_patterns(np.diff(start_cells,
                                                          axis=0))]}
    heap = [(start_cost + h0, start_cost, start_key)]
    expanded = 0
    open_peak = 1
    status = "no-path"
    budget = None
    t0 = time.perf_counter()
    while heap:
        f, g, key = heapq.heappop(heap)
        node = visited[key]
        if node[3] or g > node[0]:
            continue
        node[3] = True
        if key == goal_key:
            status = "success"
            break
        expanded += 1
        if expanded >= q.max_expansions:
            status, budget = "budget-exceeded", "expansions"
            break
        if time.perf_counter() - t0 > q.max_wall_ms / 1000.0:
            status, budget = "budget-exceeded", "wall"
            break
        full = node[1]
        for code, cost, cpats, cheb in successors(full, node[4]):
            child_full = full[1:] + (code,)
            child_key = child_full[-d:]
            ng = g + cost
            entry = visited.get(child_key)
            if entry is None:
                visited[child_key] = [ng, child_full, key, False, cpats]
                heapq.heappush(heap, (ng + hs * cheb, ng, child_key))
            elif not entry[3]:
                if ng < entry[0]:
                    entry[:] = [ng, child_full, key, False, cpats]
                    heapq.heappush(heap, (ng + hs * cheb, ng, child_key))
                elif ng == entry[0] and child_full < entry[1]:
                    entry[:] = [ng, child_full, key, False, cpats]
        open_peak = max(open_peak, len(heap))

    closed = [node for node in visited.values() if node[3]]
    out = {"status": status, "cells": None, "positions": None,
           "cost": np.inf, "effort": np.inf, "expanded": expanded,
           "open_peak": open_peak, "budget": budget,
           "closed_codes": (frozenset(node[1][-1] for node in closed)
                            if collect_closed else None)}
    end = visited.get(goal_key)
    if status != "success":
        end = None
        if best_effort:
            def rank(node):
                cell = (node[1][-1] // strides[0],
                        node[1][-1] // dims[2] % dims[1],
                        node[1][-1] % dims[2])
                return (max(abs(c - g) for c, g in zip(cell, goal)),
                        node[0], node[1])

            best = min(closed, key=rank)
            if best[2] is not None:
                end = best
                out["status"] = "partial"
        if end is None:
            return out
    codes = []
    node = end
    while node[2] is not None:
        codes.append(node[1][-1])
        node = visited[node[2]]
    codes = list(start_full) + codes[::-1]
    cells = np.column_stack(np.unravel_index(codes, dims)).astype(np.int64)
    out.update(cells=cells, positions=world.cell_center(cells),
               cost=float(end[0]),
               effort=float(end[0] - lam * dt * (len(codes) - k)))
    return out


def dense_hessian(prob):
    """A QCQP's dense H from its lower band, H_band[d, j] = H[j + d, j]."""
    n, band = prob.n, prob.H_band
    H = np.zeros((n, n))
    for d in range(min(band.shape[0], n)):
        i = np.arange(n - d)
        H[i + d, i] = H[i, i + d] = band[d, :n - d]
    return H


def projected_gradient(prob, iters=200000, dykstra=40, tol=1e-12):
    """Long-run projected gradient with Dykstra projections onto the balls."""
    H = dense_hessian(prob)
    L = float(np.linalg.eigvalsh(H)[-1])
    x = np.zeros(prob.n)
    for _ in range(iters):
        y = x - (H @ x + prob.g) / L
        mem = [np.zeros(3) for _ in prob.balls]
        for _ in range(dykstra):
            for j, b in enumerate(prob.balls):
                sl = slice(3 * b.point, 3 * b.point + 3)
                v = y[sl] + mem[j]
                dvec = v - b.center
                nrm = np.linalg.norm(dvec)
                proj = b.center + dvec * (b.radius / nrm) if nrm > b.radius else v
                mem[j] = v - proj
                y[sl] = proj
        if np.linalg.norm(y - x) < tol * (1.0 + np.linalg.norm(x)):
            return y
        x = y
    return x


def all_axis_patterns(k):
    return list(product((-1, 0, 1), repeat=k))


def _steps26(cell_sizes):
    """The 26 grid steps as (dx, dy, dz, length in m)."""
    steps = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                cost = float(np.linalg.norm([dx * cell_sizes[0],
                                             dy * cell_sizes[1],
                                             dz * cell_sizes[2]]))
                steps.append((dx, dy, dz, cost))
    return steps


def astar_cells(cs, start_cell, goal_cell,
                max_expansions: int = 2_000_000):
    """Textbook A* over free cells, 26-connected: the reference for
    search.astar_cells.

    Euclidean step costs in meters. The heuristic is the cost of the
    cheapest obstacle-free path: with the axes ranked by their cell
    offset to the goal (busiest first), it climbs the chain of steps
    over all three axes, over the first two and over the first alone,
    each as often as the offsets allow, summed in that order. Heap
    entries (f, g, code, cell) break ties on the cell code, and a closed
    set skips settled cells. Returns the cell path as an (n, 3) array or
    None.
    """
    world = cs.world
    dims = world.dims
    nx, ny, nz = (int(v) for v in dims)
    start = tuple(int(v) for v in start_cell)
    goal = tuple(int(v) for v in goal_cell)
    if not cs.is_free(start) or not cs.is_free(goal):
        return None
    occ = cs.occ_bytes
    steps = _steps26(world.cell_sizes)
    # the length of a unit step along a set of axes
    unit = {frozenset(i for i, d in enumerate((dx, dy, dz)) if d): cost
            for dx, dy, dz, cost in steps}

    def h(x, y, z):
        n = [abs(x - goal[0]), abs(y - goal[1]), abs(z - goal[2])]
        busy = sorted(range(3), key=lambda i: -n[i])
        return (n[busy[2]] * unit[frozenset(busy)]
                + (n[busy[1]] - n[busy[2]]) * unit[frozenset(busy[:2])]
                + (n[busy[0]] - n[busy[1]]) * unit[frozenset(busy[:1])])

    start_code = (start[0] * ny + start[1]) * nz + start[2]
    goal_code = (goal[0] * ny + goal[1]) * nz + goal[2]
    g_best = {start_code: 0.0}
    parent = {start_code: None}
    closed = set()
    heap = [(h(*start), 0.0, start_code, start)]
    n = 0
    while heap:
        f, g, code, cell = heapq.heappop(heap)
        if code in closed or g > g_best[code]:
            continue
        closed.add(code)
        if code == goal_code:
            path = []
            while code is not None:
                path.append((code // (ny * nz), (code // nz) % ny, code % nz))
                code = parent[code]
            return np.array(path[::-1], dtype=np.int64)
        n += 1
        if n >= max_expansions:
            return None
        x, y, z = cell
        for dx, dy, dz, sc in steps:
            xx = x + dx
            yy = y + dy
            zz = z + dz
            if xx < 0 or xx >= nx or yy < 0 or yy >= ny or zz < 0 or zz >= nz:
                continue
            ncode = (xx * ny + yy) * nz + zz
            if ncode in closed or occ[ncode]:
                continue
            ng = g + sc
            if ng < g_best.get(ncode, np.inf):
                g_best[ncode] = ng
                parent[ncode] = code
                heapq.heappush(heap, (ng + h(xx, yy, zz), ng, ncode,
                                      (xx, yy, zz)))
    return None


def dijkstra_cost(cs, start_cell, goal_cell):
    """Shortest 26-connected path length in meters over free cells, by
    plain Dijkstra (no heuristic), or None when the goal is unreachable
    or either end is not free."""
    occ = cs.occ_inflated
    dims = occ.shape
    start = tuple(int(v) for v in start_cell)
    goal = tuple(int(v) for v in goal_cell)
    if occ[start] or occ[goal]:
        return None
    steps = _steps26(cs.world.cell_sizes)
    dist = {start: 0.0}
    done = set()
    heap = [(0.0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in done:
            continue
        if cell == goal:
            return d
        done.add(cell)
        for dx, dy, dz, sc in steps:
            nb = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
            if not all(0 <= c < n for c, n in zip(nb, dims)) or occ[nb]:
                continue
            if d + sc < dist.get(nb, np.inf):
                dist[nb] = d + sc
                heapq.heappush(heap, (d + sc, nb))
    return None


ACTIVE_TOL = 1e-6     # kkt_residual counts a constraint this close as active


def kkt_residual(p, x) -> float:
    """Scaled KKT residual of x: primal, stationarity and complementarity.

    Multipliers for the active set are recovered by nonnegative least
    squares against the objective gradient, so a true optimum scores at
    roundoff level while any constraint violation passes straight through.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != p.n:
        raise ValueError("x dimension mismatch")
    grad = p.hess_dot(x) + p.g
    scale = 1.0 + float(np.max(np.abs(grad), initial=0.0))
    primal = p.violation(x)

    cols = []
    slacks = []
    for b in p.balls:
        v = x[3 * b.point:3 * b.point + 3] - b.center
        nrm = float(np.linalg.norm(v))
        s = b.radius - nrm
        if s <= ACTIVE_TOL * (1 + b.radius) and nrm > 1e-12:
            col = np.zeros(p.n)
            col[3 * b.point:3 * b.point + 3] = v / nrm
            cols.append(col)
            slacks.append(abs(s))
    if p.n_rows:
        ax = np.einsum("ij,ij->i", p.A, x[p.A_cols])
        for i in range(p.n_rows):
            for sign, bound in ((1.0, p.hi[i]), (-1.0, p.lo[i])):
                slack = sign * (bound - ax[i])
                # an infinite bound is no constraint, never an active one
                if np.isfinite(bound) \
                        and slack <= ACTIVE_TOL * (1 + abs(bound)):
                    cols.append(sign * np.bincount(p.A_cols[i], weights=p.A[i],
                                                   minlength=p.n))
                    slacks.append(abs(slack))
    if cols:
        G = np.column_stack(cols)
        mu, _ = optimize.nnls(G, -grad)
        stationarity = float(np.max(np.abs(grad + G @ mu))) / scale
        comp = float(np.max(mu * np.asarray(slacks))) / scale
    else:
        stationarity = float(np.max(np.abs(grad), initial=0.0)) / scale
        comp = 0.0
    return max(primal, stationarity, comp)


def load_cells_ascii(path, dims, cell_sizes, origin=(0.0, 0.0, 0.0)):
    """World from a plain `x y z` occupied-cell list ('#' starts a
    comment line)."""
    dims = np.asarray(dims, dtype=np.int64)
    occ = np.zeros(tuple(dims), dtype=bool)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            x, y, z = (int(v) for v in line.split())
            occ[x, y, z] = True
    return VoxelWorld(dims, np.asarray(cell_sizes, dtype=float),
                      np.asarray(origin, dtype=float), occ)


def pattern_deviation_axis(steps, cell: float, k: int) -> float:
    """Excursion of one axis profile beyond its matched cell intervals:
    certify's per-pattern measure (certify._deviations) for one row of k
    per-knot increments in {-1, 0, +1}."""
    return float(certify._deviations(steps, cell, k)[0])


def pattern_deviation(steps3, cell_sizes, k: int) -> float:
    """Deviation of a 3-D span pattern: largest per-axis excursion."""
    steps3 = np.asarray(steps3)
    if steps3.shape != (k, 3) or np.any(np.abs(steps3) > 1):
        raise ValueError("pattern must be k steps with components in {-1,0,1}")
    return max(pattern_deviation_axis(steps3[:, ax], float(cell_sizes[ax]), k)
               for ax in range(3))
