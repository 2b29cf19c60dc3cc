"""Independent reference implementations used as test oracles."""

import heapq
from itertools import product

import numpy as np
from numpy.polynomial.legendre import leggauss

from kinospline.splines import blending_tables, eval_span_many
from kinospline.search import cell_code


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


def brute_force_distance_field(world):
    """Exact nearest-obstacle-center distances by full scan."""
    occ_pts = world.cell_center(world.occupied_cells())
    idx = np.indices(tuple(world.dims)).reshape(3, -1).T
    centers = world.cell_center(idx)
    out = np.empty(centers.shape[0])
    for i, c in enumerate(centers):
        out[i] = np.sqrt(((occ_pts - c) ** 2).sum(axis=1)).min()
    return out.reshape(tuple(world.dims))


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


_OFFSETS27 = np.array(list(product((-1, 0, 1), repeat=3)))


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
    top = np.where(dq != 0.0, np.arange(m1 - 1), -1).max(axis=1)
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
    bounds. Node costs are lam*dt plus the span's control cost, summed as
    the documented quadratic in the appended coordinate c, qconst +
    2 qlin c + qkk c c per axis, in the planner's floating-point order, so
    they match it to the bit. Returns (mask, costs, cells), shaped
    (n, 27), (n, 27) and (n, 27, 3).
    """
    world = cs.world
    dims = np.asarray(world.dims)
    n, k1, _ = positions.shape
    k = k1 - 1
    cells = np.asarray(last_cells, dtype=np.int64)[:, None, :] + _OFFSETS27
    inside = np.all((cells >= 0) & (cells < dims), axis=2)
    flat = (cells[..., 0] * dims[1] + cells[..., 1]) * dims[2] + cells[..., 2]
    free = inside & (cs.occ_flat[np.where(inside, flat, 0)] == 0)
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
        lo, hi = _extrema01((a[..., order:] * fac).reshape(-1, k1 - order))
        lo = lo.reshape(-1, 3) / dt ** order
        hi = hi.reshape(-1, 3) / dt ** order
        good &= np.all((lo >= lo_b) & (hi <= hi_b), axis=1)
    ok = np.zeros((n, 27), dtype=bool)
    ok.flat[free_at[good]] = True

    # the documented quadratic, each operation elementwise in the planner's
    # order (nested-loop sums for qconst and qlin, then the axes in turn)
    C = tab.cost_mat(l).tolist()
    p = positions[:, 1:, :]
    qconst = np.zeros((n, 3))
    qlin = np.zeros((n, 3))
    for i in range(k):
        row = np.zeros((n, 3))
        for j in range(k):
            row = row + C[i][j] * p[:, j]
        qconst = qconst + row * p[:, i]
        qlin = qlin + C[k][i] * p[:, i]
    terms = (qconst[:, None, :] + 2.0 * qlin[:, None, :] * cand
             + C[k][k] * cand * cand)
    quad = np.zeros((n, 27))
    for ax in range(3):
        quad = quad + terms[..., ax]
    costs = np.where(ok, lam * dt + quad * dt ** (1 - 2 * l), 0.0)
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
    successor from the oracle's own direct scan (_scan), whose cost sum
    follows the planner's documented floating-point order so costs match
    bit for bit. The graph is built breadth first, scanning up to 1024
    tuples per call to bound the scan's memory.
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


def projected_gradient(prob, iters=200000, dykstra=40, tol=1e-12):
    """Long-run projected gradient with Dykstra projections onto the balls."""
    L = float(np.linalg.eigvalsh(prob.H)[-1])
    x = np.zeros(prob.n)
    for _ in range(iters):
        y = x - (prob.H @ x + prob.g) / L
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
