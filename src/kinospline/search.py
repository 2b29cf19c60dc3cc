"""Best-first kinodynamic search over vertex tuples on a voxel grid.

A search state is a vertex tuple: the k+1 consecutive grid cells housing
one control point span. Expanding a tuple drops its first cell and appends
one of the 27 neighbors (self-step included) of its last cell, so a path
of tuples is exactly a B-spline control point placement. A tuple is
unit-step by construction: every cell step lies in {-1, 0, 1}, and the
tuple stores the pattern code of its steps along each axis, which alone
decides its feasibility and its cost (see patterns). States are aggregated
by a key, the Python tuple of the flat codes of their last d cells (the
last code itself at d = 1), so no grid size or aggregation level can
overflow it; each aggregated node keeps the representative tuple that
reached it at the lowest cost, which keeps the search deterministic and
the reconstructed placement admissible. A node stores the representative's
last code and parent key, and its full codes only once it closes.

There is one successor scan, in search()'s loop: the product of the
per-axis step options (_Expander._axis, memoized), with each child's key
looked up before anything else is read or built for it.
"""

import heapq
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import patterns
from .splines import DerivativeBounds, span_cost
from .world import ConfigSpace


@dataclass(frozen=True, eq=False)
class VertexTuple:
    """Ordered window of k+1 grid cells, its stacked position matrix, and
    the pattern code of its cell steps along each axis.

    The constructor rejects a cell step outside {-1, 0, 1}, so every tuple
    can be expanded from the pattern tables.
    """

    cells: np.ndarray
    positions: np.ndarray
    patterns: tuple = field(init=False)

    def __post_init__(self):
        cells = self.cells
        if cells.ndim != 2 or cells.shape[1] != 3 or cells.shape[0] < 2:
            raise ValueError("a vertex tuple needs k+1 cell rows")
        steps = np.diff(cells, axis=0)
        if np.abs(steps).max() > 1:
            raise ValueError("a tuple's cell steps must lie in {-1, 0, 1}")
        object.__setattr__(self, "patterns", patterns.axis_patterns(steps))

    @staticmethod
    def from_cells(cells, world) -> "VertexTuple":
        cells = np.ascontiguousarray(np.asarray(cells, dtype=np.int64))
        return VertexTuple(cells, np.ascontiguousarray(world.cell_center(cells)))

    @property
    def k(self) -> int:
        return self.cells.shape[0] - 1

    @property
    def last_cell(self) -> np.ndarray:
        return self.cells[-1]


def static_tuple(cell, k: int, world) -> VertexTuple:
    """The tuple of one cell repeated k+1 times (a state at rest)."""
    return VertexTuple.from_cells(np.tile(np.asarray(cell, dtype=np.int64), (k + 1, 1)),
                                  world)


def cell_code(cells, dims) -> np.ndarray:
    cells = np.asarray(cells, dtype=np.int64)
    return (cells[..., 0] * dims[1] + cells[..., 1]) * dims[2] + cells[..., 2]


def estimated_nodes(n_vertices: int, d: int) -> int:
    """Aggregated-graph size estimate |V| * 27^(d-1)."""
    return n_vertices * 27 ** (d - 1)


def tuple_cost(t: VertexTuple, lam: float, l: int, dt: float) -> float:
    """Node cost lam*dt plus the span control cost; strictly positive."""
    return lam * dt + float(span_cost(t.positions, l, dt))


def _tuple_feasible(t: VertexTuple, tables) -> bool:
    """Velocity and acceleration bounds of a cell-center tuple, read from
    the per-axis feasibility tables (patterns.feasible_tables) at the
    tuple's stored patterns."""
    return all(tab[p] for tab, p in zip(tables, t.patterns))


class _Expander:
    """The per-axis successor options of one search query.

    A tuple's successors append one step in {-1, 0, 1} per axis to its
    last cell. Along axis a the step's appended pattern must be feasible
    (the per-axis feasibility table) and the child's coordinate must stay
    in the crop box; _axis lists those steps as (flat code offset, cost
    table entry, child pattern, cells to the goal along a), memoized by
    cell coordinate and window pattern. search() scans their product in
    lexicographic offset order, reads occupancy from the space's bytes for
    codes it has not seen, and takes a node cost as lam*dt plus the three
    cost terms (see patterns). Nothing here scales with the grid.
    """

    def __init__(self, cs, bounds, dt, lam, l, k, region=None, goal=None):
        world = cs.world
        dims = world.dims
        self.feas = patterns.feasible_tables(k, dt, world.cell_sizes, bounds)
        self.costs = [patterns.cost_table(k, l, float(dt),
                                          float(world.cell_sizes[a]))
                      for a in range(3)]
        self.top = 3 ** (k - 1)
        self.nz = int(dims[2])
        self.nyz = int(dims[1]) * self.nz
        self.strides = (self.nyz, self.nz, 1)
        self.occ = cs.occ_bytes
        if region is None:
            region = (np.zeros(3, dtype=np.int64), np.asarray(dims) - 1)
        self.lo = [int(v) for v in region[0]]
        self.hi = [int(v) for v in region[1]]
        self.goal = None if goal is None else [int(v) for v in goal]
        self.step_cost = lam * dt
        self.memo = ({}, {}, {})

    def _axis(self, a, c0, wcode):
        """(offset, cost term, child pattern, goal distance) of the feasible
        in-box steps along axis a from cell coordinate c0 with window
        pattern wcode."""
        g = None if self.goal is None else self.goal[a]
        opts = []
        for step in (-1, 0, 1):
            c = c0 + step
            child = wcode + (step + 1) * self.top
            if self.lo[a] <= c <= self.hi[a] and self.feas[a][child]:
                opts.append((step * self.strides[a], self.costs[a][child],
                             child, 0 if g is None else abs(c - g)))
        self.memo[a][c0 * self.top + wcode] = opts
        return opts


@dataclass(frozen=True)
class SearchQuery:
    start: VertexTuple
    goal: VertexTuple
    dt: float
    lam: float
    order: int
    bounds: DerivativeBounds
    d: int = 1
    max_expansions: int = 500_000
    max_wall_ms: float = 500.0
    region: tuple = None            # optional (lo_cell, hi_cell) crop box
    allow_occupied_start: bool = False  # treat the start as a seed: it may
                                        # sit inside the inflated set or
                                        # exceed the derivative bounds;
                                        # successors must be free and
                                        # feasible as always

    def __post_init__(self):
        if self.start.k != self.goal.k:
            raise ValueError("start and goal tuples must share the degree")
        if not (1 <= self.d <= self.start.k + 1):
            raise ValueError(f"aggregation level {self.d} outside 1..{self.start.k + 1}")


@dataclass(frozen=True, eq=False)
class SearchResult:
    status: str
    cells: np.ndarray = None
    positions: np.ndarray = None
    cost: float = np.inf
    effort: float = np.inf
    expanded: int = 0
    open_peak: int = 0
    wall_time: float = 0.0
    budget: str = None              # "expansions" or "wall" when that
                                    # budget ended the loop, else None

    @property
    def ok(self) -> bool:
        return self.status == "success"


def _validate_endpoint(t: VertexTuple, cs: ConfigSpace, tables, name):
    """ValueError unless the tuple is free and within the derivative bounds
    (tables: the search's per-axis feasibility tables)."""
    if not np.all(cs.cells_free(t.cells)):
        raise ValueError(f"{name} tuple intersects inflated obstacles")
    if not _tuple_feasible(t, tables):
        raise ValueError(f"{name} tuple violates derivative bounds")


def search(q: SearchQuery, cs: ConfigSpace,
           best_effort: bool = False) -> SearchResult:
    """Best-first search over aggregated vertex tuples.

    Pops are ordered by (f, g, key); on equal cost the representative with
    the lexicographically smallest full tuple key wins, which makes the
    result independent of heap insertion order and its cost equal to that
    of the same search without the heuristic. A node closes on first pop (the
    heuristic is consistent). Returns status success, no-path, or
    budget-exceeded. Under best_effort, a search that does not reach the
    goal returns partial instead, with the path to the closed node whose
    last cell is nearest the goal in Chebyshev cells (ties to the lower
    cost), unless that node is the start. `budget` names the budget that
    ended the loop ("expansions" or "wall"), in a partial result too, and
    is None when the goal was reached or the open set ran dry.

    Internally tuples live as flat cell codes; an aggregated node is keyed
    by the Python tuple of its last d codes (the last code at d = 1) and
    stores [g, last code, parent key, closed, axis patterns, full codes].
    The full codes are built once, when the node closes, from its parent's
    as parent_full[1:] + (code,). The loop itself is the successor scan:
    it runs the product of the query's _Expander options per axis, looks
    each child's key up first and skips a closed one before any other
    work. Occupancy is read only for a code not seen yet, since a known
    node is free. The endpoints are checked against the expander's
    feasibility tables at their stored patterns; a seed start
    (allow_occupied_start) skips those checks.

    A query does no work in proportion to the grid. The heuristic is
    (lam*dt) times the Chebyshev cell distance between the last cells of
    a tuple and the goal: every expansion moves the last cell by at most
    one cell per axis and costs at least lam*dt, so it never exceeds the
    remaining cost. The distance splits by axis: each option carries its
    axis's goal distance, and the product is formed only for pushed
    nodes.
    """
    world = cs.world
    dims = world.dims
    lam, dt, l, d = q.lam, q.dt, q.order, q.d
    t0 = time.perf_counter()
    ex = _Expander(cs, q.bounds, dt, lam, l, q.start.k, q.region,
                   q.goal.last_cell)
    if not q.allow_occupied_start:
        _validate_endpoint(q.start, cs, ex.feas, "start")
    _validate_endpoint(q.goal, cs, ex.feas, "goal")
    nyz, nz, top = ex.nyz, ex.nz, ex.top
    axis = ex._axis
    memo_x, memo_y, memo_z = ex.memo
    occ = ex.occ
    sc = ex.step_cost

    start_cost = tuple_cost(q.start, lam, l, dt)
    start_full = tuple(int(c) for c in cell_code(q.start.cells, dims))
    goal_full = tuple(int(c) for c in cell_code(q.goal.cells, dims))
    start_key = start_full[-1] if d == 1 else start_full[-d:]
    goal_key = goal_full[-1] if d == 1 else goal_full[-d:]

    h0 = sc * int(np.max(np.abs(q.start.last_cell - q.goal.last_cell)))
    # visited: key -> [g, last code, parent key, closed, axis patterns,
    #                  full codes (None until the node closes)]
    visited = {start_key: [start_cost, start_full[-1], None, False,
                           q.start.patterns, start_full]}
    closed_keys = []
    heap = [(start_cost + h0, start_cost, start_key)]
    expanded = 0
    open_peak = 1
    status = "no-path"
    budget = None
    budget_wall = q.max_wall_ms / 1000.0
    max_expansions = q.max_expansions
    clock = time.perf_counter
    vget = visited.get
    pop = heapq.heappop
    push = heapq.heappush

    while heap:
        f, g, key = pop(heap)
        node = visited[key]
        if node[3] or g > node[0]:
            continue
        node[3] = True
        full = node[5]
        if full is None:
            full = node[5] = visited[node[2]][5][1:] + (node[1],)
        closed_keys.append(key)
        if key == goal_key:
            status = "success"
            break
        expanded += 1
        if expanded >= max_expansions:
            status, budget = "budget-exceeded", "expansions"
            break
        if clock() - t0 > budget_wall:
            status, budget = "budget-exceeded", "wall"
            break
        last = node[1]
        pats = node[4]
        cx, rem = divmod(last, nyz)
        cy, cz = divmod(rem, nz)
        w = pats[0] // 3
        xs = memo_x.get(cx * top + w)
        if xs is None:
            xs = axis(0, cx, w)
        w = pats[1] // 3
        ys = memo_y.get(cy * top + w)
        if ys is None:
            ys = axis(1, cy, w)
        w = pats[2] // 3
        zs = memo_z.get(cz * top + w)
        if zs is None:
            zs = axis(2, cz, w)
        tail_d = full[len(full) - d + 1:] if d > 1 else None
        for ox, tx, px, hx in xs:
            for oy, ty, py, hy in ys:
                base = last + ox + oy
                txy = tx + ty
                hxy = hx if hx > hy else hy
                for oz, tz, pz, hz in zs:
                    code = base + oz
                    child_key = code if d == 1 else tail_d + (code,)
                    entry = vget(child_key)
                    if entry is None:
                        if occ[code]:
                            continue
                        ng = g + (sc + (txy + tz))
                        visited[child_key] = [ng, code, key, False,
                                              (px, py, pz), None]
                        push(heap, (ng + sc * (hxy if hxy > hz else hz), ng,
                                    child_key))
                    elif not entry[3]:
                        ng = g + (sc + (txy + tz))
                        if ng < entry[0]:
                            entry[0] = ng
                            entry[2] = key
                            entry[4] = (px, py, pz)
                            push(heap, (ng + sc * (hxy if hxy > hz else hz),
                                        ng, child_key))
                        elif (ng == entry[0] and full[1:] + (code,)
                              < visited[entry[2]][5][1:] + (code,)):
                            entry[2] = key
                            entry[4] = (px, py, pz)
        if len(heap) > open_peak:
            open_peak = len(heap)

    wall = time.perf_counter() - t0
    end_key = goal_key
    if status != "success":
        if best_effort:
            # fall back to the optimal path toward the closed node whose
            # last cell lies nearest the goal (receding-horizon progress)
            gx, gy, gz = ex.goal
            best = None
            for key in closed_keys:
                node = visited[key]
                cx, rem = divmod(node[1], nyz)
                cy, cz = divmod(rem, nz)
                dist = max(abs(cx - gx), abs(cy - gy), abs(cz - gz))
                cand = (dist, node[0], node[5])
                if best is None or cand < best[0]:
                    best = (cand, key)
            if best is not None and best[1] != start_key:
                end_key = best[1]
                status = "partial"
        if status in ("no-path", "budget-exceeded"):
            return SearchResult(status=status, expanded=expanded,
                                open_peak=open_peak, wall_time=wall,
                                budget=budget)

    append_codes = []
    key = end_key
    while key != start_key:
        node = visited[key]
        append_codes.append(node[1])
        key = node[2]
    append_codes.reverse()
    all_codes = np.array(list(start_full) + append_codes, dtype=np.int64)
    cells = np.empty((all_codes.size, 3), dtype=np.int64)
    cells[:, 0], rem = np.divmod(all_codes, nyz)
    cells[:, 1], cells[:, 2] = np.divmod(rem, nz)
    positions = world.cell_center(cells)
    total = visited[end_key][0]
    effort = total - lam * dt * (len(append_codes) + 1)
    return SearchResult(status=status, cells=cells, positions=positions,
                        cost=float(total), effort=float(effort),
                        expanded=expanded, open_peak=open_peak, wall_time=wall,
                        budget=budget)


def snap_tuple(ref_points, world, dt: float, cs: ConfigSpace = None,
               bounds: DerivativeBounds = None):
    """Cell pattern closest to k+1 reference points, last point pinned.

    The last cell is the one containing the last reference point; every
    earlier cell is drawn from the 27 cells around its own reference,
    consecutive cells must stay within one step per axis, and the chosen
    pattern minimizes the summed squared position error plus dt times the
    squared control-polygon velocity error. The objective, the candidate
    sets and the adjacency rule all split by axis, so the pattern is three
    independent 1-D dynamic programs over at most 3 candidates per stage
    (see _snap_axis). Ties go, per axis, to the first of the offsets
    (-1, 0, 1): at the first cell among equal totals, and at each later
    cell among equal continuations of the cell before it. None when the
    last point lies outside the grid or an axis has no chain of adjacent
    candidates. When a configuration space and bounds are given the
    snapped tuple must be free and feasible, otherwise None.
    """
    cols = []
    for refs, origin, cell, n in zip(
            np.asarray(ref_points, dtype=float).T.tolist(),
            world.origin.tolist(), world.cell_sizes.tolist(),
            world.dims.tolist()):
        col = _snap_axis(refs, origin, cell, n, dt)
        if col is None:
            return None
        cols.append(col)
    cells = np.array(list(zip(*cols)), dtype=np.int64)
    tup = VertexTuple(cells, world.cell_center(cells))
    if cs is not None and not np.all(cs.cells_free(tup.cells)):
        return None
    if bounds is not None and not _tuple_feasible(
            tup, patterns.feasible_tables(tup.k, dt, world.cell_sizes, bounds)):
        return None
    return tup


def _snap_axis(refs, origin: float, cell: float, n: int, dt: float):
    """One axis of snap_tuple: the cell coordinates c_0..c_k, c_k the cell
    holding r_k, minimizing sum_{i<k} (x(c_i) - r_i)^2 + dt * sum_i
    ((x(c_{i+1}) - x(c_i)) - (r_{i+1} - r_i))^2 / dt^2 over
    |c_{i+1} - c_i| <= 1, where x(c) is the cell center and each c_i lies in
    the grid (n cells) within one cell of the cell holding r_i. Backward
    dynamic program; None when c_k is off the grid or no chain of adjacent
    candidates exists."""
    last = math.floor((refs[-1] - origin) / cell)
    if not 0 <= last < n:
        return None
    inv_dt2 = 1.0 / (dt * dt)
    nxt = [last]
    vals = [0.0]
    picks = []  # per stage, from the last free cell back: (cands, pick)
    for i in range(len(refs) - 2, -1, -1):
        r = refs[i]
        dref = refs[i + 1] - r
        base = math.floor((r - origin) / cell)
        cands, pick, new_vals = [], [], []
        for c in range(max(base - 1, 0), min(base + 2, n)):
            x = origin + (c + 0.5) * cell
            pos_err = (x - r) ** 2
            best = math.inf
            arg = -1
            for j, cn in enumerate(nxt):
                if abs(cn - c) <= 1:
                    dv = ((origin + (cn + 0.5) * cell) - x) - dref
                    tot = (vals[j] + dt * (dv * dv * inv_dt2)) + pos_err
                    if tot < best:
                        best, arg = tot, j
            if arg >= 0:
                cands.append(c)
                pick.append(arg)
                new_vals.append(best)
        if not cands:
            return None
        picks.append((nxt, pick))
        nxt, vals = cands, new_vals
    idx = vals.index(min(vals))
    col = [nxt[idx]]
    for cands, pick in reversed(picks):
        idx = pick[idx]
        col.append(cands[idx])
    return col


def state_reference_points(position, velocity, k: int, dt: float) -> np.ndarray:
    """Control point references for a state: a line ending at the position.

    Collinear points spaced velocity*dt apart reproduce the position and
    velocity exactly at the end of the tuple span (linear precision).
    """
    position = np.asarray(position, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    # a line through polygon index (k-1)/2 evaluates to exactly this state
    # at the start of the tuple's span
    offs = np.arange(k + 1, dtype=float) - (k - 1) / 2.0
    return position + offs[:, None] * dt * velocity


_CLOSED = -1.0  # astar_cells' g of a closed cell


def astar_cells(cs: ConfigSpace, start_cell, goal_cell,
                max_expansions: int = 2_000_000):
    """Position-only shortest path on free cells, 26-connected.

    Euclidean step costs in meters. The heuristic is the exact length of
    the shortest obstacle-free path of these steps (_lattice_distance): a
    shortest-path cost in a supergraph, so admissible and consistent. The
    heap orders nodes by (f, g, cell code): a code is pushed again only
    at a strictly smaller g, so no two entries tie, and ties in f and g
    go to the smaller code. Returns the cell path as an (n, 3) array, or
    None when the goal is unreachable or max_expansions nodes were
    expanded first.
    """
    world = cs.world
    nx, ny, nz = (int(v) for v in world.dims)
    start = tuple(int(v) for v in start_cell)
    goal = tuple(int(v) for v in goal_cell)
    if not cs.is_free(start) or not cs.is_free(goal):
        return None
    occ = cs.occ_bytes
    steps = _astar_steps(ny, nz, *(float(v) for v in world.cell_sizes))
    h = _lattice_distance(goal, steps)
    nyz = ny * nz
    xmax, ymax, zmax = nx - 1, ny - 1, nz - 1
    start_code = (start[0] * ny + start[1]) * nz + start[2]
    goal_code = (goal[0] * ny + goal[1]) * nz + goal[2]
    # g per code; a closed code holds _CLOSED, below every path cost, so
    # no relaxation reopens it and its stale heap entries never match
    g_best = {start_code: 0.0}
    parent = {start_code: None}
    heap = [(h(*start), 0.0, start_code)]
    pop, push, get = heapq.heappop, heapq.heappush, g_best.get
    inf = math.inf
    n = 0
    while heap:
        _, g, code = pop(heap)
        if g_best[code] != g:
            continue
        g_best[code] = _CLOSED
        if code == goal_code:
            path = []
            while code is not None:
                path.append(code)
                code = parent[code]
            return np.column_stack(np.unravel_index(path[::-1],
                                                    (nx, ny, nz)))
        n += 1
        if n >= max_expansions:
            return None
        x, r = divmod(code, nyz)
        y, z = divmod(r, nz)
        if 0 < x < xmax and 0 < y < ymax and 0 < z < zmax:
            for off, dx, dy, dz, sc in steps:
                nc = code + off
                if occ[nc]:
                    continue
                ng = g + sc
                if ng < get(nc, inf):
                    g_best[nc] = ng
                    parent[nc] = code
                    push(heap, (ng + h(x + dx, y + dy, z + dz), ng, nc))
            continue
        for off, dx, dy, dz, sc in steps:
            xx = x + dx
            yy = y + dy
            zz = z + dz
            if xx < 0 or xx >= nx or yy < 0 or yy >= ny or zz < 0 or zz >= nz:
                continue
            nc = code + off
            if occ[nc]:
                continue
            ng = g + sc
            if ng < get(nc, inf):
                g_best[nc] = ng
                parent[nc] = code
                push(heap, (ng + h(xx, yy, zz), ng, nc))
    return None


def _lattice_distance(goal, steps):
    """h(x, y, z): the length of the shortest obstacle-free path of steps
    (astar_cells' step table) from the cell to goal.

    With the cell offsets sorted n_max >= n_mid >= n_min, the path takes
    n_min three-axis steps, n_mid - n_min two-axis steps over the two
    busiest axes and n_max - n_mid steps along the busiest axis. A step's
    length sqrt(sum of c_i^2 over its axes) is submodular in that axis
    set, so uncrossing turns any step multiset into this nested one at no
    greater cost. Terms are summed in that order; on a tie the term whose
    length is in doubt is 0.
    """
    length = {(dx * dx, dy * dy, dz * dz): sc for _, dx, dy, dz, sc in steps}
    lx, ly, lz = length[1, 0, 0], length[0, 1, 0], length[0, 0, 1]
    lxy, lxz, lyz = length[1, 1, 0], length[1, 0, 1], length[0, 1, 1]
    l3 = length[1, 1, 1]
    gx, gy, gz = goal

    def h(x, y, z):
        a = abs(x - gx)
        b = abs(y - gy)
        c = abs(z - gz)
        if a >= b:
            if b >= c:
                return c * l3 + (b - c) * lxy + (a - b) * lx
            if a >= c:
                return b * l3 + (c - b) * lxz + (a - c) * lx
            return b * l3 + (a - b) * lxz + (c - a) * lz
        if a >= c:
            return c * l3 + (a - c) * lxy + (b - a) * ly
        if b >= c:
            return a * l3 + (c - a) * lyz + (b - c) * ly
        return a * l3 + (b - a) * lyz + (c - b) * lz

    return h


@lru_cache(maxsize=64)
def _astar_steps(ny: int, nz: int, cx: float, cy: float, cz: float):
    """The 26 grid steps as (flat code offset, dx, dy, dz, length in m)."""
    steps = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                cost = float(np.linalg.norm([dx * cx, dy * cy, dz * cz]))
                steps.append(((dx * ny + dy) * nz + dz, dx, dy, dz, cost))
    return tuple(steps)
