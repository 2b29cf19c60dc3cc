"""Best-first kinodynamic search over vertex tuples on a voxel grid.

A search state is a vertex tuple: the k+1 consecutive grid cells housing
one control point span. Expanding a tuple drops its first cell and appends
one of the 27 neighbors (self-step included) of its last cell, so a path
of tuples is exactly a B-spline control point placement. States are
aggregated by the packed key of their last d cells; each aggregated node
keeps the representative tuple that reached it at the lowest cost, which
keeps the search deterministic and the reconstructed placement admissible.
"""

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from . import patterns
from .splines import DerivativeBounds, span_cost
from .world import ConfigSpace

_OFFSETS27 = np.array([(dx, dy, dz)
                       for dx in (-1, 0, 1)
                       for dy in (-1, 0, 1)
                       for dz in (-1, 0, 1)], dtype=np.int64)
_OFFSETS = _OFFSETS27


@dataclass(frozen=True, eq=False)
class VertexTuple:
    """Ordered window of k+1 grid cells plus its stacked position matrix."""

    cells: np.ndarray
    positions: np.ndarray

    @staticmethod
    def from_cells(cells, world) -> "VertexTuple":
        cells = np.ascontiguousarray(np.asarray(cells, dtype=np.int64))
        if cells.ndim != 2 or cells.shape[1] != 3 or cells.shape[0] < 2:
            raise ValueError("a vertex tuple needs k+1 cell rows")
        steps = np.abs(np.diff(cells, axis=0))
        if steps.size and steps.max() > 1:
            raise ValueError("consecutive tuple cells must be 26-adjacent or equal")
        pos = np.ascontiguousarray(world.cell_center(cells))
        return VertexTuple(cells, pos)

    @property
    def k(self) -> int:
        return self.cells.shape[0] - 1

    @property
    def last_cell(self) -> np.ndarray:
        return self.cells[-1]

    def is_static(self) -> bool:
        return bool(np.all(self.cells == self.cells[0]))


def static_tuple(cell, k: int, world) -> VertexTuple:
    """The tuple of one cell repeated k+1 times (a state at rest)."""
    return VertexTuple.from_cells(np.tile(np.asarray(cell, dtype=np.int64), (k + 1, 1)),
                                  world)


def cell_code(cells, dims) -> np.ndarray:
    cells = np.asarray(cells, dtype=np.int64)
    return (cells[..., 0] * dims[1] + cells[..., 1]) * dims[2] + cells[..., 2]


def index_partial(cells, d: int, dims) -> int:
    """Packed key of the last d cells; injective over in-grid tuples."""
    cells = np.asarray(cells, dtype=np.int64)
    k1 = cells.shape[0]
    if not (1 <= d <= k1):
        raise ValueError(f"aggregation level {d} outside 1..{k1}")
    base = int(dims[0]) * int(dims[1]) * int(dims[2])
    codes = cell_code(cells[k1 - d:], dims)
    key = 0
    for c in codes:
        key = key * base + int(c)
    return key


def index_full(cells, dims) -> int:
    """Packed key over all k+1 cells (index_partial at d = k+1)."""
    cells = np.asarray(cells, dtype=np.int64)
    return index_partial(cells, cells.shape[0], dims)


def key_space_fits(dims, d: int) -> bool:
    """True when the packed key of d cells fits a signed 64-bit integer."""
    base = int(dims[0]) * int(dims[1]) * int(dims[2])
    return base ** d <= 2**63 - 1


def estimated_nodes(n_vertices: int, d: int) -> int:
    """Aggregated-graph size estimate |V| * 27^(d-1)."""
    return n_vertices * 27 ** (d - 1)


def tuple_cost(t: VertexTuple, lam: float, l: int, dt: float) -> float:
    """Node cost lam*dt plus the span control cost; strictly positive."""
    return lam * dt + float(span_cost(t.positions, l, dt))


def heuristic(t: VertexTuple, goal: VertexTuple, lam: float, dt: float) -> float:
    """Admissible remaining-cost bound: lam*dt per outstanding grid step.

    Every expansion moves the tuple's last cell by at most one cell per
    axis and costs at least lam*dt, so lam*dt times the Chebyshev cell
    distance between the last cells never exceeds the true remaining cost.
    """
    dist = int(np.max(np.abs(t.last_cell - goal.last_cell)))
    return lam * dt * dist


def feasible_succs(t: VertexTuple, cs: ConfigSpace, bounds: DerivativeBounds,
                   dt: float, lam: float = 0.0, l: int = 2):
    """Successor tuples in deterministic lexicographic offset order."""
    pats = _unit_patterns(t, "tuple")
    expand = _Expander(cs, bounds, dt, lam, l, t.k)
    full = tuple(int(c) for c in cell_code(t.cells, cs.world.dims))
    out = []
    for code, _, _ in expand(full, pats):
        nxt = np.vstack([t.cells[1:], _decode(code, cs.world.dims)])
        out.append(VertexTuple.from_cells(nxt, cs.world))
    return out


def _unit_patterns(t: VertexTuple, name: str) -> tuple:
    """The tuple's axis pattern codes; ValueError unless all steps are unit.

    Only the raw VertexTuple constructor can build such a tuple
    (from_cells refuses one), and the pattern tables cannot expand it.
    """
    pats = patterns.axis_patterns(t.cells)
    if min(pats) < 0:
        raise ValueError(f"{name} tuple has a cell step outside {{-1, 0, 1}}")
    return pats


def _tuple_feasible(pats, k: int, dt: float, world, bounds) -> bool:
    """Velocity and acceleration bounds of a cell-center tuple, read from
    the per-axis pattern tables that decide every search successor."""
    tables = patterns.feasible_tables(k, dt, world.cell_sizes, bounds)
    return all(tab[p] for tab, p in zip(tables, pats))


def _decode(code: int, dims) -> np.ndarray:
    cx, rem = divmod(int(code), int(dims[1]) * int(dims[2]))
    cy, cz = divmod(rem, int(dims[2]))
    return np.array([cx, cy, cz], dtype=np.int64)


class _Expander:
    """Feasible free successors of a tuple, as (code, node cost, patterns).

    A tuple is given by its flat cell codes and its axis pattern codes
    (every step lies in {-1, 0, 1}). The per-axis feasibility tables give
    the steps whose appended pattern is feasible (and which stay in
    the crop box); their product, filtered by occupancy, is the successor
    set, and each node cost is lam*dt plus the cost table entries of the
    child's three axis patterns (see patterns). The per-axis options are
    memoized by cell coordinate and window pattern. Order is lexicographic
    over the offsets in {-1, 0, 1}^3.
    """

    def __init__(self, cs, bounds, dt, lam, l, k, region=None):
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
        self.occ = cs.occ_flat.tobytes()
        if region is None:
            region = (np.zeros(3, dtype=np.int64), np.asarray(dims) - 1)
        self.lo = [int(v) for v in region[0]]
        self.hi = [int(v) for v in region[1]]
        self.step_cost = lam * dt
        self.memo = ({}, {}, {})

    def __call__(self, full, pats):
        last = full[-1]
        cx, rem = divmod(last, self.nyz)
        cy, cz = divmod(rem, self.nz)
        top = self.top
        xs = self.memo[0].get(cx * top + pats[0] // 3)
        if xs is None:
            xs = self._axis(0, cx, pats[0] // 3)
        ys = self.memo[1].get(cy * top + pats[1] // 3)
        if ys is None:
            ys = self._axis(1, cy, pats[1] // 3)
        zs = self.memo[2].get(cz * top + pats[2] // 3)
        if zs is None:
            zs = self._axis(2, cz, pats[2] // 3)
        occ = self.occ
        sc = self.step_cost
        out = []
        for ox, tx, px in xs:
            for oy, ty, py in ys:
                base = last + ox + oy
                txy = tx + ty
                for oz, tz, pz in zs:
                    if occ[base + oz] == 0:
                        out.append((base + oz, sc + (txy + tz),
                                    (px, py, pz)))
        return out

    def _axis(self, a, c0, wcode):
        """(offset, cost term, child pattern) of the feasible in-box steps
        along axis a from cell coordinate c0 with window pattern wcode."""
        opts = []
        for step in (-1, 0, 1):
            c = c0 + step
            child = wcode + (step + 1) * self.top
            if self.lo[a] <= c <= self.hi[a] and self.feas[a][child]:
                opts.append((step * self.strides[a], self.costs[a][child],
                             child))
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
    use_heuristic: bool = True
    region: tuple = None            # optional (lo_cell, hi_cell) crop box
    allow_occupied_start: bool = False  # treat the start as a seed: it may
                                        # sit inside the inflated set or
                                        # exceed the derivative bounds, but
                                        # needs unit steps; successors must
                                        # be free and feasible as always

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
    closed_codes: frozenset = None

    @property
    def ok(self) -> bool:
        return self.status == "success"

    def free_slice(self, k: int) -> np.ndarray:
        """Cells between the boundary tuples (may be empty)."""
        n = self.cells.shape[0]
        if n < 2 * (k + 1):
            return self.cells[:0]
        return self.cells[k + 1:n - (k + 1)]


def _validate_endpoint(t: VertexTuple, cs: ConfigSpace, bounds, dt, name,
                       seed: bool = False):
    """ValueError unless the tuple has unit steps and, unless it is a seed
    (allow_occupied_start), is free and within the derivative bounds."""
    pats = _unit_patterns(t, name)
    if seed:
        return
    if not np.all(cs.cells_free(t.cells)):
        raise ValueError(f"{name} tuple intersects inflated obstacles")
    if not _tuple_feasible(pats, t.k, dt, cs.world, bounds):
        raise ValueError(f"{name} tuple violates derivative bounds")


def search(q: SearchQuery, cs: ConfigSpace, collect_closed: bool = False,
           best_effort: bool = False, _exhaust: bool = False) -> SearchResult:
    """Best-first search over aggregated vertex tuples.

    Pops are ordered by (f, g, key); on equal cost the representative with
    the lexicographically smallest full tuple key wins, which makes the
    result independent of heap insertion order and keeps heuristic-on and
    heuristic-off runs cost-identical. A node closes on first pop (the
    heuristic is consistent). Returns status success, no-path, or
    budget-exceeded. Under best_effort, a search that does not reach the
    goal returns partial instead, with the path to the closed node whose
    last cell is nearest the goal in Chebyshev cells (ties to the lower
    cost), unless that node is the start.

    Internally tuples live as flat cell codes; an aggregated node is keyed
    by the tuple of its last d codes and stores [g, full codes, parent key,
    closed, axis patterns]. Successors come from the step-pattern tables
    (see patterns), so a start or goal whose steps leave {-1, 0, 1} is
    rejected with ValueError, seed start or not.
    """
    world = cs.world
    dims = world.dims
    k = q.start.k
    if not key_space_fits(dims, q.d):
        raise ValueError("grid too large for the packed key at this aggregation level")
    _validate_endpoint(q.start, cs, q.bounds, q.dt, "start",
                       seed=q.allow_occupied_start)
    _validate_endpoint(q.goal, cs, q.bounds, q.dt, "goal")
    lam, dt, l, d = q.lam, q.dt, q.order, q.d
    nyz = int(dims[1]) * int(dims[2])
    nz = int(dims[2])

    h_arr = None
    if q.use_heuristic:
        gx, gy, gz = (int(v) for v in q.goal.last_cell)
        ix, iy, iz = np.meshgrid(np.arange(dims[0]), np.arange(dims[1]),
                                 np.arange(dims[2]), indexing="ij")
        cheb = np.maximum(np.maximum(np.abs(ix - gx), np.abs(iy - gy)),
                          np.abs(iz - gz))
        h_arr = (lam * dt * cheb.astype(float)).reshape(-1).tolist()

    t0 = time.perf_counter()
    start_cost = tuple_cost(q.start, lam, l, dt)
    start_full = tuple(int(c) for c in cell_code(q.start.cells, dims))
    goal_full = tuple(int(c) for c in cell_code(q.goal.cells, dims))
    start_key = start_full[-1] if d == 1 else start_full[-d:]
    goal_key = goal_full[-1] if d == 1 else goal_full[-d:]
    if _exhaust:
        goal_key = object()  # matches nothing; drain the open set

    h0 = h_arr[start_full[-1]] if h_arr is not None else 0.0
    start_pats = patterns.axis_patterns(q.start.cells)
    # visited: key -> [g, full codes, parent key, closed, axis patterns]
    visited = {start_key: [start_cost, start_full, None, False, start_pats]}
    heap = [(start_cost + h0, start_cost, start_key)]
    expanded = 0
    open_peak = 1
    status = "no-path"
    budget_wall = q.max_wall_ms / 1000.0
    expand = _Expander(cs, q.bounds, dt, lam, l, k, q.region)
    vget = visited.get
    push = heapq.heappush

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
        if expanded >= q.max_expansions or time.perf_counter() - t0 > budget_wall:
            status = "budget-exceeded"
            break
        full = node[1]
        succ = expand(full, node[4])
        tail = full[1:]
        tail_d = full[len(full) - d + 1:] if d > 1 else None
        for code, cost, cpats in succ:
            child_key = code if d == 1 else tail_d + (code,)
            ng = g + cost
            entry = vget(child_key)
            if entry is None:
                visited[child_key] = [ng, tail + (code,), key, False, cpats]
                h = h_arr[code] if h_arr is not None else 0.0
                push(heap, (ng + h, ng, child_key))
            elif not entry[3]:
                if ng < entry[0]:
                    entry[0] = ng
                    entry[1] = tail + (code,)
                    entry[2] = key
                    entry[4] = cpats
                    h = h_arr[code] if h_arr is not None else 0.0
                    push(heap, (ng + h, ng, child_key))
                elif ng == entry[0]:
                    child_full = tail + (code,)
                    if child_full < entry[1]:
                        entry[1] = child_full
                        entry[2] = key
                        entry[4] = cpats
        if len(heap) > open_peak:
            open_peak = len(heap)

    wall = time.perf_counter() - t0
    closed = None
    if collect_closed:
        closed = frozenset(node[1][-1] for node in visited.values() if node[3])
    end_key = goal_key
    if status != "success":
        if best_effort:
            # fall back to the optimal path toward the closed node whose
            # last cell lies nearest the goal (receding-horizon progress)
            gl = q.goal.last_cell
            best = None
            for key, node in visited.items():
                if not node[3]:
                    continue
                cx, rem = divmod(node[1][-1], nyz)
                cy, cz = divmod(rem, nz)
                dist = max(abs(cx - gl[0]), abs(cy - gl[1]), abs(cz - gl[2]))
                cand = (dist, node[0], node[1])
                if best is None or cand < best[0]:
                    best = (cand, key)
            if best is not None and best[1] != start_key:
                end_key = best[1]
                status = "partial"
        if status in ("no-path", "budget-exceeded"):
            return SearchResult(status=status, expanded=expanded,
                                open_peak=open_peak, wall_time=wall,
                                closed_codes=closed)

    append_codes = []
    key = end_key
    while key != start_key:
        node = visited[key]
        append_codes.append(node[1][-1])
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
                        closed_codes=closed)


def explore_reachable(start: VertexTuple, cs: ConfigSpace,
                      bounds: DerivativeBounds, dt: float, lam: float,
                      order: int, d: int = 1,
                      max_expansions: int = 2_000_000) -> frozenset:
    """Cell codes of every aggregated node reachable from the start.

    Runs the zero-heuristic search to exhaustion against an unmatchable
    goal key, which is exactly the graph the search is complete over.
    """
    q = SearchQuery(start=start, goal=start, dt=dt, lam=lam, order=order,
                    bounds=bounds, d=d, use_heuristic=False,
                    max_expansions=max_expansions, max_wall_ms=1e9)
    res = search(q, cs, collect_closed=True, _exhaust=True)
    return res.closed_codes


def snap_tuple(ref_points, world, dt: float, cs: ConfigSpace = None,
               bounds: DerivativeBounds = None):
    """Cell pattern closest to k+1 reference points, last point pinned.

    The last cell is the one containing the last reference point; every
    earlier cell is drawn from the 27 cells around its own reference,
    consecutive cells must stay within one step per axis, and the chosen
    pattern minimizes the summed squared position error plus dt times the
    squared control-polygon velocity error (vectorized dynamic program
    over the per-stage candidates). When a configuration space and bounds
    are given the snapped tuple must be free and feasible, otherwise None.
    """
    refs = np.asarray(ref_points, dtype=float)
    k1 = refs.shape[0]
    last = world.point_to_cell(refs[-1])
    if not world.in_bounds(last):
        return None
    w_v = dt
    inv_dt2 = 1.0 / (dt * dt)
    dims = world.dims

    def stage_candidates(i):
        base = world.point_to_cell(refs[i])
        cand = base + _OFFSETS27
        keep = np.all(cand >= 0, axis=1) & np.all(cand < dims, axis=1)
        return cand[keep]

    # backward value iteration over per-stage candidate arrays
    cand_next = np.asarray([last], dtype=np.int64)
    vals = np.zeros(1)
    picks = []
    cands = []
    for i in range(k1 - 2, -1, -1):
        cand = stage_candidates(i)
        ctr = world.cell_center(cand)
        nctr = world.cell_center(cand_next)
        pos_err = np.sum((ctr - refs[i]) ** 2, axis=1)
        dref = refs[i + 1] - refs[i]
        dv = (nctr[None, :, :] - ctr[:, None, :]) - dref
        vel_err = np.sum(dv * dv, axis=2) * inv_dt2
        adj = np.max(np.abs(cand[:, None, :] - cand_next[None, :, :]), axis=2) <= 1
        total = np.where(adj, vals[None, :] + w_v * vel_err, np.inf) \
            + pos_err[:, None]
        pick = np.argmin(total, axis=1)
        vals = total[np.arange(cand.shape[0]), pick]
        ok = np.isfinite(vals)
        if not ok.any():
            return None
        cand, pick, vals = cand[ok], pick[ok], vals[ok]
        picks.append(pick)
        cands.append(cand_next)
        cand_next = cand
    i0 = int(np.argmin(vals))
    cells = [cand_next[i0]]
    idx = i0
    for pick, cand in zip(reversed(picks), reversed(cands)):
        idx = int(pick[idx])
        cells.append(cand[idx])
    tup = VertexTuple.from_cells(np.array(cells, dtype=np.int64), world)
    if cs is not None and not np.all(cs.cells_free(tup.cells)):
        return None
    if bounds is not None and not _tuple_feasible(
            patterns.axis_patterns(tup.cells), k1 - 1, dt, world, bounds):
        return None
    return tup


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


def astar_cells(cs: ConfigSpace, start_cell, goal_cell,
                max_expansions: int = 2_000_000):
    """Position-only shortest path on free cells, 26-connected.

    Euclidean step costs in meters; deterministic tie-breaking on the cell
    code. Returns the cell path as an (n, 3) array or None.
    """
    world = cs.world
    dims = world.dims
    nx, ny, nz = (int(v) for v in dims)
    start = tuple(int(v) for v in start_cell)
    goal = tuple(int(v) for v in goal_cell)
    if not cs.is_free(start) or not cs.is_free(goal):
        return None
    csz = world.cell_sizes
    free = (~cs.occ_inflated).reshape(-1).tolist()
    steps = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                cost = float(np.linalg.norm([dx * csz[0], dy * csz[1],
                                             dz * csz[2]]))
                steps.append((dx, dy, dz, cost))
    cx, cy, cz = (float(v) for v in csz)
    gx, gy, gz = goal

    def h(x, y, z):
        return ((cx * (x - gx)) ** 2 + (cy * (y - gy)) ** 2
                + (cz * (z - gz)) ** 2) ** 0.5

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
            if ncode in closed or not free[ncode]:
                continue
            ng = g + sc
            if ng < g_best.get(ncode, np.inf):
                g_best[ncode] = ng
                parent[ncode] = code
                heapq.heappush(heap, (ng + h(xx, yy, zz), ng, ncode,
                                      (xx, yy, zz)))
    return None
