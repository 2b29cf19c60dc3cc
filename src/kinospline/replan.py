"""Receding-horizon replanning over a sliding control point window.

The window holds every control point of the committed plan. Points
supporting the executing span are frozen; replanning snaps a seam tuple a
couple of spans ahead to grid cells, searches from there to a local goal
on the guiding line, refines the placement in the elastic tube, and
splices the refined tail back. Local control makes the splice invisible to
the executing span, and a braking extension stops the vehicle whenever no
feasible plan arrives in time.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import elastic, search, world
from .kernels import collision_scan
from .splines import SplineDef, check_feasible, eval_span_many, span_stack

# the collision check samples each span at these u values
CHECK_US = np.linspace(0.0, 1.0, 9)
CHECK_US.setflags(write=False)


@dataclass(frozen=True)
class ReplanSettings:
    k: int
    dt: float
    lam: float
    order: int
    bounds: object
    contract: elastic.InflationContract
    d: int = 1
    mode: str = "passive"
    planner: str = "tuple"           # "tuple" or "astar" (ablation)
    local_range: float = 5.0
    sense_radius: float = 4.0
    horizon_spans: int = 7           # replan when fewer spans remain
    search_expansions: int = 200_000
    search_wall_ms: float = 150.0
    solver_max_iter: int = 5000
    region_margin: float = 2.0       # crop box padding around seam and goal
    goal_tol: float = 0.4


class PlanWindow:
    """Committed control points, the executing span, and splice rules.

    Points with index <= exec_span + k support the executing (or already
    executed) trajectory and are immutable; a splice may replace points
    from seam + k + 1 onward only, where seam > exec_span.

    `cps` is never written in place, only replaced, so the collision
    check's samples are evaluated once per committed array and tied to it
    by identity.
    """

    def __init__(self, k: int, dt: float, points, bounds=None):
        points = np.asarray(points, dtype=float)
        if points.shape[0] < k + 1:
            raise ValueError("window needs at least k+1 points")
        self.k = k
        self.dt = dt
        self.bounds = bounds
        self.cps = points.copy()
        self.clock = 0.0
        self._samples = None
        self._samples_for = None

    @property
    def n_spans(self) -> int:
        return self.cps.shape[0] - self.k

    @property
    def exec_span(self) -> int:
        return min(int(self.clock / self.dt), self.n_spans - 1)

    @property
    def end_time(self) -> float:
        return self.n_spans * self.dt

    def state(self, l: int = 0) -> np.ndarray:
        j = self.exec_span
        u = min(max(self.clock / self.dt - j, 0.0), 1.0)
        return eval_span_many(self.cps[j:j + self.k + 1], (u,), l, self.dt)[0]

    def check_samples(self) -> np.ndarray:
        """Positions at CHECK_US on every span, span-major: (n_spans * 9, 3).

        Evaluated once for each committed `cps` array, at the first call
        after splice or extend_brake replaced it; trim slices them.
        """
        if self._samples_for is not self.cps:
            self._samples = eval_span_many(span_stack(self.cps, self.k),
                                           CHECK_US, 0, self.dt).reshape(-1, 3)
            self._samples_for = self.cps
        return self._samples

    def advance(self, dt_sim: float) -> int:
        """Move the clock forward; returns how many spans finished."""
        before = self.exec_span
        self.clock = min(self.clock + dt_sim, self.end_time)
        return self.exec_span - before

    def seam_index(self) -> int:
        """First span whose supporting points a replan may rebuild."""
        return self.exec_span + 2

    def splice(self, seam: int, tail_points) -> None:
        """Replace everything after the seam tuple with tail_points.

        tail_points must start with the k+1 seam points unchanged; only
        indices >= seam + k + 1 change, so the executing span and its
        successor stay bit-identical.
        """
        if seam <= self.exec_span:
            raise ValueError("seam would disturb the executing span")
        tail_points = np.asarray(tail_points, dtype=float)
        if tail_points.shape[0] < self.k + 1:
            raise ValueError("tail must contain the seam tuple")
        if not np.array_equal(tail_points[:self.k + 1],
                              self.cps[seam:seam + self.k + 1]):
            raise ValueError("tail does not preserve the seam tuple")
        self.cps = np.vstack([self.cps[:seam], tail_points])

    def brake_at(self, seam: int, cs_free=None) -> bool:
        """Cut the plan at the earliest feasible seam and stop there.

        Tries seams from the given index forward, splicing a tail of the
        seam tuple followed by k+1 copies of its last point whenever the
        resulting spans stay dynamically feasible. When a configuration
        space is given, stop points whose cell stays free in it are
        preferred, so the hover does not strand inside the inflated set.
        """
        k = self.k
        seams = [s for s in range(max(seam, self.exec_span + 1), self.n_spans)
                 if s + k + 1 <= self.cps.shape[0]]
        tails = [np.vstack([self.cps[s:s + k + 1],
                            np.tile(self.cps[s + k], (k + 1, 1))])
                 for s in seams]
        ok = [True] * len(seams)
        if self.bounds is not None and seams:
            spans = np.concatenate([span_stack(t, k) for t in tails])
            ok = check_feasible(spans, self.bounds, self.dt).reshape(
                len(seams), -1).all(axis=1)
        candidates = [(s, t) for s, t, good in zip(seams, tails, ok) if good]
        if not candidates:
            return False
        if cs_free is not None:
            for s, tail in candidates:
                cell = cs_free.world.point_to_cell(tail[-1])
                if cs_free.world.in_bounds(cell) and cs_free.is_free(cell):
                    self.splice(s, tail)
                    return True
        self.splice(*candidates[0])
        return True

    def extend_brake(self) -> bool:
        """Append k+1 copies of the last point; False when infeasible."""
        last = self.cps[-1]
        ext = np.vstack([self.cps, np.tile(last, (self.k + 1, 1))])
        if self.bounds is not None:
            j0 = max(ext.shape[0] - 2 * (self.k + 1), 0)
            if not check_feasible(span_stack(ext[j0:], self.k), self.bounds,
                                  self.dt).all():
                return False
        self.cps = ext
        return True

    def trim(self) -> int:
        """Drop committed points older than 2(k+1) before the executing span.

        Returns the number of dropped spans; the clock is rebased so the
        executing span keeps its time interval.
        """
        keep_from = self.exec_span - 2 * (self.k + 1)
        if keep_from <= 0:
            return 0
        cached = self._samples_for is self.cps
        self.cps = self.cps[keep_from:]
        if cached:
            self._samples = self._samples[keep_from * CHECK_US.size:]
            self._samples_for = self.cps
        self.clock -= keep_from * self.dt
        return keep_from


def match_boundary(window: PlanWindow, grid: world.VoxelWorld, cs_bk):
    """Snap the seam span to grid cells for the next search.

    Returns (seam index, snapped tuple) or (seam index, None) when no
    free feasible pattern exists (the stopping policy fires upstream).
    """
    seam = window.seam_index()
    if seam + window.k + 1 > window.cps.shape[0]:
        return seam, None
    refs = window.cps[seam:seam + window.k + 1]
    # the snapped tuple only seeds the search (the refinement pins the true
    # seam), so it needs no physical feasibility of its own
    tup = search.snap_tuple(refs, grid, window.dt, cs_bk, None)
    if tup is None:
        # seams faster than one cell per knot have no adjacent-cell
        # pattern ending at their last point: re-seed along the seam
        # velocity clamped to the grid's representable speed
        vel = (refs[-1] - refs[-2]) / window.dt
        cap = np.min(grid.cell_sizes
                     / np.maximum(np.abs(vel) * window.dt, 1e-12))
        line = search.state_reference_points(refs[-1], vel * min(1.0, cap),
                                             window.k, window.dt)
        line += refs[-1] - line[-1]
        tup = search.snap_tuple(line, grid, window.dt, cs_bk, None)
        if tup is None:
            tup = search.snap_tuple(line, grid, window.dt, None, None)
    if tup is None:
        # last resort after a hard stop inside the inflated set
        tup = search.snap_tuple(refs, grid, window.dt, None, None)
    return seam, tup


@dataclass
class SimAgent:
    """Perfectly tracking vehicle: its state is the spline evaluation."""

    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    sense_radius: float

    @staticmethod
    def from_window(window: PlanWindow, sense_radius: float) -> "SimAgent":
        return SimAgent(window.state(0), window.state(1), window.state(2),
                        sense_radius)

    def track(self, window: PlanWindow) -> None:
        self.position = window.state(0)
        self.velocity = window.state(1)
        self.acceleration = window.state(2)


class KnownMap:
    """Occupancy revealed so far, with copy-on-update config spaces.

    The true occupied cells not yet revealed are kept as flat indices with
    their centers, and the cells revealed since the last config-space
    update as a list of flat index arrays, so a reveal and an update cost
    time in the hidden and the fresh obstacle cells, not in the grid.
    """

    def __init__(self, true_world: world.VoxelWorld,
                 contract: elastic.InflationContract):
        self.true_world = true_world
        self.contract = contract
        self.known = np.zeros(tuple(true_world.dims), dtype=bool)
        self._hidden = np.flatnonzero(true_world.occ)
        self._hidden_centers = (
            np.column_stack(np.unravel_index(self._hidden, self.known.shape))
            + 0.5) * true_world.cell_sizes + true_world.origin
        self.version = 0
        self._fresh = []
        self._cs_bk = None
        self._cs_elas = None
        self._cs_body = None

    def reveal(self, position, radius: float) -> int:
        """Merge true occupancy within radius of position; returns new cells.

        Cells already known (say, given as prior knowledge) never count.
        """
        if radius <= 0:
            return 0
        d = (self._hidden_centers - np.asarray(position)) ** 2
        # summed left to right, as np.sum over three terms
        near = d[:, 0] + d[:, 1] + d[:, 2] <= radius * radius
        if not near.any():
            return 0
        idx = self._hidden[near]
        self._hidden = self._hidden[~near]
        self._hidden_centers = self._hidden_centers[~near]
        known = self.known.reshape(-1)
        idx = idx[~known[idx]]
        if idx.size:
            known[idx] = True
            self._fresh.append(idx)
            self.version += 1
        return int(idx.size)

    def reveal_all(self) -> None:
        self._hidden = self._hidden[:0]
        self._hidden_centers = self._hidden_centers[:0]
        fresh = np.flatnonzero(self.true_world.occ & ~self.known)
        if fresh.size:
            self.known.reshape(-1)[fresh] = True
            self._fresh.append(fresh)
            self.version += 1

    def _update(self) -> None:
        """Bring the config spaces up to date with the known occupancy."""
        body = self.contract.body_radius > 0
        if self._cs_bk is None:
            w = self.true_world.with_occ(self.known.copy())
            self._cs_bk = world.build_config_space(w, self.contract.delta_bk)
            self._cs_elas = world.build_config_space(w, self.contract.delta_elas)
            if body:
                self._cs_body = world.build_config_space(
                    w, self.contract.body_radius)
            self._fresh.clear()
        elif self._fresh:
            fresh = np.concatenate(self._fresh)
            w = self.true_world.with_occ(self.known.copy())
            self._cs_bk = world.updated_config_space(self._cs_bk, w, fresh)
            self._cs_elas = world.updated_config_space(self._cs_elas, w, fresh)
            if body:
                self._cs_body = world.updated_config_space(self._cs_body, w,
                                                           fresh)
            self._fresh.clear()

    def spaces(self):
        """Current (C_bk, C_elas) pair, updated incrementally on new cells."""
        self._update()
        return self._cs_bk, self._cs_elas

    def body_occupancy(self) -> np.ndarray:
        """Cells the body center must avoid: the known occupancy dilated
        by the contract's body radius (the known occupancy itself when the
        radius is 0)."""
        if self.contract.body_radius <= 0:
            return self.known
        self._update()
        return self._cs_body.occ_inflated


@dataclass
class StepOutcome:
    events: list = field(default_factory=list)
    replanned: bool = False
    stopped: bool = False


class Replanner:
    """The per-step state machine driving window, agent and map."""

    def __init__(self, true_world: world.VoxelWorld, start_position,
                 global_goal, settings: ReplanSettings, prior_known=None):
        self.world = true_world
        self.s = settings
        self.goal = np.asarray(global_goal, dtype=float)
        start_cell = true_world.point_to_cell(start_position)
        start_pts = np.tile(true_world.cell_center(start_cell),
                            (2 * (settings.k + 1), 1))
        self.window = PlanWindow(settings.k, settings.dt, start_pts,
                                 bounds=settings.bounds)
        self.time_offset = 0.0
        self.map = KnownMap(true_world, settings.contract)
        if prior_known is not None:
            self.map.known |= prior_known
        self.agent = SimAgent.from_window(self.window, settings.sense_radius)
        self.events = []
        self.replans = 0
        self.eo_calls = 0
        self.search_time = []
        self.tube_time = []
        self.opt_time = []
        self.goal_reached = False
        self.stopped = False
        self._failed_at_version = None
        self._archive = []
        self._kick = 0
        self._last_attempt_clock = -1e9

    @property
    def global_time(self) -> float:
        return self.window.clock + self.time_offset

    def _event(self, kind: str, **detail):
        rec = {"t": round(self.global_time, 6), "kind": kind}
        rec.update(detail)
        self.events.append(rec)
        return rec

    def _collision_ahead(self):
        """First not-yet-frozen span whose samples hit a known obstacle.

        Returns the span index or None. The check is against the body
        occupancy, the map a refined plan is certified against: a check
        against C_bk would flag freshly spliced plans on the very map they
        were planned on (refinement may use the margin of the search
        inflation) and make passive mode replan on every step near
        obstacles.
        """
        w = self.world
        first = self.window.exec_span + 1
        if first >= self.window.n_spans:
            return None
        pts = self.window.check_samples()[first * CHECK_US.size:]
        occ = np.ascontiguousarray(self.map.body_occupancy())
        hit = collision_scan(pts, occ.reshape(-1).view(np.uint8), w.dims,
                             w.origin, w.cell_sizes)
        if hit < 0:
            return None
        return first + hit // CHECK_US.size

    def _nearest_free(self, cs_bk, cell):
        for r in range(1, 6):
            lo = np.maximum(np.asarray(cell) - r, 0)
            hi = np.minimum(np.asarray(cell) + r, self.world.dims - 1)
            block = ~cs_bk.occ_inflated[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1,
                                        lo[2]:hi[2] + 1]
            if block.any():
                offs = np.argwhere(block)
                d = np.linalg.norm((offs + lo - cell) * self.world.cell_sizes,
                                   axis=1)
                return lo + offs[int(np.argmin(d))]
        return None

    @staticmethod
    def _poor_progress(res, start_tup) -> bool:
        """Partial results that barely leave the seam do not help."""
        if res.status == "success":
            return False
        if res.status != "partial":
            return True
        gain = np.max(np.abs(res.cells[-1] - start_tup.cells[-1]))
        return gain < 2

    def _local_goal_cell(self, cs_bk):
        """Free cell nearest the guiding-line point at the planning range.

        After fruitless attempts the target steps sideways off the guiding
        line (alternating sides, growing amplitude) so the next search can
        swing around whatever blocks the straight-ahead pocket.
        """
        pos = self.agent.position
        to_goal = self.goal - pos
        dist = float(np.linalg.norm(to_goal))
        if dist <= self.s.local_range:
            target = self.goal.copy()
        else:
            target = pos + to_goal * (self.s.local_range / dist)
        kick = self._kick
        if kick and dist > self.s.goal_tol:
            lateral = np.array([-to_goal[1], to_goal[0], 0.0])
            nrm = np.linalg.norm(lateral)
            if nrm > 1e-9:
                amp = ((kick + 1) // 2) * 1.0 * (1 if kick % 2 else -1)
                target = target + lateral / nrm * amp
        cell = self.world.point_to_cell(target)
        cell = np.clip(cell, 0, self.world.dims - 1)
        if cs_bk.is_free(cell):
            return cell
        best = None
        best_d = np.inf
        for r in range(1, 8):
            lo = np.maximum(cell - r, 0)
            hi = np.minimum(cell + r, self.world.dims - 1)
            block = ~cs_bk.occ_inflated[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1,
                                        lo[2]:hi[2] + 1]
            if block.any():
                for off in np.argwhere(block):
                    cand = lo + off
                    d = float(np.linalg.norm(self.world.cell_center(cand) - target))
                    if d < best_d:
                        best_d = d
                        best = cand
                break
        return best

    def _plan(self, cs_bk, cs_elas) -> bool:
        """One search + refine cycle; splices on success."""
        seam, tup = match_boundary(self.window, self.world, cs_bk)
        if tup is None:
            self._event("snap_fail", seam=seam)
            return False
        goal_cell = self._local_goal_cell(cs_bk)
        if goal_cell is None:
            self._event("no_local_goal")
            return False
        goal_tup = search.static_tuple(goal_cell, self.s.k, self.world)
        t0 = time.perf_counter()
        partial = False
        budget = None
        if self.s.planner == "astar":
            a_start = tup.cells[-1]
            if not cs_bk.is_free(a_start):
                a_start = self._nearest_free(cs_bk, a_start)
            path = None if a_start is None \
                else search.astar_cells(cs_bk, a_start, goal_cell)
            self.search_time.append(time.perf_counter() - t0)
            if path is None:
                self._event("search_fail", planner="astar",
                            reason="start-blocked" if a_start is None
                            else "no-path")
                return False
            free_cells = path[1:]
            free_pts = self.world.cell_center(free_cells) if len(free_cells) \
                else np.zeros((0, 3))
        else:
            lo = np.minimum(tup.cells.min(axis=0), goal_cell)
            hi = np.maximum(tup.cells.max(axis=0), goal_cell)
            pad = np.ceil(self.s.region_margin
                          / self.world.cell_sizes).astype(np.int64)
            region = (np.maximum(lo - pad, 0),
                      np.minimum(hi + pad, self.world.dims - 1))
            q = search.SearchQuery(start=tup, goal=goal_tup, dt=self.s.dt,
                                   lam=self.s.lam, order=self.s.order,
                                   bounds=self.s.bounds, d=self.s.d,
                                   max_expansions=self.s.search_expansions,
                                   max_wall_ms=self.s.search_wall_ms,
                                   region=(tuple(region[0]), tuple(region[1])),
                                   allow_occupied_start=True)
            try:
                res = search.search(q, cs_bk, best_effort=True)
                if res.status != "success" and self._poor_progress(res, tup):
                    # detours can leave the cropped box, and pockets behind
                    # obstacles need a much deeper flood under aggregation:
                    # retry on the whole grid with a larger budget
                    q_full = search.SearchQuery(
                        start=tup, goal=goal_tup, dt=self.s.dt,
                        lam=self.s.lam, order=self.s.order,
                        bounds=self.s.bounds, d=self.s.d,
                        max_expansions=6 * self.s.search_expansions,
                        max_wall_ms=16.0 * self.s.search_wall_ms,
                        allow_occupied_start=True)
                    res = search.search(q_full, cs_bk, best_effort=True)
            except ValueError:
                self.search_time.append(time.perf_counter() - t0)
                self._event("search_fail", planner="tuple", reason="endpoint",
                            budget=None)
                return False
            self.search_time.append(time.perf_counter() - t0)
            budget = res.budget
            if res.status not in ("success", "partial") \
                    or self._poor_progress(res, tup):
                self._event("search_fail", planner="tuple", reason=res.status,
                            budget=budget)
                return False
            if res.status == "partial":
                # progress toward the goal; pin the tail at rest on the
                # best-effort end cell so every spliced plan ends hovering
                goal_tup = search.static_tuple(res.cells[-1], self.s.k,
                                               self.world)
                partial = True
            # the final searched cell merges into the static goal pins;
            # every other appended cell keeps its own tube ball so the
            # pinned tail stays inside the tube
            free_pts = res.positions[self.s.k + 1:-1]
        start_pins = self.window.cps[seam:seam + self.s.k + 1]
        goal_pins = goal_tup.positions
        raw = self.map.true_world.with_occ(self.map.body_occupancy())
        self.eo_calls += 1
        ref = elastic.refine_adaptive(free_pts, start_pins, goal_pins,
                                      cs_elas, raw, self.s.contract,
                                      self.s.bounds, self.s.order, self.s.dt,
                                      solver_max_iter=self.s.solver_max_iter)
        self.tube_time.append(ref.expand_time)
        self.opt_time.append(ref.solve_time)
        if not ref.ok:
            self._event("refine_fail", status=ref.status,
                        solver_iterations=ref.solver_iterations,
                        knot_repeat=ref.knot_repeat)
            return False
        self.window.splice(seam, ref.points)
        self._event("replan", seam=seam, cost=ref.cost,
                    inserted=ref.inserted, planner=self.s.planner,
                    partial=partial, budget=budget)
        self.replans += 1
        return True

    def step(self, dt_sim: float = 0.1) -> StepOutcome:
        out = StepOutcome()
        advanced = self.window.advance(dt_sim)
        self.agent.track(self.window)
        self.map.reveal(self.agent.position, self.agent.sense_radius)
        cs_bk, cs_elas = self.map.spaces()

        if self.goal_reached:
            return out
        if np.linalg.norm(self.agent.position - self.goal) <= self.s.goal_tol \
                and np.linalg.norm(self.agent.velocity) < 0.2:
            self.goal_reached = True
            out.events.append(self._event("goal"))
            return out

        remaining = self.window.n_spans - self.window.exec_span
        need_horizon = remaining <= self.s.horizon_spans
        collide_span = self._collision_ahead()
        collide = collide_span is not None
        # active mode replans on every window advance so the braking tail
        # of the previous plan keeps getting pushed out ahead; passive only
        # reacts to collisions and the shrinking horizon
        active_kick = self.s.mode == "active" and advanced > 0
        want_replan = collide or need_horizon or active_kick
        if want_replan:
            ok = False
            # while hovering the seam is static, so a failed attempt is
            # deterministic until the map gains cells; in motion the seam
            # evolves and retries can succeed
            blocked = (self.stopped
                       and self._failed_at_version == self.map.version
                       and self._kick >= 8
                       and self.global_time - self._last_attempt_clock < 2.0)
            if not blocked:
                self._last_attempt_clock = self.global_time
                ok = self._plan(cs_bk, cs_elas)
                self._failed_at_version = None if ok else self.map.version
                self._kick = 0 if ok else min(self._kick + 1, 8)
                out.replanned = ok
            imminent = (collide
                        and collide_span - self.window.exec_span <= 10) \
                or remaining <= 2
            if not ok and imminent and not self.stopped:
                # stop as early as the dynamics allow: cut at the seam when
                # possible, else coast to the end of the current plan;
                # distant conflicts wait for the next cycle's attempt
                if self.window.brake_at(self.window.seam_index(), cs_bk) \
                        or self.window.extend_brake():
                    out.stopped = True
                    self.stopped = True
                    out.events.append(self._event("stop"))
                else:
                    out.events.append(self._event("brake_infeasible"))
        if out.replanned:
            self.stopped = False
        return out

    def run(self, max_time: float = 120.0, dt_sim: float = 0.1):
        """Step until the goal is reached or time runs out."""
        samples = []
        t = 0.0
        while t < max_time:
            self.step(dt_sim)
            pre = self.window.cps
            dropped = self.window.trim()
            if dropped:
                self._archive.append(pre[:dropped].copy())
            self.time_offset += dropped * self.s.dt
            samples.append(np.concatenate([[t], self.agent.position,
                                           self.agent.velocity,
                                           self.agent.acceleration]))
            if self.goal_reached:
                break
            t += dt_sim
        return np.asarray(samples)

    def executed_spline(self) -> SplineDef:
        """The whole-run control point sequence, trimmed history included."""
        parts = list(self._archive) + [self.window.cps]
        return SplineDef(k=self.s.k, dt=self.s.dt, points=np.vstack(parts))
