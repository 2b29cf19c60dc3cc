"""The three planner workloads: inputs, one timed operation, its checks.

Each workload builds its fixture through the planner (the timed set-up),
derives a fixed, seeded list of distinct operations and their check data
with benchmark code only, then runs that list over and over, in passes,
in a closed loop under a `Meter`. Every distinct operation leaves one
record: its latency samples, its counts (status, expansions, cost,
events) and, when it failed, exactly one reason. The first execution of
an operation is checked against the oracles; every repeat must return the
same counts. A reason starting with "check:" means the planner returned
an output it called valid and an independent check rejected it.
"""

import signal
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

import oracle

K = 5                       # spline degree used by every workload
VMAX, AMAX = 2.0, 4.7       # symmetric per-axis bounds, m/s and m/s^2
UNBOUNDED_MS = 1e12         # wall-clock budgets set out of reach
MAX_EXPANSIONS = 10**7      # search budget; the graph drains at 2571


class Cutoff(BaseException):
    """The measurement window closed while an operation was running."""


@dataclass
class Meter:
    """Closed-loop window over the summed wall time of operations.

    Operations are keyed; a key seen before is a repeat of the same
    operation, and adds a latency sample to that operation's record. An
    operation that is still running when the window closes is cut off and
    not counted; the first operation may run on to `hard_s` so every run
    finishes at least one.
    """

    seconds: float
    hard_s: float
    used: float = 0.0
    cut: int = 0
    executions: int = 0
    records: list = field(default_factory=list)
    index: dict = field(default_factory=dict)
    on_pass: object = None      # called, untimed, after each whole pass

    def pass_done(self) -> None:
        if self.on_pass is not None and self.is_open():
            self.on_pass(self)

    def is_open(self) -> bool:
        return self.used < self.seconds

    def op_id(self, key):
        """(operation id, repeat number) the next execution of key gets."""
        rec = self.index.get(key)
        if rec is None:
            return len(self.records), 0
        return rec["op"], len(rec["samples_ms"])

    def seen(self, key) -> bool:
        return key in self.index

    def measure(self, fn, *args):
        """Run fn(*args); returns (value, exception or None, ms)."""
        if not self.is_open():
            raise Cutoff
        budget = self.hard_s if not self.records else self.seconds - self.used
        _arm(max(budget, 1e-3))
        t0 = time.perf_counter()
        try:
            value, exc = fn(*args), None
        except Cutoff:
            if self.records:
                self.used += time.perf_counter() - t0
                self.cut += 1
                raise
            value = None
            exc = TimeoutError("first operation hit the hard limit")
        except Exception as err:  # noqa: BLE001 - every failure is recorded
            # drop the traceback: its frames would keep the failed
            # operation's arrays alive until a garbage collection
            value, exc = None, err.with_traceback(None)
        finally:
            _arm(0.0)
        elapsed = time.perf_counter() - t0
        self.used += elapsed
        return value, exc, elapsed * 1e3

    def record(self, key, ms, reason, **counts):
        """Add one execution of `key`.

        The first execution sets the record's reason (checks included).
        A repeat passes only the reason it can tell without the oracles
        (an exception, an admitted status); it must match the first one,
        and so must every count, or the operation fails "check:repeat".
        """
        self.executions += 1
        rec = self.index.get(key)
        if rec is None:
            rec = {"op": len(self.records), "ok": reason is None,
                   "reason": reason, "samples_ms": [ms]}
            rec.update(counts)
            rec["_counts"] = counts
            rec["_cheap"] = reason if _cheap(reason) else None
            self.index[key] = rec
            self.records.append(rec)
            return rec
        rec["samples_ms"].append(ms)
        cheap = reason if _cheap(reason) else None
        if rec["ok"] and (counts != rec["_counts"] or cheap != rec["_cheap"]):
            rec.update(ok=False, reason="check:repeat")
        return rec

    def finish(self):
        """Each record's latency: the fastest of its runs.

        The work of one operation is deterministic, and on a shared host
        other tenants only ever slow a run down (by up to 1.7 times, in
        phases of a few seconds), so the fastest run is the steadiest
        estimate of its cost. `median_ms` keeps the typical run.
        """
        for rec in self.records:
            del rec["_counts"], rec["_cheap"]
            rec["ms"] = min(rec["samples_ms"])
            rec["median_ms"] = float(np.median(rec["samples_ms"]))
            rec["runs"] = len(rec["samples_ms"])
        return self.records


def _cheap(reason) -> bool:
    return reason is not None and not reason.startswith("check:")


def _arm(seconds: float) -> None:
    signal.setitimer(signal.ITIMER_REAL, seconds)


def install_cutoff() -> None:
    """Make the window timer interrupt a running operation with Cutoff."""

    def _raise(signum, frame):
        raise Cutoff

    signal.signal(signal.SIGALRM, _raise)


def _raise_reason(exc) -> str:
    return f"raise:{type(exc).__name__}"


# ---------------------------------------------------------------------------
# sweep: searches on the criterion-4 field


class Sweep:
    """Searched plans without refinement on the 51x51x5 goal-sweep field.

    Goals come from the criterion-4 goal grid (0.7 m spacing at z = 1 m).
    A pass plans to the `n_goals` reachable goals of least oracle cost,
    in an order drawn from the seed. The goals are the same for every
    seed: at commit 1575029 seeded goal sets moved the latency medians by
    about 30% between seeds.

    Costlier goals are not timed. At commit 1575029 one search to them
    takes 0.2 to 8 s, and on a shared host other tenants slow the process
    in phases of a fraction of a second to minutes; only short operations
    repeated many times give each of them a run in a fast phase, which
    the fastest-run latency needs. Before the window, one unreachable goal
    drawn from the seed is planned to once, untimed, and its answer
    checked: it must be no-path, after draining the same 2571 nodes every
    unreachable goal drains.
    """

    name = "sweep"
    cells = (0.2, 0.2, 0.4)
    dt, lam, order = 0.17, 20.0, 2
    start_pos = np.array([1.2, 5.1, 1.0])
    start_vel = np.array([1.2, 0.0, 0.0])
    n_goals = 15

    def setup(self, ks):
        w = ks.world.generate(ks.world.MapGenSpec(
            kind="empty", extent=(10.2, 10.2, 2.0), cell_sizes=self.cells))
        w = ks.world.add_box(w, (4.4, 3.6, 0.0), (5.6, 6.6, 2.0))
        w = ks.world.add_box(w, (3.0, 8.0, 0.0), (3.5, 8.5, 2.0))
        w = ks.world.add_box(w, (7.0, 2.0, 0.0), (7.5, 2.5, 2.0))
        cert = ks.certify.certify(K, self.cells)
        contract = ks.elastic.InflationContract.default(self.cells,
                                                        cert.delta_bk)
        cs_bk = ks.world.build_config_space(w, contract.delta_bk)
        cs_el = ks.world.build_config_space(w, contract.delta_elas)
        bounds = ks.splines.DerivativeBounds.symmetric(VMAX, AMAX)
        return dict(w=w, contract=contract, cs_bk=cs_bk, cs_el=cs_el,
                    bounds=bounds)

    def prepare(self, ks, fx, rng, seed):
        """Goal rounds, sorted by the independent reachability oracle.

        The start tuple is the planner's own snap of the start state; it is
        accepted only after the oracle's tables confirm it is free,
        26-connected and dynamically feasible.
        """
        w = fx["w"]
        free = ~oracle.inflate(w.occ, self.cells, fx["contract"].delta_bk)
        start = ks.search.snap_tuple(
            ks.search.state_reference_points(self.start_pos, self.start_vel,
                                             K, self.dt),
            w, self.dt, fx["cs_bk"], fx["bounds"])
        start_cells = np.asarray(start.cells)
        tabs = oracle.StepTables(K, self.dt, self.cells, VMAX, AMAX,
                                 self.order)
        steps = np.diff(start_cells, axis=0)
        if not (free[tuple(start_cells.T)].all()
                and np.abs(steps).max() <= 1
                and all(tabs.feasible[a][tabs.pattern(steps[:, a])]
                        for a in range(3))):
            raise RuntimeError("snapped start tuple fails the oracle")
        closed = oracle.reachable_goals(start_cells, free, self.cells, K,
                                        self.dt, self.lam, self.order,
                                        VMAX, AMAX)
        reachable, unreachable = [], []
        dims = w.dims
        for gx in np.arange(0.7, 10.0, 0.7):
            for gy in np.arange(0.7, 10.0, 0.7):
                cell = np.floor((np.array([gx, gy, 1.0]) - w.origin)
                                / w.cell_sizes).astype(np.int64)
                key = tuple(int(c) for c in cell)
                if not free[key]:
                    continue
                code = (key[0] * dims[1] + key[1]) * dims[2] + key[2]
                if code not in closed:
                    unreachable.append(key)
                else:
                    reachable.append((closed[code], key))
        self.goals = [g for _, g in sorted(reachable)[:self.n_goals]]
        rng.shuffle(self.goals)
        self.start_cells = start_cells
        self.probe = oracle.SplineProbe(K)
        self.fx = fx
        goal = sorted(unreachable)[int(rng.integers(len(unreachable)))]
        self.proof = {"goal": list(goal)}
        try:
            rec = self.search(ks, goal)[0]
        except Exception as exc:  # noqa: BLE001 - recorded as the fault
            self.proof["fault"] = _raise_reason(exc)
        else:
            self.proof.update(status=rec["status"], expanded=rec["expanded"],
                              fault=self.fault(goal, False, rec, None, None,
                                               None))
        return {"goals": [list(g) for g in self.goals], "proof": self.proof}

    def untimed_faults(self):
        return [self.proof["fault"]] if self.proof["fault"] else []

    def run(self, ks, meter, tracer):
        try:
            while True:
                for goal in self.goals:
                    self.attempt(ks, meter, tracer, goal)
                meter.pass_done()
        except Cutoff:
            return

    def search(self, ks, goal):
        fx = self.fx
        w = fx["w"]
        rec, spline = ks.cli.plan_once(
            w, fx["cs_bk"], fx["cs_el"], fx["contract"], fx["bounds"],
            self.start_pos, self.start_vel, w.cell_center(np.array(goal)),
            self.dt, self.lam, self.order, 1, use_eo=False,
            budget_ms=UNBOUNDED_MS, max_expansions=MAX_EXPANSIONS)
        rows = summary = None
        if spline is not None:
            rows = ks.stats.sample_trajectory(spline, 0.02)
            summary = ks.stats.stats_from_samples(
                rows, derivative_cost=rec.get("derivative_cost"))
        return rec, spline, rows, summary

    def attempt(self, ks, meter, tracer, goal):
        tracer.op = meter.op_id(goal)
        out, exc, ms = meter.measure(self.search, ks, goal)
        if exc is not None:
            meter.record(goal, ms, _raise_reason(exc), goal=list(goal))
            return
        rec, spline, rows, summary = out
        counts = {"goal": list(goal), "status": rec["status"],
                  "expanded": rec.get("expanded"),
                  "cost": rec.get("derivative_cost")}
        counts["wall_ended"] = (rec["status"] == "budget-exceeded"
                                and rec["expanded"] < MAX_EXPANSIONS)
        if meter.seen(goal):
            reason = self.status_fault(rec)
        else:
            reason = self.fault(goal, True, rec, spline, rows, summary)
        meter.record(goal, ms, reason, **counts)

    @staticmethod
    def status_fault(rec):
        if rec["status"] == "budget-exceeded":
            return "status:budget-exceeded"
        return None

    def fault(self, goal, reachable, rec, spline, rows, summary):
        status = rec["status"]
        if self.status_fault(rec):
            return self.status_fault(rec)
        if (status == "success") != reachable:
            return "check:status"
        if status != "success":
            return None
        w = self.fx["w"]
        pts = np.asarray(spline.points)
        if not np.array_equal(pts[:K + 1], w.origin + (self.start_cells + 0.5)
                              * w.cell_sizes):
            return "check:start-pins"
        if not np.array_equal(pts[-1], w.origin + (np.array(goal) + 0.5)
                              * w.cell_sizes):
            return "check:goal-pin"
        bad = oracle.trajectory_fault(self.probe, pts, self.dt, w.occ,
                                      w.origin, w.cell_sizes, VMAX, AMAX)
        if bad:
            return bad
        cost = self.probe.cost(pts, self.dt, self.order)
        if abs(cost - rec["derivative_cost"]) > 1e-8 * (1.0 + cost):
            return "check:cost"
        if abs(summary["duration"] - (pts.shape[0] - K) * self.dt) > 1e-9:
            return "check:samples"
        for order, cols in enumerate((slice(1, 4), slice(4, 7), slice(7, 10))):
            ref = self.probe.at(pts, self.dt, rows[:, 0], order)
            if np.max(np.abs(rows[:, cols] - ref)) > 1e-8:
                return "check:samples"
        return None

    def summary(self, records):
        ok = [r for r in records if r["ok"]]
        costs = [r["cost"] for r in ok if r.get("cost") is not None]
        return {"plan_ms": [r["ms"] for r in ok],
                "plan_cost.mean": float(np.mean(costs)) if costs else None}


# ---------------------------------------------------------------------------
# refine: tube-and-solve refinement of long A* placements


class Refine:
    """Refinement of A* cell paths on the criterion-5 pillar maps.

    Per map, two goals from each Chebyshev-distance band around the start;
    the bands span placements of 16 to 63 free points (QCQP sizes n = 48
    to about 190). The placements are built in the set-up, with both ends
    pinned at rest. One pass refines every placement, in an order drawn
    from the seed. The placement set is the same for every seed: at
    commit 1575029 a refine succeeds or fails from one placement to the
    next, so seed-drawn sets made the success fraction and the latency
    medians differ by about a quarter between seeds.
    """

    name = "refine"
    cells = (0.25, 0.25, 0.25)
    maps = ((0.1, 7), (0.2, 11), (0.4, 17))
    start_cell = (6, 6, 8)
    dt, order = 0.3, 3
    bands = ((17, 22), (22, 27), (27, 32), (32, 40), (40, 52), (52, 65))
    clearance = 0.6         # m; wider than the search inflation

    def plan(self, ks, rng, seed):
        """Goals per (band, map), fixed before the timed set-up.

        A candidate goal (criterion-5 goal grid, z = 2 m) must stay
        connected to the start after inflating the obstacles by
        `clearance`, which exceeds the search inflation, so A* always
        finds the placement. The candidates at one and two thirds of each
        band's sorted list are taken.
        """
        self.goals = []
        reach = []
        for density, map_seed in self.maps:
            w = ks.world.generate(self._spec(ks, density, map_seed))
            free = ~oracle.inflate(w.occ, self.cells, self.clearance)
            labels, _ = ndimage.label(free, structure=np.ones((3, 3, 3)))
            if not free[self.start_cell]:
                raise RuntimeError("refine start cell lacks clearance")
            reach.append(labels == labels[self.start_cell])
        for lo, hi in self.bands:
            for m, mask in enumerate(reach):
                cands = []
                for gx in np.arange(1.0, 19.5, 1.0):
                    for gy in np.arange(1.0, 19.5, 1.0):
                        c = (int(gx / self.cells[0]), int(gy / self.cells[1]),
                             int(2.0 / self.cells[2]))
                        cheb = max(abs(a - b) for a, b in
                                   zip(c, self.start_cell))
                        if lo <= cheb < hi and mask[c]:
                            cands.append((cheb, c))
                cands.sort()
                for pick in (len(cands) // 3, 2 * len(cands) // 3):
                    self.goals.append((m, cands[pick][1]))
        return {"goals": [[m, list(g)] for m, g in self.goals]}

    def _spec(self, ks, density, map_seed):
        return ks.world.MapGenSpec(kind="pillars", extent=(20, 20, 4),
                                   cell_sizes=self.cells, density=density,
                                   seed=map_seed)

    def setup(self, ks):
        cert = ks.certify.certify(K, self.cells)
        contract = ks.elastic.InflationContract.default(self.cells,
                                                        cert.delta_bk)
        bounds = ks.splines.DerivativeBounds.symmetric(VMAX, AMAX)
        worlds = []
        for density, map_seed in self.maps:
            w = ks.world.generate(self._spec(ks, density, map_seed))
            cs_bk = ks.world.build_config_space(w, contract.delta_bk)
            cs_el = ks.world.build_config_space(w, contract.delta_elas)
            cs_el.tree    # warm the lazily built clearance index
            worlds.append((w, cs_bk, cs_el))
        placements = []
        for m, goal in self.goals:
            w, cs_bk, _ = worlds[m]
            path = ks.search.astar_cells(cs_bk, self.start_cell, goal)
            if path is None:
                raise RuntimeError(f"no A* placement to {goal}")
            placements.append((m, goal, w.cell_center(path[1:-1])))
        return dict(contract=contract, bounds=bounds, worlds=worlds,
                    placements=placements)

    def prepare(self, ks, fx, rng, seed):
        self.fx = fx
        self.probe = oracle.SplineProbe(K)
        sizes = [3 * len(p) for _, _, p in fx["placements"]]
        self.sequence = [int(i) for i in rng.permutation(len(sizes))]
        return {"placements": len(sizes), "n_min": min(sizes),
                "n_max": max(sizes), "sequence": self.sequence}

    def run(self, ks, meter, tracer):
        fx = self.fx

        def op(i):
            m, goal, free = fx["placements"][i]
            w, _, cs_el = fx["worlds"][m]
            start = np.tile(w.cell_center(np.array(self.start_cell)),
                            (K + 1, 1))
            end = np.tile(w.cell_center(np.array(goal)), (K + 1, 1))
            res = ks.elastic.refine_adaptive(
                free, start, end, cs_el, w, fx["contract"], fx["bounds"],
                self.order, self.dt, solver_tol=5e-6, solver_max_iter=8000)
            return res, start, end

        initial = {}
        try:
            while True:
                for i in self.sequence:
                    tracer.op = meter.op_id(i)
                    m, goal, free = fx["placements"][i]
                    counts = {"placement": i, "map": m, "goal": list(goal),
                              "n": 3 * len(free)}
                    out, exc, ms = meter.measure(op, i)
                    if exc is not None:
                        meter.record(i, ms, _raise_reason(exc), **counts)
                        continue
                    res, start, end = out
                    if i not in initial:
                        initial[i] = self.probe.cost(
                            np.vstack([start, free, end]), self.dt,
                            self.order)
                    counts.update(status=res.status,
                                  cost=float(res.cost) if res.ok else None,
                                  solve_rounds=res.iterations,
                                  inserted=res.inserted,
                                  cost_ratio=float(res.cost / initial[i])
                                  if res.ok else None)
                    if meter.seen(i):
                        reason = None if res.ok else f"status:{res.status}"
                    else:
                        reason = self.fault(m, res, start, end, initial[i])
                    meter.record(i, ms, reason, **counts)
                meter.pass_done()
        except Cutoff:
            return

    def fault(self, m, res, start, end, initial):
        if not res.ok:
            return f"status:{res.status}"
        w = self.fx["worlds"][m][0]
        pts = np.asarray(res.points)
        if not (np.array_equal(pts[:K + 1], start)
                and np.array_equal(pts[-(K + 1):], end)):
            return "check:pins"
        bad = oracle.trajectory_fault(self.probe, pts, self.dt, w.occ,
                                      w.origin, w.cell_sizes, VMAX, AMAX)
        if bad:
            return bad
        cost = self.probe.cost(pts, self.dt, self.order)
        if abs(cost - res.cost) > 1e-8 * (1.0 + cost) \
                or abs(initial - res.initial_cost) > 1e-8 * (1.0 + initial):
            return "check:cost"
        if res.cost > initial + 1e-9 * (1.0 + initial):
            return "check:cost-increase"
        return None

    def summary(self, records):
        ok = [r for r in records if r["ok"]]
        ratios = [r["cost_ratio"] for r in ok]
        return {"refine_ms": [r["ms"] for r in ok],
                "refine_cost_ratio.mean": float(np.mean(ratios))
                if ratios else None}


# ---------------------------------------------------------------------------
# replan: receding-horizon missions on bench_course


class Replan:
    """Passive bench_course missions, A* planner then tuple planner.

    One operation is one simulation step of 0.1 s of the criterion-9
    mission from (1, 5, 1.2) to (19, 5, 1.2); its key is the planner and
    the step number. One pass flies both missions. The A* mission goes
    first because it is the shorter one once missions reach the goal. The
    missions are the same for every seed: start and goal sit on cell
    boundaries, so seeded jitter moved them between cells and changed the
    A* mission from 67 to 150 steps, which spread the tail latency by 40%
    between seeds.
    """

    name = "replan"
    cell = 0.2
    start = np.array([1.0, 5.0, 1.2])
    goal = np.array([19.0, 5.0, 1.2])
    planners = ("astar", "tuple")
    dt_sim = 0.1
    max_time = 180.0
    cycle_kinds = {"replan", "snap_fail", "no_local_goal", "search_fail",
                   "refine_fail"}

    def setup(self, ks):
        w = ks.world.bench_course(cell=self.cell, seed=9)
        cert = ks.certify.certify(K, (self.cell,) * 3)
        contract = ks.elastic.InflationContract.default((self.cell,) * 3,
                                                        cert.delta_bk)
        bounds = ks.splines.DerivativeBounds.symmetric(VMAX, AMAX)
        return dict(w=w, contract=contract, bounds=bounds)

    def prepare(self, ks, fx, rng, seed):
        self.fx = fx
        self.probe = oracle.SplineProbe(K)
        self.missions = []      # the first flight of each planner's mission
        return {"start": self.start.tolist(), "goal": self.goal.tolist()}

    def settings(self, ks, planner):
        fx = self.fx
        return ks.replan.ReplanSettings(
            k=K, dt=0.17, lam=20.0, order=3, bounds=fx["bounds"],
            contract=fx["contract"], mode="passive", planner=planner,
            search_wall_ms=UNBOUNDED_MS, search_expansions=2600,
            solver_max_iter=6000)

    def run(self, ks, meter, tracer):
        flown = set()
        try:
            while True:
                for planner in self.planners:
                    self.mission(ks, meter, tracer, planner,
                                 first=planner not in flown)
                    flown.add(planner)
                meter.pass_done()
        except Cutoff:
            return

    def mission(self, ks, meter, tracer, planner, first):
        w = self.fx["w"]
        sim = ks.replan.Replanner(w, self.start, self.goal,
                                  self.settings(ks, planner))
        bound_step = sim.step
        last = {}

        def step(dt_sim):
            key = (planner, last.get("step", -1) + 1)
            tracer.op = meter.op_id(key)
            n_events = len(sim.events)
            out, exc, ms = meter.measure(bound_step, dt_sim)
            new = [e["kind"] for e in sim.events[n_events:]]
            last["step"] = key[1]
            last["rec"] = meter.record(
                key, ms, None if exc is None else _raise_reason(exc),
                planner=planner, step=key[1],
                cycle=bool(self.cycle_kinds.intersection(new))
                or exc is not None, events=new)
            if exc is not None:
                raise exc
            return out

        sim.step = step
        info = {"planner": planner, "reached": False, "reason": None}
        try:
            sim.run(max_time=self.max_time, dt_sim=self.dt_sim)
        except Exception:  # noqa: BLE001 - the failing step holds the reason
            info["reason"] = last["rec"]["reason"]
        else:
            if first:
                reason = self.fault(sim)
                if reason is not None:
                    last["rec"].update(ok=False, reason=reason)
                    info["reason"] = reason
                else:
                    pts = sim.executed_spline().points
                    info.update(reached=True,
                                mission_s=(last["step"] + 1) * self.dt_sim,
                                jerk_cost=self.probe.cost(pts, 0.17, 3))
        if first:
            events = {}
            for e in sim.events:
                events[e["kind"]] = events.get(e["kind"], 0) + 1
            info["events"] = events
            info["steps"] = last.get("step", -1) + 1
            self.missions.append(info)

    def fault(self, sim):
        if not sim.goal_reached:
            return "mission:goal-not-reached"
        w = self.fx["w"]
        pts = np.asarray(sim.executed_spline().points)
        start_center = w.origin + (np.floor(
            (self.start - w.origin) / w.cell_sizes) + 0.5) \
            * w.cell_sizes
        if not np.array_equal(pts[0], start_center):
            return "check:start-pin"
        if np.linalg.norm(sim.agent.position - self.goal) > 0.4 + 1e-9:
            return "check:goal"
        return oracle.trajectory_fault(self.probe, pts, 0.17, w.occ,
                                       w.origin, w.cell_sizes, VMAX, AMAX)

    def summary(self, records):
        ok = [r for r in records if r["ok"]]
        done = [m for m in self.missions if m["reached"]]
        return {
            "cycle_ms": [r["ms"] for r in ok if r["cycle"]],
            "step_ms": [r["ms"] for r in ok if not r["cycle"]],
            "mission_s.mean": float(np.mean([m["mission_s"] for m in done]))
            if done else None,
            "jerk_cost.mean": float(np.mean([m["jerk_cost"] for m in done]))
            if done else None,
        }


WORKLOADS = {cls.name: cls for cls in (Sweep, Refine, Replan)}
