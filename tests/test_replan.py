import numpy as np
import pytest

from kinospline import certify, elastic as el, replan as rp
from kinospline import splines as sp
from kinospline import world as wd
from kinospline.kernels import collision_scan

BOUNDS = sp.DerivativeBounds.symmetric(2.0, 4.7)


def make_settings(cell=0.2, mode="passive", planner="tuple", body_radius=0.0,
                  **kw):
    cert = certify.certify(5, (cell,) * 3)
    contract = el.InflationContract.default((cell,) * 3, cert.delta_bk,
                                            body_radius=body_radius)
    return rp.ReplanSettings(k=5, dt=0.17, lam=20.0, order=3, bounds=BOUNDS,
                             contract=contract, mode=mode, planner=planner,
                             **kw)


def random_window(rng, n=30):
    cps = np.cumsum(rng.uniform(-0.15, 0.2, size=(n, 3)), axis=0) + 2.0
    win = rp.PlanWindow(5, 0.17, cps, bounds=BOUNDS)
    win.clock = rng.uniform(0.0, (n - 10) * 0.17)
    return win


class TestPlanWindow:
    def test_splice_preserves_executing_span(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            win = random_window(rng)
            seam = win.exec_span + 2
            if seam + 6 > win.cps.shape[0]:
                continue
            us = np.linspace(0.0, 1.0, 100)
            j = win.exec_span
            before = [sp.eval_span(win.cps[j:j + 6], u, l, 0.17)
                      for u in us for l in (0, 1, 2)]
            tail = np.vstack([win.cps[seam:seam + 6],
                              rng.normal(size=(8, 3))])
            win.splice(seam, tail)
            after = [sp.eval_span(win.cps[j:j + 6], u, l, 0.17)
                     for u in us for l in (0, 1, 2)]
            for a, b in zip(before, after):
                assert np.array_equal(a, b)  # bit-identical

    def test_splice_rejects_seam_mismatch(self):
        rng = np.random.default_rng(1)
        win = random_window(rng)
        seam = win.exec_span + 2
        tail = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            win.splice(seam, tail)

    def test_splice_rejects_executing_seam(self):
        rng = np.random.default_rng(2)
        win = random_window(rng)
        with pytest.raises(ValueError):
            win.splice(win.exec_span, win.cps[win.exec_span:win.exec_span + 8])

    def test_seam_continuity_after_splice(self):
        rng = np.random.default_rng(3)
        win = random_window(rng)
        seam = win.exec_span + 2
        tail = np.vstack([win.cps[seam:seam + 6], rng.normal(size=(6, 3))])
        win.splice(seam, tail)
        # derivatives up to order k-1 continuous at every span boundary
        for j in range(win.n_spans - 1):
            for l in range(5):
                a = sp.eval_span(win.cps[j:j + 6], 1.0, l, 0.17)
                b = sp.eval_span(win.cps[j + 1:j + 7], 0.0, l, 0.17)
                assert np.abs(a - b).max() < 1e-9

    def test_brake_extension_static_tail(self):
        pts = np.tile([1.0, 1.0, 1.0], (12, 1))
        win = rp.PlanWindow(5, 0.17, pts, bounds=BOUNDS)
        assert win.extend_brake()
        assert win.cps.shape[0] == 18
        v_end = sp.eval_span(win.cps[-6:], 1.0, 1, 0.17)
        assert np.abs(v_end).max() < 1e-12

    def test_brake_from_cruise_is_feasible(self):
        step = np.array([0.2, 0.0, 0.0])
        pts = np.arange(12)[:, None] * step
        win = rp.PlanWindow(5, 0.17, pts, bounds=BOUNDS)
        assert win.extend_brake()
        for j in range(win.n_spans):
            assert sp.check_feasible(win.cps[j:j + 6], BOUNDS, 0.17)
        v_end = sp.eval_span(win.cps[-6:], 1.0, 1, 0.17)
        assert np.abs(v_end).max() < 1e-12

    def test_trim_rebases_clock(self):
        pts = np.arange(40)[:, None] * np.array([0.1, 0.0, 0.0])
        win = rp.PlanWindow(5, 0.17, pts, bounds=BOUNDS)
        win.clock = 30 * 0.17
        state_before = win.state(0)
        dropped = win.trim()
        assert dropped > 0
        assert np.allclose(win.state(0), state_before, atol=1e-12)


class TestCheckSamples:
    """The collision check's samples, evaluated once per committed plan."""

    @staticmethod
    def _fresh(win):
        return sp.eval_span_many(sp.span_stack(win.cps, win.k), rp.CHECK_US,
                                 0, win.dt).reshape(-1, 3)

    def test_cache_follows_every_mutation(self, monkeypatch):
        calls = []
        evaluate = rp.eval_span_many
        monkeypatch.setattr(rp, "eval_span_many",
                            lambda *a, **kw: calls.append(1)
                            or evaluate(*a, **kw))
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(40):
            win = random_window(rng, n=int(rng.integers(14, 40)))
            win.check_samples()
            for _ in range(12):
                op = rng.choice(["splice", "trim", "extend_brake",
                                 "brake_at", "advance"])
                before = win.cps
                seam = win.seam_index()
                if op == "splice" and seam + 6 <= win.cps.shape[0]:
                    win.splice(seam, np.vstack([
                        win.cps[seam:seam + 6],
                        win.cps[seam + 5] + np.cumsum(rng.uniform(
                            -0.1, 0.1, size=(int(rng.integers(0, 9)), 3)),
                            axis=0)]))
                elif op == "trim":
                    win.trim()
                elif op == "extend_brake":
                    win.extend_brake()
                elif op == "brake_at":
                    win.brake_at(seam)
                elif op == "advance":
                    win.advance(float(rng.uniform(0.0, 0.5)))
                del calls[:]
                got = win.check_samples()
                assert win.check_samples() is got
                rebuilt = win.cps is not before and op != "trim"
                assert len(calls) == rebuilt
                assert got.shape == (win.n_spans * rp.CHECK_US.size, 3)
                assert np.array_equal(got, self._fresh(win))
                if win.cps is not before:
                    seen.add(str(op))
        assert seen == {"splice", "trim", "extend_brake", "brake_at"}

    def test_collision_ahead_matches_sliding_window_scan(self):
        # the scan the check ran before the samples were cached: every
        # not-yet-frozen span evaluated afresh on every step
        def reference(sim):
            w, win = sim.world, sim.window
            first = win.exec_span + 1
            if first >= win.n_spans:
                return None, None
            us = np.linspace(0.0, 1.0, 9)
            spans = np.lib.stride_tricks.sliding_window_view(
                win.cps[first:], (win.k + 1, 3))[:, 0]
            pts = sp.eval_span_many(spans, us, 0, win.dt).reshape(-1, 3)
            occ = np.ascontiguousarray(sim.map.body_occupancy())
            hit = collision_scan(pts, occ.reshape(-1).view(np.uint8), w.dims,
                                 w.origin, w.cell_sizes)
            return (None if hit < 0 else first + hit // len(us)), pts

        w = wd.bench_course(cell=0.2, seed=9)
        sim = rp.Replanner(w, (1.0, 5.0, 1.2), (19.0, 5.0, 1.2),
                           make_settings(planner="astar", search_wall_ms=1e12,
                                         search_expansions=2600,
                                         solver_max_iter=6000))
        check = sim._collision_ahead
        flags = []

        def checked():
            want, pts = reference(sim)
            got = check()
            assert got == want
            if pts is not None:
                first = sim.window.exec_span + 1
                assert np.array_equal(
                    sim.window.check_samples()[first * rp.CHECK_US.size:],
                    pts)
            flags.append(got)
            return got

        sim._collision_ahead = checked
        dropped = 0
        for _ in range(80):
            sim.step(0.1)
            dropped += sim.window.trim()
        assert len(flags) == 80 and dropped > 0
        assert any(f is not None for f in flags)
        assert sum(e["kind"] == "replan" for e in sim.events) >= 3


class TestKnownMap:
    def setup_method(self):
        occ = np.zeros((30, 20, 10), dtype=bool)
        occ[15, 5:15, :] = True
        self.world = wd.VoxelWorld(np.array([30, 20, 10]), np.full(3, 0.2),
                                   np.zeros(3), occ)
        self.contract = make_settings().contract

    def test_zero_radius_reveals_nothing(self):
        m = rp.KnownMap(self.world, self.contract)
        assert m.reveal(np.array([3.0, 2.0, 1.0]), 0.0) == 0
        assert m.known.sum() == 0

    def test_full_radius_reveals_everything(self):
        m = rp.KnownMap(self.world, self.contract)
        m.reveal(np.array([3.0, 2.0, 1.0]), 100.0)
        assert np.array_equal(m.known, self.world.occ)

    def test_monotone_growth(self):
        m = rp.KnownMap(self.world, self.contract)
        seen = 0
        for x in np.linspace(0.5, 5.5, 12):
            m.reveal(np.array([x, 2.0, 1.0]), 2.0)
            now = int(m.known.sum())
            assert now >= seen
            seen = now

    def test_spaces_match_full_rebuild(self):
        m = rp.KnownMap(self.world, self.contract)
        m.reveal(np.array([3.0, 1.2, 1.0]), 1.0)
        cs_bk, cs_el = m.spaces()
        added = m.reveal(np.array([3.1, 2.6, 1.0]), 2.0)
        assert added > 0
        cs_bk2, _ = m.spaces()
        w_known = self.world.with_occ(m.known.copy())
        ref = wd.build_config_space(w_known, self.contract.delta_bk)
        assert np.array_equal(cs_bk2.occ_inflated, ref.occ_inflated)
        assert cs_bk2 is not cs_bk  # copy on update

    @pytest.mark.parametrize("body_radius", [0.0, 0.25])
    def test_spaces_match_full_rebuild_after_each_reveal(self, body_radius):
        # a wall plus scattered cells, revealed in steps along a path: the
        # incremental spaces equal a full rebuild after every reveal
        rng = np.random.default_rng(4)
        occ = self.world.occ | (rng.random(self.world.occ.shape) < 0.03)
        true_world = self.world.with_occ(occ)
        contract = make_settings(body_radius=body_radius).contract
        m = rp.KnownMap(true_world, contract)
        grew = 0
        for x in np.linspace(0.5, 5.5, 8):
            added = m.reveal(np.array([x, 2.0 + 0.3 * np.sin(3 * x), 1.0]),
                             1.2)
            grew += added > 0
            cs_bk, cs_el = m.spaces()
            w_known = true_world.with_occ(m.known.copy())
            for cs, delta in ((cs_bk, contract.delta_bk),
                              (cs_el, contract.delta_elas)):
                ref = wd.build_config_space(w_known, delta)
                assert np.array_equal(cs.occ_inflated, ref.occ_inflated)
                assert np.array_equal(cs.occ_flat, ref.occ_flat)
            body = (wd.build_config_space(w_known, body_radius).occ_inflated
                    if body_radius > 0 else m.known)
            assert np.array_equal(m.body_occupancy(), body)
        assert grew >= 5


def _brute_force_reveal(true_occ, known, centers, position, radius):
    """Reference: distance test on every cell center of the grid."""
    if radius <= 0:
        return 0
    d2 = np.sum((centers - np.asarray(position)) ** 2, axis=1)
    fresh = (d2 <= radius * radius).reshape(known.shape) & true_occ & ~known
    known |= fresh
    return int(fresh.sum())


@pytest.mark.parametrize("seed, body_radius", [(0, 0.0), (1, 0.0), (2, 0.3),
                                               (3, 0.0)])
def test_reveal_matches_full_grid_reference(seed, body_radius):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(6, 14, size=3))
    cells = rng.uniform(0.15, 0.3, size=3)
    origin = rng.uniform(-2.0, 2.0, size=3)
    true_occ = rng.random(dims) < 0.15
    w = wd.VoxelWorld(np.array(dims), cells, origin, true_occ)
    contract = make_settings(body_radius=body_radius).contract
    centers = (np.indices(dims).reshape(3, -1).T + 0.5) * cells + origin
    m = rp.KnownMap(w, contract)
    # prior knowledge: some true obstacles and a few cells that are free
    prior = (true_occ & (rng.random(dims) < 0.3)) | (rng.random(dims) < 0.02)
    m.known |= prior
    known = prior.copy()
    version = 0
    diag = float(np.linalg.norm(w.extent))
    radii = [0.0, 0.6, 1.0, 0.0, 2.0 * diag] if seed % 2 else \
        list(rng.uniform(0.0, 1.2, size=8)) + [0.0]
    for radius in radii:
        pos = origin + rng.uniform(-0.2, 1.2, size=3) * w.extent
        want = _brute_force_reveal(true_occ, known, centers, pos, radius)
        version += want > 0
        assert m.reveal(pos, radius) == want
        assert np.array_equal(m.known, known)
        assert m.version == version
        cs_bk, cs_elas = m.spaces()
        ref_world = w.with_occ(known.copy())
        for cs, delta in ((cs_bk, contract.delta_bk),
                          (cs_elas, contract.delta_elas)):
            ref = wd.build_config_space(ref_world, delta)
            assert np.array_equal(cs.occ_inflated, ref.occ_inflated)
        body = wd.build_config_space(ref_world, body_radius).occ_inflated
        assert np.array_equal(m.body_occupancy(), body)
    m.reveal_all()
    version += bool((true_occ & ~known).any())
    assert np.array_equal(m.known, known | true_occ)
    assert m.version == version
    assert m.reveal(origin, 2.0 * diag) == 0
    cs_bk, _ = m.spaces()
    ref = wd.build_config_space(w.with_occ(known | true_occ), contract.delta_bk)
    assert np.array_equal(cs_bk.occ_inflated, ref.occ_inflated)


def test_reveal_counts_centres_on_the_sphere():
    # 0.25 m cells, the position at a cell centre and radii of whole cells:
    # every distance is exact, so centres sit exactly on the sphere
    rng = np.random.default_rng(8)
    dims = (14, 12, 9)
    cells = np.full(3, 0.25)
    true_occ = rng.random(dims) < 0.2
    centre = np.array([6, 5, 4])
    for r in (1, 2, 3, 4):
        for axis in range(3):
            for sign in (-1, 1):
                cell = centre.copy()
                cell[axis] += sign * r
                true_occ[tuple(cell)] = True
    true_occ[tuple(centre + (2, 1, 2))] = True   # |(2, 1, 2)| = 3 cells
    w = wd.VoxelWorld(np.array(dims), cells, np.zeros(3), true_occ)
    m = rp.KnownMap(w, make_settings(cell=0.25).contract)
    centers = (np.indices(dims).reshape(3, -1).T + 0.5) * cells
    known = np.zeros(dims, dtype=bool)
    pos = w.cell_center(centre)
    offsets = np.indices(dims).reshape(3, -1).T - centre
    for r in (1, 2, 3, 4):
        radius = 0.25 * r
        on_sphere = (np.sum(offsets ** 2, axis=1) == r * r).reshape(dims)
        assert (on_sphere & true_occ & ~known).any()
        want = _brute_force_reveal(true_occ, known, centers, pos, radius)
        assert m.reveal(pos, radius) == want
        assert np.array_equal(m.known, known)
        assert not (on_sphere & true_occ & ~m.known).any()


def test_agent_state_matches_eval_span():
    rng = np.random.default_rng(6)
    win = random_window(rng)
    dt = win.dt
    # (span, u): span starts and ends, inside a span, the window's end
    cases = [(0, 0.0), (3, 0.0), (3, 0.5), (7, 0.123), (9, 0.999),
             (win.n_spans - 1, 1.0)]
    for j, u in cases:
        win.clock = (j + u) * dt
        agent = rp.SimAgent.from_window(win, 1.0)
        tracked = rp.SimAgent(np.zeros(3), np.zeros(3), np.zeros(3), 1.0)
        tracked.track(win)
        for a in (agent, tracked):
            for l, got in enumerate((a.position, a.velocity,
                                     a.acceleration)):
                ref = sp.eval_span(win.cps[j:j + 6], u, l, dt)
                assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


class TestReplannerRuns:
    def _world(self):
        w = wd.generate(wd.MapGenSpec(kind="pillars", extent=(12, 8, 2.4),
                                      cell_sizes=(0.2,) * 3, density=0.15,
                                      seed=5))
        occ = np.array(w.occ)
        occ[:8, :, :] = False
        occ[-8:, :, :] = False
        return w.with_occ(occ)

    def test_static_clear_world_no_replans_after_first(self):
        w = wd.generate(wd.MapGenSpec(kind="empty", extent=(12, 8, 2.4),
                                      cell_sizes=(0.2,) * 3))
        sim = rp.Replanner(w, (0.9, 4.1, 1.1), (10.9, 4.1, 1.1),
                           make_settings())
        sim.map.reveal_all()
        traj = sim.run(max_time=40.0)
        assert sim.goal_reached
        # passive mode on a fully known clear map: only horizon-driven
        # planning toward the goal, no collision-triggered replans
        kinds = [e["kind"] for e in sim.events]
        assert "refine_fail" not in kinds

    def test_wall_reveal_triggers_replan(self):
        occ = np.zeros((60, 40, 12), dtype=bool)
        occ[30, 0:36, :] = True  # wall with a gap on the far side
        w = wd.VoxelWorld(np.array([60, 40, 12]), np.full(3, 0.2),
                          np.zeros(3), occ)
        sim = rp.Replanner(w, (1.0, 2.0, 1.2), (11.0, 2.0, 1.2),
                           make_settings(sense_radius=3.0))
        traj = sim.run(max_time=60.0)
        replans = [e for e in sim.events if e["kind"] == "replan"]
        assert len(replans) >= 2  # horizon extensions plus the wall dodge
        occf = np.ascontiguousarray(w.occ.reshape(-1).astype(np.uint8))
        pts = np.ascontiguousarray(traj[:, 1:4])
        assert collision_scan(pts, occf, w.dims, w.origin, w.cell_sizes) == -1

    @pytest.mark.parametrize("planner", ["tuple", "astar"])
    def test_run_feasible_and_collision_free(self, planner):
        # the wall-clock limit is set out of reach, so the expansion budget
        # alone decides every search and the flight is the same on a
        # loaded machine
        w = self._world()
        sim = rp.Replanner(w, (0.9, 4.1, 1.1), (11.0, 4.1, 1.1),
                           make_settings(mode="active", planner=planner,
                                         search_wall_ms=1e12))
        traj = sim.run(max_time=60.0)
        assert not [e for e in sim.events
                    if e["kind"] in ("replan", "search_fail")
                    and e.get("budget") == "wall"]
        assert sim.goal_reached
        assert np.abs(traj[:, 4:7]).max() <= 2.0 + 1e-6
        assert np.abs(traj[:, 7:10]).max() <= 4.7 + 1e-6
        occf = np.ascontiguousarray(w.occ.reshape(-1).astype(np.uint8))
        pts = np.ascontiguousarray(traj[:, 1:4])
        assert collision_scan(pts, occf, w.dims, w.origin, w.cell_sizes) == -1

    def test_spliced_plan_not_flagged_on_its_own_map(self):
        # a refined plan is certified against the known occupancy, so the
        # passive collision check must not flag it before the map changes
        w = wd.bench_course(cell=0.2, seed=9)
        sim = rp.Replanner(w, (1.0, 5.0, 1.2), (19.0, 5.0, 1.2),
                           make_settings(planner="astar"))
        flagged = []
        plan = sim._plan

        def checked(cs_bk, cs_elas):
            ok = plan(cs_bk, cs_elas)
            if ok:
                flagged.append(sim._collision_ahead())
            return ok

        sim._plan = checked
        sim.run(max_time=12.0)
        assert len(flagged) >= 3 and all(f is None for f in flagged)

    def test_obstacle_within_body_radius_triggers_replan(self):
        # an obstacle revealed beside the plan, off its centre curve but
        # within the body radius, must flag the plan
        w = wd.generate(wd.MapGenSpec(kind="empty", extent=(12, 8, 2.4),
                                      cell_sizes=(0.2,) * 3))
        occ = np.array(w.occ)
        occ[20, 22, 5] = True  # center (4.1, 4.5, 1.1): 0.3 m off the line
        sim = rp.Replanner(w.with_occ(occ), (0.9, 4.1, 1.1), (10.9, 4.1, 1.1),
                           make_settings(body_radius=0.5, sense_radius=0.0))
        while sim.replans == 0:
            sim.step()
        assert sim._collision_ahead() is None
        sim.map.reveal_all()
        us = np.linspace(0.0, 1.0, 9)
        pts = np.concatenate([
            sp.eval_span_many(sim.window.cps[j:j + 6], us, 0, 0.17)
            for j in range(sim.window.exec_span + 1, sim.window.n_spans)])
        occf = np.ascontiguousarray(occ.reshape(-1).astype(np.uint8))
        assert collision_scan(pts, occf, w.dims, w.origin, w.cell_sizes) == -1
        assert sim._collision_ahead() is not None
        sim.run(max_time=40.0)
        assert sim.goal_reached
        body = wd.build_config_space(w.with_occ(occ), 0.5)
        _, pos = sim.executed_spline().sample(0.01)
        assert collision_scan(np.ascontiguousarray(pos), body.occ_flat, w.dims,
                              w.origin, w.cell_sizes) == -1

    def test_body_keeps_clear_of_revealed_obstacles(self):
        # with a body radius, the flown centre curve stays out of the map
        # dilated by that radius
        w = wd.bench_course(cell=0.2, seed=9)
        sim = rp.Replanner(w, (1.0, 5.0, 1.2), (19.0, 5.0, 1.2),
                           make_settings(planner="astar", body_radius=0.3))
        sim.run(max_time=40.0)
        assert sim.goal_reached
        body = wd.build_config_space(w, 0.3)
        _, pos = sim.executed_spline().sample(0.01)
        assert collision_scan(np.ascontiguousarray(pos), body.occ_flat, w.dims,
                              w.origin, w.cell_sizes) == -1

    def test_refine_fail_event_carries_its_reason(self, monkeypatch):
        failed = el.RefineResult(status="infeasible", solver_iterations=17,
                                 knot_repeat=4)
        monkeypatch.setattr(rp.elastic, "refine_adaptive",
                            lambda *a, **kw: failed)
        w = self._world()
        sim = rp.Replanner(w, (0.9, 4.1, 1.1), (11.0, 4.1, 1.1),
                           make_settings())
        sim.step(0.1)
        fails = [e for e in sim.events if e["kind"] == "refine_fail"]
        assert fails
        for e in fails:
            assert (e["status"], e["solver_iterations"],
                    e["knot_repeat"]) == ("infeasible", 17, 4)

    @pytest.mark.parametrize("blocked, reason", [
        (slice(0, 20), "start-blocked"),   # solid around the start
        (slice(20, 21), "no-path"),        # a wall cuts the grid in two
    ])
    def test_astar_search_fail_carries_its_reason(self, blocked, reason):
        occ = np.zeros((40, 10, 10), dtype=bool)
        occ[blocked] = True
        w = wd.VoxelWorld(np.array([40, 10, 10]), np.full(3, 0.2),
                          np.zeros(3), occ)
        sim = rp.Replanner(w, (1.0, 1.0, 1.0), (7.0, 1.0, 1.0),
                           make_settings(planner="astar", local_range=10.0),
                           prior_known=occ)
        sim.step(0.1)
        fails = [e for e in sim.events if e["kind"] == "search_fail"]
        assert fails
        assert fails[0]["planner"] == "astar" and fails[0]["reason"] == reason

    @pytest.mark.parametrize("empty, budget, kind, reason, partial, named", [
        (False, {"search_expansions": 3}, "search_fail", "partial", None,
         "expansions"),
        (False, {"search_wall_ms": 1e-6}, "search_fail", "budget-exceeded",
         None, "wall"),
        (False, {"search_expansions": 20}, "replan", None, True,
         "expansions"),
        # the cropped box drains: a partial that no budget ended
        (False, {"search_wall_ms": 1e9}, "replan", None, True, None),
        (True, {"search_wall_ms": 1e9}, "replan", None, False, None),
    ])
    def test_tuple_search_events_name_the_budget(self, empty, budget, kind,
                                                  reason, partial, named):
        w = self._world()
        if empty:
            w = w.with_occ(np.zeros_like(w.occ))
        sim = rp.Replanner(w, (0.9, 4.1, 1.1), (11.0, 4.1, 1.1),
                           make_settings(**budget))
        for _ in range(3):
            sim.step(0.1)
        events = [e for e in sim.events if e["kind"] == kind]
        assert events
        for e in events:
            assert (e.get("reason"), e.get("partial"), e["budget"]) == (
                reason, partial, named)

    def test_event_log_schema(self):
        w = self._world()
        sim = rp.Replanner(w, (0.9, 4.1, 1.1), (11.0, 4.1, 1.1),
                           make_settings())
        sim.run(max_time=30.0)
        assert sim.events
        for e in sim.events:
            assert "t" in e and "kind" in e
            if e["kind"] == "replan":
                assert "cost" in e and "seam" in e


def test_match_boundary_snaps_seam():
    w = wd.generate(wd.MapGenSpec(kind="empty", extent=(12, 8, 2.4),
                                  cell_sizes=(0.2,) * 3))
    settings = make_settings()
    cs_bk = wd.build_config_space(w, settings.contract.delta_bk)
    pts = np.array([[1.0 + 0.19 * i, 4.05, 1.12] for i in range(16)])
    win = rp.PlanWindow(5, 0.17, pts, bounds=BOUNDS)
    seam, tup = rp.match_boundary(win, w, cs_bk)
    assert tup is not None
    refs = win.cps[seam:seam + 6]
    assert np.linalg.norm(tup.positions - refs, axis=1).max() < 0.6
