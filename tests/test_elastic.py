import numpy as np
import pytest

from kinospline import elastic as el
from kinospline import splines as sp
from kinospline import world as wd
from kinospline.kernels import collision_scan

import oracles

BOUNDS = sp.DerivativeBounds.symmetric(2.0, 4.7)


def open_world(dims=(40, 40, 40), cell=0.25):
    return wd.VoxelWorld(np.array(dims), np.full(3, cell), np.zeros(3),
                         np.zeros(dims, dtype=bool))


def contract_for(cell):
    from kinospline import certify
    cert = certify.certify(5, (cell,) * 3)
    return el.InflationContract.default((cell,) * 3, cert.delta_bk)


class TestContract:
    def test_default_satisfies_both_inequalities(self):
        for cell in (0.16, 0.2, 0.25):
            contract_for(cell).validate()

    def test_anisotropic_gap(self):
        from kinospline import certify
        cs = (0.2, 0.2, 0.4)
        cert = certify.certify(5, cs)
        c = el.InflationContract.default(cs, cert.delta_bk)
        c.validate()
        assert c.delta_bk - c.delta_elas > c.h_max / 2 - min(cs)

    def test_violations_raise(self):
        with pytest.raises(ValueError):
            el.InflationContract(0.1, 0.09, h_max=1.0,
                                 cell_sizes=(0.2,) * 3).validate()
        with pytest.raises(ValueError):
            el.InflationContract(0.5, 0.05, h_max=1.0,
                                 cell_sizes=(0.2,) * 3).validate()


class TestTubeExpansion:
    def test_centered_between_walls_stays_put(self):
        occ = np.zeros((41, 21, 21), dtype=bool)
        occ[0, :, :] = True
        occ[40, :, :] = True
        w = wd.VoxelWorld(np.array([41, 21, 21]), np.full(3, 0.25),
                          np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.0)
        mid = np.array([41 * 0.25 / 2, 21 * 0.25 / 2, 2.6])
        tube = el.tube_expansion(mid[None, :], cs)
        # equidistant between the near boundary pair: pushing gains nothing
        assert np.linalg.norm(tube.centers[0] - mid) < 0.7
        assert tube.radii[0] == pytest.approx(21 * 0.25 / 2, abs=0.3)

    def test_push_away_from_single_wall(self):
        occ = np.zeros((60, 40, 40), dtype=bool)
        occ[0, :, :] = True  # one wall; other boundaries are farther
        w = wd.VoxelWorld(np.array([60, 40, 40]), np.full(3, 0.25),
                          np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.0)
        p = np.array([0.55, 5.0, 5.0])
        tube = el.tube_expansion(p[None, :], cs)
        _, r0 = cs.nn_search(p)
        assert tube.centers[0][0] > p[0]     # pushed away from the wall
        assert tube.radii[0] > r0            # and gained clearance
        # containment of the original ball within threshold slack
        d = np.linalg.norm(tube.centers[0] - p)
        # d_thres is a quarter of the smallest cell
        assert d + r0 <= tube.radii[0] + 0.25 * 0.25 + 1e-9

    def test_open_space_capped_by_max_inflation(self):
        w = open_world(dims=(100, 80, 80))
        cs = wd.build_config_space(w, 0.0)
        p = np.array([3.0, 10.0, 10.0])
        tube = el.tube_expansion(p[None, :], cs)
        push = np.linalg.norm(tube.centers[0] - p)
        # pushed away from the near wall, as far as the cap allows
        assert el.D_INFL_MAX - 0.25 <= push <= el.D_INFL_MAX + 1e-9

    def test_well_connected_preserved(self):
        rng = np.random.default_rng(1)
        w = wd.generate(wd.MapGenSpec(kind="pillars", extent=(15, 15, 4),
                                      cell_sizes=(0.25,) * 3, density=0.15,
                                      seed=2))
        contract = contract_for(0.25)
        cs = wd.build_config_space(w, contract.delta_elas)
        free = np.argwhere(~cs.occ_inflated)
        start = free[rng.integers(len(free))]
        chain = [start]
        for _ in range(15):
            step = rng.integers(-1, 2, 3)
            cand = np.clip(chain[-1] + step, 0, w.dims - 1)
            if not cs.occ_inflated[tuple(cand)]:
                chain.append(cand)
        pts = w.cell_center(np.array(chain))
        tube = el.tube_expansion(pts, cs)
        # slack: twice d_thres, a quarter of the smallest cell
        assert oracles.balls_chained(tube.centers, tube.radii,
                                     slack=2 * 0.25 * 0.25)

    def test_occupied_center_rejected(self):
        occ = np.zeros((9, 9, 9), dtype=bool)
        occ[4, 4, 4] = True
        w = wd.VoxelWorld(np.array([9] * 3), np.full(3, 0.25), np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.0)
        with pytest.raises(ValueError):
            el.tube_expansion(w.cell_center((4, 4, 4))[None, :], cs)


class TestAssemble:
    def _pins(self, w, cell, k=5):
        return np.tile(w.cell_center(cell), (k + 1, 1))

    def test_zero_free_points_constant_objective(self):
        w = open_world()
        pins_s = self._pins(w, (5, 5, 5))
        pins_g = self._pins(w, (6, 5, 5))
        prob = el.assemble_qcqp([], np.zeros((0, 3)), pins_s, pins_g, 3,
                                0.25, BOUNDS)
        assert prob.n == 0
        from kinospline import qcqp
        sol = qcqp.solve(prob)
        assert sol.status == "optimal"

    def test_huge_balls_relax_to_interpolant(self):
        w = open_world()
        pins_s = self._pins(w, (5, 5, 5))
        pins_g = self._pins(w, (15, 9, 5))
        path = np.linspace(w.cell_center((5, 5, 5)), w.cell_center((15, 9, 5)),
                           12)[1:-1]
        balls = [[(p, 1e6)] for p in path]
        wide = sp.DerivativeBounds.symmetric(1e6, 1e9)
        prob = el.assemble_qcqp(balls, path, pins_s, pins_g, 3, 0.25, wide)
        from kinospline import qcqp
        sol = qcqp.solve(prob, tol=1e-9)
        init = np.vstack([pins_s, path, pins_g])
        init_cost = sum(sp.span_cost(init[j:j + 6], 3, 0.25)
                        for j in range(init.shape[0] - 5))
        assert sol.objective <= init_cost + 1e-9
        assert sol.status == "optimal"

    def test_fixed_term_makes_objective_true_cost(self):
        # at any x the objective is the summed span cost, also with at
        # most k free points, where H's band is taller than n
        rng = np.random.default_rng(8)
        w = open_world()
        pins_s = self._pins(w, (5, 5, 5)) + 0.05 * rng.normal(size=(6, 3))
        pins_g = self._pins(w, (8, 5, 5)) + 0.05 * rng.normal(size=(6, 3))
        for nf in (1, 2, 5, 30):
            path = np.linspace(pins_s[-1], pins_g[0], nf + 2)[1:-1]
            balls = [[(p, 10.0)] for p in path]
            prob = el.assemble_qcqp(balls, path, pins_s, pins_g, 3, 0.25,
                                    BOUNDS)
            prob.validate()
            for x in [path.reshape(-1)] + [rng.normal(size=3 * nf)
                                           for _ in range(3)]:
                seq = np.vstack([pins_s, x.reshape(-1, 3), pins_g])
                direct = sum(sp.span_cost(seq[j:j + 6], 3, 0.25)
                             for j in range(seq.shape[0] - 5))
                assert prob.objective(x) == pytest.approx(direct, rel=1e-9)

    def test_rows_touch_free_points(self):
        # every row carries a free coefficient; rows on pins alone drop
        w = open_world()
        pins_s = self._pins(w, (5, 5, 5))
        pins_g = self._pins(w, (9, 7, 5))
        path = np.linspace(w.cell_center((5, 5, 5)), w.cell_center((9, 7, 5)),
                           9)[1:-1]
        prob = el.assemble_qcqp([[(p, 0.6)] for p in path], path, pins_s,
                                pins_g, 3, 0.25, BOUNDS)
        assert np.all((prob.A != 0.0).any(axis=1))
        # 2 orders x (k + nf) spans x 6 rows x 3 axes, less the 6
        # acceleration rows of the two end spans that see pins only
        assert prob.A.shape[0] == 2 * (5 + 7) * 6 * 3 - 6

    def test_row_bounds_are_sufficient(self):
        # any decision vector satisfying the rows keeps the true extrema
        # within bounds on every covered span
        rng = np.random.default_rng(3)
        w = open_world()
        pins_s = self._pins(w, (5, 5, 5))
        pins_g = self._pins(w, (9, 7, 5))
        path = np.linspace(w.cell_center((5, 5, 5)), w.cell_center((9, 7, 5)),
                           9)[1:-1]
        balls = [[(p, 0.6)] for p in path]
        prob = el.assemble_qcqp(balls, path, pins_s, pins_g, 3, 0.25, BOUNDS)
        from kinospline import qcqp
        sol = qcqp.solve(prob, tol=1e-8)
        assert sol.status == "optimal"
        seq = np.vstack([pins_s, sol.x.reshape(-1, 3), pins_g])
        for j in range(seq.shape[0] - 5):
            ex_v = oracles.sampled_extrema(seq[j:j + 6], 1, 0.25, n=2001)
            ex_a = oracles.sampled_extrema(seq[j:j + 6], 2, 0.25, n=2001)
            assert np.abs(ex_v).max() <= 2.0 + 1e-6
            assert np.abs(ex_a).max() <= 4.7 + 1e-6


def verify_span_by_span(points, k, dt, ball_map, tube_balls, w):
    """verify_safety's report from a loop: a span is certified by a ball of
    its points that holds all of them, else its samples are scanned alone."""
    centers, radii = tube_balls
    occ = w.occ.reshape(-1).astype(np.uint8)
    step = float(min(w.cell_sizes)) / 4.0
    bad = []
    for j in range(points.shape[0] - k):
        span = points[j:j + k + 1]
        listed = {b for i in range(j, j + k + 1) for b in ball_map.get(i, ())}
        if any(np.all(np.linalg.norm(span - centers[b], axis=1) <= radii[b])
               for b in listed):
            continue
        samples = el._span_samples(span[None], dt, step)[0]
        if collision_scan(samples, occ, w.dims, w.origin, w.cell_sizes) >= 0:
            bad.append(j)
    return bad


class TestVerifySafety:
    def test_span_inside_single_ball_safe(self):
        w = open_world()
        pts = np.tile(w.cell_center((5, 5, 5)), (8, 1))
        ball_map = {i: (0,) for i in range(8)}
        centers = w.cell_center((5, 5, 5))[None, :]
        bad = el.verify_safety(pts, 5, 0.25, ball_map,
                               (centers, np.array([1.0])), w)
        assert bad == []

    def test_collision_reported(self):
        occ = np.zeros((40, 40, 40), dtype=bool)
        occ[20, 18:23, 18:23] = True
        w = wd.VoxelWorld(np.array([40] * 3), np.full(3, 0.25), np.zeros(3), occ)
        # straight line THROUGH the block, no balls to vouch for it
        pts = np.linspace([3.0, 5.1, 5.1], [7.0, 5.1, 5.1], 10)
        bad = el.verify_safety(pts, 5, 0.25, {}, (np.zeros((0, 3)),
                                                  np.zeros(0)), w)
        assert bad != []

    def test_straight_corridor_safe(self):
        w = open_world()
        pts = np.linspace([2.0, 5.0, 5.0], [8.0, 5.0, 5.0], 12)
        bad = el.verify_safety(pts, 5, 0.25, {}, (np.zeros((0, 3)),
                                                  np.zeros(0)), w)
        assert bad == []


class TestRefine:
    def test_straight_line_no_insertions(self):
        w = open_world()
        contract = contract_for(0.25)
        cs = wd.build_config_space(w, contract.delta_elas)
        cells = np.array([[6 + i, 20, 20] for i in range(14)])
        pts = w.cell_center(cells)
        res = el.refine(pts[6:-1], pts[:6],
                        np.tile(pts[-1], (6, 1)), cs, w, contract, BOUNDS,
                        3, 0.25)
        assert res.ok and res.inserted == 0
        assert res.cost <= res.initial_cost + 1e-9

    def test_cost_monotone_on_pillar_map(self):
        from kinospline import search as se
        w = wd.generate(wd.MapGenSpec(kind="pillars", extent=(15, 15, 4),
                                      cell_sizes=(0.25,) * 3, density=0.2,
                                      seed=4))
        contract = contract_for(0.25)
        cs_bk = wd.build_config_space(w, contract.delta_bk)
        cs_el = wd.build_config_space(w, contract.delta_elas)
        start = se.static_tuple((5, 5, 8), 5, w)
        goal = se.static_tuple((50, 52, 8), 5, w)
        r = se.search(se.SearchQuery(start=start, goal=goal, dt=0.25, lam=30.0,
                                     order=3, bounds=BOUNDS, d=1,
                                     max_wall_ms=5000,
                                     max_expansions=10**6), cs_bk)
        assert r.ok
        res = el.refine(r.positions[6:-1], r.positions[:6], goal.positions,
                        cs_el, w, contract, BOUNDS, 3, 0.25)
        assert res.ok
        assert res.cost <= res.initial_cost + 1e-9
        # jerk cost strictly below the searched placement on this map
        assert res.cost < res.initial_cost
        # refined trajectory clear of raw obstacles by dense sampling
        _, (pos,) = res.spline.sample_orders(0.01, (0,))
        occf = np.ascontiguousarray(w.occ.reshape(-1).astype(np.uint8))
        assert collision_scan(np.ascontiguousarray(pos), occf, w.dims,
                              w.origin, w.cell_sizes) == -1

    def test_zero_velocity_bounds_infeasible(self):
        w = open_world()
        contract = contract_for(0.25)
        cs = wd.build_config_space(w, contract.delta_elas)
        cells = np.array([[6 + i, 20, 20] for i in range(10)])
        pts = w.cell_center(cells)
        frozen = sp.DerivativeBounds.symmetric(1e-6, 1e-6)
        res = el.refine(pts[6:-1], pts[:6], np.tile(pts[-1], (6, 1)),
                        cs, w, contract, frozen, 3, 0.25)
        assert res.status == "infeasible"

    def test_unconverged_solve_is_solver_failed(self):
        # a solve cut off by its iteration budget proves nothing: the
        # status says so instead of claiming infeasibility
        w = open_world()
        contract = contract_for(0.25)
        cs = wd.build_config_space(w, contract.delta_elas)
        cells = np.array([[6 + i, 20, 20] for i in range(14)])
        pts = w.cell_center(cells)
        res = el.refine(pts[6:-1], pts[:6], np.tile(pts[-1], (6, 1)), cs, w,
                        contract, BOUNDS, 3, 0.25, solver_max_iter=1)
        assert res.status == "solver-failed"
        assert not res.ok
        assert (res.solver_iterations, res.knot_repeat) == (1, 1)

    def test_failure_reports_last_solve_and_knot_repeat(self, monkeypatch):
        # every knot repeat fails under frozen bounds: the result is the
        # last attempt's, with that solve's Newton iterations
        from kinospline import qcqp
        w = open_world()
        contract = contract_for(0.25)
        cs = wd.build_config_space(w, contract.delta_elas)
        pts = w.cell_center(np.array([[6 + i, 20, 20] for i in range(10)]))
        frozen = sp.DerivativeBounds.symmetric(1e-6, 1e-6)
        solves = []
        inner = qcqp.solve

        def spy(p, **kw):
            solves.append(inner(p, **kw))
            return solves[-1]

        monkeypatch.setattr(qcqp, "solve", spy)
        res = el.refine_adaptive(pts[6:-1], pts[:6], np.tile(pts[-1], (6, 1)),
                                 cs, w, contract, frozen, 3, 0.25)
        assert res.status == "infeasible"
        assert res.knot_repeat == 4
        assert solves[-1].status == "infeasible-detected"
        assert res.solver_iterations == solves[-1].iterations > 0
        # a placement that refines at once stops at factor 1
        ok = el.refine_adaptive(pts[6:-1], pts[:6], np.tile(pts[-1], (6, 1)),
                                cs, w, contract, BOUNDS, 3, 0.25)
        assert ok.ok and ok.knot_repeat == 1
        assert ok.solver_iterations == solves[-1].iterations

    def test_insertion_resolves_corner(self):
        # concave notch; k=3 tube hugging the corner forces insertions
        occ = np.zeros((40, 40, 8), dtype=bool)
        occ[18:40, 0:18, :] = True   # a big L-block
        w = wd.VoxelWorld(np.array([40, 40, 8]), np.full(3, 0.25),
                          np.zeros(3), occ)
        from kinospline import certify
        cert = certify.certify(3, (0.25,) * 3)
        contract = el.InflationContract.default((0.25,) * 3, cert.delta_bk)
        cs = wd.build_config_space(w, contract.delta_elas)
        # path around the inside corner of the L
        cells = [(14, 6, 4), (14, 10, 4), (14, 14, 4), (14, 17, 4),
                 (14, 20, 4), (18, 21, 4), (22, 21, 4), (26, 21, 4)]
        pts = w.cell_center(np.array(cells))
        pins_s = np.tile(pts[0], (4, 1))
        pins_g = np.tile(pts[-1], (4, 1))
        res = el.refine(pts[1:-1], pins_s, pins_g, cs, w, contract,
                        sp.DerivativeBounds.symmetric(4.0, 20.0), 2, 0.4)
        assert res.status in ("safe", "infeasible")
        if res.ok:
            _, (pos,) = res.spline.sample_orders(0.01, (0,))
            occf = np.ascontiguousarray(w.occ.reshape(-1).astype(np.uint8))
            assert collision_scan(np.ascontiguousarray(pos), occf, w.dims,
                                  w.origin, w.cell_sizes) == -1
            assert res.inserted <= 9 * len(cells)


class TestBatchedScan:
    """verify_safety scans every uncertified span's samples at once; its
    report must match the span-by-span loop."""

    K, DT, CELL = 5, 0.25, 0.25
    # 12 collinear control points 0.8 m apart: 7 spans, each sweeping
    # 0.8 m of x, along the cell centres y = z = 0.625
    POINTS = np.column_stack([1.0 + 0.8 * np.arange(12), np.full(12, 0.625),
                              np.full(12, 0.625)])
    NO_BALLS = (np.zeros((0, 3)), np.zeros(0))

    def samples(self, j):
        step = self.CELL / 4.0
        return el._span_samples(self.POINTS[j:j + self.K + 1][None], self.DT,
                                step)[0]

    def world(self, origin_x, occupied_x=None, nx=48):
        """A 1-cell-thick row of cells along x from origin_x; the cell
        holding x = occupied_x (if any) is occupied."""
        occ = np.zeros((nx, 4, 4), dtype=bool)
        if occupied_x is not None:
            occ[int(np.floor((occupied_x - origin_x) / self.CELL)), 2, 2] = True
        return wd.VoxelWorld(np.array([nx, 4, 4]), np.full(3, self.CELL),
                             np.array([origin_x, 0.0, 0.0]), occ)

    def check(self, w, ball_map=None, tube_balls=None):
        ball_map = {} if ball_map is None else ball_map
        tube_balls = self.NO_BALLS if tube_balls is None else tube_balls
        bad = el.verify_safety(self.POINTS, self.K, self.DT, ball_map,
                               tube_balls, w)
        assert bad == verify_span_by_span(self.POINTS, self.K, self.DT,
                                          ball_map, tube_balls, w)
        return bad

    def test_free_row_reports_nothing(self):
        assert self.check(self.world(0.0)) == []

    def test_hit_at_first_sample_only(self):
        x0 = self.samples(0)[0, 0]
        # the cell ends 1e-6 past the first sample, so no later sample
        # of the curve lies in it
        w = self.world(x0 + 1e-6 - 4 * self.CELL, occupied_x=x0)
        assert self.samples(0)[1, 0] > x0 + 1e-6
        assert self.check(w) == [0]

    def test_hit_at_last_sample_only(self):
        x1 = self.samples(6)[-1, 0]
        # the cell starts 1e-6 before the last sample
        w = self.world(x1 - 1e-6 - 30 * self.CELL, occupied_x=x1)
        assert self.samples(6)[-2, 0] < x1 - 1e-6
        assert self.check(w) == [6]

    def test_samples_outside_the_grid(self):
        # the grid ends inside span 4's sweep: spans 4, 5 and 6 leave it
        end = self.samples(4)[8, 0]
        w = self.world(end - 30 * self.CELL, nx=30)
        assert self.check(w) == [4, 5, 6]

    def test_only_last_uncertified_span_hits(self):
        # one ball holds the last 7 points, so spans 5 and 6 are
        # certified; the obstacle sits in the middle of span 4's sweep
        last = self.POINTS[-7:]
        tube = (last.mean(axis=0)[None], np.array([2.5]))
        ball_map = {i: (0,) for i in range(5, 12)}
        mid = self.samples(4)
        w = self.world(0.0, occupied_x=mid[mid.shape[0] // 2, 0])
        assert self.check(w, ball_map, tube) == [4]
        # without the ball the obstacle is still span 4's alone
        assert self.check(w) == [4]
