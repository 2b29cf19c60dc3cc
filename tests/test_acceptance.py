"""Acceptance suite: one test per release criterion, stated tolerances.

Each test prints a PASS line when its assertions hold; scenario data is
deterministic (fixed seeds, expansion-count budgets) so reruns reproduce
the same numbers.
"""

import time

import numpy as np
import pytest

from kinospline import certify as ct
from kinospline import elastic as el
from kinospline import qcqp
from kinospline import replan as rp
from kinospline import search as se
from kinospline import splines as sp
from kinospline import world as wd
from kinospline.kernels import collision_scan

import oracles


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def free_occf(w):
    return np.ascontiguousarray(w.occ.reshape(-1).astype(np.uint8))


def spline_clear_and_feasible(spline, w, bounds, step=0.02):
    _, P = spline.sample(step)
    _, V = spline.sample(step, 1)
    _, A = spline.sample(step, 2)
    hit = collision_scan(np.ascontiguousarray(P), free_occf(w), w.dims,
                         w.origin, w.cell_sizes)
    ok_v = np.all(np.abs(V) <= np.asarray(bounds.v_max) + 1e-6)
    ok_a = np.all(np.abs(A) <= np.asarray(bounds.a_max) + 1e-6)
    return hit < 0 and ok_v and ok_a


def test_criterion_1_inflation_certificate():
    t0 = time.perf_counter()
    cert = ct.certify(5, (0.16,) * 3)
    elapsed = time.perf_counter() - t0
    assert 0.0 < cert.delta_bk < 0.03
    assert elapsed < 10.0
    per_axis = ct.certify(3, (0.16, 0.2, 0.25))
    full = ct.certify(3, (0.16, 0.2, 0.25), mode="full")
    assert per_axis.delta_bk == full.delta_bk
    report(1, f"certificate {cert.delta_bk:.4f} m < 0.03 m in {elapsed:.2f} s; "
              "k=3 per-axis equals full enumeration exactly")


def test_criterion_2_aggregated_graph_size_law():
    grid = 51 * 51 * 5
    expected = [13_005, 351_135, 9_480_645, 255_977_415]
    got = [se.estimated_nodes(grid, d) for d in (1, 2, 3, 4)]
    assert got == expected
    report(2, f"node-count law |V|*27^(d-1) reproduces {expected}")


def test_criterion_3_search_optimality_oracle():
    rng = np.random.default_rng(2024)
    wide = sp.DerivativeBounds.symmetric(50.0, 500.0)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 200:
        attempts += 1
        occ = rng.random((6, 6, 1)) < 0.2
        w = wd.VoxelWorld(np.array([6, 6, 1]), np.full(3, 0.5), np.zeros(3),
                          occ)
        cs = wd.build_config_space(w, 0.0)
        free = np.argwhere(~cs.occ_inflated)
        if free.shape[0] < 4:
            continue
        s_cell, g_cell = free[rng.choice(free.shape[0], 2, replace=False)]
        if not wd.reachable_mask(cs, s_cell)[tuple(g_cell)]:
            continue
        start = se.static_tuple(s_cell, 3, w)
        goal = se.static_tuple(g_cell, 3, w)
        lam = float(rng.uniform(5.0, 30.0))
        dt = float(rng.uniform(0.2, 0.4))
        graph, s0 = oracles.build_tuple_graph(start.cells, cs, wide, dt, lam, 2)
        goal_codes = tuple(int(c) for c in se.cell_code(goal.cells, w.dims))
        start_cost = se.tuple_cost(start, lam, 2, dt)
        for d in (1, 2):
            ref_cost, _ = oracles.aggregated_dijkstra(graph, s0, start_cost,
                                                      goal_codes, d)
            costs = {}
            for use_h in (True, False):
                q = se.SearchQuery(start=start, goal=goal, dt=dt, lam=lam,
                                   order=2, bounds=wide, d=d,
                                   use_heuristic=use_h,
                                   max_expansions=10**6, max_wall_ms=60000)
                res = se.search(q, cs)
                assert res.ok and ref_cost is not None
                costs[use_h] = res.cost
                assert abs(res.cost - ref_cost) <= 1e-9
            assert costs[True] == costs[False]
        checked += 1
    assert checked >= 50
    report(3, f"search equals the aggregated-graph Dijkstra oracle on "
              f"{checked} random worlds (d=1,2), heuristic on/off identical")


def _field51():
    """Goal-sweep field: 51x51x5 grid with a block and two pillars."""
    cells = (0.2, 0.2, 0.4)
    w = wd.generate(wd.MapGenSpec(kind="empty", extent=(10.2, 10.2, 2.0),
                                  cell_sizes=cells))
    w = wd.add_box(w, (4.4, 3.6, 0.0), (5.6, 6.6, 2.0))
    w = wd.add_box(w, (3.0, 8.0, 0.0), (3.5, 8.5, 2.0))
    w = wd.add_box(w, (7.0, 2.0, 0.0), (7.5, 2.5, 2.0))
    cert = ct.certify(5, cells)
    contract = el.InflationContract.default(cells, cert.delta_bk)
    return w, contract


def test_criterion_4_realtime_goal_sweep():
    w, contract = _field51()
    assert tuple(w.dims) == (51, 51, 5)
    cs_bk = wd.build_config_space(w, contract.delta_bk)
    cs_el = wd.build_config_space(w, contract.delta_elas)
    bounds = sp.DerivativeBounds.symmetric(2.0, 4.7)
    dt, lam, order = 0.17, 20.0, 2
    start = se.snap_tuple(
        se.state_reference_points((1.2, 5.1, 1.0), (1.2, 0.0, 0.0), 5, dt),
        w, dt, cs_bk, bounds)
    assert start is not None

    # reachable = goal keys the aggregated search is complete over
    reach_codes = se.explore_reachable(start, cs_bk, bounds, dt, lam, order)
    goals = []
    for gx in np.arange(0.7, 10.0, 0.7):
        for gy in np.arange(0.7, 10.0, 0.7):
            cell = w.point_to_cell((gx, gy, 1.0))
            if not (w.in_bounds(cell) and cs_bk.is_free(cell)):
                continue
            code = int(se.cell_code(np.asarray(cell), w.dims))
            if code in reach_codes:
                goals.append(tuple(int(v) for v in cell))
    assert len(goals) >= 40

    # one throwaway query so every code path is warm before timing
    se.search(se.SearchQuery(start=start, goal=se.static_tuple(goals[0], 5, w),
                             dt=dt, lam=lam, order=order, bounds=bounds, d=1),
              cs_bk)

    def completed_cost(res, g):
        """Total placement cost with the tail extended to rest at the goal.

        Different aggregation levels stop matching at different suffixes;
        completing both to the identical static state makes their costs
        comparable.
        """
        cells_seq = list(map(tuple, res.cells.tolist()))
        gg = tuple(int(v) for v in g)
        while cells_seq[-6:] != [gg] * 6:
            cells_seq.append(gg)
        pos = w.cell_center(np.array(cells_seq))
        return sum(lam * dt + sp.span_cost(pos[j:j + 6], order, dt)
                   for j in range(pos.shape[0] - 5))

    ok = 0
    walls = []
    monotone_checked = 0
    for g in goals:
        gt = se.static_tuple(g, 5, w)
        r1 = se.search(se.SearchQuery(start=start, goal=gt, dt=dt, lam=lam,
                                      order=order, bounds=bounds, d=1,
                                      max_wall_ms=500.0), cs_bk)
        if not r1.ok:
            continue
        walls.append(r1.wall_time)
        spline1 = sp.SplineDef(k=5, dt=dt, points=r1.positions)
        assert spline_clear_and_feasible(spline1, w, bounds)
        r2 = se.search(se.SearchQuery(start=start, goal=gt, dt=dt, lam=lam,
                                      order=order, bounds=bounds, d=2,
                                      max_wall_ms=6000.0,
                                      max_expansions=500_000), cs_bk)
        if r2.ok:
            c1 = completed_cost(r1, g)
            c2 = completed_cost(r2, g)
            assert c2 <= c1 + 1e-9 * (1 + c1)
            monotone_checked += 1
        ok += 1
    frac = ok / len(goals)
    walls = np.array(walls)
    assert frac >= 0.95
    assert walls.max() < 0.1
    assert monotone_checked >= 0.8 * len(goals)
    report(4, f"{ok}/{len(goals)} reachable goals planned, worst query "
              f"{walls.max() * 1e3:.0f} ms < 100 ms, stop-completed "
              f"cost(d=2) <= cost(d=1) on all {monotone_checked} dual runs")


SUITE_CELLS = (0.25,) * 3
SUITE_DT = 0.3
SUITE_LAM = 50.0


def _suite_world(density, seed):
    w = wd.generate(wd.MapGenSpec(kind="pillars", extent=(20, 20, 4),
                                  cell_sizes=SUITE_CELLS, density=density,
                                  seed=seed))
    cert = ct.certify(5, SUITE_CELLS)
    contract = el.InflationContract.default(SUITE_CELLS, cert.delta_bk)
    return w, contract


def _suite_goals(w, cs_bk, start_cell, limit=135):
    reach = wd.reachable_mask(cs_bk, start_cell)
    goals = []
    for gx in np.arange(1.0, 19.5, 1.0):
        for gy in np.arange(1.0, 19.5, 1.0):
            c = w.point_to_cell((gx, gy, 2.0))
            if cs_bk.is_free(c) and reach[tuple(c)]:
                goals.append(tuple(int(v) for v in c))
    return goals[:limit]


def test_criterion_5_and_6_refinement_reliability_and_monotonicity():
    bounds = sp.DerivativeBounds.symmetric(2.0, 4.7)
    summary = []
    for density, seed in ((0.1, 7), (0.2, 11), (0.4, 17)):
        w, contract = _suite_world(density, seed)
        cs_bk = wd.build_config_space(w, contract.delta_bk)
        cs_el = wd.build_config_space(w, contract.delta_elas)
        start = se.static_tuple((6, 6, 8), 5, w)
        goals = _suite_goals(w, cs_bk, (6, 6, 8))
        assert len(goals) == 135
        n_ok = 0
        eo_times = []
        for g in goals:
            gt = se.static_tuple(g, 5, w)
            r = se.search(se.SearchQuery(start=start, goal=gt, dt=SUITE_DT,
                                         lam=SUITE_LAM, order=3,
                                         bounds=bounds, d=1,
                                         max_wall_ms=10000,
                                         max_expansions=10**6), cs_bk)
            if not r.ok:
                continue
            res = el.refine_adaptive(r.positions[6:-1], r.positions[:6],
                                     gt.positions, cs_el, w, contract,
                                     bounds, 3, SUITE_DT, solver_tol=5e-6,
                                     solver_max_iter=8000)
            eo_times.append(res.expand_time + res.solve_time)
            if not res.ok:
                continue
            # criterion 6: the refined cost never exceeds the placement's
            assert res.cost <= res.initial_cost + 1e-9 * (1 + res.initial_cost)
            if spline_clear_and_feasible(res.spline, w, bounds, step=0.03):
                n_ok += 1
        mean_eo = float(np.mean(eo_times))
        assert n_ok == len(goals), f"density {density}: {n_ok}/{len(goals)}"
        assert mean_eo < 0.1, f"density {density}: mean EO {mean_eo:.3f} s"
        summary.append(f"{density}: 135/135, EO {mean_eo * 1e3:.0f} ms")
    report(5, "success fraction 100% at densities 0.1/0.2/0.4; mean tube+"
              "solve per call " + "; ".join(summary))
    report(6, "refined cost <= initial placement cost on every suite instance")


def test_criterion_6_qcqp_projected_gradient_oracle():
    rng = np.random.default_rng(99)
    for i in range(100):
        n_pts = 6
        n = 3 * n_pts
        B = rng.normal(size=(n, n))
        H = B.T @ B / n + 0.25 * np.eye(n)
        g = rng.normal(size=n)
        balls = tuple(
            qcqp.BallConstraint(j, rng.normal(size=3) * 0.3,
                                0.4 + 0.3 * rng.random())
            for j in range(n_pts))
        H_band = np.array([np.pad(np.diagonal(H, -d), (0, d))
                           for d in range(n)])
        prob = qcqp.QcqpProblem(H_band=H_band, g=g, balls=balls)
        sol = qcqp.solve(prob, tol=1e-9)
        assert sol.status == "optimal"
        xo = oracles.projected_gradient(prob)
        fo = prob.objective(xo)
        assert abs(sol.objective - fo) <= 1e-5 * (1 + abs(fo)), i
    report(6, "100 random QCQP instances match the projected-gradient "
              "oracle within 1e-5 relative objective")


def _corner_world():
    cell = 0.25
    occ = np.zeros((40, 40, 6), dtype=bool)
    occ[0:24, 0:24, :] = True
    w = wd.VoxelWorld(np.array([40, 40, 6]), np.full(3, cell), np.zeros(3),
                      occ)
    cert = ct.certify(3, (cell,) * 3)
    contract = el.InflationContract.default((cell,) * 3, cert.delta_bk)
    return w, contract


def test_criterion_7_shrinking_loop_termination():
    # corner fixture: a route hugging a block corner needs insertions
    w, contract = _corner_world()
    cs = wd.build_config_space(w, contract.delta_elas)
    cells = [(10, 26, 3), (14, 26, 3), (18, 26, 3), (22, 26, 3), (25, 25, 3),
             (26, 22, 3), (26, 18, 3), (26, 14, 3), (26, 10, 3)]
    pts = w.cell_center(np.array(cells))
    wide = sp.DerivativeBounds.symmetric(5.0, 30.0)
    res = el.refine(pts[1:-1], np.tile(pts[0], (4, 1)),
                    np.tile(pts[-1], (4, 1)), cs, w, contract, wide, 2, 0.5)
    assert res.status == "safe"
    assert 1 <= res.inserted <= 9
    assert spline_clear_and_feasible(res.spline, w, wide, step=0.01)

    # straight run in the open: no insertions at all
    w2 = wd.VoxelWorld(np.array([40, 40, 40]), np.full(3, 0.25), np.zeros(3),
                       np.zeros((40, 40, 40), dtype=bool))
    cert = ct.certify(5, (0.25,) * 3)
    contract2 = el.InflationContract.default((0.25,) * 3, cert.delta_bk)
    cs2 = wd.build_config_space(w2, contract2.delta_elas)
    line = w2.cell_center(np.array([[6 + i, 20, 20] for i in range(14)]))
    bounds = sp.DerivativeBounds.symmetric(2.0, 4.7)
    res2 = el.refine(line[6:-1], line[:6], np.tile(line[-1], (6, 1)), cs2,
                     w2, contract2, bounds, 3, 0.25)
    assert res2.status == "safe" and res2.inserted == 0

    # unreachable bounds: the loop reports infeasible, never spins
    frozen = sp.DerivativeBounds.symmetric(1e-6, 1e-6)
    res3 = el.refine(line[6:-1], line[:6], np.tile(line[-1], (6, 1)), cs2,
                     w2, contract2, frozen, 3, 0.25)
    assert res3.status == "infeasible"

    # random pillar fixtures always terminate with a decisive status and
    # within the per-span insertion cap
    rng = np.random.default_rng(5)
    for seed in (3, 4):
        wp = wd.generate(wd.MapGenSpec(kind="pillars", extent=(15, 15, 4),
                                       cell_sizes=(0.25,) * 3, density=0.25,
                                       seed=seed))
        cs_bk = wd.build_config_space(wp, contract2.delta_bk)
        cs_elp = wd.build_config_space(wp, contract2.delta_elas)
        free = np.argwhere(~cs_bk.occ_inflated)
        s_cell = free[rng.integers(len(free))]
        g_cell = free[rng.integers(len(free))]
        if not wd.reachable_mask(cs_bk, s_cell)[tuple(g_cell)]:
            continue
        start = se.static_tuple(s_cell, 5, wp)
        goal = se.static_tuple(g_cell, 5, wp)
        r = se.search(se.SearchQuery(start=start, goal=goal, dt=SUITE_DT,
                                     lam=SUITE_LAM, order=3, bounds=bounds,
                                     d=1, max_wall_ms=10000,
                                     max_expansions=10**6), cs_bk)
        if not r.ok:
            continue
        resp = el.refine(r.positions[6:-1], r.positions[:6], goal.positions,
                         cs_elp, wp, contract2, bounds, 3, SUITE_DT)
        assert resp.status in ("safe", "infeasible")
        n_spans = r.positions.shape[0] - 5 + resp.inserted
        assert resp.inserted <= 25 * n_spans
    report(7, f"corner fixture resolved with {res.inserted} insertion(s) "
              "(<= 9); loop always ends safe or infeasible within the cap")


def test_criterion_8_local_control_and_seam_continuity():
    rng = np.random.default_rng(12)
    us = np.linspace(0.0, 1.0, 100)
    for _ in range(1000):
        n = rng.integers(18, 32)
        cps = np.cumsum(rng.uniform(-0.2, 0.25, size=(n, 3)), axis=0)
        win = rp.PlanWindow(5, 0.17, cps)
        win.clock = rng.uniform(0.0, (n - 14) * 0.17)
        j = win.exec_span
        before = sp.eval_span_many(win.cps[j:j + 6], us, 0, 0.17)
        before_v = sp.eval_span_many(win.cps[j:j + 6], us, 1, 0.17)
        seam = j + 2
        tail = np.vstack([win.cps[seam:seam + 6],
                          rng.normal(scale=0.5, size=(rng.integers(4, 9), 3))])
        win.splice(seam, tail)
        after = sp.eval_span_many(win.cps[j:j + 6], us, 0, 0.17)
        after_v = sp.eval_span_many(win.cps[j:j + 6], us, 1, 0.17)
        assert np.abs(after - before).max() <= 1e-12
        assert np.abs(after_v - before_v).max() <= 1e-12
        # seam continuity to order k-1 across every boundary after splice
        for b in range(seam, min(seam + 3, win.n_spans - 1)):
            for l in range(5):
                left = sp.eval_span(win.cps[b:b + 6], 1.0, l, 0.17)
                right = sp.eval_span(win.cps[b + 1:b + 7], 0.0, l, 0.17)
                assert np.abs(left - right).max() < 1e-9
    report(8, "1000 random splices leave executing-span samples "
              "bit-identical; seam derivatives continuous to order k-1")


def test_criterion_9_ablation_ordering():
    w = wd.bench_course(cell=0.2, seed=9)
    cert = ct.certify(5, (0.2,) * 3)
    contract = el.InflationContract.default((0.2,) * 3, cert.delta_bk)
    bounds = sp.DerivativeBounds.symmetric(2.0, 4.7)
    jerk = {}
    cycle = {}
    for planner in ("tuple", "astar"):
        settings = rp.ReplanSettings(
            k=5, dt=0.17, lam=20.0, order=3, bounds=bounds, contract=contract,
            mode="passive", planner=planner, search_wall_ms=60000.0,
            search_expansions=2600, solver_max_iter=6000)
        sim = rp.Replanner(w, (1.0, 5.0, 1.2), (19.0, 5.0, 1.2), settings)
        traj = sim.run(max_time=180.0)
        assert sim.goal_reached, planner
        hit = collision_scan(np.ascontiguousarray(traj[:, 1:4]), free_occf(w),
                             w.dims, w.origin, w.cell_sizes)
        assert hit < 0, planner
        jerk[planner] = sim.executed_spline().cost(3)
        cycle[planner] = float(np.mean(sim.search_time)
                               + np.mean(sim.opt_time)
                               + np.mean(sim.tube_time))
    assert jerk["tuple"] <= jerk["astar"]
    assert cycle["tuple"] < 0.1 and cycle["astar"] < 0.1
    report(9, f"jerk {jerk['tuple']:.1f} (kinodynamic) <= "
              f"{jerk['astar']:.1f} (position-only); replan cycles "
              f"{cycle['tuple'] * 1e3:.0f} / {cycle['astar'] * 1e3:.0f} ms")


def test_criterion_10_numerical_kernel_properties():
    rng = np.random.default_rng(7)
    n_spans = 10_000
    dt = 0.17
    tab = sp.blending_tables(5)
    us = np.linspace(0.0, 1.0, 401)
    B = np.vander(us, 6, increasing=True) @ tab.M
    h = 1e-4
    for i in range(n_spans):
        P = rng.normal(scale=rng.uniform(0.2, 2.0), size=(6, 3))
        pos = B @ P
        # convex hull membership (axis-aligned bound of the hull)
        assert np.all(pos >= P.min(axis=0) - 1e-9)
        assert np.all(pos <= P.max(axis=0) + 1e-9)
        # sufficiency of the derivative-span bound
        for l in (1, 2):
            rows = tab.bound_transform(l, dt) @ P
            vals = sp.eval_span_many(P, us, l, dt)
            assert np.all(vals >= rows.min(axis=0) - 1e-9)
            assert np.all(vals <= rows.max(axis=0) + 1e-9)
        # extrema against dense sampling
        ex = sp.span_extrema(P, 1, dt)
        vals = sp.eval_span_many(P, us, 1, dt)
        assert np.all(ex[:, 0] <= vals.min(axis=0) + 1e-6)
        assert np.all(ex[:, 1] >= vals.max(axis=0) - 1e-6)
        if i % 10 == 0:
            ref = oracles.sampled_extrema(P, 1, dt, n=50001)
            assert np.abs(ex - ref).max() < 1e-6
        # cost against quadrature
        l = int(rng.integers(1, 4))
        c = sp.span_cost(P, l, dt)
        q = oracles.quadrature_span_cost(P, l, dt)
        assert abs(c - q) <= 1e-6 * (1 + abs(q))
        # derivative against central finite differences
        u = float(rng.uniform(0.05, 0.95))
        l = int(rng.integers(1, 4))
        v = sp.eval_span(P, u, l, dt)
        fd = (sp.eval_span(P, u + h, l - 1, dt)
              - sp.eval_span(P, u - h, l - 1, dt)) / (2 * h * dt)
        assert np.abs(v - fd).max() <= 1e-5 * (1 + np.abs(v).max())
    report(10, f"hull membership, bound sufficiency, extrema (1e-6), "
               f"cost-vs-quadrature (1e-6 rel) and derivative-vs-FD "
               f"(1e-5 rel) held on {n_spans} random spans")
