import numpy as np
import pytest

from kinospline import search as se
from kinospline import splines as sp
from kinospline import world as wd

import oracles

BOUNDS = sp.DerivativeBounds.symmetric(2.0, 4.7)
WIDE = sp.DerivativeBounds.symmetric(50.0, 500.0)


def empty_world(dims=(9, 9, 1), cell=0.2):
    return wd.VoxelWorld(np.array(dims), np.full(3, cell), np.zeros(3),
                         np.zeros(dims, dtype=bool))


def plane_world(rng, dims=(6, 6, 1), frac=0.2, cell=0.5):
    occ = rng.random(dims) < frac
    return wd.VoxelWorld(np.array(dims), np.full(3, cell), np.zeros(3), occ)


class TestIndexing:
    def test_full_key_search_on_criterion4_grid(self):
        # a d = k+1 key is the tuple of all six cell codes: on the 51x51x5
        # grid it would not fit a 64-bit packed integer, and the search
        # must still run, the same as on a grid small enough for one
        def run(dims):
            w = empty_world(dims)
            q = se.SearchQuery(start=se.static_tuple((2, 2, 2), 5, w),
                               goal=se.static_tuple((5, 2, 2), 5, w),
                               dt=0.17, lam=20.0, order=2, bounds=BOUNDS,
                               d=6, region=((1, 2, 2), (6, 2, 2)))
            return se.search(q, wd.build_config_space(w, 0.0))

        big, small = run((51, 51, 5)), run((8, 5, 5))
        assert big.status == "success"
        assert (big.cost, big.expanded) == (small.cost, small.expanded)
        assert np.array_equal(big.cells, small.cells)

    def test_estimated_nodes_growth(self):
        assert se.estimated_nodes(100, 1) == 100
        assert se.estimated_nodes(100, 3) == 100 * 729


class TestTupleCost:
    def test_static_cost_is_time_term(self):
        w = empty_world()
        t = se.static_tuple((4, 4, 0), 5, w)
        assert se.tuple_cost(t, 20.0, 2, 0.17) == pytest.approx(3.4, abs=1e-9)

    def test_collinear_acceleration_cost_is_time_term(self):
        w = empty_world()
        cells = np.array([[i, 4, 0] for i in range(6)])
        t = se.VertexTuple.from_cells(cells, w)
        assert se.tuple_cost(t, 20.0, 2, 0.17) == pytest.approx(3.4, abs=1e-9)

    def test_random_tuple_matches_quadrature(self):
        rng = np.random.default_rng(1)
        w = empty_world((12, 12, 1))
        for _ in range(10):
            cells = [np.array([5, 5, 0])]
            for _ in range(5):
                nxt = np.clip(cells[-1] + rng.integers(-1, 2, 3) * [1, 1, 0],
                              0, 11)
                cells.append(nxt)
            t = se.VertexTuple.from_cells(np.array(cells), w)
            c = se.tuple_cost(t, 20.0, 2, 0.17)
            q = 3.4 + oracles.quadrature_span_cost(t.positions, 2, 0.17)
            assert c == pytest.approx(q, rel=1e-6)

    def test_strictly_positive(self):
        w = empty_world()
        t = se.static_tuple((0, 0, 0), 5, w)
        assert se.tuple_cost(t, 20.0, 3, 0.17) > 0

    @pytest.mark.parametrize("k", [3, 5])
    def test_cost_table_matches_quadrature(self, k):
        for l in (1, 2, 3):
            tab = se.patterns.cost_table(k, l, 0.17, 0.25)
            for steps in oracles.all_axis_patterns(k):
                P = np.zeros((k + 1, 3))
                P[1:, 0] = np.cumsum(steps) * 0.25
                q = oracles.quadrature_span_cost(P, l, 0.17)
                cells = np.zeros((k + 1, 3), dtype=np.int64)
                cells[1:, 0] = np.cumsum(steps)
                code = se.VertexTuple(cells, P).patterns[0]
                assert tab[code] == pytest.approx(q, rel=1e-12)


class TestFeasibleSuccs:
    def test_open_space_all_27(self):
        w = empty_world((9, 9, 9))
        cs = wd.build_config_space(w, 0.0)
        t = se.static_tuple((4, 4, 4), 5, w)
        succs = se.feasible_succs(t, cs, BOUNDS, 0.17)
        assert len(succs) == 27

    def test_corner_clipping(self):
        w = empty_world((9, 9, 9))
        cs = wd.build_config_space(w, 0.0)
        t = se.static_tuple((0, 0, 0), 5, w)
        succs = se.feasible_succs(t, cs, WIDE, 0.17)
        assert len(succs) == 8  # 2x2x2 block including the self step

    def test_full_speed_reversal_infeasible(self):
        # one cell per knot rides just under vmax
        w = empty_world((20, 9, 1), cell=0.33)
        cs = wd.build_config_space(w, 0.0)
        cells = np.array([[3 + i, 4, 0] for i in range(6)])
        t = se.VertexTuple.from_cells(cells, w)
        succs = se.feasible_succs(t, cs, BOUNDS, 0.17)
        ends = {tuple(int(v) for v in s.cells[-1]) for s in succs}
        assert (9, 4, 0) in ends  # continuing straight stays in bounds
        # one backward step smooths out, but continuing the reversal does
        # not: the second step of the turnaround breaks the bound
        t2 = se.VertexTuple.from_cells(np.vstack([cells[1:], [7, 4, 0]]), w)
        succs2 = se.feasible_succs(t2, cs, BOUNDS, 0.17)
        ends2 = {tuple(int(v) for v in s.cells[-1]) for s in succs2}
        assert (6, 4, 0) not in ends2
        bad = np.vstack([cells[2:], [7, 4, 0], [6, 4, 0]])
        P = w.cell_center(bad)
        acc = oracles.sampled_extrema(P, 2, 0.17, n=50001)
        assert np.abs(acc).max() > 4.7

    @pytest.mark.parametrize("k", [3, 5])
    def test_tables_match_direct_scan(self, k):
        # successor sets from the step-pattern tables equal the direct span
        # evaluation exactly on random tuples, node costs to roundoff
        rng = np.random.default_rng(k)
        dims = np.array([16, 16, 16])
        w = wd.VoxelWorld(dims, np.array([0.2, 0.25, 0.4]),
                          np.array([-1.3, 0.7, 2.1]),
                          rng.random(tuple(dims)) < 0.15)
        cs = wd.build_config_space(w, 0.0)
        tab = sp.blending_tables(k)
        for _ in range(150):
            cells = [rng.integers(k + 1, 16 - k - 1, 3)]
            for _ in range(k):
                cells.append(cells[-1] + rng.integers(-1, 2, 3))
            cells = np.array(cells)
            dt = float(rng.uniform(0.12, 0.4))
            lam = float(rng.uniform(1.0, 40.0))
            l = int(rng.integers(1, 3))
            mask, costs, ncells = oracles._scan27(
                w.cell_center(cells), cells[-1], cs, BOUNDS, dt, lam, l, tab)
            expand = se._Expander(cs, BOUNDS, dt, lam, l, k)
            full = tuple(int(c) for c in se.cell_code(cells, w.dims))
            got = expand(full, se.VertexTuple.from_cells(cells, w).patterns)
            ref = [(int(se.cell_code(ncells[i], w.dims)), float(costs[i]))
                   for i in range(27) if mask[i]]
            assert [c for c, _, _, _ in got] == [c for c, _ in ref]
            for (_, v, _, _), (_, r) in zip(got, ref):
                assert v == pytest.approx(r, rel=1e-12)

    def test_shifted_tuple_costs_bit_identical(self):
        # a tuple and its translate by whole cells get the same successor
        # costs to the bit, with a non-zero origin and unequal cell sizes
        rng = np.random.default_rng(7)
        dims = np.array([40, 40, 40])
        w = wd.VoxelWorld(dims, np.array([0.2, 0.25, 0.4]),
                          np.array([-1.3, 0.7, 2.1]),
                          np.zeros(tuple(dims), dtype=bool))
        cs = wd.build_config_space(w, 0.0)
        expand = se._Expander(cs, WIDE, 0.17, 20.0, 2, 5)
        for _ in range(200):
            cells = [rng.integers(6, 14, 3)]
            for _ in range(5):
                cells.append(cells[-1] + rng.integers(-1, 2, 3))
            cells = np.array(cells)
            moved = cells + rng.integers(0, 20, 3)
            pats = se.VertexTuple.from_cells(cells, w).patterns
            a = expand(tuple(int(c) for c in se.cell_code(cells, dims)), pats)
            b = expand(tuple(int(c) for c in se.cell_code(moved, dims)), pats)
            assert [v for _, v, _, _ in a] == [v for _, v, _, _ in b]
            assert len(a) == 27

    def test_non_unit_step_start_rejected(self):
        # the pattern tables cannot expand a tuple whose steps leave
        # {-1, 0, 1}, so no constructor builds one
        w = empty_world((14, 9, 1), cell=0.2)
        cells = np.array([[2, 4, 0], [2, 4, 0], [4, 4, 0], [4, 4, 0]])
        with pytest.raises(ValueError, match="step"):
            se.VertexTuple(cells, w.cell_center(cells))
        with pytest.raises(ValueError, match="step"):
            se.VertexTuple.from_cells(cells, w)

    def test_stored_patterns_equal_axis_encoding(self):
        # the patterns a tuple stores are sum_i (step_i + 1) * 3^i of its
        # steps along each axis, whichever way the tuple was built
        rng = np.random.default_rng(11)
        w = empty_world((20, 20, 20))

        def encoding(cells):
            steps = np.diff(cells, axis=0)
            return tuple(sum((int(s) + 1) * 3 ** i
                             for i, s in enumerate(steps[:, a]))
                         for a in range(3))

        for k in (2, 3, 5):
            for _ in range(40):
                cells = [rng.integers(k + 1, 19 - k, 3)]
                for _ in range(k):
                    cells.append(cells[-1] + rng.integers(-1, 2, 3))
                t = se.VertexTuple.from_cells(np.array(cells), w)
                assert t.patterns == encoding(t.cells)
                refs = w.cell_center(t.cells) + rng.uniform(-0.09, 0.09,
                                                            (k + 1, 3))
                snapped = se.snap_tuple(refs, w, 0.17)
                assert snapped.patterns == encoding(snapped.cells)
            st = se.static_tuple(cells[0], k, w)
            assert st.patterns == encoding(st.cells) == (3 ** k // 2,) * 3

    def test_deterministic_order(self):
        w = empty_world((9, 9, 9))
        cs = wd.build_config_space(w, 0.0)
        t = se.static_tuple((4, 4, 4), 5, w)
        a = [tuple(s.cells[-1]) for s in se.feasible_succs(t, cs, BOUNDS, 0.17)]
        b = [tuple(s.cells[-1]) for s in se.feasible_succs(t, cs, BOUNDS, 0.17)]
        assert a == b
        assert a == sorted(a)  # lexicographic offset order


class TestHeuristic:
    def test_zero_at_goal(self):
        w = empty_world()
        g = se.static_tuple((4, 4, 0), 5, w)
        assert se.heuristic(g, g, 20.0, 0.17) == 0.0

    def test_admissible_against_dijkstra(self):
        w = empty_world()
        cs = wd.build_config_space(w, 0.0)
        start = se.static_tuple((2, 2, 0), 5, w)
        goal = se.static_tuple((7, 2, 0), 5, w)  # five cells apart
        h = se.heuristic(start, goal, 20.0, 0.17)
        res = se.search(se.SearchQuery(start=start, goal=goal, dt=0.17,
                                       lam=20.0, order=2, bounds=BOUNDS, d=1,
                                       use_heuristic=False), cs)
        # remaining cost after the start tuple's own cost
        assert h <= res.cost - se.tuple_cost(start, 20.0, 2, 0.17) + 1e-9


class TestSearch:
    def test_start_equals_goal(self):
        w = empty_world()
        cs = wd.build_config_space(w, 0.0)
        t = se.static_tuple((4, 4, 0), 5, w)
        r = se.search(se.SearchQuery(start=t, goal=t, dt=0.17, lam=20.0,
                                     order=2, bounds=BOUNDS, d=1), cs)
        assert r.ok
        assert r.cost == pytest.approx(se.tuple_cost(t, 20.0, 2, 0.17))
        assert r.free_slice(5).shape[0] == 0

    def test_heuristic_on_off_equal_cost(self):
        w = empty_world()
        cs = wd.build_config_space(w, 0.0)
        start = se.static_tuple((2, 2, 0), 5, w)
        goal = se.static_tuple((6, 6, 0), 5, w)
        costs = {}
        for use_h in (True, False):
            q = se.SearchQuery(start=start, goal=goal, dt=0.17, lam=20.0,
                               order=2, bounds=BOUNDS, d=1, use_heuristic=use_h)
            costs[use_h] = se.search(q, cs).cost
        assert costs[True] == costs[False]

    def test_result_spans_feasible_and_free(self):
        rng = np.random.default_rng(2)
        w = plane_world(rng, frac=0.15)
        cs = wd.build_config_space(w, 0.0)
        start = se.static_tuple((0, 0, 0), 3, w)
        goal = se.static_tuple((5, 5, 0), 3, w)
        if not (cs.is_free((0, 0, 0)) and cs.is_free((5, 5, 0))):
            pytest.skip("occupied endpoints in fixture")
        r = se.search(se.SearchQuery(start=start, goal=goal, dt=0.3, lam=10.0,
                                     order=2, bounds=WIDE, d=1), cs)
        if not r.ok:
            pytest.skip("no path in fixture")
        for j in range(r.cells.shape[0] - 3):
            P = w.cell_center(r.cells[j:j + 4])
            assert sp.check_feasible(P, WIDE, 0.3)
            assert np.all(cs.cells_free(r.cells[j:j + 4]))

    def test_budget_exceeded_status(self):
        w = empty_world((30, 30, 1))
        cs = wd.build_config_space(w, 0.0)
        start = se.static_tuple((1, 1, 0), 5, w)
        goal = se.static_tuple((28, 28, 0), 5, w)
        q = se.SearchQuery(start=start, goal=goal, dt=0.17, lam=20.0, order=2,
                           bounds=BOUNDS, d=1, max_expansions=10)
        assert se.search(q, cs).status == "budget-exceeded"

    @staticmethod
    def _open_query(**budgets):
        w = empty_world((30, 30, 1))
        q = se.SearchQuery(start=se.static_tuple((1, 1, 0), 5, w),
                           goal=se.static_tuple((28, 28, 0), 5, w), dt=0.17,
                           lam=20.0, order=2, bounds=BOUNDS, d=1, **budgets)
        return q, wd.build_config_space(w, 0.0)

    def test_result_names_the_budget_that_ended_it(self):
        q, cs = self._open_query(max_expansions=1)
        r = se.search(q, cs)
        assert (r.status, r.budget) == ("budget-exceeded", "expansions")
        q, cs = self._open_query(max_wall_ms=1e-6)
        r = se.search(q, cs)
        assert (r.status, r.budget) == ("budget-exceeded", "wall")
        q, cs = self._open_query()
        r = se.search(q, cs)
        assert (r.status, r.budget) == ("success", None)

    def test_partial_result_keeps_its_budget(self):
        q, cs = self._open_query(max_expansions=5)
        r = se.search(q, cs, best_effort=True)
        assert (r.status, r.budget) == ("partial", "expansions")
        q, cs = self._open_query(max_wall_ms=1e-6)
        r = se.search(q, cs, best_effort=True)
        assert r.budget == "wall"

    def test_no_path_status_and_best_effort(self):
        occ = np.zeros((9, 9, 1), dtype=bool)
        occ[4, :, 0] = True
        w = wd.VoxelWorld(np.array([9, 9, 1]), np.full(3, 0.2), np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.0)
        start = se.static_tuple((1, 4, 0), 5, w)
        goal = se.static_tuple((7, 4, 0), 5, w)
        q = se.SearchQuery(start=start, goal=goal, dt=0.17, lam=20.0, order=2,
                           bounds=BOUNDS, d=1)
        assert se.search(q, cs).status == "no-path"
        r = se.search(q, cs, best_effort=True)
        assert r.status == "partial"
        assert r.budget is None  # the open set ran dry
        assert r.cells[-1][0] == 3  # right against the wall

    def test_occupied_endpoint_rejected(self):
        occ = np.zeros((9, 9, 1), dtype=bool)
        occ[4, 4, 0] = True
        w = wd.VoxelWorld(np.array([9, 9, 1]), np.full(3, 0.2), np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.0)
        t = se.static_tuple((4, 4, 0), 5, w)
        g = se.static_tuple((6, 6, 0), 5, w)
        with pytest.raises(ValueError):
            se.search(se.SearchQuery(start=t, goal=g, dt=0.17, lam=20.0,
                                     order=2, bounds=BOUNDS, d=1), cs)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        w = plane_world(rng, dims=(8, 8, 1), frac=0.1, cell=0.4)
        cs = wd.build_config_space(w, 0.0)
        free = np.argwhere(~cs.occ_inflated)
        start = se.static_tuple(free[0], 3, w)
        goal = se.static_tuple(free[-1], 3, w)
        q = se.SearchQuery(start=start, goal=goal, dt=0.3, lam=10.0, order=2,
                           bounds=WIDE, d=2)
        r1 = se.search(q, cs)
        r2 = se.search(q, cs)
        assert r1.cost == r2.cost
        assert np.array_equal(r1.cells, r2.cells)

    def test_region_crop_restricts_growth(self):
        w = empty_world((30, 30, 1))
        cs = wd.build_config_space(w, 0.0)
        start = se.static_tuple((10, 10, 0), 5, w)
        goal = se.static_tuple((14, 14, 0), 5, w)
        base = se.SearchQuery(start=start, goal=goal, dt=0.17, lam=20.0,
                              order=2, bounds=BOUNDS, d=1, use_heuristic=False)
        r_all = se.search(base, cs)
        crop = se.SearchQuery(start=start, goal=goal, dt=0.17, lam=20.0,
                              order=2, bounds=BOUNDS, d=1, use_heuristic=False,
                              region=((8, 8, 0), (16, 16, 0)))
        r_crop = se.search(crop, cs)
        assert r_crop.ok and r_crop.expanded < r_all.expanded
        for c in r_crop.cells:
            assert np.all(c >= (8, 8, 0)) and np.all(c <= (16, 16, 0))


    def test_query_work_does_not_scale_with_grid(self):
        # a 10-cell search on a 2.7M-cell grid allocates what its nodes
        # need, nothing per grid cell (the pattern tables are cached by a
        # search on a small grid with the same configuration)
        import tracemalloc

        def query(dims):
            w = empty_world(dims)
            c = np.array(dims) // 2
            return se.SearchQuery(
                start=se.static_tuple(c, 5, w),
                goal=se.static_tuple(c + (10, 0, 0), 5, w), dt=0.17,
                lam=20.0, order=2, bounds=BOUNDS), wd.build_config_space(w, 0.0)

        small = se.search(*query((30, 30, 30)))
        q, cs = query((300, 300, 30))
        tracemalloc.start()
        try:
            res = se.search(q, cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok and res.expanded == small.expanded
        assert peak < 1_000_000

    def test_query_builds_feasibility_tables_once(self, monkeypatch):
        # one search validates its endpoints and expands its nodes from the
        # same per-axis feasibility tables
        w = empty_world((30, 30, 1))
        cs = wd.build_config_space(w, 0.0)
        calls = []
        real = se.patterns.feasible_tables

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(se.patterns, "feasible_tables", spy)
        q = se.SearchQuery(start=se.static_tuple((10, 10, 0), 5, w),
                           goal=se.static_tuple((14, 13, 0), 5, w), dt=0.17,
                           lam=20.0, order=2, bounds=BOUNDS)
        assert se.search(q, cs).ok
        assert len(calls) == 1

class TestDijkstraOracle:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_on_random_worlds(self, d):
        rng = np.random.default_rng(40 + d)
        matched = 0
        attempts = 0
        while matched < 8 and attempts < 40:
            attempts += 1
            w = plane_world(rng)
            cs = wd.build_config_space(w, 0.0)
            free = np.argwhere(~cs.occ_inflated)
            if free.shape[0] < 6:
                continue
            s_cell, g_cell = free[rng.choice(free.shape[0], 2, replace=False)]
            start = se.static_tuple(s_cell, 3, w)
            goal = se.static_tuple(g_cell, 3, w)
            lam = float(rng.uniform(5.0, 30.0))
            q = se.SearchQuery(start=start, goal=goal, dt=0.3, lam=lam,
                               order=2, bounds=WIDE, d=d,
                               max_expansions=10**6, max_wall_ms=20000)
            res = se.search(q, cs)
            graph, s0 = oracles.build_tuple_graph(start.cells, cs, WIDE,
                                                  0.3, lam, 2)
            goal_codes = tuple(int(c) for c in se.cell_code(goal.cells, w.dims))
            ref_cost, _ = oracles.aggregated_dijkstra(
                graph, s0, se.tuple_cost(start, lam, 2, 0.3), goal_codes, d)
            if res.ok:
                assert ref_cost is not None
                assert res.cost == pytest.approx(ref_cost, abs=1e-9)
                matched += 1
            else:
                assert ref_cost is None
        assert matched >= 8


class TestSnapTuple:
    def test_on_grid_identity(self):
        w = empty_world((9, 9, 1))
        cells = np.array([[2 + i, 4, 0] for i in range(6)])
        refs = w.cell_center(cells)
        t = se.snap_tuple(refs, w, 0.17)
        assert np.array_equal(t.cells, cells)

    def test_static_hover(self):
        w = empty_world((9, 9, 1))
        refs = np.tile(w.cell_center((4, 4, 0)) + 0.04, (6, 1))
        t = se.snap_tuple(refs, w, 0.17)
        assert t.is_static()

    def test_matches_exhaustive_enumeration_k3(self):
        # the per-axis dynamic programs must reproduce brute force over all
        # patterns drawn from the in-grid cells among the 27 around each
        # reference point: refs inside cells, on cell faces, at the grid
        # edge where candidates clip, and with the last point off the grid
        from itertools import product as iproduct
        rng = np.random.default_rng(7)
        dt = 0.17
        w = empty_world((20, 20, 10))
        w_face = empty_world((20, 20, 20), cell=0.25)
        knots = np.arange(4)[:, None]
        cases = []
        for _ in range(5):
            base = np.array([rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0),
                             rng.uniform(0.5, 1.4)])
            cases.append((w, base + knots * rng.uniform(-0.8, 0.8, 3) * dt))
        for _ in range(3):
            # whole multiples of the binary cell size: every ref on a face
            base = rng.integers(4, 12, 3) * 0.25
            cases.append((w_face, base + knots * rng.integers(-1, 2, 3) * 0.25))
        # entering through the low x face and leaving through the high z
        # face: early stages keep only the in-grid candidates
        cases.append((w, np.array([-0.1, 0.05, 1.9]) + knots * [0.1, 0.0, 0.03]))
        cases.append((w, np.array([3.95, -0.05, 0.1]) + knots * [0.0, 0.05, -0.02]))
        # an early ref too far off the grid for any adjacent chain
        cases.append((w, np.array([[-0.7, 1.0, 1.0], [0.1, 1.0, 1.0],
                                   [0.1, 1.0, 1.0], [0.1, 1.0, 1.0]])))
        # the last point off the grid
        cases.append((w, np.array([0.3, 1.0, 1.0]) + knots * [-0.1, 0.0, 0.0]))
        nones = 0
        for wc, refs in cases:
            t = se.snap_tuple(refs, wc, dt)

            def objective(cells):
                ctr = wc.cell_center(np.asarray(cells))
                pe = float(np.sum((ctr[:-1] - refs[:-1]) ** 2))
                dv = np.diff(ctr, axis=0) - np.diff(refs, axis=0)
                ve = float(np.sum(dv * dv)) / dt**2
                return pe + dt * ve

            last = wc.point_to_cell(refs[-1])
            best = np.inf
            if wc.in_bounds(last):
                stages = [[c for c in wc.point_to_cell(refs[i]) + oracles._OFFSETS27
                           if wc.in_bounds(c)] for i in range(3)]
                for combo in iproduct(*stages):
                    cells = np.array(list(combo) + [last])
                    if np.abs(np.diff(cells, axis=0)).max() <= 1:
                        best = min(best, objective(cells))
            if best == np.inf:
                assert t is None
                nones += 1
                continue
            assert np.array_equal(t.cells[-1], last)
            assert objective(t.cells) == pytest.approx(best, abs=1e-12)
        assert nones == 2

    def test_exact_tie_takes_first_offset(self):
        # the first ref sits on the face between cells 1 and 2, and the
        # second knot's step is half a cell: both cells give exactly the
        # same objective (binary cell size and dt), and the documented rule
        # picks offset -1 from the ref's own cell 2
        w = empty_world((9, 9, 9), cell=0.5)
        dt = 0.5
        refs = np.full((4, 3), 2.25)
        refs[0, 0] = 1.0
        refs[1:, 0] = 1.25
        t = se.snap_tuple(refs, w, dt)
        assert t.cells[:, 0].tolist() == [1, 2, 2, 2]
        assert t.cells[:, 1:].tolist() == [[4, 4]] * 4

        def objective(xs):
            ctr = w.cell_center(np.array([[x, 4, 4] for x in xs]))
            pe = float(np.sum((ctr[:-1] - refs[:-1]) ** 2))
            dv = np.diff(ctr, axis=0) - np.diff(refs, axis=0)
            return pe + dt * float(np.sum(dv * dv)) / dt**2

        assert objective([1, 2, 2, 2]) == objective([2, 2, 2, 2])

    def test_error_bound_random(self):
        rng = np.random.default_rng(7)
        w = empty_world((20, 20, 10))
        half_diag = 0.5 * np.linalg.norm(w.cell_sizes)
        for _ in range(20):
            base = np.array([rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0),
                             rng.uniform(0.5, 1.4)])
            vel = rng.uniform(-0.8, 0.8, size=3)
            refs = base + np.arange(6)[:, None] * vel * 0.17
            t = se.snap_tuple(refs, w, 0.17)
            err = np.linalg.norm(t.positions - refs, axis=1)
            # the velocity weight can trade a little position error, so the
            # per-point bound carries a one-step allowance
            assert err.max() <= half_diag + np.linalg.norm(w.cell_sizes) + 1e-9
            assert err[-1] <= half_diag + 1e-9  # the last point is pinned

    def test_state_reference_points_reproduce_state(self):
        pos = np.array([1.0, 2.0, 0.5])
        vel = np.array([1.2, -0.3, 0.0])
        refs = se.state_reference_points(pos, vel, 5, 0.17)
        P = np.asarray(refs)
        assert np.allclose(sp.eval_span(P, 0.0, 0, 0.17), pos, atol=1e-12)
        assert np.allclose(sp.eval_span(P, 0.0, 1, 0.17), vel, atol=1e-12)


class TestAstar:
    def test_straight_corridor(self):
        w = empty_world((9, 3, 1))
        cs = wd.build_config_space(w, 0.0)
        path = se.astar_cells(cs, (0, 1, 0), (8, 1, 0))
        assert path is not None
        assert tuple(path[0]) == (0, 1, 0) and tuple(path[-1]) == (8, 1, 0)
        assert len(path) == 9

    def test_routes_around_wall(self):
        occ = np.zeros((9, 9, 1), dtype=bool)
        occ[4, :7, 0] = True
        w = wd.VoxelWorld(np.array([9, 9, 1]), np.full(3, 0.2), np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.0)
        path = se.astar_cells(cs, (1, 1, 0), (7, 1, 0))
        assert path is not None
        assert max(p[1] for p in path) >= 7

    def test_unreachable(self):
        occ = np.zeros((9, 9, 1), dtype=bool)
        occ[4, :, 0] = True
        w = wd.VoxelWorld(np.array([9, 9, 1]), np.full(3, 0.2), np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.0)
        assert se.astar_cells(cs, (1, 1, 0), (7, 1, 0)) is None

    @staticmethod
    def _same_as_reference(cs, start, goal, max_expansions=2_000_000):
        got = se.astar_cells(cs, start, goal, max_expansions)
        ref = oracles.astar_cells(cs, start, goal, max_expansions)
        if ref is None:
            assert got is None, (start, goal, max_expansions)
        else:
            assert got is not None and got.dtype == ref.dtype
            assert np.array_equal(got, ref), (start, goal, max_expansions)
        return ref

    def test_matches_reference_on_random_worlds(self):
        # anisotropic cells, ends on faces, edges and corners, interior
        # ends, and small expansion budgets
        rng = np.random.default_rng(29)
        found = none = 0
        for _ in range(30):
            dims = rng.integers(1, 10, size=3)
            occ = rng.random(tuple(dims)) < rng.uniform(0.0, 0.3)
            w = wd.VoxelWorld(dims, rng.uniform(0.1, 0.4, size=3),
                              rng.uniform(-1.0, 1.0, size=3), occ)
            cs = wd.build_config_space(w, 0.0)
            free = np.argwhere(~occ)
            if free.size == 0:
                continue
            hi = dims - 1
            corners = [c for c in (np.array(k) * hi
                                   for k in np.ndindex(2, 2, 2))
                       if not occ[tuple(c)]]
            for _ in range(8):
                ends = [free[rng.integers(len(free))] for _ in range(2)]
                if corners and rng.random() < 0.5:
                    ends[rng.integers(2)] = corners[rng.integers(len(corners))]
                start, goal = (tuple(int(v) for v in e) for e in ends)
                for budget in (2_000_000, 1, 2, int(rng.integers(3, 40))):
                    ref = self._same_as_reference(cs, start, goal, budget)
                    found += ref is not None
                    none += ref is None
        assert found > 100 and none > 100

    def test_matches_reference_when_goal_walled_off(self):
        # a shell of obstacles around the goal: the search drains the
        # start's component and returns None, exactly like the reference
        occ = np.zeros((10, 9, 6), dtype=bool)
        occ[5:8, 4:7, 1:4] = True
        occ[6, 5, 2] = False
        w = wd.VoxelWorld(np.array(occ.shape), np.array([0.2, 0.3, 0.25]),
                          np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.0)
        for start in ((0, 0, 0), (9, 8, 5), (0, 4, 3), (4, 4, 2)):
            assert self._same_as_reference(cs, start, (6, 5, 2)) is None
            assert self._same_as_reference(cs, (6, 5, 2), start) is None
        # with the shell opened on a face, both find the same path
        occ[7, 5, 2] = False
        cs = wd.build_config_space(w.with_occ(occ), 0.0)
        for start in ((0, 0, 0), (9, 8, 5), (9, 5, 2)):
            assert self._same_as_reference(cs, start, (6, 5, 2)) is not None

    def test_matches_reference_on_inflated_maps(self):
        w = wd.generate(wd.MapGenSpec(kind="pillars", extent=(8, 8, 2),
                                      cell_sizes=(0.25, 0.25, 0.4),
                                      density=0.3, seed=1))
        cs = wd.build_config_space(w, 0.3)
        free = np.argwhere(~cs.occ_inflated)
        rng = np.random.default_rng(31)
        for _ in range(12):
            start, goal = (tuple(int(v) for v in free[rng.integers(len(free))])
                           for _ in range(2))
            self._same_as_reference(cs, start, goal)
            self._same_as_reference(cs, start, goal, 25)

    def test_query_work_does_not_scale_with_grid(self):
        # a 10-cell path on a 2.7M-cell grid allocates what its nodes
        # need, nothing per grid cell
        import tracemalloc

        w = empty_world((300, 300, 30))
        cs = wd.build_config_space(w, 0.0)
        tracemalloc.start()
        try:
            path = se.astar_cells(cs, (150, 150, 15), (160, 150, 15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path is not None and len(path) == 11
        assert peak < 1_000_000
