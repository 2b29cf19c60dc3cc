from itertools import product

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


def successors(ex, cells, pats):
    """(code, node cost, child patterns) of a tuple's feasible free
    successors, in lexicographic offset order: the product of the per-axis
    options of search._Expander._axis, filtered by occupancy, with the
    node cost summed in search()'s order."""
    last = np.asarray(cells)[-1]
    opts = [ex._axis(a, int(last[a]), pats[a] // 3) for a in range(3)]
    base = int(last[0]) * ex.nyz + int(last[1]) * ex.nz + int(last[2])
    out = []
    for (ox, tx, px, _), (oy, ty, py, _), (oz, tz, pz, _) in product(*opts):
        code = base + ox + oy + oz
        if ex.occ[code] == 0:
            out.append((code, ex.step_cost + ((tx + ty) + tz), (px, py, pz)))
    return out


def feasible_succs(t, cs, bounds, dt, lam=0.0, l=2):
    """Successor tuples of t in lexicographic offset order."""
    w = cs.world
    ex = se._Expander(cs, bounds, dt, lam, l, t.k)
    out = []
    for code, _, _ in successors(ex, t.cells, t.patterns):
        cell = np.array(np.unravel_index(code, tuple(w.dims)))
        out.append(se.VertexTuple.from_cells(np.vstack([t.cells[1:], cell]),
                                             w))
    return out


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
        succs = feasible_succs(t, cs, BOUNDS, 0.17)
        assert len(succs) == 27

    def test_corner_clipping(self):
        w = empty_world((9, 9, 9))
        cs = wd.build_config_space(w, 0.0)
        t = se.static_tuple((0, 0, 0), 5, w)
        succs = feasible_succs(t, cs, WIDE, 0.17)
        assert len(succs) == 8  # 2x2x2 block including the self step

    def test_full_speed_reversal_infeasible(self):
        # one cell per knot rides just under vmax
        w = empty_world((20, 9, 1), cell=0.33)
        cs = wd.build_config_space(w, 0.0)
        cells = np.array([[3 + i, 4, 0] for i in range(6)])
        t = se.VertexTuple.from_cells(cells, w)
        succs = feasible_succs(t, cs, BOUNDS, 0.17)
        ends = {tuple(int(v) for v in s.cells[-1]) for s in succs}
        assert (9, 4, 0) in ends  # continuing straight stays in bounds
        # one backward step smooths out, but continuing the reversal does
        # not: the second step of the turnaround breaks the bound
        t2 = se.VertexTuple.from_cells(np.vstack([cells[1:], [7, 4, 0]]), w)
        succs2 = feasible_succs(t2, cs, BOUNDS, 0.17)
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
            ex = se._Expander(cs, BOUNDS, dt, lam, l, k)
            got = successors(ex, cells,
                             se.VertexTuple.from_cells(cells, w).patterns)
            ref = [(int(se.cell_code(ncells[i], w.dims)), float(costs[i]))
                   for i in range(27) if mask[i]]
            assert [c for c, _, _ in got] == [c for c, _ in ref]
            for (_, v, _), (_, r) in zip(got, ref):
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
        ex = se._Expander(cs, WIDE, 0.17, 20.0, 2, 5)
        for _ in range(200):
            cells = [rng.integers(6, 14, 3)]
            for _ in range(5):
                cells.append(cells[-1] + rng.integers(-1, 2, 3))
            cells = np.array(cells)
            moved = cells + rng.integers(0, 20, 3)
            pats = se.VertexTuple.from_cells(cells, w).patterns
            a = successors(ex, cells, pats)
            b = successors(ex, moved, pats)
            assert [v for _, v, _ in a] == [v for _, v, _ in b]
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
        a = [tuple(s.cells[-1]) for s in feasible_succs(t, cs, BOUNDS, 0.17)]
        b = [tuple(s.cells[-1]) for s in feasible_succs(t, cs, BOUNDS, 0.17)]
        assert a == b
        assert a == sorted(a)  # lexicographic offset order


class TestHeuristic:
    """The heuristic is read off search()'s own heap entries: f - g of each
    popped (f, g, key)."""

    @staticmethod
    def _pops(monkeypatch, q, cs):
        pops = []
        real = se.heapq.heappop

        def spy(heap):
            entry = real(heap)
            pops.append(entry)
            return entry

        monkeypatch.setattr(se.heapq, "heappop", spy)
        res = se.search(q, cs)
        monkeypatch.undo()
        return res, pops

    def test_zero_at_goal(self, monkeypatch):
        w = empty_world()
        cs = wd.build_config_space(w, 0.0)
        goal = se.static_tuple((6, 4, 0), 5, w)
        q = se.SearchQuery(start=se.static_tuple((2, 2, 0), 5, w), goal=goal,
                           dt=0.17, lam=20.0, order=2, bounds=BOUNDS, d=1)
        res, pops = self._pops(monkeypatch, q, cs)
        goal_code = int(se.cell_code(goal.last_cell, w.dims))
        assert res.ok and pops[-1][2] == goal_code
        assert pops[-1][0] == pops[-1][1]
        for f, g, key in pops:
            cell = np.array(np.unravel_index(key, tuple(w.dims)))
            cheb = int(np.abs(cell - goal.last_cell).max())
            assert f - g == pytest.approx(20.0 * 0.17 * cheb, abs=1e-9)

    def test_admissible_against_dijkstra(self, monkeypatch):
        # h of every node on the found path is at most its remaining cost,
        # the optimal cost of the reference search with the heuristic off
        # less the node's g
        w = empty_world()
        cs = wd.build_config_space(w, 0.0)
        start = se.static_tuple((2, 2, 0), 5, w)
        goal = se.static_tuple((7, 2, 0), 5, w)  # five cells apart
        q = se.SearchQuery(start=start, goal=goal, dt=0.17, lam=20.0,
                           order=2, bounds=BOUNDS, d=1)
        res, pops = self._pops(monkeypatch, q, cs)
        off = oracles.tuple_search(q, cs, use_heuristic=False)
        assert res.ok and off["status"] == "success"
        assert res.cost == off["cost"]
        closing = {}
        for f, g, key in pops:
            if key not in closing or g < closing[key][1]:
                closing[key] = (f, g)
        f0, g0 = closing[int(se.cell_code(start.last_cell, w.dims))]
        assert f0 - g0 == pytest.approx(20.0 * 0.17 * 5, abs=1e-9)
        assert g0 == se.tuple_cost(start, 20.0, 2, 0.17)
        path = [int(c) for c in se.cell_code(res.cells[5:], w.dims)]
        for key in path:
            f, g = closing[key]
            assert f - g <= off["cost"] - g + 1e-9


class TestSearch:
    def test_start_equals_goal(self):
        w = empty_world()
        cs = wd.build_config_space(w, 0.0)
        t = se.static_tuple((4, 4, 0), 5, w)
        r = se.search(se.SearchQuery(start=t, goal=t, dt=0.17, lam=20.0,
                                     order=2, bounds=BOUNDS, d=1), cs)
        assert r.ok
        assert r.cost == pytest.approx(se.tuple_cost(t, 20.0, 2, 0.17))
        # no cells between the start tuple and the goal tuple
        n = r.cells.shape[0]
        assert n == 6 and r.cells[6:n - 6].shape[0] == 0

    def test_heuristic_on_off_equal_cost(self):
        # the guided search's cost is exactly that of the reference search
        # with the heuristic off
        w = empty_world()
        cs = wd.build_config_space(w, 0.0)
        start = se.static_tuple((2, 2, 0), 5, w)
        goal = se.static_tuple((6, 6, 0), 5, w)
        q = se.SearchQuery(start=start, goal=goal, dt=0.17, lam=20.0,
                           order=2, bounds=BOUNDS, d=1)
        off = oracles.tuple_search(q, cs, use_heuristic=False)
        assert off["status"] == "success"
        assert se.search(q, cs).cost == off["cost"]

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
        # under the jerk cost the heuristic is loose, so the search
        # spreads past the box unless the box stops it
        base = se.SearchQuery(start=start, goal=goal, dt=0.17, lam=20.0,
                              order=3, bounds=BOUNDS, d=1)
        r_all = se.search(base, cs)
        crop = se.SearchQuery(start=start, goal=goal, dt=0.17, lam=20.0,
                              order=3, bounds=BOUNDS, d=1,
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


class TestReferenceSearch:
    """search() against oracles.tuple_search, the loop it replaced: one
    successor list per popped tuple, occupancy read before the visited
    lookup, full codes kept from the push."""

    FIELDS = ("status", "cost", "effort", "expanded", "open_peak", "budget")

    @staticmethod
    def _queries(rng, d_rule):
        """Seeded pillar worlds; k 3 (dt 0.3) or 5 (dt 0.17); moving,
        static and seed starts; crop boxes; budgets 1, 5, 200 and 3000."""
        for seed in range(6):
            w = wd.generate(wd.MapGenSpec("pillars", (3.2, 3.2, 1.2),
                                          (0.2,) * 3, density=0.15,
                                          seed=seed))
            cs = wd.build_config_space(w, 0.0)
            free = np.argwhere(~cs.occ_inflated)
            occupied = np.argwhere(cs.occ_inflated)
            for _ in range(12):
                k = int(rng.choice([3, 5]))
                dt = 0.3 if k == 3 else 0.17
                d = {"1": 1, "2": 2, "k+1": k + 1}[d_rule]
                seed_start = bool(occupied.size and rng.random() < 0.15)
                pool = occupied if seed_start else free
                s = pool[rng.integers(len(pool))]
                g = np.clip(s + (rng.integers(-5, 6, 3)
                                 * [1, 1, 0.4]).astype(int), 0, w.dims - 1)
                if not cs.is_free(g):
                    g = free[rng.integers(len(free))]
                if not seed_start and rng.random() < 0.5:
                    st = se.snap_tuple(se.state_reference_points(
                        w.cell_center(s), rng.uniform(-1, 1, 3) * [1, 1, 0],
                        k, dt), w, dt, cs, BOUNDS)
                    if st is None:
                        continue
                else:
                    st = se.static_tuple(s, k, w)
                region = None
                if rng.random() < 0.4:
                    lo = np.minimum(st.cells.min(0), g) \
                        - rng.integers(0, 3, 3)
                    hi = np.maximum(st.cells.max(0), g) \
                        + rng.integers(0, 3, 3)
                    region = (np.maximum(lo, 0), np.minimum(hi, w.dims - 1))
                q = se.SearchQuery(
                    start=st, goal=se.static_tuple(g, k, w), dt=dt,
                    lam=float(rng.uniform(5, 30)), order=2, bounds=BOUNDS,
                    d=d, max_expansions=int(rng.choice([1, 5, 200, 3000])),
                    max_wall_ms=1e9, region=region,
                    allow_occupied_start=seed_start)
                rng.random(2)  # two spare draws keep the seeded query set
                yield q, cs, bool(rng.random() < 0.5)

    @pytest.mark.parametrize("d_rule", ["1", "2", "k+1"])
    def test_matches_reference_on_pillar_worlds(self, d_rule):
        rng = np.random.default_rng(["1", "2", "k+1"].index(d_rule))
        seen = set()
        for q, cs, best_effort in self._queries(rng, d_rule):
            got = se.search(q, cs, best_effort=best_effort)
            ref = oracles.tuple_search(q, cs, best_effort=best_effort)
            for name in self.FIELDS:
                assert getattr(got, name) == ref[name], name
            for name in ("cells", "positions"):
                a, b = getattr(got, name), ref[name]
                assert (a is None) == (b is None), name
                if a is not None:
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
            seen.add((got.status, q.max_expansions))
        statuses = {st for st, _ in seen}
        assert {"success", "partial", "budget-exceeded"} <= statuses
        assert {n for _, n in seen} == {1, 5, 200, 3000}

    def test_explore_reachable_matches_reference_flood(self):
        # a goal outside the crop box is never reached: the search drains
        # the box, closing every node reachable in it exactly once, as the
        # reference's unguided flood does
        rng = np.random.default_rng(12)
        for seed in range(3):
            w = wd.generate(wd.MapGenSpec("pillars", (3.2, 3.2, 1.2),
                                          (0.2,) * 3, density=0.15,
                                          seed=seed))
            cs = wd.build_config_space(w, 0.0)
            free = np.argwhere(~cs.occ_inflated)
            half = int(w.dims[0]) // 2
            for k, dt in ((3, 0.3), (5, 0.17)):
                s = free[rng.integers(len(free))]
                if s[0] < half:
                    region = ((0, 0, 0), (half - 1, *(w.dims[1:] - 1)))
                    g = free[free[:, 0] >= half][0]
                else:
                    region = ((half, 0, 0), tuple(w.dims - 1))
                    g = free[free[:, 0] < half][0]
                q = se.SearchQuery(start=se.static_tuple(s, k, w),
                                   goal=se.static_tuple(g, k, w), dt=dt,
                                   lam=20.0, order=2, bounds=BOUNDS, d=1,
                                   max_expansions=2_000_000, max_wall_ms=1e9,
                                   region=region)
                got = se.search(q, cs)
                ref = oracles.tuple_search(q, cs)
                for name in self.FIELDS:
                    assert getattr(got, name) == ref[name], name
                flood = oracles.tuple_search(q, cs, collect_closed=True,
                                             exhaust=True,
                                             use_heuristic=False)
                assert got.status == flood["status"] == "no-path"
                assert got.expanded == len(flood["closed_codes"]) > 1


class TestExploreReachable:
    """A search to a goal it cannot reach explores every node reachable
    from its start before it ends no-path."""

    @staticmethod
    def _open_grid():
        # a 9x9x9 open grid; the z bounds admit no z step, so the flood
        # covers the start's z plane and the explicit tuple graph stays
        # small enough to build
        w = empty_world((9, 9, 9))
        bounds = sp.DerivativeBounds(np.array([-2.0, -2.0, -0.01]),
                                     np.array([2.0, 2.0, 0.01]),
                                     np.array([-1.0, -1.0, -1.0]),
                                     np.array([1.0, 1.0, 1.0]))
        return w, wd.build_config_space(w, 0.0), bounds

    def _flood_equals_tuple_graph(self, k):
        # the goal lies on another z plane, which no z step reaches
        w, cs, bounds = self._open_grid()
        st = se.static_tuple((4, 4, 4), k, w)
        q = se.SearchQuery(start=st, goal=se.static_tuple((4, 4, 0), k, w),
                           dt=0.5, lam=20.0, order=2, bounds=bounds, d=1,
                           max_expansions=2_000_000, max_wall_ms=1e9)
        res = se.search(q, cs)
        graph, _ = oracles.build_tuple_graph(st.cells, cs, bounds, 0.5,
                                             20.0, 2)
        assert res.status == "no-path"
        assert res.expanded == len({node[-1] for node in graph}) == 81

    def test_full_flood_equals_tuple_graph(self):
        self._flood_equals_tuple_graph(3)

    def test_full_flood_equals_tuple_graph_k2(self):
        # degree 2: the acceleration rows of the oracle's scan are
        # constants, with no derivative coefficient left
        self._flood_equals_tuple_graph(2)


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
        assert np.all(t.cells == t.cells[0])

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
        start = sp.eval_span_many(P, [0.0], 0, 0.17)[0]
        assert np.allclose(start, pos, atol=1e-12)
        start_vel = sp.eval_span_many(P, [0.0], 1, 0.17)[0]
        assert np.allclose(start_vel, vel, atol=1e-12)


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

    @staticmethod
    def _random_queries(rng):
        """(cs, start, goal) on 30 random worlds: anisotropic cells, ends
        on faces, edges and corners, and interior ends."""
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
                yield cs, start, goal

    @staticmethod
    def _walled_goal_spaces():
        """A shell of obstacles around the goal (6, 5, 2), closed and then
        opened on a face, with the starts tried on each."""
        occ = np.zeros((10, 9, 6), dtype=bool)
        occ[5:8, 4:7, 1:4] = True
        occ[6, 5, 2] = False
        w = wd.VoxelWorld(np.array(occ.shape), np.array([0.2, 0.3, 0.25]),
                          np.zeros(3), occ)
        closed = wd.build_config_space(w, 0.0)
        occ = occ.copy()
        occ[7, 5, 2] = False
        opened = wd.build_config_space(w.with_occ(occ), 0.0)
        return ((closed, ((0, 0, 0), (9, 8, 5), (0, 4, 3), (4, 4, 2))),
                (opened, ((0, 0, 0), (9, 8, 5), (9, 5, 2))))

    @staticmethod
    def _pillar_queries():
        w = wd.generate(wd.MapGenSpec(kind="pillars", extent=(8, 8, 2),
                                      cell_sizes=(0.25, 0.25, 0.4),
                                      density=0.3, seed=1))
        cs = wd.build_config_space(w, 0.3)
        free = np.argwhere(~cs.occ_inflated)
        rng = np.random.default_rng(31)
        for _ in range(12):
            start, goal = (tuple(int(v) for v in free[rng.integers(len(free))])
                           for _ in range(2))
            yield cs, start, goal

    def test_matches_reference_on_random_worlds(self):
        # every query also under small expansion budgets
        rng = np.random.default_rng(29)
        found = none = 0
        for cs, start, goal in self._random_queries(rng):
            for budget in (2_000_000, 1, 2, int(rng.integers(3, 40))):
                ref = self._same_as_reference(cs, start, goal, budget)
                found += ref is not None
                none += ref is None
        assert found > 100 and none > 100

    def test_matches_reference_when_goal_walled_off(self):
        # with the shell closed the search drains the start's component
        # and returns None, exactly like the reference; with it opened on
        # a face, both find the same path
        (closed, starts), (opened, open_starts) = self._walled_goal_spaces()
        for start in starts:
            assert self._same_as_reference(closed, start, (6, 5, 2)) is None
            assert self._same_as_reference(closed, (6, 5, 2), start) is None
        for start in open_starts:
            assert self._same_as_reference(opened, start,
                                           (6, 5, 2)) is not None

    def test_matches_reference_on_inflated_maps(self):
        for cs, start, goal in self._pillar_queries():
            self._same_as_reference(cs, start, goal)
            self._same_as_reference(cs, start, goal, 25)

    def test_optimal_against_dijkstra(self):
        # judged without any heuristic: None exactly when plain Dijkstra
        # cannot reach the goal, else a free 26-connected path as long as
        # Dijkstra's shortest
        queries = list(self._random_queries(np.random.default_rng(29)))
        for cs, starts in self._walled_goal_spaces():
            queries += [(cs, s, (6, 5, 2)) for s in starts]
            queries += [(cs, (6, 5, 2), s) for s in starts]
        queries += list(self._pillar_queries())
        found = none = 0
        for cs, start, goal in queries:
            path = se.astar_cells(cs, start, goal)
            best = oracles.dijkstra_cost(cs, start, goal)
            if best is None:
                assert path is None, (start, goal)
                none += 1
                continue
            assert path is not None, (start, goal)
            assert tuple(path[0]) == start and tuple(path[-1]) == goal
            assert cs.cells_free(path).all()
            steps = np.diff(path, axis=0)
            assert (np.abs(steps).max(axis=1, initial=1) == 1).all()
            length = float(np.linalg.norm(steps * cs.world.cell_sizes,
                                          axis=1).sum())
            assert abs(length - best) <= 1e-12 * (1.0 + best), (start, goal)
            found += 1
        assert found > 200 and none > 5

    def test_heuristic_is_exact_in_free_space_and_consistent(self):
        # on empty anisotropic grids h is the Dijkstra distance to the
        # goal from every cell, no edge breaks consistency, and A* from
        # every cell returns a path of exactly that length
        rng = np.random.default_rng(41)
        for _ in range(6):
            dims = tuple(int(v) for v in rng.integers(2, 6, size=3))
            w = wd.VoxelWorld(np.array(dims), rng.uniform(0.1, 0.4, size=3),
                              np.zeros(3), np.zeros(dims, dtype=bool))
            cs = wd.build_config_space(w, 0.0)
            goal = tuple(int(rng.integers(n)) for n in dims)
            steps = se._astar_steps(dims[1], dims[2],
                                    *(float(c) for c in w.cell_sizes))
            h = se._lattice_distance(goal, steps)
            for cell in np.ndindex(dims):
                dist = oracles.dijkstra_cost(cs, cell, goal)
                assert abs(h(*cell) - dist) <= 1e-12 * (1.0 + dist)
                path = se.astar_cells(cs, cell, goal)
                length = float(np.linalg.norm(
                    np.diff(path, axis=0) * w.cell_sizes, axis=1).sum())
                assert abs(length - dist) <= 1e-12 * (1.0 + dist)
                for _, dx, dy, dz, sc in steps:
                    nb = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
                    if all(0 <= c < n for c, n in zip(nb, dims)):
                        assert h(*cell) <= sc + h(*nb) + 1e-12

    def test_open_grid_needs_few_expansions(self):
        # the Euclidean heuristic needed 3,019 expansions for this query;
        # the lattice distance leaves only ties off the path to settle
        w = wd.VoxelWorld(np.array([30, 30, 10]), np.array([0.2, 0.25, 0.4]),
                          np.zeros(3), np.zeros((30, 30, 10), dtype=bool))
        cs = wd.build_config_space(w, 0.0)
        path = se.astar_cells(cs, (0, 0, 0), (29, 20, 9), max_expansions=200)
        assert path is not None and len(path) == 30

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
