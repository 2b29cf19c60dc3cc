import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from kinospline import qcqp

import oracles


def ball(point, center, radius):
    return qcqp.BallConstraint(point, np.asarray(center, dtype=float), radius)


def to_band(H):
    """Dense symmetric H as its lower band, ab[d, j] = H[j + d, j], for d
    up to its bandwidth."""
    bw = max((d for d in range(H.shape[0]) if np.diagonal(H, -d).any()),
             default=0)
    return np.array([np.pad(np.diagonal(H, -d), (0, d))
                     for d in range(bw + 1)])


def to_rows(A):
    """Dense or sparse A as padded rows, dict(A=coef, A_cols=cols).

    Each row keeps its entries in ascending column order, duplicates
    summed and zeros dropped, padded with coefficient 0 on its last
    column (column 0 for an empty row).
    """
    A = sparse.csr_matrix(A, dtype=float, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    w = int(np.diff(A.indptr).max(initial=0))
    cols = np.zeros((A.shape[0], w), dtype=np.int64)
    coef = np.zeros((A.shape[0], w))
    for i in range(A.shape[0]):
        c = A.indices[A.indptr[i]:A.indptr[i + 1]]
        cols[i] = c[-1] if c.size else 0
        cols[i, :c.size] = c
        coef[i, :c.size] = A.data[A.indptr[i]:A.indptr[i + 1]]
    return dict(A=coef, A_cols=cols)


def dense_rows(p):
    """p's rows as a dense (m, n) matrix."""
    A = np.zeros((p.n_rows, p.n))
    np.add.at(A, (np.arange(p.n_rows)[:, None], p.A_cols), p.A)
    return A


def problem(H, g, balls, A=None, **kw):
    """A QcqpProblem from a dense H and a dense or sparse A."""
    rows = {} if A is None else to_rows(A)
    return qcqp.QcqpProblem(H_band=to_band(H), g=g, balls=balls, **rows, **kw)


def short_step_instance():
    """A tube QCQP with its rows dropped whose iterates take short steps.

    Thirty free points (n = 90) of a bench_course refinement at knot
    repeat 2: banded H (smallest eigenvalue 0.59), one ball per point, and
    the placement x0, which lies 0.1 inside every ball, as the start.
    """
    z = np.load(Path(__file__).parent / "data" / "qcqp_short_steps_n90.npz")
    balls = tuple(ball(int(p), c, float(r))
                  for p, c, r in zip(z["points"], z["centers"], z["radii"]))
    return qcqp.QcqpProblem(H_band=z["H_band"], g=z["g"], balls=balls), z["x0"]


def with_cut_rows(rng, p, n_cut=3, n_loose=40):
    """p plus rows that its balls-only optimum breaks, among loose ones.

    The balls-only optimum comes from the projected-gradient oracle; each
    cut row asks a random direction to fall 0.1 below its value there.
    """
    x_b = oracles.projected_gradient(p)
    cut = rng.normal(size=(n_cut, p.n))
    loose = rng.normal(size=(n_loose, p.n))
    A = np.vstack([cut, loose])
    lo = np.concatenate([np.full(n_cut, -np.inf), -np.full(n_loose, 1e3)])
    hi = np.concatenate([cut @ x_b - 0.1, np.full(n_loose, 1e3)])
    full = qcqp.QcqpProblem(H_band=p.H_band, g=p.g, balls=p.balls,
                            **to_rows(A), lo=lo, hi=hi)
    return full, x_b


def count_rounds(monkeypatch):
    """Record (working rows, status, iterations) of each sub-solve."""
    rounds = []
    inner = qcqp._solve_cones

    def spy(cones, *args):
        status, x, it = inner(cones, *args)
        rounds.append((cones.mrows, status, it))
        return status, x, it

    monkeypatch.setattr(qcqp, "_solve_cones", spy)
    return rounds


def random_instance(rng, n_points=10, pd_shift=0.2):
    n = 3 * n_points
    B = rng.normal(size=(n, n))
    H = B.T @ B / n + pd_shift * np.eye(n)
    g = rng.normal(size=n)
    balls = tuple(ball(i, rng.normal(size=3) * 0.3, 0.4 + 0.3 * rng.random())
                  for i in range(n_points))
    return problem(H=H, g=g, balls=balls)


class TestSolve:
    def test_single_point_ball_clamp(self):
        p = problem(H=np.diag([2.0, 2.0, 2.0]),
                    g=np.array([-4.0, 0.0, 0.0]),
                    balls=(ball(0, [0, 0, 0], 1.0),))
        s = qcqp.solve(p, tol=1e-9)
        assert s.status == "optimal"
        assert s.x[0] == pytest.approx(1.0, abs=1e-7)
        assert s.max_violation <= 1e-6

    def test_huge_balls_reach_unconstrained_minimum(self):
        rng = np.random.default_rng(2)
        n = 30
        B = rng.normal(size=(n, n))
        H = B.T @ B + 0.5 * np.eye(n)
        g = rng.normal(size=n)
        balls = tuple(ball(i, rng.normal(size=3), 1e6) for i in range(n // 3))
        s = qcqp.solve(problem(H=H, g=g, balls=balls), tol=1e-10)
        xref = np.linalg.solve(H, -g)
        assert np.abs(s.x - xref).max() < 1e-5

    def test_no_constraints_least_squares(self):
        H = np.diag([2.0, 4.0, 8.0])
        g = np.array([-2.0, -4.0, -8.0])
        s = qcqp.solve(problem(H=H, g=g, balls=()))
        assert np.allclose(s.x, [1.0, 1.0, 1.0], atol=1e-10)

    def test_no_cones_singular_h_does_not_converge(self):
        # without cones the solve factors H; singular, the problem here is
        # unbounded below
        p = problem(H=np.diag([1.0, 0.0, 1.0]), g=-np.ones(3), balls=())
        s = qcqp.solve(p)
        assert (s.status, s.iterations) == ("max-iter", 0)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = random_instance(rng)
            s = qcqp.solve(p, tol=1e-9)
            assert s.status == "optimal"
            xo = oracles.projected_gradient(p)
            fo = p.objective(xo)
            assert s.objective <= fo + 1e-5 * (1 + abs(fo))
            assert abs(s.objective - fo) <= 1e-5 * (1 + abs(fo))

    def test_linear_rows_respected(self):
        # objective pulls x positive, a row caps the first coordinate
        H = np.eye(3) * 2
        g = np.array([-10.0, 0.0, 0.0])
        A = np.array([[1.0, 0.0, 0.0]])
        p = problem(H=H, g=g, balls=(ball(0, [0, 0, 0], 100.0),),
                    A=A, lo=np.array([-1.0]), hi=np.array([2.0]))
        s = qcqp.solve(p, tol=1e-9)
        assert s.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_infeasible_detected(self):
        p = problem(H=np.eye(3) * 2, g=np.zeros(3),
                    balls=(ball(0, [2, 0, 0], 0.5),
                           ball(0, [-2, 0, 0], 0.5)))
        s = qcqp.solve(p, tol=1e-8, max_iter=20000)
        assert s.status == "infeasible-detected"

    def test_lens_constraint_pair(self):
        # two overlapping balls on one point: optimum lands in the lens
        p = problem(H=np.eye(3) * 2, g=np.array([-8.0, 0, 0]),
                    balls=(ball(0, [0, 0, 0], 1.0),
                           ball(0, [1.5, 0, 0], 1.0)))
        s = qcqp.solve(p, tol=1e-9)
        assert s.status == "optimal"
        assert s.x[0] == pytest.approx(1.0, abs=1e-6)
        assert s.max_violation <= 1e-6

    def test_warm_start_agrees(self):
        rng = np.random.default_rng(6)
        p = random_instance(rng, n_points=6)
        cold = qcqp.solve(p, tol=1e-9)
        # the optimum lies within the tolerance of active balls' boundaries
        warm = qcqp.solve(p, tol=1e-9, x0=cold.x)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-8)

    def test_rows_only_infeasible_detected(self):
        # two rows asking x0 >= 1 and x0 + x1 <= -1 with x1 pinned near 0
        A = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        p = problem(H=np.eye(3), g=np.zeros(3),
                    balls=(ball(0, [0, 0, 0], 1.5),),
                    A=A, lo=np.array([1.0, -np.inf]),
                    hi=np.array([np.inf, -1.0]))
        s = qcqp.solve(p)
        assert s.status == "infeasible-detected"

    def test_empty_row_decides_feasibility(self):
        # a row without coefficients is the number 0: kept or refused
        A = np.zeros((1, 3))
        base = dict(H=np.eye(3), g=-np.ones(3), balls=(ball(0, [0, 0, 0], 1.0),))
        ok = qcqp.solve(problem(A=A, lo=np.array([-1.0]),
                                hi=np.array([1.0]), **base))
        assert ok.status == "optimal"
        bad = qcqp.solve(problem(A=A, lo=np.array([0.5]),
                                 hi=np.array([1.0]), **base))
        assert bad.status == "infeasible-detected"

    def test_max_iter_bounds_whole_solve(self):
        p = problem(H=np.eye(3) * 2, g=np.zeros(3),
                    balls=(ball(0, [2, 0, 0], 0.5),
                           ball(0, [-2, 0, 0], 0.5)))
        full = qcqp.solve(p)
        assert full.status == "infeasible-detected"
        for budget in (1, full.iterations // 2, full.iterations - 1):
            s = qcqp.solve(p, max_iter=budget)
            assert s.iterations <= budget
            assert s.status == "max-iter"

    def test_psd_guard(self):
        H = np.diag([1.0, -1.0, 1.0])
        p = problem(H=H, g=np.zeros(3), balls=(ball(0, [0, 0, 0], 1.0),))
        with pytest.raises(ValueError):
            qcqp.solve(p)

    def test_const_offsets_objective(self):
        p = problem(H=np.eye(3), g=np.zeros(3), balls=(), const=5.0)
        s = qcqp.solve(p)
        assert s.objective == pytest.approx(5.0)


def rows_instance():
    """Two points, a band of width 3 and three rows: one plain, one padded
    by repeating its column, one with a zero coefficient."""
    H = 2.0 * np.eye(6) + 0.5 * (np.eye(6, k=3) + np.eye(6, k=-3))
    return qcqp.QcqpProblem(
        H_band=to_band(H), g=-np.ones(6),
        balls=(ball(0, [0, 0, 0], 1.0), ball(1, [0, 0, 0], 1.0)),
        A=np.array([[1.0, 2.0], [0.5, 0.0], [0.0, 0.5]]),
        A_cols=np.array([[0, 4], [2, 2], [3, 5]]),
        lo=-np.ones(3), hi=np.ones(3))


class TestValidate:
    def test_padded_rows_solve(self):
        p = rows_instance()
        s = qcqp.solve(p, tol=1e-9)
        assert s.status == "optimal"
        assert qcqp.kkt_residual(p, s.x) <= 1e-6

    @pytest.mark.parametrize("case", [
        "band columns", "band padding", "column past n", "negative column",
        "descending columns", "repeated non-zero column", "cols shape",
        "no cols"])
    def test_malformed_problem_raises(self, case):
        p = rows_instance()
        band = p.H_band.copy()
        band[3, 4] = 0.3            # H[7, 4], past the end of n = 6
        repeat = p.A.copy()
        repeat[1, 1] = 1.0          # both entries on column 2 non-zero
        change, message = {
            "band columns": (dict(H_band=p.H_band[:, :5]), "H_band"),
            "band padding": (dict(H_band=band), "past the end"),
            "column past n": (dict(A_cols=p.A_cols + 2), "range"),
            "negative column": (dict(A_cols=p.A_cols - 1), "range"),
            "descending columns": (dict(A_cols=p.A_cols[:, ::-1]), "descend"),
            "repeated non-zero column": (dict(A=repeat), "repeated"),
            "cols shape": (dict(A_cols=p.A_cols[:, :1]), "shape"),
            "no cols": (dict(A_cols=None), "shape"),
        }[case]
        with pytest.raises(ValueError, match=message):
            qcqp.solve(dataclasses.replace(p, **change))


def count_phase1(monkeypatch):
    """Record, per _ipm run, whether it is a phase-I run."""
    runs = []
    inner = qcqp._ipm

    def spy(*args, phase1=False, **kwargs):
        runs.append(phase1)
        return inner(*args, phase1=phase1, **kwargs)

    monkeypatch.setattr(qcqp, "_ipm", spy)
    return runs


class TestStart:
    def test_strictly_feasible_x0_runs_no_phase1(self, monkeypatch):
        rng = np.random.default_rng(6)
        p = random_instance(rng, n_points=6)
        cold = qcqp.solve(p, tol=1e-9)
        centers = np.concatenate([b.center for b in p.balls])
        runs = count_phase1(monkeypatch)
        warm = qcqp.solve(p, tol=1e-9, x0=centers)
        assert warm.status == "optimal"
        assert runs == [False]
        assert warm.objective == pytest.approx(cold.objective, rel=1e-8)

    def test_x0_outside_a_ball_runs_phase1(self, monkeypatch):
        p = problem(H=np.diag([2.0, 2.0, 2.0]),
                    g=np.array([-4.0, 0.0, 0.0]),
                    balls=(ball(0, [0, 0, 0], 1.0),))
        runs = count_phase1(monkeypatch)
        s = qcqp.solve(p, tol=1e-9, x0=np.array([5.0, 0.0, 0.0]))
        assert runs == [True, False]
        assert s.status == "optimal"
        assert s.x[0] == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("x0", [np.zeros(2), np.zeros(4),
                                    np.array([0.0, np.nan, 0.0]),
                                    np.array([np.inf, 0.0, 0.0])])
    def test_malformed_x0_raises(self, x0):
        p = problem(H=np.eye(3), g=-np.ones(3),
                    balls=(ball(0, [0, 0, 0], 1.0),))
        with pytest.raises(ValueError):
            qcqp.solve(p, x0=x0)

    @pytest.mark.parametrize("case", ["touching balls", "equality row"])
    def test_feasible_set_without_interior(self, case):
        # phase I ends at t = 0 with nothing to certify; the main run goes
        # on over cones loosened by about the primal tolerance
        if case == "touching balls":
            p = problem(H=np.eye(3) * 2, g=np.array([0.0, -2.0, 0.0]),
                        balls=(ball(0, [-1, 0, 0], 1.0),
                               ball(0, [1, 0, 0], 1.0)))
            x_ref = np.zeros(3)
        else:
            p = problem(H=np.eye(3) * 2, g=np.array([-4.0, -4.0, 0.0]),
                        balls=(ball(0, [0, 0, 0], 1.0),),
                        A=np.array([[1.0, 0.0, 0.0]]),
                        lo=np.array([0.5]), hi=np.array([0.5]))
            x_ref = np.array([0.5, np.sqrt(0.75), 0.0])
        s = qcqp.solve(p)
        assert s.status == "optimal"
        assert s.max_violation <= 1e-6
        assert np.abs(s.x - x_ref).max() <= 1e-3

    def test_later_round_starts_from_previous_optimum(self, monkeypatch):
        rng = np.random.default_rng(11)
        p, _ = with_cut_rows(rng, random_instance(rng, n_points=6))
        starts, optima = [], []
        inner = qcqp._solve_cones

        def spy(cones, prob, x, *args):
            starts.append(x.copy())
            status, x_opt, it = inner(cones, prob, x, *args)
            optima.append(x_opt.copy())
            return status, x_opt, it

        monkeypatch.setattr(qcqp, "_solve_cones", spy)
        s = qcqp.solve(p, tol=1e-9)
        assert s.status == "optimal"
        assert len(starts) == 2
        assert np.array_equal(starts[0], np.zeros(p.n))
        assert np.array_equal(starts[1], optima[0])


class TestWorkingSet:
    def test_short_steps_continue_to_optimum(self):
        # from a feasible point a short step is progress, not a stall
        p, x0 = short_step_instance()
        s = qcqp.solve(p, tol=1e-6, x0=x0)
        assert s.status == "optimal"
        assert qcqp.kkt_residual(p, s.x) <= 1e-5

    def test_broken_rows_join_until_every_row_holds(self, monkeypatch):
        rng = np.random.default_rng(11)
        balls_only = random_instance(rng, n_points=6)
        p, x_b = with_cut_rows(rng, balls_only)
        rounds = count_rounds(monkeypatch)
        s = qcqp.solve(p, tol=1e-9)
        assert s.status == "optimal"
        assert len(rounds) >= 2 and rounds[0][0] == 0
        assert qcqp.kkt_residual(p, s.x) <= 1e-5
        ax = dense_rows(p) @ s.x
        assert np.all((p.lo <= ax) & (ax <= p.hi))
        # the rows only cut the balls-only problem down
        assert s.objective >= balls_only.objective(x_b) - 1e-9

    def test_infeasible_only_once_rows_join(self, monkeypatch):
        # the ball alone holds x0 <= 1 and the row alone x0 >= 2
        p = problem(H=np.eye(3), g=np.array([1.0, 0.0, 0.0]),
                    balls=(ball(0, [0, 0, 0], 1.0),),
                    A=np.array([[1.0, 0.0, 0.0]]),
                    lo=np.array([2.0]), hi=np.array([np.inf]))
        rounds = count_rounds(monkeypatch)
        s = qcqp.solve(p)
        assert s.status == "infeasible-detected"
        assert [(m, st) for m, st, _ in rounds] == [
            (0, "optimal"), (1, "infeasible-detected")]

    def test_max_iter_bounds_iterations_summed_over_rounds(self, monkeypatch):
        rng = np.random.default_rng(11)
        p, _ = with_cut_rows(rng, random_instance(rng, n_points=6))
        rounds = count_rounds(monkeypatch)
        full = qcqp.solve(p, tol=1e-9)
        assert full.iterations == sum(it for _, _, it in rounds)
        first = rounds[0][2]
        # the first round fits the budget exactly, the second gets none
        s = qcqp.solve(p, tol=1e-9, max_iter=first)
        assert (s.status, s.iterations) == ("max-iter", first)
        for budget in range(first + 1, full.iterations):
            s = qcqp.solve(p, tol=1e-9, max_iter=budget)
            assert s.status == "max-iter" and s.iterations <= budget
        s = qcqp.solve(p, tol=1e-9, max_iter=full.iterations)
        assert s.status == "optimal"

    def test_empty_broken_row_decided_before_any_step(self, monkeypatch):
        A = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p = problem(H=np.eye(3), g=-np.ones(3),
                    balls=(ball(0, [0, 0, 0], 1.0),), A=A,
                    lo=np.array([0.5, -1.0]), hi=np.array([1.0, 1.0]))
        rounds = count_rounds(monkeypatch)
        s = qcqp.solve(p)
        assert (s.status, s.iterations, rounds) == ("infeasible-detected",
                                                    0, [])


def test_cone_step_stops_at_apex_when_discriminant_rounds_negative():
    # d points back through the apex of u's cone, nearly parallel to it:
    # B^2 - AC is 0 in exact arithmetic and rounds to -1e-20 here
    u = np.array([[0.0036853267721421, -1.341268385071488e-10,
                   1.6127660115293128e-10, 1.433745988699351e-10]])
    d = np.array([[-1.3414466650974277, 4.8821722309074086e-08,
                   -5.870414540816996e-08, -5.218787623369917e-08]])
    step = qcqp._cone_step(u, qcqp._soc_det(u), np.zeros(0), d, np.zeros(0))
    assert step == pytest.approx(u[0, 0] / -d[0, 0], rel=1e-6)


class TestKktResidual:
    def test_zero_at_analytic_optimum(self):
        p = problem(H=np.diag([2.0, 2.0, 2.0]),
                    g=np.array([-4.0, 0.0, 0.0]),
                    balls=(ball(0, [0, 0, 0], 1.0),))
        assert qcqp.kkt_residual(p, np.array([1.0, 0.0, 0.0])) < 1e-9

    def test_infinite_row_side_is_never_active(self):
        # analytic optimum (1, 0, 0) on the ball; the row's missing lower
        # side must not enter the active set with an infinite slack
        p = problem(H=np.diag([2.0, 2.0, 2.0]),
                    g=np.array([-4.0, 0.0, 0.0]),
                    balls=(ball(0, [0, 0, 0], 1.0),),
                    A=np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                    lo=np.array([-np.inf, -3.0]),
                    hi=np.array([5.0, np.inf]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qcqp.kkt_residual(p, np.array([1.0, 0.0, 0.0])) < 1e-9

    def test_primal_violation_passes_through(self):
        p = problem(H=np.diag([2.0, 2.0, 2.0]),
                    g=np.array([-4.0, 0.0, 0.0]),
                    balls=(ball(0, [0, 0, 0], 1.0),))
        assert qcqp.kkt_residual(p, np.array([1.5, 0.0, 0.0])) >= 0.5

    def test_solver_output_consistent(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = random_instance(rng, n_points=5)
            s = qcqp.solve(p, tol=1e-9)
            assert qcqp.kkt_residual(p, s.x) < 1e-5

    def test_tube_problem_converges(self):
        # an open-world refinement QCQP: banded H spanning 1e5 in scale,
        # derivative rows of widely different norms
        from kinospline import elastic as el, splines as sp
        k, dt = 5, 0.17
        pins_s = np.tile([1.0, 4.1, 1.1], (k + 1, 1))
        pins_g = np.tile([5.4, 4.1, 1.1], (k + 1, 1))
        free = np.linspace(pins_s[0], pins_g[0], 24)[1:-1]
        balls = [[(p, 1.1)] for p in free]
        p = el.assemble_qcqp(balls, free, pins_s, pins_g, 3, dt,
                             sp.DerivativeBounds.symmetric(2.0, 4.7))
        s = qcqp.solve(p)
        assert s.status == "optimal"
        assert qcqp.kkt_residual(p, s.x) <= 1e-5

    def test_dimension_check(self):
        p = problem(H=np.eye(3), g=np.zeros(3), balls=())
        with pytest.raises(ValueError):
            qcqp.kkt_residual(p, np.zeros(4))


def structured_instance(rng, a_kind):
    """A problem with a banded H, two balls on point 0, and rows of every
    kind: two-sided, one-sided, free on both sides, and (sparse) of
    differing lengths with one row stored unsorted with a duplicate, which
    `to_rows` canonicalizes."""
    n_points = 8
    n = 3 * n_points
    H = np.zeros((n, n))
    for d in range(4):
        v = rng.normal(size=n - d) * (0.1 if d else 1.0)
        H += np.diag(v, -d) + (np.diag(v, d) if d else 0.0)
    H += (np.abs(H).sum(axis=1).max() + 0.1) * np.eye(n)
    balls = (ball(0, rng.normal(size=3), 0.5), ball(0, rng.normal(size=3), 0.7)) \
        + tuple(ball(i, rng.normal(size=3), 0.4 + rng.random())
                for i in range(1, n_points, 2))
    m = 7
    if a_kind == "dense":
        A = rng.normal(size=(m, n))
    else:
        # rows of 1 to 6 entries within a window of 9 columns; the last
        # row is stored as [5, 2, 5] and sums to {2: 2.0, 5: 4.0}
        indptr, indices, data = [0], [], []
        for i in range(m - 1):
            width = 1 + i % 6
            start = rng.integers(0, n - 9)
            indices += sorted(rng.choice(np.arange(start, start + 9), width,
                                         replace=False).tolist())
            data += (rng.normal(size=width) * 3.0).tolist()
            indptr.append(len(indices))
        indices += [5, 2, 5]
        data += [1.0, 2.0, 3.0]
        indptr.append(len(indices))
        A = sparse.csr_matrix((data, indices, indptr), shape=(m, n))
    lo = np.array([-1.0, -np.inf, -2.0, -np.inf, 0.5, -3.0, -1.0])
    hi = np.array([1.0, 2.0, np.inf, np.inf, 4.0, np.inf, 1.0])
    return problem(H=H, g=rng.normal(size=n), balls=balls, A=A, lo=lo,
                   hi=hi)


def dense_cones(p, work):
    """G (ball rows (0, x_p) per ball, then the signed working row sides
    scaled to unit largest coefficient) and h, built densely."""
    A = dense_rows(p)
    G_b, h_b = [], []
    for b in p.balls:
        rows = np.zeros((4, p.n))
        rows[1:, 3 * b.point:3 * b.point + 3] = np.eye(3)
        G_b.append(rows)
        h_b.append(np.concatenate([[b.radius], b.center]))
    G_l, h_l = [], []
    for sign, bound in ((1.0, p.hi), (-1.0, p.lo)):
        for i in work:
            if np.isfinite(bound[i]):
                scale = np.abs(A[i]).max()
                G_l.append(sign * A[i] / scale)
                h_l.append(sign * bound[i] / scale)
    return (np.vstack(G_b), np.array(h_b), np.array(G_l).reshape(-1, p.n),
            np.array(h_l))


@pytest.mark.parametrize("a_kind", ["dense", "sparse"])
@pytest.mark.parametrize("work", [[], [0, 2, 3, 4], [0, 1, 2, 3, 4, 5, 6]])
def test_cones_match_dense_products(a_kind, work):
    rng = np.random.default_rng(len(work) + (a_kind == "sparse"))
    p = structured_instance(rng, a_kind)
    work = np.array(work, dtype=np.int64)
    p.validate()
    cones = qcqp._Cones(p, qcqp._Rows(p), work)
    G_b, h_b, G_l, h_l = dense_cones(p, work)
    nb, ml = len(p.balls), G_l.shape[0]
    assert (cones.nb, cones.ml, cones.mrows) == (nb, ml, work.size)
    assert np.allclose(cones.hb, h_b, rtol=1e-14, atol=0)
    assert np.allclose(cones.hl, h_l, rtol=1e-14, atol=0)

    x = rng.normal(size=p.n)
    gb, gl = cones.g_x(x)
    assert np.allclose(gb, (G_b @ x).reshape(nb, 4), rtol=1e-13, atol=1e-13)
    assert np.allclose(gl, G_l @ x, rtol=1e-13, atol=1e-13)

    zb, zl = rng.normal(size=(nb, 4)), rng.normal(size=ml)
    gtz = G_b.T @ zb.reshape(-1) + G_l.T @ zl
    assert np.allclose(cones.gt_z(zb, zl), gtz, rtol=1e-13, atol=1e-13)

    B = rng.normal(size=(nb, 4, 4))
    phib = B @ B.transpose(0, 2, 1)
    dl = rng.random(ml) + 0.1
    phi = np.zeros((4 * nb, 4 * nb))
    for j in range(nb):
        phi[4 * j:4 * j + 4, 4 * j:4 * j + 4] = phib[j]
    N = oracles.dense_hessian(p) + G_b.T @ phi @ G_b \
        + G_l.T @ (dl[:, None] * G_l)
    band = cones.normal_band(cones.h_band, phib, dl)
    i, j = np.tril_indices(p.n)
    inside = i - j <= cones.bw
    assert np.all(N[i[~inside], j[~inside]] == 0.0)
    assert np.allclose(band[i[inside] - j[inside], j[inside]],
                       N[i[inside], j[inside]], rtol=1e-12, atol=1e-12)
    # entries past the end of a band row are padding
    assert all(np.all(band[d, p.n - d:] == 0.0) for d in range(cones.bw + 1))
