import math

import numpy as np
import pytest

from kinospline import splines as sp
from kinospline import stats

import oracles


def random_span(rng, k=5, scale=1.0):
    return rng.normal(scale=scale, size=(k + 1, 3))


class TestBlendingMatrix:
    def test_degree0_is_indicator(self):
        assert np.array_equal(sp.blending_matrix(0), [[1.0]])

    def test_degree2_matches_hand_computed(self):
        expect = np.array([[0.5, 0.5, 0.0], [-1.0, 1.0, 0.0], [0.5, -1.0, 0.5]])
        M = sp.blending_matrix(2)
        assert np.allclose(M, expect, atol=1e-15)
        # row sums against partition of unity at the interval ends
        for u in (0.0, 1.0):
            b = np.array([u**i for i in range(3)])
            assert abs((b @ M).sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_partition_of_unity_sampled(self, k):
        M = sp.blending_matrix(k)
        us = np.linspace(0.0, 1.0, 100)
        B = np.vander(us, k + 1, increasing=True)
        weights = B @ M
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12
        assert weights.min() > -1e-12  # basis stays nonnegative on the span

    def test_out_of_range_degree(self):
        with pytest.raises(ValueError):
            sp.blending_matrix(8)
        with pytest.raises(ValueError):
            sp.blending_matrix(-1)

    def test_c0_identity_and_s0_identity(self):
        tab = sp.blending_tables(5)
        assert np.array_equal(tab.C(0), np.eye(6))
        assert np.allclose(tab.bound_transform(0, 1.0), np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_bound_transform_structural_zeros_exact(self, k):
        # S_l = M^-1 C_l^T M agrees with its floating-point product, and
        # the entries the product leaves at roundoff level are exactly 0
        tab = sp.blending_tables(k)
        for l in range(k + 1):
            S = tab.bound_transform(l, 0.17)
            ref = tab.Minv @ tab.C(l).T @ tab.M / 0.17 ** l
            scale = np.abs(ref).max()
            assert np.abs(S - ref).max() <= 1e-9 * scale
            assert np.all(S[np.abs(ref) < 1e-9 * scale] == 0.0)
        S2 = sp.blending_tables(5).bound_transform(2, 0.17)
        assert S2[2, 5] == 0.0 and S2[3, 0] == 0.0


class TestEvalSpan:
    def test_equal_points_reproduce_point(self):
        q = np.array([1.5, -2.0, 0.25])
        P = np.tile(q, (6, 1))
        for u in (0.0, 0.3, 1.0):
            assert np.allclose(sp.eval_span(P, u, 0, 0.2), q, atol=1e-12)
            assert np.allclose(sp.eval_span(P, u, 1, 0.2), 0.0, atol=1e-12)

    def test_collinear_points_have_zero_acceleration(self):
        step = np.array([0.3, -0.1, 0.2])
        P = np.arange(6)[:, None] * step
        for u in (0.0, 0.5, 1.0):
            assert np.allclose(sp.eval_span(P, u, 2, 0.17), 0.0, atol=1e-10)
            assert np.allclose(sp.eval_span(P, u, 1, 0.17), step / 0.17,
                               atol=1e-10)

    def test_rejects_bad_order_and_u(self):
        P = np.zeros((6, 3))
        with pytest.raises(ValueError):
            sp.eval_span(P, 0.5, 6, 0.2)
        with pytest.raises(ValueError):
            sp.eval_span(P, 1.5, 0, 0.2)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-4
        for _ in range(50):
            P = random_span(rng)
            u = rng.uniform(0.05, 0.95)
            for l in (1, 2, 3):
                v = sp.eval_span(P, u, l, 0.17)
                lo = sp.eval_span(P, u - h, l - 1, 0.17)
                hi = sp.eval_span(P, u + h, l - 1, 0.17)
                fd = (hi - lo) / (2 * h) / 0.17
                assert np.abs(v - fd).max() < 1e-5 * (1 + np.abs(v).max())


    def test_stacked_spans_match_single(self):
        rng = np.random.default_rng(4)
        P = np.stack([random_span(rng) for _ in range(5)])
        us = np.linspace(0.0, 1.0, 7)
        for l in range(6):
            stacked = sp.eval_span_many(P, us, l, 0.17)
            for j in range(5):
                assert np.allclose(stacked[j],
                                   sp.eval_span_many(P[j], us, l, 0.17),
                                   rtol=1e-12, atol=1e-9)


def test_derivative_basis_rows_are_memoized_and_read_only():
    rng = np.random.default_rng(12)
    u_sets = (np.linspace(0.0, 1.0, 9), np.array([0.0, 1.0, 0.5, 1e-300]),
              rng.random(17))
    for k in range(2, 6):
        for l in range(k + 1):
            # the formula before memoization, built afresh per call
            ff = np.array([math.perm(i, l) for i in range(k + 1)],
                          dtype=float)
            ex = np.maximum(np.arange(k + 1) - l, 0)
            for us in u_sets:
                assert np.array_equal(sp._derivative_basis(us, k, l),
                                      ff * us[:, None] ** ex)
            rows = sp._derivative_rows(k, l)
            assert rows is sp._derivative_rows(k, l)
            for row in rows:
                with pytest.raises(ValueError):
                    row[0] = 7


class TestSpanCost:
    def test_stacked_spans_match_single(self):
        rng = np.random.default_rng(5)
        P = np.stack([random_span(rng) for _ in range(5)])
        for l in (1, 2, 3):
            per = sp.span_cost(P, l, 0.17)
            assert per.shape == (5,)
            for j in range(5):
                assert per[j] == pytest.approx(sp.span_cost(P[j], l, 0.17),
                                               rel=1e-12)

    def test_equal_points_zero_cost(self):
        P = np.tile([0.4, 0.4, -1.0], (6, 1))
        for l in (1, 2, 3):
            assert sp.span_cost(P, l, 0.17) == pytest.approx(0.0, abs=1e-10)

    def test_collinear_zero_acceleration_cost(self):
        P = np.arange(6)[:, None] * np.array([0.2, 0.0, 0.1])
        assert sp.span_cost(P, 2, 0.17) < 1e-12

    def test_matches_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            P = random_span(rng)
            for l in (1, 2, 3):
                c = sp.span_cost(P, l, 0.23)
                q = oracles.quadrature_span_cost(P, l, 0.23)
                assert c == pytest.approx(q, rel=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            assert sp.span_cost(random_span(rng), 3, 0.17) >= 0.0


class TestDerivativeSpan:
    def test_order_zero_unchanged(self):
        rng = np.random.default_rng(5)
        P = random_span(rng)
        assert np.allclose(sp.derivative_span(P, 0, 0.17), P, atol=1e-12)

    def test_equal_points_zero_rows(self):
        P = np.tile([1.0, 2.0, 3.0], (6, 1))
        assert np.abs(sp.derivative_span(P, 1, 0.17)).max() < 1e-10

    def test_transformed_span_evaluates_derivative(self):
        rng = np.random.default_rng(6)
        tab = sp.blending_tables(5)
        for _ in range(10):
            P = random_span(rng)
            SP = sp.derivative_span(P, 1, 0.17)
            us = np.linspace(0.0, 1.0, 1000)
            B = np.vander(us, 6, increasing=True)
            direct = sp.eval_span_many(P, us, 1, 0.17)
            via = B @ tab.M @ SP
            assert np.abs(direct - via).max() < 1e-9


class TestSpanExtrema:
    def test_equal_points(self):
        P = np.tile([1.0, -1.0, 0.0], (6, 1))
        ex = sp.span_extrema(P, 1, 0.17)
        assert np.abs(ex).max() < 1e-12

    def test_constant_speed_line(self):
        h = 0.25
        P = np.arange(6)[:, None] * np.array([h, 0.0, 0.0])
        ex = sp.span_extrema(P, 1, 0.2)
        assert ex[0, 0] == pytest.approx(h / 0.2, abs=1e-10)
        assert ex[0, 1] == pytest.approx(h / 0.2, abs=1e-10)

    @pytest.mark.parametrize("k,l", [(5, 1), (5, 2), (3, 1), (3, 2)])
    def test_matches_dense_sampling(self, k, l):
        rng = np.random.default_rng(100 + k + l)
        for _ in range(20):
            P = random_span(rng, k=k)
            ex = sp.span_extrema(P, l, 0.17)
            ref = oracles.sampled_extrema(P, l, 0.17)
            assert np.abs(ex - ref).max() < 1e-6

    def test_unsupported_combination(self):
        with pytest.raises(ValueError):
            sp.span_extrema(np.zeros((5, 3)), 1, 0.2)  # k=4
        with pytest.raises(ValueError):
            sp.span_extrema(np.zeros((6, 3)), 3, 0.2)


class TestCheckFeasible:
    def test_stack_equals_per_span(self):
        rng = np.random.default_rng(11)
        bounds = sp.DerivativeBounds.symmetric(2.0, 4.7)
        for k in (3, 5):
            P = rng.normal(scale=0.3, size=(40, k + 1, 3))
            P[::7] = P[::7, :1]  # static spans
            got = sp.check_feasible(P, bounds, 0.17)
            ref = [sp.check_feasible(p, bounds, 0.17) for p in P]
            assert got.tolist() == ref
            assert 0 < sum(ref) < len(ref)
            ex = sp.span_extrema(P, 2, 0.17)
            assert all(np.array_equal(ex[i], sp.span_extrema(p, 2, 0.17))
                       for i, p in enumerate(P))

    def test_extrema_only_for_spans_outside_the_hull(self, monkeypatch):
        rng = np.random.default_rng(12)
        bounds = sp.DerivativeBounds.symmetric(2.0, 4.7)
        extrema = sp._span_motion_extrema
        seen = []

        def spy(P, dt):
            seen.append(np.array(P))
            return extrema(P, dt)

        monkeypatch.setattr(sp, "_span_motion_extrema", spy)
        for k in (3, 5):
            P = rng.normal(scale=0.05, size=(60, k + 1, 3))
            P[::7] = P[::7, :1]  # static spans
            tables = sp.blending_tables(k)
            hull = np.ones(len(P), dtype=bool)
            for l, bound in ((1, 2.0), (2, 4.7)):
                D = tables.bound_transform(l, 0.17) @ P
                hull &= np.all(np.abs(D) <= bound, axis=(1, 2))
            lo, hi = extrema(P, 0.17)
            lim = np.array([2.0, 4.7])
            exact = np.all((-lim <= lo) & (hi <= lim), axis=(1, 2))
            assert np.any(~hull & exact)  # outside the hull, yet feasible
            assert 0 < hull.sum() and exact.sum() < len(P)
            seen.clear()
            got = sp.check_feasible(P, bounds, 0.17)
            assert got.tolist() == exact.tolist()
            assert len(seen) == 1 and np.array_equal(seen[0], P[~hull])

    def test_static_always_feasible(self):
        P = np.tile([3.0, 2.0, 1.0], (6, 1))
        assert sp.check_feasible(P, sp.DerivativeBounds.symmetric(0.1, 0.1), 0.17)

    def test_fast_line_exceeds_vmax(self):
        P = np.arange(6)[:, None] * np.array([3.0 * 0.17, 0.0, 0.0])
        bounds = sp.DerivativeBounds.symmetric(2.0, 100.0)
        assert not sp.check_feasible(P, bounds, 0.17)

    def test_cruise_within_bench_limits(self):
        P = np.arange(6)[:, None] * np.array([0.2, 0.0, 0.0])
        bounds = sp.DerivativeBounds.symmetric(2.0, 4.7)
        assert sp.check_feasible(P, bounds, 0.17)
        # agreement with the dense-sampling view of the same bounds
        v = oracles.sampled_extrema(P, 1, 0.17, n=20001)
        a = oracles.sampled_extrema(P, 2, 0.17, n=20001)
        assert np.abs(v).max() <= 2.0 + 1e-9 and np.abs(a).max() <= 4.7 + 1e-9

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            sp.DerivativeBounds(np.ones(3), -np.ones(3), -np.ones(3), np.ones(3))


class TestSplineDef:
    def test_insert_counts_and_dt(self):
        rng = np.random.default_rng(8)
        s = sp.SplineDef(k=5, dt=0.17, points=rng.normal(size=(9, 3)))
        s2 = sp.insert_control_point(s, 4, [0.0, 0.0, 0.0])
        assert s2.points.shape[0] == 10
        assert s2.dt == s.dt
        assert s2.n_spans == s.n_spans + 1

    def test_insert_midpoint_keeps_collinear(self):
        step = np.array([0.1, 0.2, 0.0])
        s = sp.SplineDef(k=3, dt=0.2, points=np.arange(8)[:, None] * step)
        mid = 0.5 * (s.points[3] + s.points[4])
        s2 = sp.insert_control_point(s, 4, mid)
        ts, pos = s2.sample(0.01)
        d = pos - pos[0]
        cross = np.cross(d[1:], step)
        assert np.abs(cross).max() < 1e-9

    def test_insert_duplicate_stays_in_hull(self):
        s = sp.SplineDef(k=3, dt=0.2,
                         points=np.arange(6)[:, None] * np.array([0.3, 0.0, 0.0]))
        s2 = sp.insert_control_point(s, 2, s.points[2])
        _, pos = s2.sample(0.01)
        assert pos[:, 0].min() >= s.points[:, 0].min() - 1e-12
        assert pos[:, 0].max() <= s.points[:, 0].max() + 1e-12
        assert np.abs(pos[:, 1:]).max() < 1e-12

    def test_insert_index_range(self):
        s = sp.SplineDef(k=3, dt=0.2, points=np.zeros((6, 3)))
        with pytest.raises(IndexError):
            sp.insert_control_point(s, 9, [0, 0, 0])

    def test_sample_trajectory_matches_single_order_samples(self):
        # one time grid and coefficient gather for orders 0-2 gives the
        # bits of three single-order samples
        rng = np.random.default_rng(5)
        for k, n, step in ((3, 7, 0.02), (5, 12, 0.013), (5, 6, 1.0)):
            s = sp.SplineDef(k=k, dt=0.17, points=rng.normal(size=(n, 3)))
            ts, pos = s.sample(step, 0)
            vel, acc = s.sample(step, 1)[1], s.sample(step, 2)[1]
            assert np.array_equal(stats.sample_trajectory(s, step),
                                  np.column_stack([ts, pos, vel, acc]))

    def test_continuity_across_spans(self):
        rng = np.random.default_rng(9)
        s = sp.SplineDef(k=5, dt=0.17, points=rng.normal(size=(12, 3)))
        for j in range(s.n_spans - 1):
            for l in range(5):  # up to order k-1
                left = sp.eval_span(s.span(j), 1.0, l, s.dt)
                right = sp.eval_span(s.span(j + 1), 0.0, l, s.dt)
                assert np.abs(left - right).max() < 1e-9


def test_convex_hull_membership_axis_aligned():
    rng = np.random.default_rng(10)
    for _ in range(50):
        P = rng.normal(size=(6, 3))
        us = np.linspace(0, 1, 64)
        pos = sp.eval_span_many(P, us, 0, 0.2)
        assert np.all(pos >= P.min(axis=0) - 1e-9)
        assert np.all(pos <= P.max(axis=0) + 1e-9)
