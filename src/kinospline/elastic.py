"""Elastic tube refinement of a searched control point placement.

The free placement is wrapped in a tube of overlapping clearance balls,
each pushed away from its nearest obstacle by binary search (up to
D_INFL_MAX, with thresholds set by the smallest cell), then the control
points are re-optimized inside the tube by a convex QCQP with the
boundary tuples pinned. Safety of the resulting spline is enforced by an
iterative shrinking loop: when a span exits the tube, one extra control
point constrained to the lens of two consecutive balls is inserted and the
problem is re-solved, at most k times per ball gap (k^2 per span). Spans
the tube cannot certify are sampled and looked up in the raw occupancy
(world.occupied).
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import qcqp
from .splines import (SplineDef, blending_tables, check_feasible,
                      eval_span_many, span_stack)
from .world import ConfigSpace, VoxelWorld, occupied

D_INFL_MAX = 5.0    # longest push of a clearance ball, meters


@dataclass(frozen=True)
class InflationContract:
    """The two inflation levels and the geometry they must satisfy.

    The gap between the search inflation and the tube inflation guarantees
    that consecutive clearance balls overlap; the tube inflation alone
    keeps straight segments between ball centers inside free space.
    Both levels include body_radius, the radius of the vehicle body
    around the trajectory.
    """

    delta_bk: float
    delta_elas: float
    h_max: float
    cell_sizes: tuple
    body_radius: float = 0.0

    def validate(self) -> None:
        min_c = min(self.cell_sizes)
        if not self.delta_bk - self.delta_elas > self.h_max / 2.0 - min_c:
            raise ValueError("inflation gap too small for tube connectivity")
        if not self.delta_elas >= (np.sqrt(2.0) - 1.0) / 2.0 * self.h_max:
            raise ValueError("tube inflation below the straight-segment bound")

    @staticmethod
    def default(cell_sizes, cert_delta: float = 0.0,
                body_radius: float = 0.0) -> "InflationContract":
        """Contract sized from the grid geometry and a deviation certificate.

        The tube level sits at the straight-segment bound plus a quarter
        cell (collisions the center-based clearances miss are caught by
        the verification loop). The search level carries half a cell
        diagonal plus the certified spline deviation scaled to a Euclidean
        bound across axes, which keeps searched trajectories clear of raw
        obstacles; the connectivity gap is enforced on top.
        """
        cs = tuple(float(c) for c in cell_sizes)
        h_max = float(np.linalg.norm(cs))
        min_c = min(cs)
        delta_elas = (np.sqrt(2.0) - 1.0) / 2.0 * h_max + 0.25 * min_c \
            + body_radius
        gap = max(h_max / 2.0 - min_c, 0.0)
        delta_bk = max(delta_elas + gap,
                       0.5 * h_max + np.sqrt(3.0) * cert_delta + body_radius) \
            + 0.02 * min_c
        return InflationContract(delta_bk, delta_elas, h_max, cs,
                                 float(body_radius))


@dataclass(frozen=True, eq=False)
class ElasticTube:
    centers: np.ndarray
    radii: np.ndarray


def tube_expansion(points, cs: ConfigSpace) -> ElasticTube:
    """Push each clearance ball away from its nearest obstacle.

    Binary search on the push distance over [0, D_INFL_MAX], accepting d
    while the grown ball still contains the original one within d_thres,
    a quarter of the smallest cell; the search stops once its bracket is
    one smallest cell wide. The ball at the final accepted distance is
    re-queried so its radius is a true clearance. Every point runs its
    own search; the searches advance in lockstep so each round is one
    batched clearance query.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    world = cs.world
    res = float(min(world.cell_sizes))
    d_thres = 0.25 * res
    n0, r0 = cs.nn_search(points)
    blocked = np.flatnonzero(r0 <= 0.0)
    if blocked.size:
        raise ValueError(f"tube center {points[blocked[0]].tolist()} "
                         "has no clearance")
    nhat = points - n0
    nn = np.linalg.norm(nhat, axis=1)
    moving = nn >= 1e-12
    nhat[moving] /= nn[moving, None]
    lo = np.zeros(points.shape[0])
    hi = np.full(points.shape[0], D_INFL_MAX)
    while True:
        open_ = moving & (hi - lo > res)
        if not open_.any():
            break
        d = 0.5 * (lo + hi)
        cand = points + d[:, None] * nhat
        inside = open_ & world.points_in_bounds(cand)
        ok = np.zeros_like(inside)
        if inside.any():
            _, r = cs.nn_search(cand[inside])
            ok[inside] = np.abs(r - d[inside] - r0[inside]) <= d_thres
        lo = np.where(open_ & ok, d, lo)
        hi = np.where(open_ & ~ok, d, hi)
    centers = points.copy()
    radii = r0.copy()
    if moving.any():
        q = points[moving] + lo[moving, None] * nhat[moving]
        centers[moving] = q
        radii[moving] = cs.nn_search(q)[1]
    return ElasticTube(centers=centers, radii=radii)


def assemble_qcqp(balls_per_point, init_points, start_pins, goal_pins,
                  l: int, dt: float, bounds) -> qcqp.QcqpProblem:
    """QCQP over the free points of [start pins, free run, goal pins].

    Objective: summed span control cost of order l (the time term is fixed
    by the placement and drops out). Constraints: the given balls per free
    point, plus derivative-span rows for velocity and acceleration per
    span and axis (sufficient feasibility condition).
    """
    start_pins = np.asarray(start_pins, dtype=float)
    goal_pins = np.asarray(goal_pins, dtype=float)
    init_points = np.asarray(init_points, dtype=float).reshape(-1, 3)
    k = start_pins.shape[0] - 1
    if goal_pins.shape[0] != k + 1:
        raise ValueError("boundary pins must both have k+1 points")
    nf = init_points.shape[0]
    if len(balls_per_point) != nf:
        raise ValueError("need one ball list per free point")
    seq = np.vstack([start_pins, init_points, goal_pins])
    nspan = seq.shape[0] - k
    tab = blending_tables(k)
    cm = tab.cost_mat(l) * dt ** (1 - 2 * l)

    # every free point lies in all k+1 spans that hold it, so diagonal d
    # of the free points' Gram band is the sum of cm's, and H = 2 hff (x) I3
    # puts it on H's diagonal 3d (point-major variables)
    n = 3 * nf
    diag = np.array([np.trace(cm, -d) for d in range(k + 1)])
    H_band = np.zeros((3 * k + 1, n))
    H_band[::3] = np.where(np.arange(n) < n - 3 * np.arange(k + 1)[:, None],
                           2.0 * diag[:, None], 0.0)
    # the pins' share per span, free points zeroed: its gradient at the
    # free points is g / 2, its value const
    idx = np.arange(nspan)[:, None] + np.arange(k + 1)
    free_mask = (idx >= k + 1) & (idx < k + 1 + nf)
    pinned = seq[idx] * ~free_mask[:, :, None]
    cp = np.einsum("rc,jca->jra", cm, pinned)
    grad = np.zeros_like(seq)
    for r in range(k + 1):
        grad[r:r + nspan] += cp[:, r]
    g = 2.0 * grad[k + 1:k + 1 + nf].reshape(-1)
    const = float(np.einsum("jca,jca->", pinned, cp))

    balls = []
    for i, lst in enumerate(balls_per_point):
        for center, radius in lst:
            balls.append(qcqp.BallConstraint(i, np.asarray(center, dtype=float),
                                             float(radius)))

    # derivative-span rows, padded. Row (order, span j, r, axis) holds
    # S_order[r, c] on free point j + c; the pinned points' share moves
    # into the bounds. Spans 1..k+nf touch a free point. Built as (k+1, m)
    # and transposed, so the rows come out column-major.
    spans = slice(1, nspan - 1) if nf else slice(0, 0)
    S = np.stack([tab.bound_transform(order, dt) for order in (1, 2)])
    fixed = np.einsum("orc,jca->ojra", S, pinned[spans])
    b_lo = np.stack([bounds.v_min, bounds.a_min]).astype(float)
    b_hi = np.stack([bounds.v_max, bounds.a_max]).astype(float)
    lo = (b_lo[:, None, None, :] - fixed).reshape(-1)
    hi = (b_hi[:, None, None, :] - fixed).reshape(-1)
    # entry e of span j's rows sits on the span's (first free + e)-th
    # point; entries past its last free point repeat that one
    j = idx[spans, :1]
    at = np.maximum(k + 1 - j, 0) + np.arange(k + 1)
    end = np.minimum(k + nf - j, k)
    pos = np.minimum(at, end)
    shape = (k + 1, 2, j.shape[0], k + 1, 3)
    coef = np.broadcast_to((S[:, :, pos.T] * (at <= end).T)
                           .transpose(2, 0, 3, 1)[..., None],
                           shape).reshape(k + 1, -1)
    cols = np.broadcast_to(3 * (j + pos - (k + 1)).T[:, None, :, None, None]
                           + np.arange(3), shape).reshape(k + 1, -1)
    # a row without free coefficients is a fixed number: drop it when it
    # holds, keep it as an empty row (the solver reports it) when not
    keep = (coef != 0.0).any(axis=0) | (lo > 0.0) | (hi < 0.0)
    A = A_cols = None
    if keep.any():
        A = np.compress(keep, coef, axis=1).T
        A_cols = np.compress(keep, cols, axis=1).T
        lo, hi = lo[keep], hi[keep]
    else:
        lo = hi = None
    return qcqp.QcqpProblem(H_band=H_band, g=g, balls=tuple(balls), A=A,
                            A_cols=A_cols, lo=lo, hi=hi, const=const)


def _span_samples(spans, dt: float, step: float) -> list:
    """Per span, positions sampled densely enough that arc steps stay
    under step (16 intervals, doubled per span up to 4096)."""
    out = [None] * spans.shape[0]
    todo = np.arange(spans.shape[0])
    n = 16
    while todo.size:
        us = np.linspace(0.0, 1.0, n + 1)
        pts = eval_span_many(spans[todo], us, 0, dt)
        seg = np.linalg.norm(np.diff(pts, axis=1), axis=2).max(axis=1)
        done = (seg <= step) | (n >= 4096)
        for j, p in zip(todo[done], pts[done]):
            out[j] = p
        todo = todo[~done]
        n *= 2
    return out


def verify_safety(points, k: int, dt: float, ball_map, tube_balls,
                  raw_world: VoxelWorld) -> list:
    """Spans of the sequence that cannot be certified obstacle-free.

    A span whose control points all sit inside one tube ball (among the
    balls of its points) is safe by the convex hull property. Anything
    else is densely sampled (arc step of a quarter cell), and every sample
    of every such span is looked up in the raw occupancy at once; spans
    with an occupied sample return in the report.
    """
    points = np.asarray(points, dtype=float)
    nspan = points.shape[0] - k
    if nspan <= 0:
        return []
    centers, radii = tube_balls
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float)
    # inside[i, b]: point i lies in ball b; listed[i, b]: b is i's ball
    inside = np.linalg.norm(points[:, None, :] - centers[None, :, :],
                            axis=2) <= radii[None, :]
    listed = np.zeros_like(inside)
    owner = [i for i, bl in ball_map.items() for _ in bl]
    ball = [b for bl in ball_map.values() for b in bl]
    listed[owner, ball] = True

    def window(mask, want_all):
        # per span and ball: all (or any) of its k+1 points satisfy mask
        count = np.cumsum(np.vstack([np.zeros((1, mask.shape[1]), int),
                                     mask.astype(int)]), axis=0)
        inner = count[k + 1:] - count[:-(k + 1)]
        return inner == k + 1 if want_all else inner > 0

    safe = np.any(window(inside, True) & window(listed, False), axis=1)
    unsafe = np.flatnonzero(~safe)
    if not unsafe.size:
        return []
    step = float(min(raw_world.cell_sizes)) / 4.0
    samples = _span_samples(np.stack([points[j:j + k + 1] for j in unsafe]),
                            dt, step)
    hit = occupied(np.concatenate(samples),
                   raw_world.occ.reshape(-1).view(np.uint8), raw_world.dims,
                   raw_world.origin, raw_world.cell_sizes)
    first = np.cumsum([0] + [s.shape[0] for s in samples[:-1]])
    return [int(j) for j in unsafe[np.logical_or.reduceat(hit, first)]]


@dataclass(frozen=True, eq=False)
class RefineResult:
    status: str
    points: np.ndarray = None
    spline: SplineDef = None
    cost: float = np.inf
    initial_cost: float = np.inf
    inserted: int = 0
    iterations: int = 0         # solve rounds of the insertion loop
    solver_iterations: int = 0  # Newton iterations of the last solve
    knot_repeat: int = 1        # cell repeat factor of the refined placement
    solve_time: float = 0.0
    expand_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "safe"


def refine(free_points, start_pins, goal_pins, cs_elas: ConfigSpace,
           raw_world: VoxelWorld, contract: InflationContract,
           bounds, l: int, dt: float, solver_tol: float = 1e-6,
           solver_max_iter: int = 20000) -> RefineResult:
    """Tube expansion, QCQP solve and the shrinking-insertion loop.

    Returns status safe with the refined spline; infeasible when the
    solver certifies an empty feasible set, a span made purely of pins
    breaks the bounds, or a colliding span has no ball gap left to split
    (each gap accepts at most k insertions, so a span absorbs at most k^2
    before the loop gives up); or solver-failed when a solve ends without
    converging (status max-iter), which proves nothing either way.
    """
    contract.validate()
    start_pins = np.asarray(start_pins, dtype=float)
    goal_pins = np.asarray(goal_pins, dtype=float)
    free_points = np.asarray(free_points, dtype=float).reshape(-1, 3)
    k = start_pins.shape[0] - 1

    t0 = time.perf_counter()
    tube = tube_expansion(free_points, cs_elas)
    expand_time = time.perf_counter() - t0

    initial_seq = np.vstack([start_pins, free_points, goal_pins])
    initial_cost = SplineDef(k=k, dt=dt, points=initial_seq).cost(l)

    # mutable problem state: per free point, its ball ids and origin gap
    # (the balls themselves stay the tube's)
    centers, radii = tube.centers, tube.radii
    point_balls = [[i] for i in range(free_points.shape[0])]
    init_pts = [free_points[i] for i in range(free_points.shape[0])]
    gap_of_point = list(range(free_points.shape[0]))
    gap_inserts = {}

    inserted = 0
    iterations = 0
    solve_time = 0.0

    def result(status, **fields):
        return RefineResult(status=status, initial_cost=initial_cost,
                            inserted=inserted, iterations=iterations,
                            solver_iterations=sol.iterations,
                            solve_time=solve_time, expand_time=expand_time,
                            **fields)

    while True:
        iterations += 1
        balls_per_point = [[(centers[b], radii[b]) for b in bl] for bl in point_balls]
        problem = assemble_qcqp(balls_per_point, np.asarray(init_pts), start_pins,
                                goal_pins, l, dt, bounds)
        t0 = time.perf_counter()
        sol = qcqp.solve(problem, tol=solver_tol,
                         x0=np.asarray(init_pts, dtype=float).reshape(-1),
                         max_iter=solver_max_iter)
        solve_time += time.perf_counter() - t0
        if sol.status != "optimal":
            # only a converged solve certifies the derivative-bound rows
            return result("infeasible" if sol.status == "infeasible-detected"
                          else "solver-failed")
        new_free = sol.x.reshape(-1, 3)
        seq = np.vstack([start_pins, new_free, goal_pins])
        ball_map = {k + 1 + i: tuple(bl) for i, bl in enumerate(point_balls)}
        bad = verify_safety(seq, k, dt, ball_map, (centers, radii), raw_world)
        if not bad:
            # the derivative-bound rows cover every span touching a free
            # point; spans made purely of pins (the first and the last, or
            # all of them without free points) still need the exact check
            spans = span_stack(seq, k)
            pins = spans[[0, -1]] if init_pts else spans
            if not check_feasible(pins, bounds, dt).all():
                return result("infeasible")
            spline = SplineDef(k=k, dt=dt, points=seq)
            return result("safe", points=seq, spline=spline,
                          cost=spline.cost(l))
        site = _insertion_site(bad[0], k, point_balls, centers, radii,
                               new_free, gap_of_point, gap_inserts)
        if site is None:
            return result("infeasible")
        pos, ball_a, ball_b, gap = site
        lens_point = _lens_center(centers[ball_a], radii[ball_a],
                                  centers[ball_b], radii[ball_b])
        init_pts.insert(pos + 1, lens_point)
        point_balls.insert(pos + 1, [ball_a, ball_b])
        gap_of_point.insert(pos + 1, gap)
        gap_inserts[gap] = gap_inserts.get(gap, 0) + 1
        inserted += 1


def refine_adaptive(free_points, start_pins, goal_pins, cs_elas, raw_world,
                    contract, bounds, l, dt, solver_tol=1e-6,
                    solver_max_iter=20000) -> RefineResult:
    """refine() with knot-count fallbacks for short or abrupt placements.

    The derivative-bound rows are conservative for one-cell-per-knot
    profiles near rest, so a placement that cannot be certified gets its
    cells repeated (same route, more knots) and a bare seam-to-goal hop
    gets one synthesized midpoint. Returns the first certified result, or
    the last failure; its knot_repeat is the factor it was refined at.
    """
    free_points = np.asarray(free_points, dtype=float).reshape(-1, 3)
    start_pins = np.asarray(start_pins, dtype=float)
    goal_pins = np.asarray(goal_pins, dtype=float)
    if free_points.shape[0] == 0 \
            and not np.allclose(start_pins[-1], goal_pins[0]):
        free_points = 0.5 * (start_pins[-1] + goal_pins[0])[None, :]
    res = None
    for slow in (1, 2, 4):
        if slow > 2 and free_points.shape[0] > 24:
            break  # quadrupling a long placement buys nothing but solve time
        pts = np.repeat(free_points, slow, axis=0) if slow > 1 else free_points
        res = replace(refine(pts, start_pins, goal_pins, cs_elas, raw_world,
                             contract, bounds, l, dt, solver_tol=solver_tol,
                             solver_max_iter=solver_max_iter),
                      knot_repeat=slow)
        if res.ok:
            break
    return res


def _insertion_site(bad_span, k, point_balls, centers, radii, free_pts,
                    gap_of_point, gap_inserts):
    """Pick the free-point gap to split inside the colliding span.

    Candidates are consecutive free points whose ball sets allow an
    overlapping pair and whose originating gap still has insertion budget
    (k per gap). Among candidates the pair with the widest spacing relative
    to its ball overlap wins (the largest hull excursion risk).
    """
    nf = len(point_balls)
    lo = max(bad_span - (k + 1), 0)
    hi = min(bad_span, nf - 1)
    best = None
    best_score = -np.inf
    for i in range(lo, hi):
        gap = gap_of_point[i]
        if gap_inserts.get(gap, 0) >= k:
            continue
        pair = _overlapping_pair(point_balls[i], point_balls[i + 1],
                                 centers, radii)
        if pair is None:
            continue
        a, b = pair
        spacing = float(np.linalg.norm(free_pts[i + 1] - free_pts[i]))
        overlap = radii[a] + radii[b] - float(np.linalg.norm(centers[b] - centers[a]))
        score = spacing - overlap
        if score > best_score:
            best_score = score
            best = (i, a, b, gap)
    return best


def _overlapping_pair(balls_a, balls_b, centers, radii):
    best = None
    best_overlap = 0.0
    for a in balls_a:
        for b in balls_b:
            if a == b:
                continue
            ov = radii[a] + radii[b] - float(np.linalg.norm(centers[b] - centers[a]))
            if ov > best_overlap:
                best_overlap = ov
                best = (a, b)
    return best


def _lens_center(ca, ra, cb, rb) -> np.ndarray:
    """Center of the intersection disc of two overlapping balls."""
    d = np.linalg.norm(cb - ca)
    if d < 1e-12:
        return np.asarray(ca, dtype=float).copy()
    t = 0.5 + (ra * ra - rb * rb) / (2.0 * d * d)
    t = min(max(t, 0.0), 1.0)
    return ca + t * (cb - ca)
