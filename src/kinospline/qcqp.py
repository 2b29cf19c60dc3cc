"""Convex QCQP solver for the tube-refinement problem class.

Minimize 0.5 x'Hx + g'x over stacked free control points subject to
per-point Euclidean ball constraints (several balls may pin the same
point) and two-sided linear rows. The problem is solved in conic form by
a primal-dual interior point method: Mehrotra predictor-corrector steps
under Nesterov-Todd scaling, as in CVXOPT's coneqp (Vandenberghe 2010)
and ECOS (Domahidi, Chu & Boyd, ECC 2013). Each ball is a 4-dimensional
second-order cone over (radius, center - point) and each finite row side
a nonnegative slack.

Every Newton system reduces to H + G'W^-2 G: H plus a 3x3 block per ball
point plus the rows' coupling. For the tube problems H and the rows span
k+1 interleaved xyz points, so the matrix is banded with half-bandwidth
3k and a banded Cholesky solves it in O(n k^2). The iteration count does
not depend on the conditioning of H.

Every main iteration starts strictly feasible and centered: s = h - Gx
inside the cones and z = mu s^-1. A start point outside the cones, or on
their boundary to within the primal tolerance, first runs a phase-I
problem (minimize the common violation t of every constraint), which
either finds a strictly feasible point to start from or certifies
through its dual that the feasible set is empty.

On tube problems nearly every derivative row sits far from its bounds at
the optimum, yet the rows make up almost all of the cone degree. So the
rows enter through a working set: the first sub-problem holds the balls
only, every row of A is then tested exactly at its optimum, and the
broken rows join the set for the next sub-problem, until no row outside
the set is broken. Each round adds a row, so the rounds end; rows left
out have zero multipliers, so the last optimum is a KKT point of the
whole problem, and a sub-problem's infeasibility certificate holds for
the whole problem, of which it is a relaxation.
"""

import copy
from dataclasses import dataclass

import numpy as np
from scipy import linalg, optimize, sparse

_pbtrf, _pbtrs = linalg.get_lapack_funcs(("pbtrf", "pbtrs"),
                                         (np.zeros((1, 1)),))

_STEP = 0.99          # fraction of the way to the cone boundary


@dataclass(frozen=True, eq=False)
class BallConstraint:
    point: int          # index of the 3-D point inside the decision vector
    center: np.ndarray  # (3,)
    radius: float


@dataclass(frozen=True, eq=False)
class QcqpProblem:
    """min 0.5 x'Hx + g'x + const  s.t.  ||x_p - q_j|| <= r_j,  lo <= Ax <= hi.

    A may be a dense array or a scipy sparse matrix; infinite entries of
    lo and hi leave that side of the row free.
    """

    H: np.ndarray
    g: np.ndarray
    balls: tuple
    A: object = None
    lo: np.ndarray = None
    hi: np.ndarray = None
    const: float = 0.0

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def n_rows(self) -> int:
        return 0 if self.A is None else self.A.shape[0]

    def validate(self, tol: float = 1e-8) -> None:
        H = self.H
        if H.shape != (self.n, self.n):
            raise ValueError("H shape does not match the decision vector")
        if self.n == 0:
            return
        scale = max(float(np.abs(H).max()), 1.0)
        if np.abs(H - H.T).max() > 1e-10 * scale:
            raise ValueError("H must be symmetric")
        # H + tol*scale*I factors exactly when H's smallest eigenvalue
        # exceeds -tol*scale (up to roundoff)
        ab = _lower_band(H, _bandwidth(H))
        ab[0] += tol * scale
        _, info = _pbtrf(ab, lower=1)
        if info != 0:
            raise ValueError("H is not PSD")
        for b in self.balls:
            if b.radius <= 0:
                raise ValueError("ball radii must be positive")
            if not (0 <= 3 * b.point + 2 < self.n):
                raise ValueError("ball point index out of range")

    def violation(self, x) -> float:
        """Largest constraint violation at x (0 when feasible)."""
        v = 0.0
        if self.balls:
            pts = np.array([b.point for b in self.balls])
            ctr = np.array([b.center for b in self.balls], dtype=float)
            rad = np.array([b.radius for b in self.balls], dtype=float)
            d = np.linalg.norm(np.asarray(x).reshape(-1, 3)[pts] - ctr, axis=1)
            v = float(np.max(d - rad))
        if self.n_rows:
            ax = self.A @ x
            v = max(v, float(np.max(ax - self.hi)), float(np.max(self.lo - ax)))
        return max(v, 0.0)

    def objective(self, x) -> float:
        return float(0.5 * x @ self.H @ x + self.g @ x + self.const)


@dataclass(frozen=True, eq=False)
class QcqpSolution:
    x: np.ndarray
    objective: float
    max_violation: float
    iterations: int
    status: str


def _bandwidth(H) -> int:
    """Lower bandwidth of a symmetric matrix."""
    nz = H != 0
    first = np.argmax(nz, axis=1)
    rows = np.flatnonzero(nz.any(axis=1))
    return int(np.max(rows - first[rows], initial=0))


def _lower_band(H, bw: int) -> np.ndarray:
    """LAPACK lower band storage: ab[d, j] = H[j + d, j]."""
    n = H.shape[0]
    ab = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        ab[d, :n - d] = np.diagonal(H, -d)
    return ab


class _Rows:
    """The linear rows of a problem, cleaned and normalized once per solve.

    A holds the problem's coefficients (explicit zeros dropped) for the
    exact row test; A_s, lo_s and hi_s are the rows scaled to unit largest
    coefficient. A row without coefficients is the fixed number 0:
    `violated` says that such a row breaks its bounds, which makes the
    problem infeasible before any step is taken.
    """

    def __init__(self, p: QcqpProblem):
        m = p.n_rows
        A = sparse.csr_matrix(p.A if m else (0, p.n), dtype=float)
        A.eliminate_zeros()
        A.sort_indices()
        rnnz = np.diff(A.indptr)
        empty = rnnz == 0
        amax = np.ones(m)
        starts = A.indptr[:-1][~empty]
        if starts.size:
            amax[~empty] = np.maximum.reduceat(np.abs(A.data), starts)
        rs = 1.0 / amax
        self.A = A
        self.A_s = sparse.csr_matrix((A.data * np.repeat(rs, rnnz),
                                      A.indices, A.indptr), shape=A.shape)
        self.lo = np.asarray(p.lo, dtype=float) if m else np.zeros(0)
        self.hi = np.asarray(p.hi, dtype=float) if m else np.zeros(0)
        self.lo_s = self.lo * rs
        self.hi_s = self.hi * rs
        self.violated = bool(np.any(empty & ((self.lo_s > 0.0)
                                             | (self.hi_s < 0.0))))

    def broken(self, x) -> np.ndarray:
        """Rows with a.x outside [lo, hi], tested exactly."""
        ax = self.A @ x
        return np.flatnonzero((ax < self.lo) | (ax > self.hi))


class _Cones:
    """The balls and the working rows as G x + s = h, s in a product cone.

    Ball j on point p is the second-order cone s = (r_j, q_j - x_p) of
    size 4; a finite side of a working row is the slack s = hi - a'x or
    a'x - lo of the row normalized to unit largest coefficient. The
    x-dependent rows of G (three per ball, then one per row side) form
    one sparse matrix.

    The normal matrix H + G' Phi G is assembled in lower band storage by
    one sparse product Q [d; Phi_b] over a precomputed scatter Q: a
    column per working row holding its coefficient pairs, and a column
    per lower entry of a ball's 3x3 block.
    """

    def __init__(self, p: QcqpProblem, rows: _Rows, work, bw_h: int):
        n = p.n
        self.n = n
        nb = len(p.balls)
        self.nb = nb
        pts = np.array([b.point for b in p.balls], dtype=np.int64)
        self.ball_pts = pts
        self.hb = np.empty((nb, 4))
        if nb:
            self.hb[:, 0] = [b.radius for b in p.balls]
            self.hb[:, 1:] = [b.center for b in p.balls]

        # the working rows; none of them is empty (an empty row that holds
        # is never broken, one that does not ends the solve up front)
        A = rows.A_s[work]
        hi, lo = rows.hi_s[work], rows.lo_s[work]
        mrows = A.shape[0]
        rnnz = np.diff(A.indptr)
        up = np.flatnonzero(np.isfinite(hi))
        dn = np.flatnonzero(np.isfinite(lo))
        lp_row = np.concatenate([up, dn])
        lp_sign = np.concatenate([np.ones(up.size), -np.ones(dn.size)])
        self.hl = np.concatenate([hi[up], -lo[dn]])
        self.ml = lp_row.size
        self.degree = nb + self.ml
        # the scale of h, against which primal residuals are measured
        self.h_norm = max(1.0, float(np.abs(self.hb).max(initial=0.0)),
                          float(np.abs(self.hl).max(initial=0.0)))

        # G's x rows: ball selectors, then the signed row sides
        side_len = rnnz[lp_row]
        src = (np.repeat(A.indptr[lp_row] - np.cumsum(side_len) + side_len,
                         side_len) + np.arange(side_len.sum()))
        self.G = sparse.csr_matrix(
            (np.concatenate([np.ones(3 * nb),
                             A.data[src] * np.repeat(lp_sign, side_len)]),
             np.concatenate([(3 * pts[:, None] + np.arange(3)).reshape(-1),
                             A.indices[src]]),
             np.concatenate([np.arange(3 * nb),
                             3 * nb + np.cumsum(np.concatenate([[0], side_len]))])),
            shape=(3 * nb + self.ml, n))
        self.Gt = self.G.T
        self.nb3 = 3 * nb

        # the normal matrix in band storage: one column of Q per row
        # (entry v_i v_j at band position (c_i - c_j, c_j) for each pair
        # i >= j of its coefficients) and one per lower ball-block entry
        rmax = int(rnnz.max(initial=0))
        bw_rows = 0
        if mrows:
            bw_rows = int(np.max(A.indices[A.indptr[1:] - 1]
                                 - A.indices[A.indptr[:-1]]))
        self.bw = max(bw_h, 2 if nb else 0, bw_rows)
        pos = np.arange(A.nnz) - np.repeat(A.indptr[:-1], rnnz)
        row_of = np.repeat(np.arange(mrows), rnnz)
        pc = np.zeros((mrows, rmax), dtype=np.int64)
        pv = np.zeros((mrows, rmax))
        pc[row_of, pos] = A.indices
        pv[row_of, pos] = A.data
        ii, jj = np.tril_indices(rmax)
        a, b = np.tril_indices(3)
        self.ball_ab = (a + 1, b + 1)
        ball_flat = ((a - b)[None, :] * n
                     + 3 * pts[:, None] + b[None, :]).reshape(-1)
        row_flat = np.where(ii < rnnz[:, None],
                            (pc[:, ii] - pc[:, jj]) * n + pc[:, jj], 0)
        npair = ii.size
        self.band_size = (self.bw + 1) * n
        self.Q = sparse.csc_matrix(
            (np.concatenate([(pv[:, ii] * pv[:, jj]).reshape(-1),
                             np.ones(6 * nb)]),
             np.concatenate([row_flat.reshape(-1), ball_flat]),
             np.concatenate([npair * np.arange(mrows),
                             npair * mrows + np.arange(6 * nb + 1)])),
            shape=(self.band_size, mrows + 6 * nb))
        self.lp_row = lp_row
        self.mrows = mrows

    def relaxed(self, tau):
        """These cones with every constraint loosened by tau (h + tau e)."""
        c = copy.copy(self)
        c.hb = self.hb.copy()
        c.hb[:, 0] += tau
        c.hl = self.hl + tau
        return c

    # G and G' applied to cone-shaped data
    def g_x(self, x):
        y = self.G @ x
        gb = np.zeros((self.nb, 4))
        gb[:, 1:] = y[:self.nb3].reshape(-1, 3)
        return gb, y[self.nb3:]

    def gt_z(self, zb, zl):
        return self.Gt @ np.concatenate([zb[:, 1:].reshape(-1), zl])

    def normal_band(self, base, phib, dl):
        """Lower band of base + G' Phi G for ball blocks phib, LP diag dl."""
        d_row = np.bincount(self.lp_row, weights=dl, minlength=self.mrows)
        add = self.Q @ np.concatenate(
            [d_row, phib[:, self.ball_ab[0], self.ball_ab[1]].reshape(-1)])
        return base + add.reshape(self.bw + 1, self.n)


# second-order cone algebra, vectorized over rows of (m, 4) arrays

_J = np.array([1.0, -1.0, -1.0, -1.0])

def _soc_det(u):
    return np.einsum("ij,ij->i", u, u * _J)


def _soc_prod(u, v):
    out = np.empty_like(u)
    out[:, 0] = np.einsum("ij,ij->i", u, v)
    out[:, 1:] = u[:, :1] * v[:, 1:] + v[:, :1] * u[:, 1:]
    return out


def _soc_div(lam, v):
    """x with lam o x = v."""
    out = np.empty_like(v)
    out[:, 0] = (lam[:, 0] * v[:, 0]
                 - np.einsum("ij,ij->i", lam[:, 1:], v[:, 1:])) / _soc_det(lam)
    out[:, 1:] = (v[:, 1:] - out[:, :1] * lam[:, 1:]) / lam[:, :1]
    return out


def _soc_min_eig(u):
    return u[:, 0] - np.linalg.norm(u[:, 1:], axis=1)


def _max_step(sb, sl, zb, zl, dsb, dsl, dzb, dzl) -> float:
    """Largest a keeping both s + a ds and z + a dz in the cone."""
    return _cone_step(np.concatenate([sb, zb]), np.concatenate([sl, zl]),
                      np.concatenate([dsb, dzb]), np.concatenate([dsl, dzl]))


def _cone_step(ub, ul, db, dl) -> float:
    """Largest a with u + a d in the cone (inf when unbounded).

    Per second-order cone, u + a d leaves the cone at the smallest
    positive root of f(a) = det(u + a d) = A a^2 + 2 B a + C (C > 0): the
    cancellation-free C / (sqrt(B^2 - A C) - B), which exists when A < 0
    or B < 0. (With A >= 0 and B < 0, d points into the past cone and the
    discriminant is nonnegative; roundoff can make it negative when u
    and d are nearly parallel, so it is clipped at 0, never read as "no
    root": that would let u + a d cross the apex into -K, where det > 0.)
    """
    inv = 0.0     # 1 / step, maximized over the cones
    if ub.shape[0]:
        jd = db * _J
        qa = np.einsum("ij,ij->i", db, jd)
        qb = np.einsum("ij,ij->i", ub, jd)
        qc = np.einsum("ij,ij->i", ub, ub * _J)
        disc = qb * qb - qa * qc
        hit = (qa < 0.0) | (qb < 0.0)
        if hit.any():
            inv = float(np.max((np.sqrt(np.maximum(disc[hit], 0.0))
                                - qb[hit]) / qc[hit]))
    if ul.size:
        inv = max(inv, float(np.max(-dl / ul)))
    return np.inf if inv <= 0.0 else 1.0 / inv


class _Scaling:
    """Nesterov-Todd scaling W at (s, z) with lam = W z = W^-1 s."""

    def __init__(self, sb, zb, sl, zl):
        J = _J
        sn = np.sqrt(_soc_det(sb))
        zn = np.sqrt(_soc_det(zb))
        s_ = sb / sn[:, None]
        z_ = zb / zn[:, None]
        gam = np.sqrt(0.5 * (1.0 + np.einsum("ij,ij->i", s_, z_)))
        wb = (s_ + J * z_) / (2.0 * gam)[:, None]
        v = wb.copy()
        v[:, 0] += 1.0
        v /= np.sqrt(2.0 * (wb[:, 0] + 1.0))[:, None]
        beta = np.sqrt(sn / zn)
        jv = J * v
        eye_j = np.diag(J)
        self.W = beta[:, None, None] * (2.0 * v[:, :, None] * v[:, None, :]
                                        - eye_j)
        self.Winv = (2.0 * jv[:, :, None] * jv[:, None, :]
                     - eye_j) / beta[:, None, None]
        self.phib = self.Winv @ self.Winv
        self.lamb = np.einsum("ijk,ik->ij", self.W, zb)
        self.wl = np.sqrt(sl / zl)
        self.laml = np.sqrt(sl * zl)


def _ipm(cones: _Cones, P_apply, P_band, q, x, sb, sl, zb, zl, border,
         tol_gap, tol_feas, max_iter, phase1=False):
    """Mehrotra predictor-corrector iterations from (x, s, z).

    border is None for the main problem. For phase I it is the starting
    value of the extra variable t, which enters every cone through its
    identity element (s = h - Gx + t e) and is minimized; its column is
    dense, so the Newton system is solved by eliminating t around the
    banded block.

    Returns (reason, x, t, sb, sl, zb, zl, iterations). reason is
    "optimal"; "stall" on numerical breakdown, when the normal matrix
    stops factoring or a cone determinant falls to 0 or below (a point
    that meets the tolerances within a factor 100, as happens at the
    roundoff floor, counts as optimal instead); "max-iter"; and for phase
    I "interior" (t below minus the primal tolerance, so every constraint
    holds with that margin) or "converged" (the phase-I optimum, any
    other t).

    Both runs start primal feasible, so every step keeps feasibility and
    makes progress, however short.
    """
    nb = cones.nb
    m = cones.degree
    hb, hl = cones.hb, cones.hl
    t = border
    q_norm = max(1.0, float(np.abs(q).max(initial=0.0)))
    h_norm = cones.h_norm
    e_b = np.zeros((nb, 4))
    e_b[:, 0] = 1.0
    it = 0
    while True:
        gb, gl = cones.g_x(x)
        if t is not None:
            gb[:, 0] -= t
            gl = gl - t
        rzb = gb + sb - hb
        rzl = gl + sl - hl
        grad = P_apply(x) + q
        rx = grad + cones.gt_z(zb, zl)
        rt = (1.0 - zb[:, 0].sum() - zl.sum()) if t is not None else 0.0
        mu = float(np.sum(sb * zb) + sl @ zl) / m
        pres = max(float(np.abs(rzb).max(initial=0.0)),
                   float(np.abs(rzl).max(initial=0.0))) / h_norm
        dres = max(float(np.abs(rx).max(initial=0.0)), abs(rt)) / q_norm
        gap_ref = tol_gap * (1.0 + float(np.abs(grad).max()))

        # every complementarity product, not just their mean, must be
        # small: a constraint left between active and inactive skews the
        # recovered multipliers
        comp = max(float(np.max(np.einsum("ij,ij->i", sb, zb), initial=0.0)),
                   float(np.max(sl * zl, initial=0.0)))

        def within(f):
            return comp <= f * gap_ref and pres <= f * tol_feas \
                and dres <= f * tol_feas

        out = (x, t, sb, sl, zb, zl, it)
        if phase1:
            if t < -tol_feas * h_norm:
                return ("interior",) + out
            if mu <= tol_gap and dres <= tol_feas:
                return ("converged",) + out
        elif within(1.0):
            return ("optimal",) + out
        stall = ("optimal" if not phase1 and within(100.0)
                 else "stall",) + out
        if min(float(np.min(_soc_det(sb), initial=1.0)),
               float(np.min(_soc_det(zb), initial=1.0))) <= 0:
            return stall
        if it >= max_iter:
            return ("max-iter",) + out

        sc = _Scaling(sb, zb, sl, zl)
        ab = cones.normal_band(P_band, sc.phib, 1.0 / sc.wl ** 2)
        chol, info = _pbtrf(ab, lower=1)
        if info != 0 or not np.all(np.isfinite(chol)):
            return stall
        it += 1
        if t is not None:
            # t's column of G is -e: Phi (-e) per cone
            k_xt = cones.gt_z(-sc.phib[:, :, 0], -1.0 / sc.wl ** 2)
            k_tt = float(sc.phib[:, 0, 0].sum() + (1.0 / sc.wl ** 2).sum())
            y2, _ = _pbtrs(chol, k_xt, lower=1)
            schur = k_tt - k_xt @ y2

        def newton(u_b, u_l):
            """(dx, dt, ds, dz) solving the linearized KKT system.

            G dx + ds = -rz, P dx + G'dz = -rx and, in scaled space,
            W^-1 ds + W dz = u, so lam o (W^-1 ds + W dz) = lam o u.
            """
            tb = np.einsum("ijk,ik->ij", sc.Winv, u_b) \
                + np.einsum("ijk,ik->ij", sc.phib, rzb)
            tl = u_l / sc.wl + rzl / sc.wl ** 2
            dx, _ = _pbtrs(chol, -rx - cones.gt_z(tb, tl), lower=1)
            dt = 0.0
            if t is not None:
                rhs_t = -rt + tb[:, 0].sum() + tl.sum()
                dt = (rhs_t - k_xt @ dx) / schur
                dx = dx - y2 * dt
            gdb, gdl = cones.g_x(dx)
            if t is not None:
                gdb[:, 0] -= dt
                gdl = gdl - dt
            dzb = np.einsum("ijk,ik->ij", sc.phib, gdb) + tb
            dzl = gdl / sc.wl ** 2 + tl
            return dx, dt, -rzb - gdb, -rzl - gdl, dzb, dzl

        # predictor: drive lam o lam to zero
        dx, dt, dsb, dsl, dzb, dzl = newton(-sc.lamb, -sc.laml)
        a_aff = min(1.0, _max_step(sb, sl, zb, zl, dsb, dsl, dzb, dzl))
        sigma = (1.0 - a_aff) ** 3
        # corrector: centering plus the second-order term, scaled space
        dsb_t = np.einsum("ijk,ik->ij", sc.Winv, dsb)
        dzb_t = np.einsum("ijk,ik->ij", sc.W, dzb)
        u_b = -sc.lamb + _soc_div(sc.lamb, sigma * mu * e_b
                                  - _soc_prod(dsb_t, dzb_t))
        u_l = -sc.laml + (sigma * mu - (dsl / sc.wl) * (dzl * sc.wl)) \
            / sc.laml
        dx, dt, dsb, dsl, dzb, dzl = newton(u_b, u_l)
        alpha = min(1.0, _STEP * _max_step(sb, sl, zb, zl,
                                           dsb, dsl, dzb, dzl))
        x = x + alpha * dx
        sb = sb + alpha * dsb
        sl = sl + alpha * dsl
        zb = zb + alpha * dzb
        zl = zl + alpha * dzl
        if t is not None:
            t = t + alpha * dt


def solve(p: QcqpProblem, tol: float = 1e-6, max_iter: int = 20000,
          x0=None, feas_tol: float = 5e-7) -> QcqpSolution:
    """Interior point solve; status optimal, infeasible-detected or max-iter.

    The rows join a working set as they break (see the module docstring):
    the first sub-problem holds the balls only, the last one leaves no
    row outside the set broken. A sub-problem is bounded when H is
    positive definite on the coordinates that no ball holds.

    A sub-solve ends optimal once the primal and dual residuals fall below
    min(tol, feas_tol)/100 relative to the data and every complementarity
    product below 1e-4 max(tol, 1e-7) (1 + |Hx + g|).
    feas_tol is also the common violation above which phase I declares
    the problem infeasible. max_iter bounds the Newton iterations summed
    over every sub-solve, phase I included, and iterations reports that
    sum. max-iter means the solve did not converge: with iterations ==
    max_iter the budget ran out; with fewer, phase I found neither a
    strictly feasible point nor a certificate, or an iteration broke down
    numerically.

    x0 (zeros when None) is where the first sub-problem starts, each later
    one starting from the previous optimum; a start outside the cones, or
    within the primal tolerance of their boundary, runs phase I first. x0
    must be a finite vector of length n.
    """
    p.validate()
    n = p.n
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (n,) or not np.all(np.isfinite(x)):
            raise ValueError("x0 must be a finite vector of length n")
    if n == 0:
        return QcqpSolution(x, p.const, 0.0, 0, "optimal")
    rows = _Rows(p)
    if rows.violated:
        return QcqpSolution(x, p.objective(x), p.violation(x), 0,
                            "infeasible-detected")
    H = np.asarray(p.H, dtype=float)
    g = np.asarray(p.g, dtype=float)
    bw_h = _bandwidth(H)
    tol_gap = 1e-4 * max(tol, 1e-7)
    tol_feas = min(tol, feas_tol) * 1e-2

    work = np.zeros(0, dtype=np.int64)
    total = 0
    while True:
        cones = _Cones(p, rows, work, bw_h)
        status, x, it = _solve_cones(cones, H, g, x, tol_gap, tol_feas,
                                     feas_tol, max_iter - total)
        total += it
        if status != "optimal":
            break
        new = np.setdiff1d(rows.broken(x), work, assume_unique=True)
        if not new.size:
            break
        if total >= max_iter:
            status = "max-iter"
            break
        work = np.union1d(work, new)
    return QcqpSolution(x, p.objective(x), p.violation(x), total, status)


def _solve_cones(cones: _Cones, H, g, x, tol_gap, tol_feas, feas_tol,
                 max_iter):
    """One interior point solve over the given cones, starting from x.

    A start inside every cone by more than the primal tolerance is run
    from directly. Any other start runs phase I first (minimize the
    common violation t of every constraint from x): its strictly feasible
    point starts the main run, and its optimum, when the dual certifies
    it, proves the cones empty. A phase-I optimum at t <= feas_tol that
    is not certified means a feasible set without interior: the main run
    then starts from it over cones loosened just past t.

    Returns (status, x, iterations) with status optimal,
    infeasible-detected or max-iter.
    """
    n = cones.n
    if cones.degree == 0:
        x = linalg.lstsq(H, -g, lapack_driver="gelsd")[0]
        return "optimal", x, 1
    H_band = _lower_band(H, cones.bw)
    nb, ml = cones.nb, cones.ml
    gb, gl = cones.g_x(x)
    sb, sl = cones.hb - gb, cones.hl - gl
    total = 0
    # a start within the primal tolerance of a cone's boundary counts as
    # outside: z = mu s^-1 would be huge there, and the run breaks down
    if min(float(np.min(_soc_min_eig(sb), initial=1.0)),
           float(np.min(sl, initial=1.0))) <= tol_feas * cones.h_norm:
        # phase I: min t s.t. every constraint holds with margin -t, plus
        # a small proximal term that keeps x bounded
        delta = 1e-9
        t0 = 1.0 + max(float(np.max(-_soc_min_eig(sb), initial=0.0)),
                       float(np.max(-sl, initial=0.0)), 0.0)
        sb1 = sb.copy()
        sb1[:, 0] += t0
        zb1 = np.zeros((nb, 4))
        zb1[:, 0] = 1.0
        band1 = np.zeros_like(H_band)
        band1[0] = delta
        xs = x

        def prox(v):
            return delta * (v - xs)

        reason, x, t, _, _, zb1, zl1, total = _ipm(
            cones, prox, band1, np.zeros(n), x, sb1, sl + t0, zb1,
            np.ones(ml), t0, tol_gap, tol_feas, max_iter, phase1=True)
        if reason == "converged" and _certified(cones, x, t, zb1, zl1,
                                                feas_tol):
            return "infeasible-detected", x, total
        if reason == "converged" and t <= feas_tol:
            # feasible to within feas_tol, but no interior wider than the
            # primal tolerance: loosen every cone until x is well inside
            cones = cones.relaxed(max(t, 0.0) + 2.0 * tol_feas * cones.h_norm)
        elif reason != "interior":
            return "max-iter", x, total
        gb, gl = cones.g_x(x)
        sb, sl = cones.hb - gb, cones.hl - gl

    # strictly feasible start: the primal residual is 0, and z = mu s^-1
    # centers every cone (s o z = mu e)
    mu = float(sb[:, 0].sum() + sl.sum()) / cones.degree
    zb = mu * sb * _J / _soc_det(sb)[:, None]
    zl = mu / sl
    reason, x, _, _, _, _, _, it = _ipm(
        cones, H.dot, H_band, g, x, sb, sl, zb, zl, None, tol_gap,
        tol_feas, max_iter - total)
    return ("optimal" if reason == "optimal" else "max-iter"), x, total + it


def _certified(cones: _Cones, x, t, zb, zl, feas_tol) -> bool:
    """Farkas test on the phase-I dual: no x violates less than feas_tol.

    For z in the dual cone, z'(h - Gx) >= 0 holds at any feasible x, so
    h'z < G'z . x for every x in a box holding the feasible set proves it
    empty. Ball points are boxed by their balls; the bound on the other
    coordinates is taken generously from the phase-I point.
    """
    if t <= feas_tol:
        return False
    mass = float(zb[:, 0].sum() + zl.sum())
    if mass <= 0.0:
        return False
    r = cones.gt_z(zb, zl) / mass
    support = float(np.sum(cones.hb * zb) + cones.hl @ zl) / mass
    box = np.full(cones.n, 10.0 * (1.0 + float(np.abs(x).max())))
    if cones.nb:
        reach = np.abs(cones.hb[:, 1:]) + cones.hb[:, :1]
        b3 = box.reshape(-1, 3)
        b3[cones.ball_pts] = np.minimum(b3[cones.ball_pts], reach)
    return support + float(np.abs(r) @ box) < -feas_tol


def kkt_residual(p: QcqpProblem, x, active_tol: float = 1e-6) -> float:
    """Scaled KKT residual of x: primal, stationarity and complementarity.

    Multipliers for the active set are recovered by nonnegative least
    squares against the objective gradient, so a true optimum scores at
    roundoff level while any constraint violation passes straight through.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != p.n:
        raise ValueError("x dimension mismatch")
    grad = p.H @ x + p.g
    scale = 1.0 + float(np.max(np.abs(grad), initial=0.0))
    primal = p.violation(x)

    cols = []
    slacks = []
    for b in p.balls:
        v = x[3 * b.point:3 * b.point + 3] - b.center
        nrm = float(np.linalg.norm(v))
        s = b.radius - nrm
        if s <= active_tol * (1 + b.radius) and nrm > 1e-12:
            col = np.zeros(p.n)
            col[3 * b.point:3 * b.point + 3] = v / nrm
            cols.append(col)
            slacks.append(abs(s))
    if p.n_rows:
        A = sparse.csr_matrix(p.A)
        ax = A @ x
        for i in range(A.shape[0]):
            # an infinite bound is no constraint, never an active one
            if np.isfinite(p.hi[i]) \
                    and p.hi[i] - ax[i] <= active_tol * (1 + abs(p.hi[i])):
                cols.append(A[i].toarray().ravel())
                slacks.append(abs(p.hi[i] - ax[i]))
            if np.isfinite(p.lo[i]) \
                    and ax[i] - p.lo[i] <= active_tol * (1 + abs(p.lo[i])):
                cols.append(-A[i].toarray().ravel())
                slacks.append(abs(ax[i] - p.lo[i]))
    if cols:
        G = np.column_stack(cols)
        mu, _ = optimize.nnls(G, -grad)
        stationarity = float(np.max(np.abs(grad + G @ mu))) / scale
        comp = float(np.max(mu * np.asarray(slacks))) / scale
    else:
        stationarity = float(np.max(np.abs(grad), initial=0.0)) / scale
        comp = 0.0
    return max(primal, stationarity, comp)
