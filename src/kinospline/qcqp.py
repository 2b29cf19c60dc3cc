"""Convex QCQP solver for the tube-refinement problem class.

Minimize 0.5 x'Hx + g'x over stacked free control points subject to
per-point Euclidean ball constraints (several balls may pin the same
point) and two-sided linear rows. The problem is solved in conic form by
a primal-dual interior point method: Mehrotra predictor-corrector steps
under Nesterov-Todd scaling, as in CVXOPT's coneqp (Vandenberghe 2010)
and ECOS (Domahidi, Chu & Boyd, ECC 2013). Each ball is a 4-dimensional
second-order cone over (radius, center - point) and each finite row side
a nonnegative slack.

G is never stored as a matrix; it is applied from the cones' structure.
A ball selects one point, so G x gathers x.reshape(-1, 3) at the ball
points and G'z scatters the balls' duals back with one bincount over the
flat indices 3p + axis. The problem holds its rows as padded (m, w)
arrays of columns and coefficients, w the longest row (k+1 consecutive
points' coordinates on tube problems), and the solve adds a scale per
row; the working rows' products are gathered row products over them,
and every step runs as a few whole-array operations per cone family (a
family without cones is skipped).

Every Newton system reduces to H + G'W^-2 G: H plus a 3x3 block per ball
point plus the rows' coupling. For the tube problems H and the rows span
k+1 interleaved xyz points, so the matrix is banded with half-bandwidth
3k and a banded Cholesky solves it in O(n k^2). H arrives as its lower
band (the PSD check factors it), and each iteration adds the cones'
entries to it with one bincount per family over band positions computed
once per sub-problem. No step forms a dense n x n matrix, and the
iteration count does not depend on the conditioning of H.

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
from functools import cached_property

import numpy as np
from scipy import linalg
from scipy.linalg import blas

_pbtrf, _pbtrs = linalg.get_lapack_funcs(("pbtrf", "pbtrs"),
                                         (np.zeros((1, 1)),))
_TRIL3 = np.tril_indices(3)     # lower entries (a, b) of a 3x3 block

_STEP = 0.99          # fraction of the way to the cone boundary
FEAS_TOL = 5e-7       # phase I calls a common violation above it infeasible


@dataclass(frozen=True, eq=False)
class BallConstraint:
    point: int          # index of the 3-D point inside the decision vector
    center: np.ndarray  # (3,)
    radius: float


@dataclass(frozen=True, eq=False)
class QcqpProblem:
    """min 0.5 x'Hx + g'x + const  s.t.  ||x_p - q_j|| <= r_j,  lo <= Ax <= hi.

    H_band is H's lower band in LAPACK storage, H_band[d, j] = H[j + d, j],
    0 past each band row's end (j + d >= n). Row i of A holds coefficients
    A[i] on the ascending columns A_cols[i], both (m, w); a repeated column
    carries coefficient 0, so a short row is padded by repeating its last
    column. Infinite entries of lo and hi leave that side of the row free.
    """

    H_band: np.ndarray
    g: np.ndarray
    balls: tuple
    A: np.ndarray = None
    A_cols: np.ndarray = None
    lo: np.ndarray = None
    hi: np.ndarray = None
    const: float = 0.0

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def n_rows(self) -> int:
        return 0 if self.A is None else self.A.shape[0]

    @cached_property
    def _ball_arrays(self):
        """(points, hb): each ball's point index and its row (r, q) of h."""
        pts = np.array([b.point for b in self.balls], dtype=np.int64)
        hb = np.empty((pts.size, 4))
        if pts.size:
            hb[:, 0] = [b.radius for b in self.balls]
            hb[:, 1:] = [b.center for b in self.balls]
        return pts, hb

    def validate(self, tol: float = 1e-8) -> None:
        """Raise ValueError unless the problem is well posed."""
        n, ab = self.n, self.H_band
        if ab.ndim != 2 or ab.shape[0] < 1 or ab.shape[1] != n:
            raise ValueError("H_band must be a band of n columns")
        past_end = np.arange(n) + np.arange(ab.shape[0])[:, None] >= n
        if np.any(ab[past_end] != 0.0):
            raise ValueError("H_band must be 0 past the end of each row")
        if n == 0:
            return
        # H + tol*scale*I factors exactly when H's smallest eigenvalue
        # exceeds -tol*scale (up to roundoff)
        shifted = ab.copy()
        shifted[0] += tol * max(float(np.abs(ab).max()), 1.0)
        _, info = _pbtrf(shifted, lower=1, overwrite_ab=1)
        if info != 0:
            raise ValueError("H is not PSD")
        pts, hb = self._ball_arrays
        if np.any(hb[:, 0] <= 0):
            raise ValueError("ball radii must be positive")
        if np.any((3 * pts + 2 < 0) | (3 * pts + 2 >= n)):
            raise ValueError("ball point index out of range")
        if self.A is None:
            return
        cols, coef = self.A_cols, self.A
        if cols is None or cols.ndim != 2 or cols.shape != coef.shape:
            raise ValueError("A and A_cols must have the same (m, w) shape")
        if np.any(cols[:, 1:] < cols[:, :-1]):
            raise ValueError("row columns must not descend")
        if not np.issubdtype(cols.dtype, np.integer) \
                or np.any(cols[:, :1] < 0) or np.any(cols[:, -1:] >= n):
            raise ValueError("row column out of range")
        if np.any((cols[:, 1:] == cols[:, :-1]) & (coef[:, 1:] != 0.0)):
            raise ValueError("a repeated row column must carry coefficient 0")

    def hess_dot(self, x) -> np.ndarray:
        """H x, from the band."""
        if self.n == 0:
            return np.zeros(0)
        return blas.dsbmv(self.H_band.shape[0] - 1, 1.0, self.H_band, x,
                          lower=1)

    def violation(self, x) -> float:
        """Largest constraint violation at x (0 when feasible)."""
        x = np.asarray(x, dtype=float)
        v = 0.0
        pts, hb = self._ball_arrays
        if pts.size:
            d = np.linalg.norm(x.reshape(-1, 3)[pts] - hb[:, 1:], axis=1)
            v = float(np.max(d - hb[:, 0]))
        if self.n_rows:
            ax = np.einsum("ij,ij->i", self.A, x[self.A_cols])
            v = max(v, float(np.max(ax - self.hi)), float(np.max(self.lo - ax)))
        return max(v, 0.0)

    def objective(self, x) -> float:
        return float(0.5 * x @ self.hess_dot(x) + self.g @ x + self.const)


@dataclass(frozen=True, eq=False)
class QcqpSolution:
    x: np.ndarray
    objective: float
    max_violation: float
    iterations: int
    status: str


class _Rows:
    """A problem's padded rows, column-major so that per-row work runs
    along m, built once per solve.

    rs scales each row to unit largest coefficient, as the working rows
    enter the cones. A row whose coefficients are all zero is the fixed
    number 0: `violated` says that such a row breaks its bounds, which
    makes the problem infeasible before any step is taken.
    """

    def __init__(self, p: QcqpProblem):
        m = p.n_rows
        self.cols = np.asfortranarray(p.A_cols) if m \
            else np.zeros((0, 0), dtype=np.int64)
        self.coef = np.asfortranarray(p.A, dtype=float) if m \
            else np.zeros((0, 0))
        amax = np.abs(self.coef).max(axis=1, initial=0.0)
        empty = amax == 0.0
        amax[empty] = 1.0
        self.rs = 1.0 / amax
        self.lo = np.asarray(p.lo, dtype=float) if m else np.zeros(0)
        self.hi = np.asarray(p.hi, dtype=float) if m else np.zeros(0)
        self.violated = bool(np.any(empty & ((self.lo > 0.0)
                                             | (self.hi < 0.0))))

    def broken(self, x) -> np.ndarray:
        """Rows with a.x outside [lo, hi], tested exactly."""
        ax = np.einsum("ij,ij->i", self.coef, x[self.cols])
        return np.flatnonzero((ax < self.lo) | (ax > self.hi))


class _Cones:
    """The balls and the working rows as G x + s = h, s in a product cone.

    Ball j on point p is the second-order cone s = (r_j, q_j - x_p) of
    size 4, so its rows of G select x_p: G x gathers x.reshape(-1, 3) at
    the ball points, and G'z scatters the balls' z back with one bincount
    over the flat indices 3p + axis. A finite side of a working row is
    the slack s = hi - a'x or a'x - lo of the row normalized to unit
    largest coefficient; the sides keep the padded (ml, w) columns and
    signed coefficients of their rows, so G x is one gathered row product
    and G'z joins the balls' bincount.

    The normal matrix H + G' Phi G is assembled in lower band storage:
    H's band plus one bincount per cone family over flat band indices
    d * n + j computed here, a ball adding the lower entries of its 3x3
    block and a working row its coefficient pairs v_i v_j at (c_i - c_j,
    c_j) times its summed side weights.
    """

    def __init__(self, p: QcqpProblem, rows: _Rows, work):
        n = p.n
        self.n = n
        pts, hb = p._ball_arrays
        nb = pts.size
        self.nb = nb
        self.ball_pts = pts
        self.hb = hb
        # G'z's index per ball entry: 3p + axis, and n (dropped) for the
        # radius entry, which no x enters
        ball_idx = np.where(np.arange(4) == 0, n,
                            3 * pts[:, None] + np.arange(-1, 3)).reshape(-1)

        # the working rows; none of them is empty (an empty row that holds
        # is never broken, one that does not ends the solve up front)
        rs = rows.rs[work]
        cols, coef = rows.cols[work], rows.coef[work] * rs[:, None]
        hi, lo = rows.hi[work] * rs, rows.lo[work] * rs
        self.mrows = work.size
        up = np.flatnonzero(np.isfinite(hi))
        dn = np.flatnonzero(np.isfinite(lo))
        self.lp_row = np.concatenate([up, dn])
        self.side_cols = cols[self.lp_row]
        self.side_coef = np.concatenate([coef[up], -coef[dn]])
        self.hl = np.concatenate([hi[up], -lo[dn]])
        self.ml = self.lp_row.size
        self.degree = nb + self.ml
        self.gt_idx = np.concatenate([ball_idx, self.side_cols.reshape(-1)])
        # the scale of h, against which primal residuals are measured
        self.h_norm = max(1.0, float(np.abs(hb).max(initial=0.0)),
                          float(np.abs(self.hl).max(initial=0.0)))

        # the normal matrix's band: H's, widened to the balls' 3x3 blocks
        # and the working rows' column spans
        bw_h = p.H_band.shape[0] - 1
        self.bw = max(bw_h, 2 if nb else 0,
                      int(np.max(cols - cols[:, :1], initial=0)))
        self.h_band = np.zeros((self.bw + 1, n))
        self.h_band[:bw_h + 1] = p.H_band
        self.band_size = (self.bw + 1) * n
        a, b = _TRIL3
        self.ball_flat = ((a - b) * n + 3 * pts[:, None] + b).reshape(-1)
        if self.mrows:
            ii, jj = np.tril_indices(cols.shape[1])
            self.row_flat = ((cols[:, ii] - cols[:, jj]) * n
                             + cols[:, jj]).reshape(-1)
            self.row_pair = coef[:, ii] * coef[:, jj]

    def relaxed(self, tau):
        """These cones with every constraint loosened by tau (h + tau e)."""
        c = copy.copy(self)
        c.hb = self.hb.copy()
        c.hb[:, 0] += tau
        c.hl = self.hl + tau
        return c

    # G and G' applied to cone-shaped data
    def g_x(self, x):
        gb = np.zeros((self.nb, 4))
        gb[:, 1:] = x.reshape(-1, 3)[self.ball_pts]
        if not self.ml:
            return gb, np.zeros(0)
        return gb, np.einsum("ij,ij->i", self.side_coef, x[self.side_cols])

    def gt_z(self, zb, zl):
        w = zb.reshape(-1)
        if self.ml:
            w = np.concatenate([w, (self.side_coef * zl[:, None]).reshape(-1)])
        return np.bincount(self.gt_idx, weights=w, minlength=self.n + 1)[:-1]

    def normal_band(self, base, phib, dl):
        """Lower band of base + G' Phi G for ball blocks phib, LP diag dl."""
        a, b = _TRIL3
        band = base.reshape(-1) + np.bincount(
            self.ball_flat, weights=phib[:, 1:, 1:][:, a, b].reshape(-1),
            minlength=self.band_size)
        if self.mrows:
            d_row = np.bincount(self.lp_row, weights=dl, minlength=self.mrows)
            band += np.bincount(self.row_flat,
                                weights=(self.row_pair
                                         * d_row[:, None]).reshape(-1),
                                minlength=self.band_size)
        return band.reshape(self.bw + 1, self.n)


# second-order cone algebra, vectorized over rows of (m, 4) arrays

_J = np.array([1.0, -1.0, -1.0, -1.0])
_E = np.array([1.0, 0.0, 0.0, 0.0])     # the cone's identity element
_EYE_J = np.diag(_J)

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


def _cone_step(ub, det_u, ul, db, dl) -> float:
    """Largest a with u + a d in the cone (inf when unbounded).

    det_u holds the determinants of u's second-order cones. Per cone,
    u + a d leaves the cone at the smallest positive root of f(a) =
    det(u + a d) = A a^2 + 2 B a + C (C = det u > 0): the
    cancellation-free C / (sqrt(B^2 - A C) - B), which exists when A < 0
    or B < 0. Its reciprocal (sqrt(B^2 - A C) - B) / C is taken over
    every cone, since it is at most 0 for a cone without a root (A >= 0
    and B >= 0). (With A >= 0 and B < 0, d points into the past cone and
    the discriminant is nonnegative; roundoff can make it negative when u
    and d are nearly parallel, so it is clipped at 0, never read as "no
    root": that would let u + a d cross the apex into -K, where det > 0.)
    """
    inv = 0.0     # 1 / step, maximized over the cones
    if ub.shape[0]:
        jd = db * _J
        qa = np.einsum("ij,ij->i", db, jd)
        qb = np.einsum("ij,ij->i", ub, jd)
        inv = float(np.max((np.sqrt(np.maximum(qb * qb - qa * det_u, 0.0))
                            - qb) / det_u))
    if ul.size:
        inv = max(inv, float(np.max(-dl / ul)))
    return np.inf if inv <= 0.0 else 1.0 / inv


class _Scaling:
    """Nesterov-Todd scaling W at (s, z) with lam = W z = W^-1 s.

    ub stacks the balls' s over their z, (2 nb, 4), with the cone
    determinants det_u; ul stacks the row sides' s over their z.
    """

    def __init__(self, ub, det_u, ul):
        J = _J
        nb, ml = ub.shape[0] // 2, ul.size // 2
        nrm = np.sqrt(det_u)
        sn, zn = nrm[:nb], nrm[nb:]
        u_ = ub / nrm[:, None]
        s_, z_ = u_[:nb], u_[nb:]
        gam = np.sqrt(0.5 * (1.0 + np.einsum("ij,ij->i", s_, z_)))
        wb = (s_ + J * z_) / (2.0 * gam)[:, None]
        v = wb + _E
        v /= np.sqrt(2.0 * v[:, :1])
        beta = np.sqrt(sn / zn)
        jv = J * v
        self.W = beta[:, None, None] * (2.0 * v[:, :, None] * v[:, None, :]
                                        - _EYE_J)
        self.Winv = (2.0 * jv[:, :, None] * jv[:, None, :]
                     - _EYE_J) / beta[:, None, None]
        self.phib = self.Winv @ self.Winv
        self.lamb = np.einsum("ijk,ik->ij", self.W, ub[nb:])
        self.wl = self.dl = self.laml = ul[:0]
        if ml:
            sl, zl = ul[:ml], ul[ml:]
            self.wl = np.sqrt(sl / zl)
            self.dl = 1.0 / self.wl ** 2    # the rows' diagonal of W^-2
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
    makes progress, however short. Each family keeps its s stacked over
    its z (balls (2 nb, 4), row sides (2 ml,)), so a step moves both in
    one operation; the row sides' work is skipped when there are none.
    """
    nb, ml = cones.nb, cones.ml
    m = cones.degree
    hb, hl = cones.hb, cones.hl
    t = border
    q_norm = max(1.0, float(np.abs(q).max(initial=0.0)))
    h_norm = cones.h_norm
    ub = np.concatenate([sb, zb])
    ul = np.concatenate([sl, zl])
    it = 0
    while True:
        sb, zb, sl, zl = ub[:nb], ub[nb:], ul[:ml], ul[ml:]
        gb, gl = cones.g_x(x)
        if t is not None:
            gb[:, 0] -= t
        rzb = gb + sb - hb
        grad = P_apply(x) + q
        rx = grad + cones.gt_z(zb, zl)
        # every complementarity product, not just their mean, must be
        # small: a constraint left between active and inactive skews the
        # recovered multipliers
        szb = np.einsum("ij,ij->i", sb, zb)
        gap = float(szb.sum())
        comp = float(szb.max(initial=0.0))
        pres = float(np.abs(rzb).max(initial=0.0))
        z_mass = float(zb[:, 0].sum())
        rzl = gl
        if ml:
            rzl = (gl if t is None else gl - t) + sl - hl
            szl = sl * zl
            gap += float(szl.sum())
            comp = max(comp, float(szl.max()))
            pres = max(pres, float(np.abs(rzl).max()))
            z_mass += float(zl.sum())
        mu = gap / m
        pres /= h_norm
        rt = 1.0 - z_mass if t is not None else 0.0
        dres = max(float(np.abs(rx).max(initial=0.0)), abs(rt)) / q_norm
        gap_ref = tol_gap * (1.0 + float(np.abs(grad).max()))

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
        det_u = _soc_det(ub)
        if float(np.min(det_u, initial=1.0)) <= 0:
            return stall
        if it >= max_iter:
            return ("max-iter",) + out

        sc = _Scaling(ub, det_u, ul)
        ab = cones.normal_band(P_band, sc.phib, sc.dl)
        chol, info = _pbtrf(ab, lower=1)
        if info != 0 or not np.all(np.isfinite(chol)):
            return stall
        it += 1
        if t is not None:
            # t's column of G is -e: Phi (-e) per cone
            k_xt = cones.gt_z(-sc.phib[:, :, 0], -sc.dl)
            k_tt = float(sc.phib[:, 0, 0].sum() + sc.dl.sum())
            y2, _ = _pbtrs(chol, k_xt, lower=1)
            schur = k_tt - k_xt @ y2
        # Phi rz, shared by both Newton solves
        prz_b = np.einsum("ijk,ik->ij", sc.phib, rzb)
        prz_l = rzl * sc.dl

        def newton(v_b, v_l):
            """(dx, dt, d_b, d_l) solving the linearized KKT system.

            G dx + ds = -rz, P dx + G'dz = -rx and, in scaled space,
            W^-1 ds + W dz = u, so lam o (W^-1 ds + W dz) = lam o u;
            v = W^-1 u is given. d_b and d_l stack ds over dz.
            """
            tb = v_b + prz_b
            tl = v_l + prz_l
            dx, _ = _pbtrs(chol, -rx - cones.gt_z(tb, tl), lower=1)
            dt = 0.0
            if t is not None:
                rhs_t = -rt + tb[:, 0].sum() + tl.sum()
                dt = (rhs_t - k_xt @ dx) / schur
                dx = dx - y2 * dt
            gdb, gdl = cones.g_x(dx)
            if t is not None:
                gdb[:, 0] -= dt
            d_b = np.concatenate([-rzb - gdb,
                                  np.einsum("ijk,ik->ij", sc.phib, gdb) + tb])
            d_l = gdl
            if ml:
                gdl = gdl if t is None else gdl - dt
                d_l = np.concatenate([-rzl - gdl, gdl * sc.dl + tl])
            return dx, dt, d_b, d_l

        # predictor: drive lam o lam to zero (u = -lam, W^-1 u = -z)
        dx, dt, d_b, d_l = newton(-zb, -zl)
        a_aff = min(1.0, _cone_step(ub, det_u, ul, d_b, d_l))
        sigma = (1.0 - a_aff) ** 3
        # corrector: centering plus the second-order term, scaled space
        dsb_t = np.einsum("ijk,ik->ij", sc.Winv, d_b[:nb])
        dzb_t = np.einsum("ijk,ik->ij", sc.W, d_b[nb:])
        v_b = np.einsum("ijk,ik->ij", sc.Winv,
                        _soc_div(sc.lamb, sigma * mu * _E
                                 - _soc_prod(dsb_t, dzb_t))) - zb
        v_l = -zl
        if ml:
            v_l += (sigma * mu - (d_l[:ml] / sc.wl) * (d_l[ml:] * sc.wl)) \
                / (sc.laml * sc.wl)
        dx, dt, d_b, d_l = newton(v_b, v_l)
        alpha = min(1.0, _STEP * _cone_step(ub, det_u, ul, d_b, d_l))
        x = x + alpha * dx
        ub = ub + alpha * d_b
        if ml:
            ul = ul + alpha * d_l
        if t is not None:
            t = t + alpha * dt


def solve(p: QcqpProblem, tol: float = 1e-6, max_iter: int = 20000,
          x0=None) -> QcqpSolution:
    """Interior point solve; status optimal, infeasible-detected or max-iter.

    The rows join a working set as they break (see the module docstring):
    the first sub-problem holds the balls only, the last one leaves no
    row outside the set broken. A sub-problem is bounded when H is
    positive definite on the coordinates that no ball holds.

    A sub-solve ends optimal once the primal and dual residuals fall below
    min(tol, FEAS_TOL)/100 relative to the data and every complementarity
    product below 1e-4 max(tol, 1e-7) (1 + |Hx + g|).
    FEAS_TOL is also the common violation above which phase I declares
    the problem infeasible. max_iter bounds the Newton iterations summed
    over every sub-solve, phase I included, and iterations reports that
    sum. max-iter means the solve did not converge: with iterations ==
    max_iter the budget ran out; with fewer, phase I found neither a
    strictly feasible point nor a certificate, an iteration broke down
    numerically, or the first sub-problem has no cone and an H that does
    not factor.

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
    tol_gap = 1e-4 * max(tol, 1e-7)
    tol_feas = min(tol, FEAS_TOL) * 1e-2

    work = np.zeros(0, dtype=np.int64)
    total = 0
    while True:
        cones = _Cones(p, rows, work)
        status, x, it = _solve_cones(cones, p, x, tol_gap, tol_feas,
                                     max_iter - total)
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


def _solve_cones(cones: _Cones, p: QcqpProblem, x, tol_gap, tol_feas,
                 max_iter):
    """One interior point solve of p over the given cones, starting from x.

    A start inside every cone by more than the primal tolerance is run
    from directly. Any other start runs phase I first (minimize the
    common violation t of every constraint from x): its strictly feasible
    point starts the main run, and its optimum, when the dual certifies
    it, proves the cones empty. A phase-I optimum at t <= FEAS_TOL that
    is not certified means a feasible set without interior: the main run
    then starts from it over cones loosened just past t.

    Without any cone (no ball and no working row) the minimizer solves
    H x = -g by one band Cholesky of H. An H that does not factor there
    (singular, so the minimizer is not unique or the problem unbounded)
    returns max-iter at the start x with 0 iterations.

    Returns (status, x, iterations) with status optimal,
    infeasible-detected or max-iter.
    """
    n = cones.n
    if cones.degree == 0:
        chol, info = _pbtrf(p.H_band, lower=1)
        if info != 0:
            return "max-iter", x, 0
        return "optimal", _pbtrs(chol, -p.g, lower=1)[0], 1
    H_band = cones.h_band
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
        if reason == "converged" and _certified(cones, x, t, zb1, zl1):
            return "infeasible-detected", x, total
        if reason == "converged" and t <= FEAS_TOL:
            # feasible to within FEAS_TOL, but no interior wider than the
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
        cones, p.hess_dot, H_band, p.g, x, sb, sl, zb, zl, None, tol_gap,
        tol_feas, max_iter - total)
    return ("optimal" if reason == "optimal" else "max-iter"), x, total + it


def _certified(cones: _Cones, x, t, zb, zl) -> bool:
    """Farkas test on the phase-I dual: no x violates less than FEAS_TOL.

    For z in the dual cone, z'(h - Gx) >= 0 holds at any feasible x, so
    h'z < G'z . x for every x in a box holding the feasible set proves it
    empty. Ball points are boxed by their balls; the bound on the other
    coordinates is taken generously from the phase-I point.
    """
    if t <= FEAS_TOL:
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
    return support + float(np.abs(r) @ box) < -FEAS_TOL
