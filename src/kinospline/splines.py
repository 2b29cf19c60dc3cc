"""Uniform B-spline math on control-point spans.

A span is the (k+1) x 3 stacked matrix of consecutive control points that
supports one knot interval. Evaluation, control cost and derivative-span
transforms reduce to small dense matrix algebra against cached
per-degree blending tables. Extrema of span profiles (velocity and
acceleration bounds, the offline deviation certificate, the step-pattern
tables) all come from one batched root finder, `_poly_extrema`.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm

import numpy as np

SUPPORTED_EVAL_DEGREES = range(1, 8)
EXTREMA_DEGREES = (3, 5)


def blending_matrix(k: int) -> np.ndarray:
    """(k+1)x(k+1) uniform B-spline blending matrix M_k.

    Entries follow the combinatorial closed form
    m[i, j] = C(k, k-i)/k! * sum_{s=j..k} (-1)^(s-j) C(k+1, s-j) (k-s)^(k-i)
    so that a span evaluates as b(u)^T M_k P with b = [1, u, .., u^k].
    """
    if not (0 <= k <= 7):
        raise ValueError(f"degree {k} outside supported range 0..7")
    M = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(k + 1):
            acc = 0.0
            for s in range(j, k + 1):
                acc += (-1.0) ** (s - j) * comb(k + 1, s - j) * float(k - s) ** (k - i)
            M[i, j] = comb(k, k - i) * acc / factorial(k)
    return M


def _exact_derivative_spans(k: int) -> tuple:
    """S_l = M^-1 C_l^T M for l = 0..k in exact rational arithmetic.

    Every entry of M_k, C_l and so S_l is rational; computing them exactly
    keeps the structural zeros of S_l exactly zero (floating-point
    products leave roundoff of order 1e-16 there).
    """
    n = k + 1
    M = [[Fraction(comb(k, k - i)) / factorial(k)
          * sum((-1) ** (s - j) * comb(k + 1, s - j) * (k - s) ** (k - i)
                for s in range(j, k + 1))
          for j in range(n)] for i in range(n)]
    # Gauss-Jordan inverse over the rationals
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(M)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv_p = 1 / aug[c][c]
        aug[c] = [v * inv_p for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    Minv = [row[n:] for row in aug]

    def matmul(X, Y):
        return [[sum(X[i][m] * Y[m][j] for m in range(n)) for j in range(n)]
                for i in range(n)]

    out = []
    CT = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    # C_1^T maps u^i to i u^(i-1): (C_1^T)[i-1][i] = i
    C1T = [[Fraction(j if i == j - 1 else 0) for j in range(n)]
           for i in range(n)]
    for _ in range(k + 1):
        S = matmul(matmul(Minv, CT), M)
        out.append(np.array([[float(v) for v in row] for row in S]))
        CT = matmul(CT, C1T)
    return tuple(out)


def _basis_derivative_map(k: int, l: int) -> np.ndarray:
    """C_l with d^l b / du^l = C_l b for the monomial basis b."""
    C = np.zeros((k + 1, k + 1))
    for i in range(1, k + 1):
        C[i, i - 1] = i
    return np.linalg.matrix_power(C, l)


@dataclass(frozen=True)
class BlendingTables:
    """Immutable per-degree tables shared by every span operation.

    cost_mat(l) returns M^T Q_l M without the 1/dt^(2l-1) scale, and
    bound_transform(l, dt) the derivative-span map S_l including 1/dt^l.
    """

    k: int
    M: np.ndarray
    Minv: np.ndarray
    _C: tuple = field(repr=False, default=())
    _cost: tuple = field(repr=False, default=())
    _S: tuple = field(repr=False, default=())

    def C(self, l: int) -> np.ndarray:
        if not (0 <= l <= self.k):
            raise ValueError(f"derivative order {l} outside 0..{self.k}")
        return self._C[l]

    def cost_mat(self, l: int) -> np.ndarray:
        if not (1 <= l <= self.k):
            raise ValueError(f"cost order {l} outside 1..{self.k}")
        return self._cost[l]

    def bound_transform(self, l: int, dt: float) -> np.ndarray:
        """S_l = M^-1 C_l^T M / dt^l mapping a span to its derivative span.

        Structural zeros of S_l are exact (see _exact_derivative_spans).
        """
        if not (0 <= l <= self.k):
            raise ValueError(f"derivative order {l} outside 0..{self.k}")
        return self._S[l] / dt**l


@lru_cache(maxsize=None)
def blending_tables(k: int) -> BlendingTables:
    M = blending_matrix(k)
    Minv = np.linalg.inv(M)
    Cs = []
    for l in range(k + 1):
        C = _basis_derivative_map(k, l)
        Cs.append(C)
    # H[i, j] = integral of u^(i+j) over [0, 1]
    H = np.array([[1.0 / (i + j + 1) for j in range(k + 1)] for i in range(k + 1)])
    costs = [None]
    for l in range(1, k + 1):
        Q = Cs[l] @ H @ Cs[l].T
        cm = M.T @ Q @ M
        cm = 0.5 * (cm + cm.T)
        costs.append(cm)
    return BlendingTables(k=k, M=M, Minv=Minv, _C=tuple(Cs), _cost=tuple(costs),
                          _S=_exact_derivative_spans(k))


@dataclass(frozen=True)
class DerivativeBounds:
    """Per-axis min/max for velocity (order 1) and acceleration (order 2)."""

    v_min: np.ndarray
    v_max: np.ndarray
    a_min: np.ndarray
    a_max: np.ndarray

    @staticmethod
    def symmetric(v: float, a: float) -> "DerivativeBounds":
        v3 = np.full(3, float(v))
        a3 = np.full(3, float(a))
        return DerivativeBounds(-v3, v3, -a3, a3)

    def __post_init__(self):
        for lo, hi in ((self.v_min, self.v_max), (self.a_min, self.a_max)):
            if np.any(np.asarray(lo) > np.asarray(hi)):
                raise ValueError("bounds require min <= max per axis")


def span_stack(points, k: int) -> np.ndarray:
    """Every span of a control point array as a (n - k, k+1, 3) view."""
    return np.lib.stride_tricks.sliding_window_view(
        np.asarray(points, dtype=float), (k + 1, 3))[:, 0]


@dataclass(frozen=True)
class SplineDef:
    """Uniform B-spline: degree, knot spacing and a 3-D control point row list.

    Knots are implicit at i*dt. The curve domain covers n-k+1 spans; span j
    is supported by control points j..j+k.
    """

    k: int
    dt: float
    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("control points must be (n+1, 3)")
        if pts.shape[0] < self.k + 1:
            raise ValueError("need at least k+1 control points")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("knot spacing must be positive and finite")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n_spans(self) -> int:
        return self.points.shape[0] - self.k

    @property
    def duration(self) -> float:
        return self.n_spans * self.dt

    def _spans(self) -> np.ndarray:
        return span_stack(self.points, self.k)

    def span(self, j: int) -> np.ndarray:
        if not (0 <= j < self.n_spans):
            raise IndexError(f"span {j} outside 0..{self.n_spans - 1}")
        return self.points[j:j + self.k + 1]

    def eval(self, t: float, l: int = 0) -> np.ndarray:
        """Derivative of order l at trajectory time t in [0, duration]."""
        j = min(int(t / self.dt), self.n_spans - 1)
        j = max(j, 0)
        u = t / self.dt - j
        return eval_span(self.span(j), min(max(u, 0.0), 1.0), l, self.dt)

    def sample(self, step: float, l: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) on a uniform grid including both endpoints.

        Each sample is eval(t, l), evaluated for all times at once.
        """
        ts, (out,) = self.sample_orders(step, (l,))
        return ts, out

    def sample_orders(self, step: float, orders) -> tuple[np.ndarray, list]:
        """(times, [values per order]) on sample()'s grid.

        The time grid, the span of each sample and its coefficients are
        built once for all orders; each order's values equal sample()'s.
        """
        for l in orders:
            if not (0 <= l <= self.k):
                raise ValueError(f"derivative order {l} outside 0..{self.k}")
        n = max(int(np.ceil(self.duration / step)), 1)
        ts = np.linspace(0.0, self.duration, n + 1)
        j = np.clip((ts / self.dt).astype(np.int64), 0, self.n_spans - 1)
        u = np.clip(ts / self.dt - j, 0.0, 1.0)
        coef = (blending_tables(self.k).M @ self._spans())[j]  # (t, k+1, 3)
        return ts, [np.einsum("ti,tia->ta", _derivative_basis(u, self.k, l),
                              coef) / self.dt ** l for l in orders]

    def cost(self, l: int) -> float:
        """Total order-l control cost: span_cost summed over every span."""
        return float(span_cost(self._spans(), l, self.dt).sum())


def eval_span(P, u: float, l: int, dt: float) -> np.ndarray:
    """l-th time derivative of a span at normalized u in [0, 1]."""
    if not (0.0 <= u <= 1.0):
        raise ValueError("u outside [0, 1]")
    return eval_span_many(P, [u], l, dt)[0]


@lru_cache(maxsize=None)
def _derivative_rows(k: int, l: int):
    """Read-only (factor, exponent) rows of d^l/du^l [1, u, ..., u^k]:
    perm(i, l) and max(i - l, 0) for i = 0..k."""
    ff = np.array([perm(i, l) for i in range(k + 1)], dtype=float)
    ex = np.maximum(np.arange(k + 1) - l, 0)
    ff.setflags(write=False)
    ex.setflags(write=False)
    return ff, ex


def _derivative_basis(us, k: int, l: int) -> np.ndarray:
    """Rows d^l/du^l [1, u, ..., u^k] at each u, shape (len(us), k+1)."""
    ff, ex = _derivative_rows(k, l)
    return ff * np.asarray(us, dtype=float)[:, None] ** ex


def eval_span_many(P, us, l: int, dt: float) -> np.ndarray:
    """Vectorized eval_span over an array of u values, (len(us), 3).

    P may also be a stack of spans, (nspan, k+1, 3); the result is then
    (nspan, len(us), 3).
    """
    P = np.asarray(P, dtype=float)
    k = P.shape[-2] - 1
    if not (0 <= l <= k):
        raise ValueError(f"derivative order {l} outside 0..{k}")
    B = _derivative_basis(us, k, l)
    return (B @ blending_tables(k).M @ P) / dt**l


def span_cost(P, l: int, dt: float):
    """Integral over the span of the squared l-th time derivative.

    P may also be a stack of spans, (nspan, k+1, 3); the result is then
    the array of their costs.
    """
    P = np.asarray(P, dtype=float)
    k = P.shape[-2] - 1
    if not (1 <= l <= k):
        raise ValueError(f"cost order {l} outside 1..{k}")
    C = blending_tables(k).cost_mat(l)
    return np.maximum(np.einsum("...ia,ib,...ba->...", P, C, P)
                      * dt ** (1 - 2 * l), 0.0)


def derivative_span(P, l: int, dt: float) -> np.ndarray:
    """Control-point span of the l-th derivative: S_l P.

    Evaluating the returned rows through b^T M_k reproduces the l-th time
    derivative of the original span, so per-axis row bounds on it bound the
    whole derivative profile (sufficient condition).
    """
    P = np.asarray(P, dtype=float)
    k = P.shape[0] - 1
    if not (0 <= l <= k):
        raise ValueError(f"derivative order {l} outside 0..{k}")
    return blending_tables(k).bound_transform(l, dt) @ P


def _horner(c, x) -> np.ndarray:
    """Each row of c (ascending powers) at the points in the same row of x.

    Elementwise, in numpy.polynomial.polyval's order, so a row's values do
    not depend on the other rows.
    """
    acc = c[:, -1:] + x * 0
    for i in range(c.shape[1] - 2, -1, -1):
        acc = c[:, i:i + 1] + acc * x
    return acc


def _poly_extrema(coefs, u_lo: float = 0.0, u_hi: float = 1.0):
    """(min, max) of each row of a polynomial stack over [u_lo, u_hi].

    coefs is (n, m+1) in ascending powers. The candidates are the interval
    ends and the real roots of each row's derivative inside the interval:
    companion-matrix eigenvalues (as numpy.polynomial.polyroots builds
    them) polished by three Newton steps. A derivative whose top
    coefficients are exactly zero is solved at its true degree, so
    all-zero rows (static axes) give constant extrema, and a zero column
    appended on top leaves a row's result unchanged.
    """
    a = np.asarray(coefs, dtype=float)
    n, m1 = a.shape
    ends = _horner(a, np.array([[u_lo, u_hi]]))
    lo = ends.min(axis=1)
    hi = ends.max(axis=1)
    if m1 < 3:
        return lo, hi
    d = a[:, 1:] * np.arange(1, m1)
    dd = d[:, 1:] * np.arange(1, m1 - 1)
    nz = d != 0.0
    deg = np.where(nz.any(axis=1), m1 - 2 - np.argmax(nz[:, ::-1], axis=1), 0)
    x = np.full((n, m1 - 2), np.nan)
    lin = deg == 1
    x[lin, 0] = -d[lin, 0] / d[lin, 1]
    for m in np.unique(deg[deg >= 2]):
        rows = np.flatnonzero(deg == m)
        comp = np.zeros((rows.size, m, m))
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        comp[:, :, -1] -= d[rows, :m] / d[rows, m:m + 1]
        r = np.linalg.eigvals(comp)
        x[rows, :m] = np.where(np.abs(r.imag) > 1e-9, np.nan, r.real)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            fp = _horner(dd, x)
            x = np.where(fp != 0.0, x - _horner(d, x) / fp, x)
        v = _horner(a, x)
    inside = (x > u_lo) & (x < u_hi)
    lo = np.minimum(lo, np.where(inside, v, np.inf).min(axis=1))
    hi = np.maximum(hi, np.where(inside, v, -np.inf).max(axis=1))
    return lo, hi


def _profile_coefs(prof) -> np.ndarray:
    """Monomial coefficients M_k p of each row p of 1-D control values.

    One matrix-vector product per row, so a row's coefficients are the
    same floats whether it is transformed alone or in a stack.
    """
    prof = np.asarray(prof, dtype=float)
    M = blending_tables(prof.shape[-1] - 1).M
    return (M @ prof[..., None])[..., 0]


def _motion_extrema(a, dt: float):
    """(lo, hi) of velocity and acceleration of profiles with coefficient
    rows a (..., k+1); each result is a.shape[:-1] + (2,), order 1 then 2.

    Both orders go through one _poly_extrema call, the acceleration rows
    padded with a zero top coefficient, and are scaled after root finding
    by 1/dt and (1/dt)(1/dt).
    """
    k = a.shape[-1] - 1
    ff = [np.array([perm(i, l) for i in range(l, k + 1)], dtype=float)
          for l in (1, 2)]
    acc = a[..., 2:] * ff[1]
    rows = np.stack([a[..., 1:] * ff[0],
                     np.concatenate([acc, np.zeros(acc.shape[:-1] + (1,))],
                                    axis=-1)], axis=-2)
    lo, hi = _poly_extrema(rows.reshape(-1, k))
    inv1 = 1.0 / dt
    scale = np.array([inv1, inv1 * inv1])
    return (lo.reshape(rows.shape[:-1]) * scale,
            hi.reshape(rows.shape[:-1]) * scale)


def _span_motion_extrema(P, dt: float):
    """_motion_extrema of each axis of a span or stack, (..., 3, 2) each."""
    P = np.asarray(P, dtype=float)
    k = P.shape[-2] - 1
    if k not in EXTREMA_DEGREES:
        raise ValueError(f"extrema unsupported for degree {k}")
    return _motion_extrema(_profile_coefs(np.swapaxes(P, -1, -2)), dt)


def span_extrema(P, l: int, dt: float) -> np.ndarray:
    """Tight per-axis (min, max) of the l-th derivative over u in [0, 1].

    The roots of the next derivative plus the interval ends (see
    _poly_extrema). Returns a (3, 2) array, or (nspan, 3, 2) for a stack.
    """
    if l not in (1, 2):
        raise ValueError(f"extrema unsupported for order {l}")
    lo, hi = _span_motion_extrema(P, dt)
    return np.stack([lo[..., l - 1], hi[..., l - 1]], axis=-1)


def check_feasible(P, bounds: DerivativeBounds, dt: float):
    """True iff velocity and acceleration extrema respect bounds per axis.

    P may also be a stack of spans, (nspan, k+1, 3); the result is then a
    boolean array with one entry per span, equal to the single-span
    answers. A span whose velocity and acceleration control points
    (bound_transform(l, dt) @ P) all lie inside the bounds is feasible by
    the convex hull property; only the other spans' extrema are computed.
    """
    P = np.asarray(P, dtype=float)
    k = P.shape[-2] - 1
    if k not in EXTREMA_DEGREES:
        raise ValueError(f"extrema unsupported for degree {k}")
    spans = P[None] if P.ndim == 2 else P
    lower = np.column_stack([bounds.v_min, bounds.a_min])
    upper = np.column_stack([bounds.v_max, bounds.a_max])
    tables = blending_tables(k)
    ok = np.ones(spans.shape[0], dtype=bool)
    for l in (1, 2):
        D = tables.bound_transform(l, dt) @ spans
        ok &= np.all((lower[:, l - 1] <= D) & (D <= upper[:, l - 1]),
                     axis=(-2, -1))
    rest = np.flatnonzero(~ok)
    if rest.size:
        lo, hi = _span_motion_extrema(spans[rest], dt)
        ok[rest] = np.all((lower <= lo) & (hi <= upper), axis=(-2, -1))
    return bool(ok[0]) if P.ndim == 2 else ok


def insert_control_point(spline: SplineDef, index: int, point) -> SplineDef:
    """New SplineDef with point inserted before control point index.

    The knot spacing is unchanged; the span count grows by exactly one.
    """
    n1 = spline.points.shape[0]
    if not (0 <= index <= n1):
        raise IndexError(f"insert index {index} outside 0..{n1}")
    point = np.asarray(point, dtype=float).reshape(3)
    if not np.all(np.isfinite(point)):
        raise ValueError("inserted point must be finite")
    pts = np.insert(spline.points, index, point, axis=0)
    return SplineDef(k=spline.k, dt=spline.dt, points=pts)
