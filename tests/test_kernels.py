import numpy as np
import pytest

from kinospline import kernels
from kinospline.splines import _poly_extrema


def _root_extrema(c, u_lo=0.0, u_hi=1.0):
    """Reference (min, max) of one polynomial from numpy.roots."""
    c = np.asarray(c, dtype=float)
    d = np.polynomial.polynomial.polyder(c)
    pts = [u_lo, u_hi]
    if np.any(d != 0.0):
        r = np.roots(np.trim_zeros(d, "b")[::-1])
        pts += [x.real for x in r
                if abs(x.imag) < 1e-9 and u_lo < x.real < u_hi]
    v = np.polynomial.polynomial.polyval(np.array(pts), c)
    return v.min(), v.max()


def test_poly_extrema_against_numpy_roots():
    rng = np.random.default_rng(0)
    for deg in (2, 3, 4):
        c = rng.normal(size=(300, deg + 1))
        lo, hi = _poly_extrema(c)
        for row, a, b in zip(c, lo, hi):
            ref = _root_extrema(row)
            assert a == pytest.approx(ref[0], abs=1e-9)
            assert b == pytest.approx(ref[1], abs=1e-9)


def test_poly_extrema_vanishing_leading_coefficient():
    # the derivative's top coefficients are exactly zero: the row is solved
    # at its true degree, and the result equals the unpadded row's
    c = np.array([[0.3, -1.2, 1.0, 0.0, 0.0],
                  [0.1, 0.0, -3.0, 2.0, 0.0]])
    lo, hi = _poly_extrema(c)
    for i, m in enumerate((3, 4)):
        ref_lo, ref_hi = _poly_extrema(c[i:i + 1, :m])
        assert (lo[i], hi[i]) == (ref_lo[0], ref_hi[0])
    # 0.3 - 1.2u + u^2 has its minimum at u = 0.6
    assert lo[0] == pytest.approx(0.3 - 0.36, abs=1e-15)


def test_poly_extrema_cancellation_safe():
    # derivative 1e8 - 2e8 u + u^2 has roots near 0.5 and 2e8; the small
    # one must not be lost to cancellation
    c = np.array([[0.0, 1e8, -1e8, 1.0 / 3.0]])
    lo, hi = _poly_extrema(c)
    r = 1e8 - np.sqrt(1e16 - 1e8)
    ref = np.polynomial.polynomial.polyval(r, c[0])
    assert r == pytest.approx(0.5, rel=1e-6)
    assert hi[0] == pytest.approx(ref, rel=1e-12)
    assert lo[0] == 0.0


def test_poly_extrema_all_zero_rows():
    lo, hi = _poly_extrema(np.zeros((4, 6)))
    assert np.all(lo == 0.0) and np.all(hi == 0.0)
    lo, hi = _poly_extrema(np.array([[2.5, 0.0, 0.0, 0.0]]), 0.25, 0.75)
    assert (lo[0], hi[0]) == (2.5, 2.5)


def test_collision_scan_modes():
    occ = np.zeros(27, dtype=np.uint8)
    occ[13] = 1  # center cell of a 3x3x3 grid
    dims = np.array([3, 3, 3], dtype=np.int64)
    pts = np.array([[0.5, 0.5, 0.5], [1.5, 1.5, 1.5]])
    hit = kernels.collision_scan(pts, occ, dims, np.zeros(3), np.ones(3))
    assert hit == 1
    free = np.array([[0.5, 0.5, 0.5], [2.5, 2.5, 2.5]])
    assert kernels.collision_scan(free, occ, dims, np.zeros(3), np.ones(3)) == -1
    outside = np.array([[-0.1, 0.5, 0.5]])
    assert kernels.collision_scan(outside, occ, dims, np.zeros(3), np.ones(3)) == 0
