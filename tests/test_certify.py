import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from kinospline import certify as ct
from kinospline.splines import eval_span_many

import oracles


def sampled_axis_deviation(steps, cell, k, n=100001):
    """Dense-sampling oracle for the per-axis matched-cell excursion.

    Samples the position profile, takes the worst sample per matching
    piece and refines it with a bounded scalar minimization.
    """
    pos = np.concatenate(([0.0], np.cumsum(np.asarray(steps, dtype=float)))) * cell
    P = np.column_stack([pos, np.zeros(k + 1), np.zeros(k + 1)])

    def value(u, m, sign):
        x = eval_span_many(P, [u], 0, 1.0)[0, 0]
        return sign * (x - pos[m])

    worst = 0.0
    for u_lo, u_hi, m in ct._match_pieces(k):
        us = np.linspace(u_lo, u_hi, n // 2)
        xs = eval_span_many(P, us, 0, 1.0)[:, 0]
        exc = np.abs(xs - pos[m])
        i = int(np.argmax(exc))
        sign = -1.0 if xs[i] >= pos[m] else 1.0
        lo = max(u_lo, us[max(i - 2, 0)])
        hi = min(u_hi, us[min(i + 2, len(us) - 1)])
        res = minimize_scalar(value, bounds=(lo, hi), method="bounded",
                              args=(m, sign), options={"xatol": 1e-14})
        worst = max(worst, exc[i], -res.fun - cell / 2.0 + 0.0)
    return max(0.0, worst - cell / 2.0)


class TestPatternDeviation:
    def test_stationary_zero(self):
        assert oracles.pattern_deviation_axis((0,) * 5, 0.16, 5) == 0.0

    def test_straight_line_zero(self):
        assert oracles.pattern_deviation_axis((1,) * 5, 0.16, 5) < 1e-12
        assert oracles.pattern_deviation_axis((-1,) * 5, 0.16, 5) < 1e-12

    def test_reversal_positive_and_matches_sampling(self):
        steps = (1, 1, -1, -1, 1)
        d = oracles.pattern_deviation_axis(steps, 0.16, 5)
        assert d > 0.0
        ref = sampled_axis_deviation(steps, 0.16, 5)
        assert abs(d - ref) < 1e-9

    def test_3d_pattern_is_axis_max(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            steps3 = rng.integers(-1, 2, size=(5, 3))
            d = oracles.pattern_deviation(steps3, (0.16, 0.2, 0.3), 5)
            ref = max(oracles.pattern_deviation_axis(steps3[:, ax], c, 5)
                      for ax, c in enumerate((0.16, 0.2, 0.3)))
            assert d == ref

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError):
            oracles.pattern_deviation(np.full((5, 3), 2), (0.1,) * 3, 5)


class TestCertify:
    def test_quintic_bound_at_16cm(self):
        cert = ct.certify(5, (0.16,) * 3)
        assert 0.0 < cert.delta_bk < 0.03

    def test_linear_scaling(self):
        c1 = ct.certify(5, (0.16,) * 3)
        c2 = ct.certify(5, (0.32,) * 3)
        assert c2.delta_bk / c1.delta_bk == pytest.approx(2.0, rel=1e-12)

    def test_per_axis_equals_full_k3(self):
        ca = ct.certify(3, (0.2, 0.25, 0.3))
        cf = ct.certify(3, (0.2, 0.25, 0.3), mode="full")
        assert ca.delta_bk == cf.delta_bk

    def test_per_axis_equals_full_k2(self):
        ca = ct.certify(2, (0.16,) * 3)
        cf = ct.certify(2, (0.16,) * 3, mode="full")
        assert ca.delta_bk == cf.delta_bk

    def test_rerun_bit_exact(self):
        a = ct.certify(5, (0.16,) * 3)
        b = ct.certify(5, (0.16,) * 3)
        assert a.delta_bk == b.delta_bk and a.worst_pattern == b.worst_pattern

    def test_full_mode_limit(self):
        with pytest.raises(ValueError):
            ct.certify(5, (0.16,) * 3, mode="full")

    def test_worst_pattern_attains_max(self):
        cert = ct.certify(5, (0.16,) * 3)
        d = oracles.pattern_deviation_axis(cert.worst_pattern, 0.16, 5)
        assert d == cert.delta_bk


@pytest.mark.parametrize("cells, scans", [((0.2, 0.2, 0.2), 1),
                                          ((0.2, 0.2, 0.4), 2)])
def test_certify_scans_each_cell_size_once(monkeypatch, cells, scans):
    scan = ct._axis_scan
    seen = []

    def counted(k, cell):
        seen.append(cell)
        return scan(k, cell)

    monkeypatch.setattr(ct, "_axis_scan", counted)
    cert = ct.certify(5, cells)
    assert len(seen) == scans
    # reference: one scan per axis, a later axis wins only when larger
    best, worst = 0.0, (0,) * 5
    for cell in cells:
        d, steps = scan(5, cell)
        if d > best:
            best, worst = d, steps
    assert cert.delta_bk == best and cert.worst_pattern == worst


def test_certify_reuses_axis_scans(monkeypatch):
    ct._axis_scan.cache_clear()
    deviations = ct._deviations
    calls = []

    def counted(steps, cell, k):
        calls.append(cell)
        return deviations(steps, cell, k)

    monkeypatch.setattr(ct, "_deviations", counted)
    first = ct.certify(5, (0.2, 0.2, 0.4))
    assert len(calls) == 2
    calls.clear()
    again = ct.certify(5, (0.2, 0.2, 0.4))
    assert calls == []
    assert again == first


def test_certificate_roundtrip(tmp_path):
    cert = ct.certify(5, (0.16, 0.2, 0.4))
    path = tmp_path / "c.txt"
    ct.save_certificate(cert, path)
    loaded = ct.load_certificate(path)
    assert loaded == cert
    text = path.read_text()
    for key in ("degree", "cell_x", "cell_y", "cell_z", "delta_bk",
                "worst_pattern"):
        assert key in text
    assert "connectivity" not in text
    # files written before the connectivity line was dropped still load
    path.write_text(text + "connectivity 1\n")
    assert ct.load_certificate(path) == cert


@pytest.mark.parametrize("cells", [(0.0, 0.2, 0.2), (0.2, -0.2, 0.2),
                                   (0.2, 0.2, float("nan"))])
def test_certify_rejects_bad_cell_sizes(cells):
    with pytest.raises(ValueError, match="cell sizes"):
        ct.certify(5, cells)
