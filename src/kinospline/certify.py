"""Offline certification of the spline-vs-grid deviation.

A span pattern is the sequence of k grid steps (components in {-1, 0, +1})
between the k+1 control points of one span. The curve of a span can exit
the union of cell intervals its control points visit; the certification
enumerates every pattern, measures that excursion per axis from the
extrema of the position polynomial, and records the largest value.
Inflating obstacles by the certified amount then makes collision checking
during the search unnecessary.

Deviation is axis-separable: evaluation is linear and per-axis, and the
excursion beyond the 1-D cell-interval envelope on one axis depends only
on that axis's step sequence and cell size. The production path therefore
evaluates the 3^k per-axis patterns (in one batch, enumerated as
`patterns` enumerates them); the 27^k full product survives as a
cross-check oracle for small degrees.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .patterns import all_steps
from .splines import _poly_extrema, _profile_coefs


@dataclass(frozen=True)
class InflationCertificate:
    degree: int
    cell_sizes: tuple
    delta_bk: float
    worst_pattern: tuple
    mode: str = "per-axis"
    connectivity: int = 1

    def scaled(self, cell_sizes) -> "InflationCertificate":
        """Certificate for different cell sizes (deviation scales linearly)."""
        unit = self.delta_bk / max(self.cell_sizes)
        cs = tuple(float(c) for c in cell_sizes)
        return InflationCertificate(self.degree, cs, unit * max(cs),
                                    self.worst_pattern, self.mode,
                                    self.connectivity)


def _match_pieces(k: int):
    """Sub-intervals of u and the control point index the curve tracks.

    The curve of a span shadows its control polygon at the Greville offset
    (k-1)/2 + u; rounding that to the nearest vertex matches each part of
    the span to one visited cell. Odd degrees switch vertex at u = 1/2,
    even degrees track a single vertex.
    """
    if k % 2:
        m = (k - 1) // 2
        return ((0.0, 0.5, m), (0.5, 1.0, m + 1))
    return ((0.0, 1.0, k // 2),)


def _deviations(steps, cell: float, k: int) -> np.ndarray:
    """Excursion of each row of a (n, k) step array beyond its matched cells.

    The control points sit at cell centers. Over each matching piece the
    curve must stay inside the matched cell's interval [center - cell/2,
    center + cell/2]; a row's value is its largest overshoot (0 if none),
    from the extrema of its position polynomial on each piece. Every
    operation is per row, so a pattern's value does not depend on the
    other rows.
    """
    steps = np.asarray(steps, dtype=float).reshape(-1, k)
    pos = np.zeros((steps.shape[0], k + 1))
    pos[:, 1:] = np.cumsum(steps, axis=1) * cell
    a = _profile_coefs(pos)
    worst = np.zeros(steps.shape[0])
    for u_lo, u_hi, m in _match_pieces(k):
        lo, hi = _poly_extrema(a, u_lo, u_hi)
        worst = np.maximum(worst, np.maximum((pos[:, m] - cell / 2.0) - lo,
                                             hi - (pos[:, m] + cell / 2.0)))
    return worst


def pattern_deviation_axis(steps, cell: float, k: int) -> float:
    """Excursion of one axis profile beyond its matched cell intervals.

    steps are the k per-knot increments in {-1, 0, +1}; see _deviations.
    """
    return float(_deviations(steps, cell, k)[0])


def pattern_deviation(steps3, cell_sizes, k: int) -> float:
    """Deviation of a 3-D span pattern: largest per-axis excursion."""
    steps3 = np.asarray(steps3)
    if steps3.shape != (k, 3) or np.any(np.abs(steps3) > 1):
        raise ValueError("pattern must be k steps with components in {-1,0,1}")
    return max(pattern_deviation_axis(steps3[:, ax], float(cell_sizes[ax]), k)
               for ax in range(3))


def _axis_scan(k: int, cell: float) -> tuple[float, tuple]:
    """(largest deviation, worst step sequence) over the 3^k axis patterns.

    Ties go to the lexicographically smallest step sequence; with no
    excursion at all the worst sequence is the static one.
    """
    steps = all_steps(k)
    dev = _deviations(steps, cell, k)
    best = float(dev.max())
    if best <= 0.0:
        return 0.0, (0,) * k
    return best, min(tuple(int(v) for v in steps[i])
                     for i in np.flatnonzero(dev == best))


def certify(k: int, cell_sizes, mode: str = "per-axis") -> InflationCertificate:
    """Minimum obstacle inflation covering every admissible span pattern.

    Per-axis mode scans the 3^k step sequences once per distinct cell size,
    in order of first appearance, and takes the largest deviation. Full
    mode recombines all 27^k 3-D patterns from the per-axis deviations and
    exists only to cross-validate separability (k <= 3); its worst pattern
    is the first maximum in lexicographic (pattern, axis) order.
    """
    if mode not in ("per-axis", "full"):
        raise ValueError(f"unknown enumeration mode {mode!r}")
    cell_sizes = tuple(float(c) for c in cell_sizes)
    if mode == "full":
        if k > 3:
            raise ValueError("full enumeration is limited to k <= 3")
        tables = {c: _deviations(all_steps(k), c, k)
                  for c in dict.fromkeys(cell_sizes)}
        flat = np.array(list(product(product((-1, 0, 1), repeat=3),
                                     repeat=k)))
        codes = ((flat + 1) * 3 ** np.arange(k)[:, None]).sum(axis=1)
        dev = np.column_stack([tables[c][codes[:, ax]]
                               for ax, c in enumerate(cell_sizes)])
        i = int(np.argmax(dev))
        best = float(dev.flat[i])
        worst = (tuple(int(v) for v in flat[i // 3, :, i % 3])
                 if best > 0.0 else (0,) * k)
        return InflationCertificate(k, cell_sizes, best, worst, mode="full")
    best = 0.0
    worst = (0,) * k
    # equal cell sizes give equal scans; the first one seen decides ties
    for cell in dict.fromkeys(cell_sizes):
        d, steps = _axis_scan(k, cell)
        if d > best:
            best = d
            worst = steps
    return InflationCertificate(k, cell_sizes, best, worst)


def save_certificate(cert: InflationCertificate, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"degree {cert.degree}\n")
        fh.write(f"cell_x {cert.cell_sizes[0]:.17g}\n")
        fh.write(f"cell_y {cert.cell_sizes[1]:.17g}\n")
        fh.write(f"cell_z {cert.cell_sizes[2]:.17g}\n")
        fh.write(f"delta_bk {cert.delta_bk:.17g}\n")
        fh.write("worst_pattern " + ",".join(str(s) for s in cert.worst_pattern) + "\n")
        fh.write(f"mode {cert.mode}\n")
        fh.write(f"connectivity {cert.connectivity}\n")


def load_certificate(path) -> InflationCertificate:
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, value = line.split(maxsplit=1)
            kv[key] = value
    return InflationCertificate(
        degree=int(kv["degree"]),
        cell_sizes=(float(kv["cell_x"]), float(kv["cell_y"]), float(kv["cell_z"])),
        delta_bk=float(kv["delta_bk"]),
        worst_pattern=tuple(int(s) for s in kv["worst_pattern"].split(",")),
        mode=kv.get("mode", "per-axis"),
        connectivity=int(kv.get("connectivity", 1)))
