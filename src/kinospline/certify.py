"""Offline certification of the spline-vs-grid deviation.

A span pattern is the sequence of k grid steps (components in {-1, 0, +1})
between the k+1 control points of one span. The curve of a span can exit
the union of cell intervals its control points visit; the certification
enumerates every pattern, measures that excursion per axis in closed form,
and records the largest value. Inflating obstacles by the certified amount
then makes collision checking during the search unnecessary.

Deviation is axis-separable: evaluation is linear and per-axis, and the
excursion beyond the 1-D cell-interval envelope on one axis depends only
on that axis's step sequence and cell size. The production path therefore
enumerates 3^k per-axis patterns; the 27^k full product survives as a
cross-check oracle for small degrees.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .splines import position_extrema_axis


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


def pattern_deviation_axis(steps, cell: float, k: int) -> float:
    """Excursion of one axis profile beyond its matched cell intervals.

    steps are the k per-knot increments in {-1, 0, +1}; the control points
    sit at cell centers. Over each matching piece the curve must stay
    inside the matched cell's interval [center - cell/2, center + cell/2];
    the returned value is the largest overshoot, computed from closed-form
    extrema of the position polynomial on the piece.
    """
    pos = np.concatenate(([0.0], np.cumsum(np.asarray(steps, dtype=float)))) * cell
    worst = 0.0
    for u_lo, u_hi, m in _match_pieces(k):
        lo, hi = position_extrema_axis(pos, k, u_lo, u_hi)
        worst = max(worst,
                    (pos[m] - cell / 2.0) - lo,
                    hi - (pos[m] + cell / 2.0))
    return max(0.0, worst)


def pattern_deviation(steps3, cell_sizes, k: int) -> float:
    """Deviation of a 3-D span pattern: largest per-axis excursion."""
    steps3 = np.asarray(steps3)
    if steps3.shape != (k, 3) or np.any(np.abs(steps3) > 1):
        raise ValueError("pattern must be k steps with components in {-1,0,1}")
    return max(pattern_deviation_axis(steps3[:, ax], float(cell_sizes[ax]), k)
               for ax in range(3))


def _axis_scan(k: int, cell: float) -> tuple[float, tuple]:
    """(largest deviation, worst step sequence) over the 3^k axis patterns."""
    best = 0.0
    worst = (0,) * k
    for steps in product((-1, 0, 1), repeat=k):
        d = pattern_deviation_axis(steps, cell, k)
        if d > best:
            best = d
            worst = steps
    return best, worst


def certify(k: int, cell_sizes, mode: str = "per-axis") -> InflationCertificate:
    """Minimum obstacle inflation covering every admissible span pattern.

    Per-axis mode scans the 3^k step sequences once per distinct cell size,
    in order of first appearance, and takes the largest deviation. Full
    mode recombines all 27^k 3-D patterns and exists only to cross-validate
    separability (k <= 3).
    """
    if mode not in ("per-axis", "full"):
        raise ValueError(f"unknown enumeration mode {mode!r}")
    cell_sizes = tuple(float(c) for c in cell_sizes)
    if mode == "full":
        if k > 3:
            raise ValueError("full enumeration is limited to k <= 3")
        cache = {}

        def axis_dev(steps, cell):
            key = (steps, cell)
            if key not in cache:
                cache[key] = pattern_deviation_axis(steps, cell, k)
            return cache[key]

        best = 0.0
        worst = (0,) * k
        for flat in product(product((-1, 0, 1), repeat=3), repeat=k):
            for ax in range(3):
                steps = tuple(step[ax] for step in flat)
                d = axis_dev(steps, cell_sizes[ax])
                if d > best:
                    best = d
                    worst = steps
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
