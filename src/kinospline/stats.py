"""Trajectory statistics and the sampled-trajectory CSV format.

Stats are defined over the emitted sample grid so that recomputing them
from the CSV reproduces the record exactly; the derivative cost comes from
the closed-form span costs of the spline itself.
"""

import csv
import json

import numpy as np

CSV_FIELDS = ["t", "x", "y", "z", "vx", "vy", "vz", "ax", "ay", "az"]


def sample_trajectory(spline, step: float = 0.02) -> np.ndarray:
    """(n, 10) array of time, position, velocity, acceleration rows."""
    ts, (pos, vel, acc) = spline.sample_orders(step, (0, 1, 2))
    return np.column_stack([ts, pos, vel, acc])


def stats_from_samples(rows: np.ndarray, derivative_cost: float = None,
                       run_time: float = None, replans: int = 0,
                       eo_calls: int = 0) -> dict:
    """Stats record from a (n, 10) sample array."""
    t = rows[:, 0]
    pos = rows[:, 1:4]
    vmag = np.linalg.norm(rows[:, 4:7], axis=1)
    amag = np.linalg.norm(rows[:, 7:10], axis=1)
    seg = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    rec = {
        "duration": float(t[-1] - t[0]),
        "length": float(seg.sum()),
        "avg_velocity": float(vmag.mean()),
        "max_velocity": float(vmag.max()),
        "avg_acceleration": float(amag.mean()),
        "max_acceleration": float(amag.max()),
        "replans": int(replans),
        "eo_calls": int(eo_calls),
    }
    if derivative_cost is not None:
        rec["derivative_cost"] = float(derivative_cost)
    if run_time is not None:
        rec["run_time"] = float(run_time)
    return rec


def write_csv(rows: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])


def read_csv(path) -> np.ndarray:
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_FIELDS:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        return np.array([[float(v) for v in row] for row in reader])


def write_record(record: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def append_jsonl(record: dict, fh) -> None:
    fh.write(json.dumps(record, sort_keys=True) + "\n")
