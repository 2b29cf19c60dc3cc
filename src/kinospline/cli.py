"""Command-line benchmark harness.

Subcommands: certify (offline inflation certificate), genmap (synthetic
worlds), plan (one search + optional refinement), replan (receding-horizon
simulation), suite (goal sweeps with aggregate statistics). Configuration
comes from key=value text files overridden by flags; stats land as JSON
records and trajectories as CSV. Exit codes: 0 success, 2 no path,
3 infeasible, 4 budget exceeded, 1 anything else (malformed input and
usage errors included). plan, replan and suite fly degree-5 splines.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import certify, elastic, replan, search, stats, world
from .splines import DerivativeBounds, SplineDef

DEGREE = 5

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_NO_PATH = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

_STATUS_EXIT = {"success": EXIT_OK, "partial": EXIT_OK,
                "no-path": EXIT_NO_PATH, "infeasible": EXIT_INFEASIBLE,
                "budget-exceeded": EXIT_BUDGET}


def load_config(path) -> dict:
    """key value pairs, one per line, # comments allowed."""
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, value = line.split(None, 1)
            cfg[key] = value
    return cfg


def _vec(text) -> np.ndarray:
    """A finite 3-vector from "x y z" or "x,y,z"; ValueError otherwise."""
    v = np.array([float(t) for t in str(text).replace(",", " ").split()])
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError(f"expected three finite numbers, got {text!r}")
    return v


_POSITIVE = ("dt", "sample_step", "max_time", "goal_sep", "vmax", "amax",
             "budget_ms", "sense", "local_range", "cell", "cell_y", "cell_z",
             "noise_freq")
_NONNEGATIVE = ("lam", "body_radius", "max_goals", "density")
_FINITE = ("noise_threshold",)


def _check_args(args) -> None:
    """Parse the vector settings in place and reject numeric settings out
    of range (not finite, or not positive, or negative, or a spline degree
    or cost order the planner cannot use), once flags and config file are
    merged."""
    for name in ("start", "start_vel", "goal"):
        if getattr(args, name, None) is not None:
            setattr(args, name, _vec(getattr(args, name)))
    for names, ok, what in (
            (_POSITIVE, lambda v: v > 0, "positive and finite"),
            (_NONNEGATIVE, lambda v: v >= 0, "nonnegative and finite"),
            (_FINITE, lambda v: True, "finite")):
        for name in names:
            v = getattr(args, name, None)
            if v is not None and not (math.isfinite(v) and ok(v)):
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} must be {what}, got {v}")
    order = getattr(args, "order", None)
    if order is not None and not 1 <= order <= DEGREE:
        raise ValueError(f"--order must lie in 1..{DEGREE}, got {order}")
    degree = getattr(args, "degree", None)
    if degree is not None and degree < 1:
        raise ValueError(f"--degree must be at least 1, got {degree}")
    for name in ("extent", "footprint"):
        v = getattr(args, name, None)
        if v is not None and not all(math.isfinite(x) and x > 0 for x in v):
            raise ValueError(f"--{name} must be positive and finite, got {v}")


def _cell_sizes(args) -> tuple:
    """--cell, with --cell-y and --cell-z overriding it where given."""
    return (args.cell, args.cell if args.cell_y is None else args.cell_y,
            args.cell if args.cell_z is None else args.cell_z)


def _setup(args):
    """World, contract and config spaces shared by plan/replan/suite."""
    w = world.load_map(args.map)
    cert = certify.certify(DEGREE, tuple(w.cell_sizes))
    contract = elastic.InflationContract.default(tuple(w.cell_sizes),
                                                 cert.delta_bk,
                                                 body_radius=args.body_radius)
    cs_bk = world.build_config_space(w, contract.delta_bk)
    cs_elas = world.build_config_space(w, contract.delta_elas)
    bounds = DerivativeBounds.symmetric(args.vmax, args.amax)
    return w, contract, cs_bk, cs_elas, bounds


def cmd_certify(args) -> int:
    t0 = time.perf_counter()
    cert = certify.certify(args.degree, _cell_sizes(args), mode=args.mode)
    certify.save_certificate(cert, args.output)
    print(f"delta_bk {cert.delta_bk:.6f} m  worst {cert.worst_pattern} "
          f"({time.perf_counter() - t0:.2f} s) -> {args.output}")
    return EXIT_OK


def cmd_genmap(args) -> int:
    if args.kind == "course":
        w = world.bench_course(cell=args.cell, seed=args.seed)
    else:
        spec = world.MapGenSpec(
            kind=args.kind, extent=tuple(args.extent),
            cell_sizes=_cell_sizes(args),
            density=args.density, footprint=tuple(args.footprint),
            noise_freq=args.noise_freq, noise_threshold=args.noise_threshold,
            seed=args.seed)
        w = world.generate(spec)
    world.save_map(w, args.output)
    print(f"{w.dims.tolist()} cells, {int(w.occ.sum())} occupied -> {args.output}")
    return EXIT_OK


def plan_once(w, cs_bk, cs_elas, contract, bounds, start_pos, start_vel,
              goal_pos, dt, lam, order, d, use_eo=True, budget_ms=500.0,
              max_expansions=500_000):
    """Search (and refine) one query; returns (record, spline or None)."""
    k = DEGREE
    refs = search.state_reference_points(start_pos, start_vel, k, dt)
    tup = search.snap_tuple(refs, w, dt, cs_bk, bounds)
    if tup is None:
        return {"status": "infeasible", "stage": "snap"}, None
    goal_cell = w.point_to_cell(goal_pos)
    if not w.in_bounds(goal_cell) or not cs_bk.is_free(goal_cell):
        return {"status": "no-path", "stage": "goal-occupied"}, None
    goal_tup = search.static_tuple(goal_cell, k, w)
    q = search.SearchQuery(start=tup, goal=goal_tup, dt=dt, lam=lam,
                           order=order, bounds=bounds, d=d,
                           max_wall_ms=budget_ms,
                           max_expansions=max_expansions)
    res = search.search(q, cs_bk)
    rec = {"status": res.status, "search_wall": res.wall_time,
           "expanded": res.expanded, "open_peak": res.open_peak,
           "budget": res.budget, "d": d, "dt": dt, "lam": lam, "order": order}
    if not res.ok:
        return rec, None
    rec["search_cost"] = res.cost
    rec["search_effort"] = res.effort
    if use_eo:
        # verify against the map the body center must avoid, as replan does
        raw = w if contract.body_radius <= 0 else w.with_occ(
            world.build_config_space(w, contract.body_radius).occ_inflated)
        ref = elastic.refine_adaptive(res.positions[k + 1:-1],
                                      res.positions[:k + 1],
                                      goal_tup.positions, cs_elas, raw,
                                      contract, bounds, order, dt,
                                      solver_tol=2e-6, solver_max_iter=8000)
        rec["eo_status"] = ref.status
        rec["eo_tube_time"] = ref.expand_time
        rec["eo_solve_time"] = ref.solve_time
        rec["eo_inserted"] = ref.inserted
        rec["eo_solver_iterations"] = ref.solver_iterations
        rec["eo_knot_repeat"] = ref.knot_repeat
        if not ref.ok:
            rec["status"] = ref.status   # infeasible, or solver-failed
            return rec, None
        rec["derivative_cost"] = ref.cost
        rec["initial_cost"] = ref.initial_cost
        return rec, ref.spline
    spline = SplineDef(k=k, dt=dt, points=res.positions)
    rec["derivative_cost"] = spline.cost(order)
    return rec, spline


def cmd_plan(args) -> int:
    w, contract, cs_bk, cs_elas, bounds = _setup(args)
    t0 = time.perf_counter()
    rec, spline = plan_once(w, cs_bk, cs_elas, contract, bounds,
                            args.start, args.start_vel, args.goal, args.dt,
                            args.lam, args.order, args.d, use_eo=not args.no_eo,
                            budget_ms=args.budget_ms)
    rec["run_time"] = time.perf_counter() - t0
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    if spline is not None:
        rows = stats.sample_trajectory(spline, args.sample_step)
        stats.write_csv(rows, out / "trajectory.csv")
        rec.update(stats.stats_from_samples(
            rows, derivative_cost=rec.get("derivative_cost"),
            run_time=rec["run_time"]))
    stats.write_record(rec, out / "stats.json")
    print(json.dumps(rec, sort_keys=True))
    return _STATUS_EXIT.get(rec["status"], EXIT_OTHER)


def cmd_replan(args) -> int:
    w, contract, cs_bk, cs_elas, bounds = _setup(args)
    settings = replan.ReplanSettings(
        k=DEGREE, dt=args.dt, lam=args.lam, order=args.order, bounds=bounds,
        contract=contract, d=args.d, mode=args.mode, planner=args.planner,
        sense_radius=args.sense, local_range=args.local_range)
    sim = replan.Replanner(w, args.start, args.goal, settings)
    t0 = time.perf_counter()
    rows = sim.run(max_time=args.max_time)
    wall = time.perf_counter() - t0
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "events.jsonl", "w") as fh:
        for e in sim.events:
            stats.append_jsonl(e, fh)
    stats.write_csv(rows, out / "trajectory.csv")
    spline = sim.executed_spline()
    rec = stats.stats_from_samples(rows, derivative_cost=spline.cost(args.order),
                                   run_time=wall, replans=sim.replans,
                                   eo_calls=sim.eo_calls)
    rec["status"] = "success" if sim.goal_reached else "no-path"
    rec["mode"] = args.mode
    rec["planner"] = args.planner
    if sim.search_time:
        rec["mean_search_time"] = float(np.mean(sim.search_time))
        rec["mean_tube_time"] = float(np.mean(sim.tube_time or [0.0]))
        rec["mean_opt_time"] = float(np.mean(sim.opt_time or [0.0]))
    stats.write_record(rec, out / "stats.json")
    print(json.dumps(rec, sort_keys=True))
    return _STATUS_EXIT.get(rec["status"], EXIT_OTHER)


def _suite_goals(w, cs_bk, start_cell, sep, z):
    """Free, reachable goal cells on a regular grid at height z."""
    reach = world.reachable_mask(cs_bk, start_cell)
    ext = w.extent
    goals = []
    for gx in np.arange(sep, ext[0] - sep / 2, sep):
        for gy in np.arange(sep, ext[1] - sep / 2, sep):
            cell = w.point_to_cell((gx, gy, z))
            if w.in_bounds(cell) and cs_bk.is_free(cell) and reach[tuple(cell)]:
                goals.append(tuple(int(c) for c in cell))
    return goals


def cmd_suite(args) -> int:
    w, contract, cs_bk, cs_elas, bounds = _setup(args)
    start_pos = args.start
    start_cell = w.point_to_cell(start_pos)
    goals = _suite_goals(w, cs_bk, start_cell, args.goal_sep, start_pos[2])
    if args.max_goals:
        goals = goals[:args.max_goals]
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for goal_cell in goals:
        goal_pos = w.cell_center(np.asarray(goal_cell))
        rec, spline = plan_once(w, cs_bk, cs_elas, contract, bounds,
                                args.start, args.start_vel, goal_pos,
                                args.dt, args.lam, args.order, args.d,
                                use_eo=not args.no_eo,
                                budget_ms=args.budget_ms,
                                max_expansions=1_000_000)
        rec["goal"] = list(goal_cell)
        if spline is not None:
            rows = stats.sample_trajectory(spline, args.sample_step)
            rec.update(stats.stats_from_samples(
                rows, derivative_cost=rec.get("derivative_cost")))
        records.append(rec)
    records.sort(key=lambda r: r["goal"])
    with open(out / "goals.jsonl", "w") as fh:
        for rec in records:
            stats.append_jsonl(rec, fh)
    n_ok = sum(1 for r in records if r["status"] == "success")
    agg = {
        "goals": len(records),
        "success": n_ok,
        "success_fraction": (n_ok / len(records) * 100.0) if records else 0.0,
        "mean_search_wall": float(np.mean([r.get("search_wall", 0.0)
                                           for r in records])) if records else 0.0,
        "mean_eo_time": float(np.mean(
            [r.get("eo_tube_time", 0.0) + r.get("eo_solve_time", 0.0)
             for r in records if r["status"] == "success"])) if n_ok else 0.0,
        "mean_derivative_cost": float(np.mean(
            [r["derivative_cost"] for r in records
             if "derivative_cost" in r])) if n_ok else 0.0,
    }
    stats.write_record(agg, out / "aggregate.json")
    print(json.dumps(agg, sort_keys=True))
    return EXIT_OK if records and n_ok == len(records) else \
        (EXIT_NO_PATH if records else EXIT_OTHER)


def _add_common(p):
    p.add_argument("--map", required=True)
    p.add_argument("--config", help="key=value file; flags override")
    p.add_argument("--dt", type=float, default=0.17)
    p.add_argument("--lam", type=float, default=20.0)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--vmax", type=float, default=2.0)
    p.add_argument("--amax", type=float, default=4.7)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--body-radius", type=float, default=0.0)
    p.add_argument("--budget-ms", type=float, default=500.0)
    p.add_argument("--sample-step", type=float, default=0.02)
    p.add_argument("-o", "--output", default="out")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (argparse's own 2 is the no-path code)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_OTHER, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="kinospline")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="compute the inflation certificate")
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--cell", type=float, required=True)
    p.add_argument("--cell-y", type=float)
    p.add_argument("--cell-z", type=float)
    p.add_argument("--mode", choices=["per-axis", "full"], default="per-axis")
    p.add_argument("-o", "--output", default="certificate.txt")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("genmap", help="generate a synthetic map file")
    p.add_argument("--kind", choices=["empty", "pillars", "noise", "course"],
                   default="pillars")
    p.add_argument("--extent", type=float, nargs=3, default=[20.0, 20.0, 4.0])
    p.add_argument("--cell", type=float, default=0.25)
    p.add_argument("--cell-y", type=float)
    p.add_argument("--cell-z", type=float)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--footprint", type=float, nargs=2, default=[0.5, 0.5])
    p.add_argument("--noise-freq", type=float, default=0.3)
    p.add_argument("--noise-threshold", type=float, default=0.62)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="map.ksg")
    p.set_defaults(func=cmd_genmap)

    p = sub.add_parser("plan", help="single-shot plan (search + refinement)")
    _add_common(p)
    p.add_argument("--start", required=True)
    p.add_argument("--start-vel", default="0 0 0")
    p.add_argument("--goal", required=True)
    p.add_argument("--no-eo", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("replan", help="receding-horizon simulation")
    _add_common(p)
    p.add_argument("--start", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--mode", choices=["passive", "active"], default="passive")
    p.add_argument("--planner", choices=["tuple", "astar"], default="tuple")
    p.add_argument("--sense", type=float, default=4.0)
    p.add_argument("--local-range", type=float, default=5.0)
    p.add_argument("--max-time", type=float, default=120.0)
    p.set_defaults(func=cmd_replan)

    p = sub.add_parser("suite", help="goal-grid sweep with aggregation")
    _add_common(p)
    p.add_argument("--start", required=True)
    p.add_argument("--start-vel", default="0 0 0")
    p.add_argument("--goal-sep", type=float, default=1.0)
    p.add_argument("--max-goals", type=int, default=0)
    p.add_argument("--no-eo", action="store_true")
    p.set_defaults(func=cmd_suite)
    return ap


def _apply_config(parser, args, argv) -> None:
    """Fill settings from the config file; explicit flags keep priority.

    A key names an option of the subcommand by its destination (dashes or
    underscores alike), --config aside. The flags argv gives are those
    the subcommand's parser reads again with every default suppressed.
    """
    if not getattr(args, "config", None):
        return
    sub = next(a for a in parser._actions
               if a.dest == "command").choices[args.command]
    settable = {a.dest for a in sub._actions if a.option_strings}
    settable -= {"help", "config"}
    for a in sub._actions:
        a.default = argparse.SUPPRESS
    explicit = vars(sub.parse_args(argv[1:]))  # argv[0] is the command
    for key, value in load_config(args.config).items():
        attr = key.replace("-", "_")
        if attr not in settable:
            raise ValueError(f"{args.config}: unknown setting {key!r}")
        current = getattr(args, attr)
        if isinstance(current, bool):
            if value.lower() not in ("1", "0", "true", "false", "yes", "no"):
                raise ValueError(f"{args.config}: {key} must be a boolean, "
                                 f"got {value!r}")
            value = value.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            value = int(value)
        elif isinstance(current, float):
            value = float(value)
        if attr not in explicit:
            setattr(args, attr, value)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (1) or --help (0)
        return exc.code
    try:
        _apply_config(parser, args, argv)
        _check_args(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"status": "error", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
