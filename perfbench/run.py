"""Planner benchmark: seeded sweep, refine and replan workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3

One run sets the workload up 3 to 11 times, until 1.5 s are spent, and
up to 4 more times between passes spread over the window (the median of
all is `setup_s`); it measures a closed loop of operations for
`--seconds` seconds of operation time in a single process,
single-threaded, with BLAS pinned to one thread. A workload is a fixed,
seeded list of distinct operations, run over and over in passes; each
operation's latency is the fastest of its runs, and `attempted` and
`failed` count distinct operations. `--trace 0` reports the end-to-end
metrics; `--trace 1` wraps the planner's public functions and reports
the per-layer metrics instead. Progress and a human-readable report go
to stdout; the last line is one JSON object with the keys correct,
attempted, failed and metrics. Every run also writes its environment,
report and per-operation records to
.perfbench_out/<workload>-seed<seed>-trace<0|1>.json.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = (3, 11)      # set-ups before the window: at least, at most
SETUP_SECONDS = 1.5          # keep setting up until this much time is spent
SETUP_IN_WINDOW = 4          # more set-ups, spread over the window
HARD_LIMIT_S = 150.0        # the first operation may run this long at most
WORKLOAD_NAMES = ("sweep", "refine", "replan")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench_out",
                    help="directory for per-run records, relative to the "
                         "repository root")
    return ap.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_planner():
    """The kinospline modules, imported from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "kinospline" / "__init__.py").is_file():
        raise ImportError(f"no kinospline package under {src}")
    sys.path.insert(0, str(src))
    from kinospline import (certify, cli, elastic, kernels, qcqp, replan,
                            search, splines, stats, world)
    return SimpleNamespace(certify=certify, cli=cli, elastic=elastic,
                           kernels=kernels, qcqp=qcqp, replan=replan,
                           search=search, splines=splines, stats=stats,
                           world=world)


def commit_id() -> str:
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(ks, seed):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numba_active": ks.kernels.numba_active(),
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "KINOSPLINE_WORKERS": os.environ.get("KINOSPLINE_WORKERS"),
        "commit": commit_id(),
        "seed": seed,
    }


def tail(values):
    """(value, label): the 90th percentile of per-operation latencies.

    Each value is already one operation's latency over all its runs, so
    the percentile is taken over distinct operations (linear
    interpolation; the maximum for a single operation).
    """
    n = len(values)
    if n == 1:
        return values[0], "max of 1 operation"
    return (statistics.quantiles(values, n=10, method="inclusive")[-1],
            f"p90 of {n} operations")


def latency_summary(prefix, values, report):
    if not values:
        report[f"{prefix}.p50"] = report[f"{prefix}.tail"] = None
        return
    report[f"{prefix}.p50"] = statistics.median(values)
    report[f"{prefix}.tail"], report[f"{prefix}.tail_is"] = tail(values)
    report[f"{prefix}.samples"] = len(values)


def run_workload(args, spec) -> int:
    sys.path.insert(0, str(HERE))
    try:
        ks = load_planner()
    except ImportError as exc:
        return fail(f"cannot import the planner: {exc}")
    import numpy as np
    import spans as tr
    import workloads as wl

    index = WORKLOAD_NAMES.index(args.workload)
    rng = np.random.default_rng([args.seed, index])
    work = wl.WORKLOADS[args.workload]()
    tracer = tr.Tracer()
    if args.trace:
        tr.install_planner(tracer, ks)
        misplaced = tracer.placement_faults()
        if misplaced:
            return fail(f"trace wrappers not on caller names: {misplaced}")
    wl.install_cutoff()
    t_start = time.perf_counter()
    env = environment(ks, args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    plan_info = work.plan(ks, rng, args.seed) if hasattr(work, "plan") else {}
    setup_times = []

    def time_setup():
        gc.collect()
        t0 = time.perf_counter()
        fixture = work.setup(ks)
        setup_times.append(time.perf_counter() - t0)
        return fixture

    while len(setup_times) < SETUP_REPEATS[0] or (
            sum(setup_times) < SETUP_SECONDS
            and len(setup_times) < SETUP_REPEATS[1]):
        fixture = time_setup()
    if args.trace:
        tracer.enabled = True       # one more, traced, for the layer totals
        fixture = work.setup(ks)
        tracer.enabled = False
    t0 = time.perf_counter()
    info = work.prepare(ks, fixture, rng, args.seed)
    info.update(plan_info)
    info["prepare_s"] = time.perf_counter() - t0
    print("inputs " + json.dumps(info, sort_keys=True), flush=True)

    gc.collect()
    gc.freeze()     # the fixture is long-lived; keep it out of collections
    meter = wl.Meter(seconds=args.seconds,
                     hard_s=max(HARD_LIMIT_S - (time.perf_counter() - t_start),
                                5.0))
    before_window = len(setup_times)
    marks = [args.seconds * (k + 1) / (SETUP_IN_WINDOW + 1)
             for k in range(SETUP_IN_WINDOW)]

    def setup_between_passes(m):
        """Set up again once the window passes the next mark.

        On a shared host the speed changes in phases of a fraction of a
        second to minutes, so set-ups spread over the run sample those
        phases the way the operations do.
        """
        if len(setup_times) - before_window < len(marks) \
                and m.used >= marks[len(setup_times) - before_window]:
            traced, tracer.enabled = tracer.enabled, False
            time_setup()
            tracer.enabled = traced

    meter.on_pass = setup_between_passes
    tracer.enabled = bool(args.trace)
    t0 = time.perf_counter()
    work.run(ks, meter, tracer)
    wall_s = time.perf_counter() - t0
    tracer.enabled = False

    records = meter.finish()
    attempted = len(records)
    ok = [r for r in records if r["ok"]]
    if not ok:
        return fail(f"no {args.workload} operation completed "
                    f"({attempted} attempted)")
    reasons = {}
    for r in records:
        if r["reason"]:
            reasons[r["reason"]] = reasons.get(r["reason"], 0) + 1
    untimed = work.untimed_faults() if hasattr(work, "untimed_faults") else []
    correct = not any(k.startswith("check:") for k in list(reasons) + untimed)
    ok_ms = [r["ms"] for r in ok]
    tail_ms, tail_is = tail(ok_ms)

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "op_ms.p50": statistics.median(ok_ms),
        "op_ms.tail": tail_ms,
        "ops_per_s": attempted / (sum(r["ms"] for r in records) / 1e3),
        "ok_frac": len(ok) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    report = {"workload": args.workload, "seed": args.seed,
              "setup_runs_s": setup_times, "wall_s": wall_s,
              "measured_s": meter.used, "attempted": attempted,
              "executions": meter.executions,
              "runs_per_op": [min(r["runs"] for r in records),
                              max(r["runs"] for r in records)],
              "failed": attempted - len(ok), "cut_off": meter.cut,
              "fail_frac": (attempted - len(ok)) / attempted,
              "failure_reasons": reasons, "untimed_faults": untimed,
              "op_ms.tail_is": tail_is,
              "wall_ended": sum(1 for r in records if r.get("wall_ended"))}
    for key, value in work.summary(records).items():
        if isinstance(value, list):
            latency_summary(key, value, report)
        else:
            report[key] = value
    report.update(end_to_end)

    out = {"env": env, "inputs": info, "report": report,
           "records": records}
    missions = getattr(work, "missions", None)
    if missions is not None:
        out["missions"] = missions
    events = {}
    for m in missions or ():
        for kind, count in m["events"].items():
            events[kind] = events.get(kind, 0) + count

    if args.trace:
        tr.attach_op_counts(tracer, records)
        per_span = tr.span_cost_us()
        layers = tr.layer_metrics(tracer, events, end_to_end["op_ms.p50"],
                                  meter.used, per_span)
        missing = tr.absent(layers, tracer, args.workload)
        out["trace"] = {"per_span_us": per_span, "absent": missing,
                        "spans": len(tracer.spans),
                        "names_gone": tracer.missing}
        report["trace_absent"] = missing
        report["trace_names_gone"] = tracer.missing
        metrics, table = layers, spec["per_layer"]
    else:
        metrics, table = end_to_end, spec["end_to_end"]

    out_dir = ROOT / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, sort_keys=True, default=float) + "\n")

    print("report " + json.dumps(report, sort_keys=True, default=float))
    result = {}
    for entry in table:
        if entry["name"] not in metrics:
            return fail(f"metric {entry['name']} was not computed")
        result[entry["name"]] = {"value": float(metrics[entry["name"]]),
                                 "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - len(ok), "metrics": result}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
