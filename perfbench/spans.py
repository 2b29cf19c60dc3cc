"""In-memory spans around the planner's public functions.

A traced run swaps each public function for a wrapper on the exact name
its callers look up: module attributes for functions reached through
their module (`search.search`), the importing module's own name for
functions imported by name (`elastic.collision_scan`), and the class
attribute for methods (`ConfigSpace.nn_search`). A span records its name,
start, end, parent span and operation id; a few wrappers also keep a small
summary of the result. Spans stay in memory until the run ends.
"""

import functools
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        # one record per span: [name, start, end, parent index, op id, detail]
        self.spans = []
        self.op = None
        self.enabled = False
        self.installed = []
        self.missing = []
        self._stack = []

    def wrap(self, fn, name, detail=None):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = perf_counter()
            if detail is not None:
                rec[5] = detail(args, out)
            return out

        traced.__wrapped_span__ = name
        return traced

    def install(self, owner, attr, name, detail=None):
        """Replace owner.attr (module or class) by its traced wrapper.

        A name the planner no longer defines is listed in `missing`.
        """
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(orig, name, detail))
        self.installed.append((owner, attr, name))

    def placement_faults(self):
        """(owner.attr, span) pairs whose caller-visible name lost it."""
        return [(f"{o.__name__}.{a}", n)
                for o, a, n in self.installed
                if getattr(o.__dict__[a], "__wrapped_span__", None) != n]

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own


def _search_detail(args, res):
    q = args[0]
    wall_ended = (res.status != "success"
                  and res.expanded < q.max_expansions
                  and res.wall_time * 1e3 >= q.max_wall_ms)
    return {"status": res.status, "expanded": res.expanded,
            "open_peak": res.open_peak, "wall_ended": wall_ended}


def _qcqp_detail(args, sol):
    return {"status": sol.status, "iterations": sol.iterations,
            "n": int(args[0].n)}


def install_planner(tracer, ks) -> None:
    """Wrap every traced layer of the kinospline package namespace `ks`."""
    t = tracer.install
    t(ks.search, "search", "search.search", _search_detail)
    t(ks.search, "snap_tuple", "search.snap")
    t(ks.search, "astar_cells", "search.astar")
    for mod in (ks.elastic, ks.replan):
        t(mod, "collision_scan", "kernels.collision_scan")
    for mod in (ks.search, ks.elastic, ks.replan):
        t(mod, "check_feasible", "splines.check_feasible")
    t(ks.stats, "sample_trajectory", "stats.sample")
    t(ks.world, "build_config_space", "world.config_space")
    t(ks.world, "updated_config_space", "world.config_space")
    t(ks.world.ConfigSpace, "nn_search", "world.nn_search")
    t(ks.certify, "certify", "certify")
    t(ks.elastic, "refine_adaptive", "elastic.refine_adaptive")
    t(ks.elastic, "refine", "elastic.refine",
      lambda a, r: {"status": r.status, "inserted": r.inserted})
    t(ks.elastic, "tube_expansion", "elastic.tube",
      lambda a, tube: {"balls": len(tube.radii)})
    t(ks.elastic, "assemble_qcqp", "elastic.assemble",
      lambda a, p: {"rows": 0 if p.A is None else int(p.A.shape[0])})
    t(ks.elastic, "verify_safety", "elastic.verify")
    t(ks.qcqp, "solve", "qcqp.solve", _qcqp_detail)
    t(ks.replan.Replanner, "step", "replan.step")
    t(ks.replan.KnownMap, "reveal", "replan.reveal")
    t(ks.replan.KnownMap, "spaces", "replan.spaces")
    t(ks.replan, "match_boundary", "replan.match_boundary")
    t(ks.replan.PlanWindow, "brake_at", "replan.brake")
    t(ks.replan.PlanWindow, "extend_brake", "replan.brake")
    t(ks.cli, "plan_once", "cli.plan_once")


def attach_op_counts(tracer: Tracer, records) -> None:
    """Add each operation's search expansions and QCQP iterations.

    Span operation ids are (operation, repeat) pairs; the counts come from
    an operation's first run.
    """
    fields = {"search.search": ("expanded", "search_expanded"),
              "qcqp.solve": ("iterations", "qcqp_iterations")}
    by_op = {(rec["op"], 0): rec for rec in records}
    for rec in records:
        rec["search_expanded"] = rec["qcqp_iterations"] = 0
    for name, _, _, _, op, detail in tracer.spans:
        if name in fields and op in by_op and detail \
                and fields[name][0] in detail:
            src, dst = fields[name]
            by_op[op][dst] += detail[src]


def span_cost_us(samples: int = 20000) -> float:
    """Measured cost of one enabled wrapper call, in microseconds."""
    tracer = Tracer()
    tracer.enabled = True

    def noop():
        return None

    traced = tracer.wrap(noop, "calibrate")
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(samples):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(samples):
            traced()
        wrapped = perf_counter() - t0
        best = min(best, (wrapped - bare) / samples * 1e6)
        tracer.spans.clear()
    return max(best, 0.0)


# per-layer metric prefix -> span it is computed from (longest prefix wins)
SOURCES = {
    "search.": "search.search", "search.snap.": "search.snap",
    "search.astar.": "search.astar",
    "kernels.collision_scan.": "kernels.collision_scan",
    "splines.check_feasible.": "splines.check_feasible",
    "stats.sample.": "stats.sample",
    "world.config_space.": "world.config_space",
    "world.nn_search.": "world.nn_search",
    "certify.": "certify",
    "elastic.refine_adaptive.": "elastic.refine_adaptive",
    "elastic.refine.": "elastic.refine", "elastic.inserted": "elastic.refine",
    "elastic.tube.": "elastic.tube", "elastic.assemble.": "elastic.assemble",
    "elastic.qcqp_rows": "elastic.assemble",
    "elastic.verify.": "elastic.verify",
    "qcqp.": "qcqp.solve",
    "replan.": "replan.step", "replan.reveal.": "replan.reveal",
    "replan.spaces.": "replan.spaces",
    "replan.match_boundary.": "replan.match_boundary",
    "replan.brake.": "replan.brake",
    "cli.plan_once.": "cli.plan_once",
}

# spans each workload is expected to produce
EXPECTED = {
    "sweep": {"search.search", "search.snap", "splines.check_feasible",
              "stats.sample", "world.config_space", "certify",
              "cli.plan_once"},
    "refine": {"search.astar", "kernels.collision_scan",
               "splines.check_feasible", "world.config_space",
               "world.nn_search", "certify", "elastic.refine_adaptive",
               "elastic.refine", "elastic.tube", "elastic.assemble",
               "elastic.verify", "qcqp.solve"},
    "replan": {"search.search", "search.snap", "search.astar",
               "kernels.collision_scan", "splines.check_feasible",
               "world.config_space", "world.nn_search", "certify",
               "elastic.refine_adaptive", "elastic.refine", "elastic.tube",
               "elastic.assemble", "elastic.verify", "qcqp.solve",
               "replan.step", "replan.reveal", "replan.spaces",
               "replan.match_boundary", "replan.brake"},
}

EVENT_KINDS = ("replan", "stop", "goal", "snap_fail", "no_local_goal",
               "search_fail", "refine_fail", "brake_infeasible")


def source_of(metric: str):
    best = None
    for prefix, span in SOURCES.items():
        if metric.startswith(prefix) and (best is None
                                          or len(prefix) > len(best[0])):
            best = (prefix, span)
    return None if best is None else best[1]


def layer_metrics(tracer: Tracer, events: dict, op_p50: float,
                  window_s: float, per_span_us: float) -> dict:
    """Every per-layer metric from the recorded spans and replan events."""
    spans = tracer.spans
    own = tracer.self_times()
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by.get(name, ()))

    def total_ms(name):
        return sum(spans[i][2] - spans[i][1] for i in by.get(name, ())) * 1e3

    def self_ms(name):
        return sum(own[i] for i in by.get(name, ())) * 1e3

    def details(name, key):
        return [spans[i][5][key] for i in by.get(name, ())
                if spans[i][5] and key in spans[i][5]]

    def raised(name):
        return len(details(name, "raised"))

    m = {}
    s = "search.search"
    expanded = sum(details(s, "expanded"))
    statuses = details(s, "status")
    m.update({
        "search.calls": calls(s), "search.self_ms": self_ms(s),
        "search.expanded": expanded,
        "search.us_per_expansion":
            total_ms(s) * 1e3 / expanded if expanded else 0.0,
        "search.open_peak": max(details(s, "open_peak"), default=0),
        "search.wall_ended": sum(details(s, "wall_ended")),
        "search.snap.ms": total_ms("search.snap"),
        "search.astar.ms": total_ms("search.astar"),
    })
    for st in ("success", "no-path", "budget-exceeded", "partial"):
        m[f"search.status.{st}"] = statuses.count(st)
    for name in ("kernels.collision_scan", "splines.check_feasible",
                 "world.config_space", "world.nn_search"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ms"] = total_ms(name)
    m["stats.sample.ms"] = total_ms("stats.sample")
    m["certify.ms"] = total_ms("certify")
    r = "elastic.refine"
    safe = details(r, "status").count("safe")
    m.update({
        "elastic.refine_adaptive.calls": calls("elastic.refine_adaptive"),
        "elastic.refine.calls": calls(r),
        "elastic.refine.useful_ratio": safe / calls(r) if calls(r) else 0.0,
        "elastic.refine.self_ms": self_ms(r),
        "elastic.tube.ms": total_ms("elastic.tube"),
        "elastic.tube.balls": sum(details("elastic.tube", "balls")),
        "elastic.assemble.ms": total_ms("elastic.assemble"),
        "elastic.qcqp_rows": sum(details("elastic.assemble", "rows")),
        "elastic.verify.calls": calls("elastic.verify"),
        "elastic.verify.ms": total_ms("elastic.verify"),
        "elastic.inserted": sum(details(r, "inserted")),
    })
    q = "qcqp.solve"
    qstat = details(q, "status")
    fast = sum(1 for i in by.get(q, ()) if spans[i][5]
               and spans[i][5].get("status") == "optimal"
               and spans[i][5].get("iterations") == 0)
    m.update({
        "qcqp.solve.calls": calls(q), "qcqp.solve.ms": total_ms(q),
        "qcqp.iterations": sum(details(q, "iterations")),
        "qcqp.n.max": max(details(q, "n"), default=0),
        "qcqp.fastpath_frac": fast / calls(q) if calls(q) else 0.0,
        "qcqp.status.raised": raised(q),
    })
    for st in ("optimal", "max-iter", "infeasible-detected"):
        m[f"qcqp.status.{st}"] = qstat.count(st)
    m.update({
        "replan.step.self_ms": self_ms("replan.step"),
        "replan.attempts": calls("replan.match_boundary"),
        "replan.replans": events.get("replan", 0),
        "replan.stops": events.get("stop", 0),
        "replan.reveal.ms": total_ms("replan.reveal"),
        "replan.spaces.ms": total_ms("replan.spaces"),
        "replan.match_boundary.ms": total_ms("replan.match_boundary"),
        "replan.brake.ms": total_ms("replan.brake"),
    })
    for kind in EVENT_KINDS:
        m[f"replan.event.{kind}"] = events.get(kind, 0)
    m["cli.plan_once.self_ms"] = self_ms("cli.plan_once")
    in_window = sum(1 for sp in spans if sp[4] is not None)
    m["trace.spans"] = len(spans)
    m["trace.overhead_pct"] = in_window * per_span_us * 1e-6 / window_s * 100.0
    m["trace.op_ms.p50"] = op_p50
    return m


def absent(metrics, tracer: Tracer, workload: str) -> dict:
    """Spans behind some per-layer metric that never ran, with the reason."""
    seen = {s[0] for s in tracer.spans}
    out = {}
    for name in metrics:
        span = source_of(name)
        if span is None or span in seen:
            continue
        out[span] = (f"expected on {workload} but not recorded"
                     if span in EXPECTED[workload]
                     else f"not used by {workload}")
    return out
