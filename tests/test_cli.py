import json
import warnings

import numpy as np
import pytest

from kinospline import certify, cli, elastic, stats, world as wd
from kinospline.splines import DerivativeBounds, SplineDef


@pytest.fixture(scope="module")
def small_map(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "m.ksg"
    rc = cli.main(["genmap", "--kind", "pillars", "--extent", "10", "6", "2",
                   "--cell", "0.2", "--density", "0.08", "--seed", "3",
                   "-o", str(path)])
    assert rc == 0
    return path


def test_certify_roundtrip(tmp_path):
    out = tmp_path / "cert.txt"
    rc = cli.main(["certify", "--cell", "0.16", "-o", str(out)])
    assert rc == 0
    from kinospline.certify import load_certificate
    cert = load_certificate(out)
    assert 0 < cert.delta_bk < 0.03


def test_genmap_deterministic(tmp_path):
    a = tmp_path / "a.ksg"
    b = tmp_path / "b.ksg"
    for p in (a, b):
        assert cli.main(["genmap", "--kind", "noise", "--extent", "6", "6", "2",
                         "--cell", "0.25", "--seed", "11", "-o", str(p)]) == 0
    assert a.read_text() == b.read_text()


def test_plan_success_and_outputs(small_map, tmp_path):
    # the wall-clock limit is set out of reach, so the search ends on its
    # own and the outcome is the same on a loaded machine
    out = tmp_path / "plan"
    rc = cli.main(["plan", "--map", str(small_map),
                   "--start", "0.9 3.0 1.0", "--start-vel", "1.2 0 0",
                   "--goal", "8.9 3.0 1.0", "--order", "2",
                   "--budget-ms", "1e12", "-o", str(out)])
    assert rc == 0
    rec = json.loads((out / "stats.json").read_text())
    assert rec["status"] == "success"
    assert rec["budget"] is None
    assert rec["eo_solver_iterations"] > 0
    assert rec["eo_knot_repeat"] in (1, 2, 4)
    rows = stats.read_csv(out / "trajectory.csv")
    assert rows.shape[1] == 10

    # stats integrity: recomputing from the emitted CSV reproduces the
    # record for every sample-derived field
    re = stats.stats_from_samples(rows)
    for key in ("duration", "length", "avg_velocity", "max_velocity",
                "avg_acceleration", "max_acceleration"):
        assert re[key] == pytest.approx(rec[key], rel=1e-6)


def test_plan_with_body_radius_verifies_against_dilated_map(monkeypatch):
    # a box beside the straight line: the refined curve must keep the body
    # radius from it, so refinement is verified against the dilated map
    w = wd.add_box(wd.generate(wd.MapGenSpec(kind="empty", extent=(10, 6, 2),
                                             cell_sizes=(0.2,) * 3)),
                   (4.4, 1.6, 0.0), (5.0, 2.6, 2.0))
    radius = 0.3
    cert = certify.certify(5, (0.2,) * 3)
    contract = elastic.InflationContract.default((0.2,) * 3, cert.delta_bk,
                                                 body_radius=radius)
    body = wd.build_config_space(w, radius)
    seen = []
    refine = elastic.refine_adaptive

    def spy(*args, **kw):
        seen.append(args[4])
        return refine(*args, **kw)

    monkeypatch.setattr(elastic, "refine_adaptive", spy)
    rec, spline = cli.plan_once(
        w, wd.build_config_space(w, contract.delta_bk),
        wd.build_config_space(w, contract.delta_elas), contract,
        DerivativeBounds.symmetric(2.0, 4.7), np.array([0.9, 3.0, 1.0]),
        np.zeros(3), np.array([8.9, 3.0, 1.0]), 0.17, 20.0, 2, 1,
        budget_ms=1e5)
    assert rec["status"] == "success"
    assert seen and all(np.array_equal(m.occ, body.occ_inflated)
                        for m in seen)
    _, (pos,) = spline.sample_orders(0.01, (0,))
    assert not wd.occupied(pos, body.occ_inflated.reshape(-1), w.dims,
                           w.origin, w.cell_sizes).any()


def test_plan_goal_inside_obstacle_exit_code(small_map, tmp_path):
    out = tmp_path / "plan2"
    occ_map = wd.load_map(small_map)
    occ_cell = np.argwhere(occ_map.occ)
    if occ_cell.size == 0:
        pytest.skip("fixture has no obstacles")
    goal = occ_map.cell_center(occ_cell[0])
    rc = cli.main(["plan", "--map", str(small_map),
                   "--start", "0.9 3.0 1.0",
                   "--goal", f"{goal[0]} {goal[1]} {goal[2]}",
                   "-o", str(out)])
    assert rc == cli.EXIT_NO_PATH


def test_plan_budget_exit_code(small_map, tmp_path):
    rc = cli.main(["plan", "--map", str(small_map),
                   "--start", "0.9 3.0 1.0", "--goal", "8.9 3.0 1.0",
                   "--budget-ms", "0.0001", "--no-eo",
                   "-o", str(tmp_path / "plan3")])
    assert rc == cli.EXIT_BUDGET
    rec = json.loads((tmp_path / "plan3" / "stats.json").read_text())
    assert rec["budget"] == "wall"


def test_plan_record_names_the_budget(small_map):
    w = wd.load_map(small_map)
    cert = certify.certify(5, (0.2,) * 3)
    contract = elastic.InflationContract.default((0.2,) * 3, cert.delta_bk)
    args = (w, wd.build_config_space(w, contract.delta_bk),
            wd.build_config_space(w, contract.delta_elas), contract,
            DerivativeBounds.symmetric(2.0, 4.7), np.array([0.9, 3.0, 1.0]),
            np.zeros(3), np.array([8.9, 3.0, 1.0]), 0.17, 20.0, 2, 1)
    rec, spline = cli.plan_once(*args, use_eo=False, budget_ms=1e5,
                                max_expansions=1)
    assert (rec["status"], rec["budget"], spline) == (
        "budget-exceeded", "expansions", None)
    rec, spline = cli.plan_once(*args, use_eo=False, budget_ms=1e5)
    assert (rec["status"], rec["budget"]) == ("success", None)


def test_config_file_with_flag_override(small_map, tmp_path):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("# suite defaults\nlam 35\norder 2\ndt 0.2\n")
    out = tmp_path / "plan4"
    rc = cli.main(["plan", "--map", str(small_map), "--config", str(cfg),
                   "--start", "0.9 3.0 1.0", "--goal", "6.9 3.0 1.0",
                   "--order", "3",  # flag beats the config file
                   "-o", str(out)])
    assert rc == 0
    rec = json.loads((out / "stats.json").read_text())
    assert rec["lam"] == 35.0
    assert rec["dt"] == 0.2
    assert rec["order"] == 3


@pytest.mark.parametrize("flag", [["-o", "{out}"], ["-o{out}"],
                                  ["--out", "{out}"]])
def test_output_flag_beats_config_output(small_map, tmp_path, flag):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(f"output {tmp_path / 'cfgout'}\n")
    out = tmp_path / "flagout"
    rc = cli.main(["plan", "--map", str(small_map), "--config", str(cfg),
                   "--start", "0.9 3.0 1.0", "--goal", "6.9 3.0 1.0",
                   "--no-eo"] + [f.format(out=out) for f in flag])
    assert rc == 0
    assert (out / "stats.json").exists()
    assert not (tmp_path / "cfgout").exists()


@pytest.mark.parametrize("line", [
    "func x",           # parsed-namespace attributes that are no option
    "command replan",
    "config other.txt",
    "bogus 1",          # no option of plan
    "no_eo maybe",      # a boolean outside 1/0/true/false/yes/no
    "no-eo 2",
])
def test_malformed_config_exits_1(small_map, tmp_path, capsys, line):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(line + "\n")
    rc = cli.main(["plan", "--map", str(small_map), "--config", str(cfg),
                   "--start", "0.9 3.0 1.0", "--goal", "6.9 3.0 1.0",
                   "--no-eo", "-o", str(tmp_path / "p")])
    assert rc == cli.EXIT_OTHER
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["status"] == "error"
    assert not (tmp_path / "p").exists()


def test_replan_outputs(small_map, tmp_path):
    out = tmp_path / "rp"
    rc = cli.main(["replan", "--map", str(small_map),
                   "--start", "0.9 3.0 1.0", "--goal", "8.9 3.0 1.0",
                   "--mode", "passive", "--max-time", "40",
                   "-o", str(out)])
    assert rc == 0
    events = [json.loads(line)
              for line in (out / "events.jsonl").read_text().splitlines()]
    assert any(e["kind"] == "replan" for e in events)
    assert any(e["kind"] == "goal" for e in events)
    rows = stats.read_csv(out / "trajectory.csv")
    assert np.abs(rows[:, 4:7]).max() <= 2.0 + 1e-6


def test_suite_small_sweep(small_map, tmp_path):
    out = tmp_path / "suite"
    rc = cli.main(["suite", "--map", str(small_map),
                   "--start", "0.9 3.0 1.0", "--goal-sep", "2.0",
                   "--order", "2", "--max-goals", "6",
                   "-o", str(out)])
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["goals"] > 0
    recs = [json.loads(line)
            for line in (out / "goals.jsonl").read_text().splitlines()]
    assert len(recs) == agg["goals"]
    if agg["success"] == agg["goals"]:
        assert rc == 0


def test_cli_error_paths(tmp_path):
    assert cli.main(["plan", "--map", str(tmp_path / "missing.ksg"),
                     "--start", "0 0 0", "--goal", "1 1 1",
                     "-o", str(tmp_path / "x")]) == cli.EXIT_OTHER


@pytest.mark.parametrize("extra", [
    ["--dt", "0"],
    ["--dt", "-0.1"],
    ["--start", "nan 3.0 1.0"],
    ["--start", "0.9 3.0"],
    ["--start-vel", "1.2 0"],
    ["--degree", "3"],          # removed: the planner flies degree 5
    ["--bogus"],
    ["--sample-step", "0"],
    ["--sample-step", "-1"],
    ["--sample-step", "inf"],
    ["--vmax", "nan"],
    ["--vmax", "0"],
    ["--amax", "0"],
    ["--amax", "inf"],
    ["--lam", "-5"],
    ["--lam", "nan"],
    ["--body-radius", "-0.1"],
    ["--body-radius", "inf"],
    ["--budget-ms", "nan"],
    ["--budget-ms", "0"],
    ["--budget-ms", "-1"],
])
def test_malformed_plan_input_exits_1(small_map, tmp_path, capsys, extra):
    argv = ["plan", "--map", str(small_map), "--start", "0.9 3.0 1.0",
            "--goal", "8.9 3.0 1.0", "--no-eo", "-o", str(tmp_path / "p")]
    assert cli.main(argv + extra) == cli.EXIT_OTHER
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("body", [
    "KSGRID1 4 4 4 0.5 0.5 0.5 0 0 0\n10 0\n-5 1\n59 1\n",  # negative run
    "KSGRID1 4 4 4 0.5 0.5 0.5 0 0 0\n60 0\n10 1\n-6 0\n",  # past the grid
    "KSGRID1 4 4 4 0.5 0.5 0.5 0 0 0\n64 2\n",              # value not 0/1
    "KSGRID1 4 4 4 0.5 0.5 0.5 inf 0 0\n64 0\n",            # infinite origin
    "KSGRID1 4 4 4 nan 0.5 0.5 0 0 0\n64 0\n",              # NaN cell size
], ids=["negative-run", "past-grid", "value-2", "inf-origin", "nan-cell"])
def test_malformed_map_exits_1(tmp_path, capsys, body):
    path = tmp_path / "bad.ksg"
    path.write_text(body)
    argv = ["plan", "--map", str(path), "--start", "0.25 0.25 0.25",
            "--goal", "1.75 1.75 1.75", "--no-eo", "-o", str(tmp_path / "p")]
    assert cli.main(argv) == cli.EXIT_OTHER
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["status"] == "error"
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("cmd, extra", [
    ("replan", ["--max-time", "0"]),
    ("replan", ["--max-time", "nan"]),
    ("suite", ["--goal-sep", "-1"]),
    ("replan", ["--sense", "nan"]),
    ("replan", ["--sense", "0"]),
    ("replan", ["--sense", "-1"]),
    ("replan", ["--local-range", "nan"]),
    ("replan", ["--local-range", "0"]),
    ("replan", ["--local-range", "-1"]),
    ("suite", ["--max-goals", "-1"]),
    ("replan", ["--order", "0", "--max-time", "1"]),
    ("replan", ["--order", "6", "--max-time", "1"]),
])
def test_malformed_numbers_exit_1_before_any_work(small_map, tmp_path, capsys,
                                                  cmd, extra):
    argv = [cmd, "--map", str(small_map), "--start", "0.9 3.0 1.0",
            "-o", str(tmp_path / "p")]
    if cmd == "replan":
        argv += ["--goal", "8.9 3.0 1.0"]
    assert cli.main(argv + extra) == cli.EXIT_OTHER
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--cell", "0"],
    ["certify", "--cell", "-0.2"],
    ["certify", "--cell", "nan"],
    ["certify", "--cell", "0.2", "--cell-y", "0"],
    ["certify", "--cell", "0.2", "--cell-z", "0"],
    ["genmap", "--cell", "0"],
    ["genmap", "--cell-y", "0"],
    ["genmap", "--cell-z", "-0.25"],
    ["genmap", "--footprint", "-1", "1"],
    ["genmap", "--footprint", "0.5", "0"],
    ["genmap", "--footprint", "nan", "0.5"],
])
def test_malformed_sizes_exit_1_and_write_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main(argv + ["-o", str(out)]) == cli.EXIT_OTHER
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, flag", [
    (["--extent", "nan", "5", "2"], "--extent"),
    (["--extent", "20", "inf", "2"], "--extent"),
    (["--extent", "20", "5", "-2"], "--extent"),
    (["--density", "nan"], "--density"),
    (["--density", "inf"], "--density"),
    (["--kind", "noise", "--noise-threshold", "nan"], "--noise-threshold"),
    (["--kind", "noise", "--noise-freq", "nan"], "--noise-freq"),
    (["--kind", "noise", "--noise-freq", "0"], "--noise-freq"),
])
def test_genmap_non_finite_spec_names_the_flag(tmp_path, capsys, extra, flag):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["genmap"] + extra + ["-o", str(out)])
    assert rc == cli.EXIT_OTHER
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["message"].startswith(flag + " must be")
    assert not out.exists()


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_certify_bad_degree_names_the_flag(tmp_path, capsys, degree):
    out = tmp_path / "out"
    rc = cli.main(["certify", "--cell", "0.2", "--degree", degree,
                   "-o", str(out)])
    assert rc == cli.EXIT_OTHER
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["message"].startswith("--degree must")
    assert not out.exists()
