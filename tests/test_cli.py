import json

import numpy as np
import pytest

from kinospline import certify, cli, elastic, stats, world as wd
from kinospline.kernels import collision_scan
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
    out = tmp_path / "plan"
    rc = cli.main(["plan", "--map", str(small_map),
                   "--start", "0.9 3.0 1.0", "--start-vel", "1.2 0 0",
                   "--goal", "8.9 3.0 1.0", "--order", "2",
                   "-o", str(out)])
    assert rc == 0
    rec = json.loads((out / "stats.json").read_text())
    assert rec["status"] == "success"
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
    _, pos = spline.sample(0.01)
    assert collision_scan(np.ascontiguousarray(pos), body.occ_flat, w.dims,
                          w.origin, w.cell_sizes) == -1


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
