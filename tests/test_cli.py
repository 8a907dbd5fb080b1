"""CLI tests: artifact determinism, round-trips, exit codes, overrides."""

import json
import subprocess
import sys

import numpy as np
import pytest

from aoi_isac import cli, gridio, sim
from aoi_isac.cli import SWEEP_AXES, _build_parser, main
from aoi_isac.config import FIELDS, RunConfig
from aoi_isac.model import ModelParams, delta_grid
from aoi_isac.solver import value_iteration
from aoi_isac.structure import CHECK_NAMES, run_all_checks
from reference import exhaustive_policy_oracle

IV = dict(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1, gamma=0.95)


def run(tmp_path, *argv):
    return main([*argv, "--output.directory", str(tmp_path / "out")])


def small_flags(a_max=8, n=50, horizon=40):
    return ["--model.a_max", str(a_max), "--sim.n", str(n),
            "--sim.horizon", str(horizon)]


def read_bytes(tmp_path, name):
    return (tmp_path / "out" / name).read_bytes()


def test_solve_writes_all_artifacts(tmp_path):
    assert run(tmp_path, "solve", *small_flags()) == 0
    out = tmp_path / "out"
    for name in ("value.csv", "policy.csv", "thresholds.csv",
                 "solve_report.json", "decision_map.txt", "value_surface.pgm"):
        assert (out / name).exists(), name
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] is True
    assert report["single_crossing_ok"] is True
    assert report["config"]["model"]["a_max"] == 8
    assert "wall_time" not in report  # artifacts must be byte-stable
    # decision map glyphs
    txt = (out / "decision_map.txt").read_text()
    assert set("".join(l for l in txt.splitlines() if not l.startswith("#"))) <= {"S", "C"}
    pgm = (out / "value_surface.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[1] == "9 9" and pgm[2] == "255"


def test_solve_at_costs_beyond_the_age_resolution_exits_0(tmp_path):
    # values near 1e19, whose ulp of 2048 hides every age difference
    assert run(tmp_path, "solve", "--model.c_s", "1e17", "--model.c_c", "1e17",
               "--model.gamma", "0.99") == 0
    report = json.loads(read_bytes(tmp_path, "solve_report.json"))
    assert report["converged"] is True
    V, _ = gridio.read_grid_csv(tmp_path / "out" / "value.csv")
    assert np.all(np.isfinite(V)) and V.shape == (31, 31)


def test_solve_report_json_leaves_out_the_residual_trace(tmp_path):
    assert run(tmp_path, "solve", *small_flags()) == 0
    report = json.loads(read_bytes(tmp_path, "solve_report.json"))
    assert set(report) == {
        "config", "status", "converged", "iterations", "final_sweep_delta",
        "suboptimality_bound", "single_crossing_ok", "lambda_ordering_ok", "tau"}


def test_solve_artifacts_are_byte_identical_across_reruns(tmp_path):
    args = ("solve", *small_flags())
    assert run(tmp_path, *args) == 0
    first = {n: read_bytes(tmp_path, n) for n in
             ("value.csv", "policy.csv", "thresholds.csv", "solve_report.json",
              "decision_map.txt", "value_surface.pgm")}
    assert run(tmp_path, *args) == 0
    for name, data in first.items():
        assert read_bytes(tmp_path, name) == data, name


def test_grid_csv_round_trip_is_lossless_and_byte_identical(tmp_path):
    assert run(tmp_path, "solve", *small_flags()) == 0
    path = tmp_path / "out" / "value.csv"
    original = path.read_bytes()
    grid, comments = gridio.read_grid_csv(path)
    rewritten = gridio.grid_csv_text(grid, comments).encode()
    assert rewritten == original
    grid2, _ = gridio.read_grid_csv(path)
    assert np.array_equal(grid, grid2)


def test_solve_small_grid_matches_exhaustive_oracle(tmp_path):
    assert run(tmp_path, "solve", "--model.a_max", "2", "--model.gamma", "0.9") == 0
    V, _ = gridio.read_grid_csv(tmp_path / "out" / "value.csv")
    p = ModelParams(**IV | {"gamma": 0.9}, a_max=2)
    V_oracle, _ = exhaustive_policy_oracle(p)
    assert np.max(np.abs(V - V_oracle)) <= 1e-6


def test_solve_zero_discount_policy_is_all_comm(tmp_path):
    assert run(tmp_path, "solve", "--model.a_max", "6", "--model.gamma", "0") == 0
    pol, _ = gridio.read_policy_csv(tmp_path / "out" / "policy.csv")
    assert np.all(pol == 1)  # c_c < c_s


def test_solve_nonconvergence_exit_code(tmp_path):
    rc = run(tmp_path, "solve", *small_flags(), "--solver.max_iter", "3")
    assert rc == 3
    report = json.loads(read_bytes(tmp_path, "solve_report.json"))
    assert report["converged"] is False and report["status"] == "partial"


def test_invalid_config_exit_code(tmp_path, capsys):
    rc = run(tmp_path, "solve", "--model.lambda_s", "1.2")
    assert rc == 2
    assert "lambda_s" in capsys.readouterr().err


def test_non_finite_model_input_is_rejected_and_named(tmp_path, capsys):
    assert run(tmp_path, "solve", "--model.c_s", "nan", "--model.a_max", "5",
               "--solver.max_iter", "50") == 2
    assert "model.c_s" in capsys.readouterr().err
    cfg_path = tmp_path / "run.json"
    for field, literal in (("a_max", "Infinity"), ("a_max", "NaN"),
                           ("c_c", "Infinity")):
        cfg_path.write_text(f'{{"model": {{"{field}": {literal}}}}}')
        assert run(tmp_path, "solve", "--config", str(cfg_path)) == 2, literal
        assert f"model.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # nothing written


@pytest.mark.parametrize("argv", [
    ["solve", "--model.c_s=1.8e307", "--model.c_c=1.8e307",
     "--model.gamma=0.9", "--model.a_max=3"],
    ["simulate", "--policy", "random_bernoulli:0.5", "--model.c_s=1e200"],
], ids=["solve", "simulate"])
def test_a_value_bound_too_large_exits_2_before_any_work(tmp_path, capsys,
                                                         monkeypatch, argv):
    # the solve would sweep to max_iter on nan; the estimate's spread would
    # overflow to an std_error of Infinity, which is not JSON
    def never(*args, **kwargs):
        raise AssertionError("ran on a rejected config")

    monkeypatch.setattr(cli, "_solve", never)
    monkeypatch.setattr(sim, "estimate_value", never)
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: model.c_s=")
    assert "gamma=" in err and "bound the value" in err
    assert not (tmp_path / "out").exists()


def test_the_largest_accepted_value_bound_runs_without_overflow(tmp_path):
    # 5.000000000000005e+148 is the largest c_s accepted at the default
    # gamma = 0.95 and a_max = 30 (test_model); the suite turns the
    # RuntimeWarning of any overflow into an error
    flags = ["--model.c_s", "5.000000000000005e+148", "--sim.n", "1000"]
    assert run(tmp_path, "solve", *flags) == 0
    assert run(tmp_path, "verify", *flags) == 0
    assert run(tmp_path, "simulate", "--policy", "random_bernoulli:0.5",
               *flags) == 0
    report = json.loads(read_bytes(tmp_path, "simulate_report.json"))
    assert 0.0 < report["std_error"] < report["mean"] < 1e150


def test_config_file_and_flag_precedence(tmp_path):
    cfg = {"model": {"a_max": 6, "gamma": 0.5}, "sim": {"n": 10, "horizon": 5}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(tmp_path, "solve", "--config", str(cfg_path),
               "--model.gamma", "0.9") == 0
    report = json.loads(read_bytes(tmp_path, "solve_report.json"))
    assert report["config"]["model"]["a_max"] == 6      # from file
    assert report["config"]["model"]["gamma"] == 0.9    # flag wins
    assert report["config"]["sim"]["n"] == 10


def test_unknown_config_field_is_named(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": {"amax": 5}}))
    assert run(tmp_path, "solve", "--config", str(cfg_path)) == 2
    assert "model.amax" in capsys.readouterr().err


def test_wrongly_typed_json_values_are_rejected_and_named(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    for section, field, literal in (("model", "c_s", '"abc"'), ("sim", "n", '"10"'),
                                    ("model", "a_max", "6.0"), ("sim", "s0", "5"),
                                    ("output", "formats", '"csv"')):
        cfg_path.write_text(f'{{"{section}": {{"{field}": {literal}}}}}')
        assert run(tmp_path, "solve", "--config", str(cfg_path)) == 2, literal
        assert f"{section}.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oversized_a_max_is_rejected_and_named(tmp_path, capsys):
    assert run(tmp_path, "solve", "--model.a_max", "100000") == 2
    assert "model.a_max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert ModelParams(**IV, a_max=2000).a_max == 2000


def test_oversized_simulation_is_rejected_and_named(tmp_path, capsys):
    assert run(tmp_path, "simulate", "--model.a_max", "5", "--sim.n", "100000",
               "--sim.horizon", "100000") == 2
    err = capsys.readouterr().err
    assert "sim.n" in err and "sim.horizon" in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_rejected_and_named(tmp_path, capsys):
    for command in ("simulate", "solve"):
        assert run(tmp_path, command, *small_flags(), "--sim.seed", "-1") == 2, command
        assert "sim.seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nan_solver_tol_is_rejected_and_named(tmp_path, capsys):
    for tol in ("nan", "inf"):
        assert run(tmp_path, "solve", "--solver.tol", tol, "--model.a_max", "5",
                   "--solver.max_iter", "50") == 2, tol
        assert "solver.tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("document, named", [
    ('{"sim": {"n": 1}}', "sim.n must be >= 2"),
    ('{"sim": {"horizon": 0}}', "sim.horizon must be >= 1"),
    ('{"sim": {"s0": [1, 9]}}', "sim.s0 must be two integers in [0, 8]"),
    ('[1]', "config document must be an object"),
    ('{"model": 5}', "config section 'model' must be an object"),
    ('{"modle": {}}', "unknown config section 'modle'"),
    ('{"model": ', "run.json: invalid JSON"),
    ('{"output": {"formats": ["csv", "xml"]}}',
     "output.formats entry 'xml' not one of ('csv', 'json', 'ascii')"),
    ('{"output": {"formats": []}}', "output.formats must not be empty"),
], ids=["n", "horizon", "s0", "document", "section", "unknown-section", "json",
        "formats-entry", "formats-empty"])
def test_rejected_config_file_exits_2_naming_it(tmp_path, capsys, document, named):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(document)
    assert run(tmp_path, "solve", "--config", str(cfg_path), "--model.a_max", "8") == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_integer_s0_element_is_rejected_and_named(tmp_path, capsys):
    assert run(tmp_path, "simulate", *small_flags(), "--sim.s0", "1,x") == 2
    assert "sim.s0 must be a list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("directory", ["file", "file/sub"],
                         ids=["a-file", "under-a-file"])
def test_output_directory_that_cannot_be_made_exits_2_naming_it(tmp_path, capsys,
                                                                directory):
    (tmp_path / "file").write_text("kept\n")
    assert main(["solve", *small_flags(),
                 "--output.directory", str(tmp_path / directory)]) == 2
    assert f"output.directory {tmp_path / directory}: " in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "kept\n"


def test_every_config_leaf_has_a_flag():
    leaves = {f"--{section}.{key}" for section, values in RunConfig().to_dict().items()
              for key in values}
    parser = _build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert set(commands) == {"solve", "verify", "simulate", "sweep"}
    for name, sub in commands.items():
        flags = {o for a in sub._actions for o in a.option_strings if "." in o}
        assert flags == leaves, name
    assert SWEEP_AXES == ("lambda_s", "lambda_c", "c_s", "c_c", "gamma")


def test_commands_share_one_action_per_config_flag_after_their_own():
    """Each config flag is built once and shared by the four commands; a
    command lists -h, its own flags, then --config and the FIELDS flags,
    the order its usage and --help print."""
    commands = _build_parser()._subparsers._group_actions[0].choices
    own = {"solve": [], "verify": [], "simulate": ["--policy", "--policy-file"],
           "sweep": ["--axis", "--values"]}
    config_flags = ["--config", *(f"--{dotted}" for dotted in FIELDS)]
    shared = commands["solve"]._actions[1:]
    for name, sub in commands.items():
        flags = [a.option_strings[-1] for a in sub._actions]
        assert flags == ["--help", *own[name], *config_flags], name
        assert all(a is b for a, b in zip(sub._actions[-len(shared):], shared)), name


def test_verify_in_process_and_from_artifacts(tmp_path):
    # every check of the verdict passes on a solved pair, so verify exits 0
    rc = run(tmp_path, "verify", *small_flags())
    assert rc == 0
    bundle = json.loads(read_bytes(tmp_path, "verify_report.json"))
    assert bundle["source"] == "in-process"
    by_name = {c["check"]: c for c in bundle["checks"]}
    for name in ("monotone", "delta_monotone", "single_crossing",
                 "threshold_monotone"):
        assert by_name[name]["passed"] is True, name
    assert by_name["increasing_differences"]["passed"] is True
    assert by_name["greedy"]["passed"] is True
    assert bundle["lambda_ordering_ok"] is True

    assert run(tmp_path, "solve", *small_flags()) == 0
    rc = run(tmp_path, "verify", *small_flags())
    assert rc == 0
    bundle2 = json.loads(read_bytes(tmp_path, "verify_report.json"))
    assert bundle2["source"] == "artifacts"
    assert bundle2["checks"] == bundle["checks"]  # loaded CSV is lossless


def test_verify_detects_corrupted_value_grid(tmp_path):
    assert run(tmp_path, "solve", *small_flags()) == 0
    path = tmp_path / "out" / "value.csv"
    grid, comments = gridio.read_grid_csv(path)
    grid[4, 3] -= 10.0  # hand-lowered cell, far below both neighbours
    gridio.write_grid_csv(path, grid, comments)
    assert run(tmp_path, "verify", *small_flags()) == 4
    bundle = json.loads(read_bytes(tmp_path, "verify_report.json"))
    mono = next(c for c in bundle["checks"] if c["check"] == "monotone")
    assert mono["passed"] is False
    coords = {tuple(v[:3]) for v in mono["violations"]}
    assert ("alpha_s", 3, 3) in coords


def test_verify_rejects_a_policy_that_is_not_greedy(tmp_path):
    assert run(tmp_path, "solve", *small_flags()) == 0
    path = tmp_path / "out" / "policy.csv"
    policy, comments = gridio.read_policy_csv(path)
    gridio.write_grid_csv(path, np.zeros_like(policy), comments)  # all sense
    assert run(tmp_path, "verify", *small_flags()) == 4
    checks = json.loads(read_bytes(tmp_path, "verify_report.json"))["checks"]
    assert [c["check"] for c in checks if not c["passed"]] == ["greedy"]
    greedy = next(c for c in checks if c["check"] == "greedy")
    i, j, d = greedy["violations"][0]
    V, _ = gridio.read_grid_csv(tmp_path / "out" / "value.csv")
    delta = delta_grid(V, ModelParams(**IV, a_max=8))
    assert d == delta[i, j] > greedy["tolerance"] and policy[i, j] == 1
    assert greedy["n_violations"] == np.count_nonzero(policy)


def test_solve_and_verify_pass_at_a_tolerance_below_the_rounding_of_v(tmp_path):
    # cross-differences of values near max V round at a few ulps of max V,
    # far above 1e-15; the increasing-differences check allows 8 ulps
    assert run(tmp_path, "solve", "--solver.tol", "1e-15") == 0
    assert run(tmp_path, "verify", "--solver.tol", "1e-15") == 0
    checks = json.loads(read_bytes(tmp_path, "verify_report.json"))["checks"]
    assert all(c["passed"] for c in checks)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_verify_rejects_a_non_finite_value_cell(tmp_path, capsys, cell):
    assert run(tmp_path, "solve", *small_flags(a_max=6)) == 0
    path = tmp_path / "out" / "value.csv"
    lines = path.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith("3,"))
    cells = lines[lineno - 1].split(",")
    cells[2] = cell
    lines[lineno - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert run(tmp_path, "verify", *small_flags(a_max=6)) == 2
    assert f"value.csv:{lineno}: non-finite" in capsys.readouterr().err


def test_verify_surfaces_lambda_ordering_violation(tmp_path):
    rc = run(tmp_path, "verify", *small_flags(),
             "--model.lambda_s", "0.9", "--model.lambda_c", "0.6")
    bundle = json.loads(read_bytes(tmp_path, "verify_report.json"))
    assert bundle["lambda_ordering_ok"] is False
    assert len(bundle["checks"]) == 6  # checks still executed
    assert rc in (0, 4)


def test_verify_incomplete_artifacts(tmp_path, capsys):
    assert run(tmp_path, "solve", *small_flags()) == 0
    (tmp_path / "out" / "policy.csv").unlink()
    assert run(tmp_path, "verify", *small_flags()) == 2
    assert "policy.csv" in capsys.readouterr().err


def test_simulate_optimal_reports_gap(tmp_path):
    assert run(tmp_path, "simulate", *small_flags(a_max=8, n=400, horizon=200)) == 0
    summary = json.loads(read_bytes(tmp_path, "simulate_report.json"))
    assert summary["policy_source"] == "optimal"
    assert summary["n_trajectories"] == 400
    gap_budget = 3 * summary["std_error"] + summary["truncation_bias_bound"]
    assert summary["abs_gap"] <= gap_budget
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_simulate_trajectory_dump_matches_hand_rollout(tmp_path):
    assert run(tmp_path, "simulate", "--policy", "always_sense",
               "--model.lambda_s", "1", "--model.lambda_c", "1",
               "--sim.horizon", "3", "--sim.s0", "0,0", "--sim.n", "2") == 0
    rows = read_bytes(tmp_path, "trajectory.csv").decode().splitlines()
    cells = [r.split(",") for r in rows[1:]]
    assert [(c[1], c[2]) for c in cells] == [("0", "0"), ("1", "1"), ("2", "1")]
    assert all(c[4] == "1" for c in cells)  # perfect link: all successes


def test_simulate_same_seed_byte_identical(tmp_path):
    args = ("simulate", "--policy", "random_bernoulli:0.5",
            *small_flags(a_max=6, n=30, horizon=20))
    assert run(tmp_path, *args) == 0
    first = (read_bytes(tmp_path, "simulate_report.json"),
             read_bytes(tmp_path, "trajectory.csv"))
    assert run(tmp_path, *args) == 0
    assert (read_bytes(tmp_path, "simulate_report.json"),
            read_bytes(tmp_path, "trajectory.csv")) == first


def test_simulate_policy_file_round_trip(tmp_path):
    assert run(tmp_path, "solve", *small_flags(a_max=6)) == 0
    policy_path = tmp_path / "out" / "policy.csv"
    rc = run(tmp_path, "simulate", "--policy-file", str(policy_path),
             *small_flags(a_max=6, n=30, horizon=20))
    assert rc == 0
    summary = json.loads(read_bytes(tmp_path, "simulate_report.json"))
    assert summary["policy_source"].startswith("file:")
    assert "abs_gap" not in summary  # no V* without an in-process solve


def test_simulate_malformed_policy_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    good = gridio.grid_csv_text(np.zeros((3, 3))).splitlines()
    good[2] = "1,0,oops,1"
    bad.write_text("\n".join(good) + "\n")
    rc = run(tmp_path, "simulate", "--policy-file", str(bad),
             "--model.a_max", "2", "--sim.n", "10", "--sim.horizon", "5",
             "--sim.s0", "1,1")
    assert rc == 2
    assert ":3:" in capsys.readouterr().err  # line number in the diagnostic


def test_simulate_policy_file_wrong_shape(tmp_path, capsys):
    path = tmp_path / "p.csv"
    gridio.write_grid_csv(path, np.zeros((3, 3), dtype=int))
    rc = run(tmp_path, "simulate", "--policy-file", str(path), *small_flags(a_max=8))
    assert rc == 2
    assert capsys.readouterr().err == ("error: policy grid shape (3, 3) does not "
                                       "match model.a_max=8 (9, 9)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag", [("solve", "--config"),
                                           ("simulate", "--policy-file")],
                         ids=["config", "policy-file"])
@pytest.mark.parametrize("kind, reason", [("missing", "No such file"),
                                          ("directory", "Is a directory")],
                         ids=["missing", "directory"])
def test_unreadable_input_file_exits_2_naming_it(tmp_path, capsys, command,
                                                 flag, kind, reason):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    assert run(tmp_path, command, flag, str(path), *small_flags()) == 2
    assert f"{path}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("solve", "--config"),
                                           ("simulate", "--policy-file")],
                         ids=["config", "policy-file"])
def test_input_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys,
                                                        command, flag):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe{")
    assert run(tmp_path, command, flag, str(path), *small_flags()) == 2
    assert f"{path}: not valid utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["value.csv", "policy.csv"])
@pytest.mark.parametrize("kind, reason", [("directory", "Is a directory"),
                                          ("not utf-8", "not valid utf-8")],
                         ids=["directory", "not-utf-8"])
def test_verify_unreadable_artifact_exits_2_naming_it(tmp_path, capsys, name,
                                                      kind, reason):
    assert run(tmp_path, "solve", *small_flags()) == 0
    path = tmp_path / "out" / name
    path.unlink()
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    assert run(tmp_path, "verify", *small_flags()) == 2
    assert f"{path}: {reason}" in capsys.readouterr().err


def test_sweep_rows_and_exit(tmp_path):
    rc = run(tmp_path, "sweep", "--axis", "c_c", "--values", "0.05,0.1,0.2",
             *small_flags(a_max=8))
    report = json.loads(read_bytes(tmp_path, "sweep_report.json"))
    assert [r["value"] for r in report["rows"]] == [0.05, 0.1, 0.2]
    assert all(r["status"] in ("ok", "check_failed") for r in report["rows"])
    # threshold-structure checks hold on every row even when the full suite fails
    for row in report["rows"]:
        assert row["checks"]["single_crossing"] and row["checks"]["threshold_monotone"]
        assert row["checks"]["monotone"] and row["checks"]["delta_monotone"]
    csv_rows = read_bytes(tmp_path, "sweep.csv").decode().splitlines()
    header = next(r for r in csv_rows if not r.startswith("#"))
    assert header.startswith("c_c,status,monotone")
    assert rc in (0, 4)


def sweep_header(tmp_path):
    lines = read_bytes(tmp_path, "sweep.csv").decode().splitlines()
    return next(line for line in lines if not line.startswith("#"))


def test_sweep_header_names_the_reports_of_run_all_checks(tmp_path):
    assert run(tmp_path, "sweep", "--axis", "c_c", "--values", "0.1",
               *small_flags(a_max=4)) in (0, 4)
    p = ModelParams(**IV, a_max=4)
    V, policy, _ = value_iteration(p)
    names = [r.check_name for r in run_all_checks(V, policy, p)]
    assert list(CHECK_NAMES) == names
    assert sweep_header(tmp_path) == ",".join(["c_c", "status", *names, "tau"])


def test_all_rejected_sweep_still_writes_the_full_header(tmp_path):
    assert run(tmp_path, "sweep", "--axis", "lambda_s", "--values", "1.2",
               *small_flags(a_max=4)) == 2
    assert sweep_header(tmp_path) == ",".join(
        ["lambda_s", "status", *CHECK_NAMES, "tau"])
    rows = read_bytes(tmp_path, "sweep.csv").decode().splitlines()
    assert rows[-1] == "1.2,rejected" + "," * (len(CHECK_NAMES) + 1)


def test_sweep_rejects_out_of_range_value(tmp_path, capsys):
    # exit 2 for the rejected value, whatever the other row's verdict
    assert run(tmp_path, "sweep", "--axis", "lambda_s", "--values", "0.3,1.2",
               *small_flags(a_max=6)) == 2
    assert "rejected" in capsys.readouterr().err
    report = json.loads(read_bytes(tmp_path, "sweep_report.json"))
    statuses = {r["value"]: r["status"] for r in report["rows"]}
    assert statuses[1.2] == "rejected"
    assert statuses[0.3] != "rejected"


def test_sweep_rejects_a_value_whose_value_bound_is_too_large(tmp_path, capsys):
    assert run(tmp_path, "sweep", "--axis", "c_s", "--values", "0.2,1e200",
               *small_flags()) == 2
    assert "c_s=1e+200 rejected: c_s=1e+200, c_c=0.1" in capsys.readouterr().err
    rows = json.loads(read_bytes(tmp_path, "sweep_report.json"))["rows"]
    assert [r["status"] for r in rows] == ["ok", "rejected"]


@pytest.mark.parametrize("values, entry", [
    ("nan,0.1,inf", "nan"), ("0.1,inf", "inf"), ("0.1,-Infinity", "-Infinity"),
    ("1e400", "1e400"),
])
def test_sweep_rejects_a_non_finite_value_before_any_work(tmp_path, capsys,
                                                          values, entry):
    # sweep_report.json would hold a bare NaN or Infinity, which is not JSON
    assert run(tmp_path, "sweep", "--axis", "c_c", "--values", values,
               *small_flags()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --values entry {entry!r} is not finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--axis", "c_c", "--values", "0.1,abc"],
     "--values entry 'abc' is not a number"),
    (["sweep", "--axis", "c_c", "--values", "0.1,"],
     "--values entry '' is not a number"),
    (["simulate", "--policy", "random_bernoulli:abc"],
     "--policy 'random_bernoulli:abc': p 'abc' is not a number"),
    (["simulate", "--policy", "random_bernoulli:"],
     "--policy 'random_bernoulli:': p '' is not a number"),
])
def test_a_flag_entry_that_is_not_a_number_exits_2_naming_it(tmp_path, capsys,
                                                              argv, message):
    assert run(tmp_path, *argv, *small_flags()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("policy, message", [
    ("random_bernoulli:1.5", "p must be in [0, 1], got 1.5"),
    ("random_bernoulli:nan", "p must be in [0, 1], got nan"),
    ("bogus", "unknown baseline policy 'bogus'"),
])
def test_a_rejected_policy_exits_2_naming_the_flag(tmp_path, capsys, policy,
                                                   message):
    assert run(tmp_path, "simulate", "--policy", policy, *small_flags()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --policy {policy!r}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_unknown_axis(tmp_path, capsys):
    assert run(tmp_path, "sweep", "--axis", "a_max", "--values", "4") == 2
    assert "axis" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "aoi_isac", "solve", "--model.a_max", "6",
         "--output.directory", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "iterations=" in proc.stdout
    assert (tmp_path / "out" / "value.csv").exists()


def test_solve_prints_the_number_of_policy_evaluations(tmp_path, capsys):
    assert run(tmp_path, "solve", *small_flags(a_max=30)) == 0
    out = capsys.readouterr().out
    assert "policy_evaluations=" in out and "policy_evaluations=0 " not in out
    assert "policy_changes" not in read_bytes(tmp_path, "solve_report.json").decode()


def test_verify_names_each_artifact_of_the_wrong_shape(tmp_path, capsys):
    assert run(tmp_path, "solve", *small_flags(a_max=4)) == 0
    out = tmp_path / "out"
    gridio.write_grid_csv(out / "policy.csv", np.zeros((3, 3), dtype=int))
    assert run(tmp_path, "verify", *small_flags(a_max=4)) == 2
    err = capsys.readouterr().err
    assert "policy.csv (3, 3)" in err and "value.csv" not in err
    assert "model.a_max=4 (5, 5)" in err

    gridio.write_grid_csv(out / "value.csv", np.zeros((2, 2)))
    assert run(tmp_path, "verify", *small_flags(a_max=4)) == 2
    err = capsys.readouterr().err
    assert "value.csv (2, 2), policy.csv (3, 3)" in err


def test_verify_rejects_artifacts_solved_for_another_model(tmp_path, capsys):
    assert run(tmp_path, "solve", *small_flags(), "--model.c_c", "0.1") == 0
    assert run(tmp_path, "verify", *small_flags(), "--model.c_c", "0.4") == 2
    err = capsys.readouterr().err
    for name in ("value.csv", "policy.csv"):
        assert f"{name} was solved for another model: model.c_c=0.1 (not 0.4)" in err
    assert "model.gamma" not in err
    assert not (tmp_path / "out" / "verify_report.json").exists()
    # the other sections may differ
    assert run(tmp_path, "verify", *small_flags(n=20), "--model.c_c", "0.1") == 0
    path = tmp_path / "out" / "policy.csv"
    path.write_text(path.read_text().replace("# config = {", "# config = [", 1))
    assert run(tmp_path, "verify", *small_flags(), "--model.c_c", "0.1") == 2
    assert f"{path}: 'config =' comment has no model object" in capsys.readouterr().err


def test_in_process_verify_that_does_not_converge_exits_3(tmp_path, capsys):
    assert run(tmp_path, "verify", *small_flags(), "--solver.max_iter", "3") == 3
    assert "in-process solve did not converge" in capsys.readouterr().err
    assert not (tmp_path / "out" / "verify_report.json").exists()


def test_simulate_optimal_that_does_not_converge_exits_3(tmp_path, capsys):
    assert run(tmp_path, "simulate", *small_flags(), "--solver.max_iter", "3") == 3
    assert "optimal policy did not converge" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_exits_3_on_unconverged_values_and_2_on_rejected_ones(tmp_path,
                                                                   capsys):
    assert run(tmp_path, "sweep", "--axis", "c_c", "--values", "0.1,0.2",
               *small_flags(), "--solver.max_iter", "3") == 3
    assert capsys.readouterr().out == ("sweep: c_c=0.1: not_converged\n"
                                       "sweep: c_c=0.2: not_converged\n")
    rows = json.loads(read_bytes(tmp_path, "sweep_report.json"))["rows"]
    assert rows == [{"value": 0.1, "status": "not_converged"},
                    {"value": 0.2, "status": "not_converged"}]
    lines = read_bytes(tmp_path, "sweep.csv").decode().splitlines()
    assert lines[-1] == (f"{gridio.fmt_real(0.2)},not_converged"
                         + "," * (len(CHECK_NAMES) + 1))
    # a rejected value wins over an unconverged one
    assert run(tmp_path, "sweep", "--axis", "c_c", "--values", "0.1,-1",
               *small_flags(), "--solver.max_iter", "3") == 2
    rows = json.loads(read_bytes(tmp_path, "sweep_report.json"))["rows"]
    assert [r["status"] for r in rows] == ["not_converged", "rejected"]
    assert capsys.readouterr().out == "sweep: c_c=0.1: not_converged\n"


@pytest.mark.parametrize("argv, work", [
    (["sweep", "--axis", "c_c", "--values", "0.1,0.2"], (cli, "_solve")),
    (["simulate", "--policy", "always_sense"], (sim, "estimate_value")),
], ids=["sweep", "simulate"])
def test_output_directory_is_made_before_the_work(tmp_path, capsys, monkeypatch,
                                                  argv, work):
    def never(*args, **kwargs):
        raise AssertionError("ran before the output directory was made")

    monkeypatch.setattr(*work, never)
    (tmp_path / "file").write_text("kept\n")
    directory = tmp_path / "file" / "sub"
    assert main([*argv, *small_flags(), "--output.directory", str(directory)]) == 2
    captured = capsys.readouterr()
    assert f"output.directory {directory}: " in captured.err
    assert captured.out == ""  # no sweep row, no estimate


def test_sweep_exits_0_when_every_check_passes(tmp_path, capsys):
    # at gamma = 0, V*(a, b) = a + min(c_s, c_c): monotone, modular, and comm
    # (the cheaper action) in every state
    assert run(tmp_path, "sweep", "--axis", "gamma", "--values", "0",
               "--model.a_max", "8") == 0
    assert capsys.readouterr().out == "sweep: gamma=0.0: ok\n"
    rows = json.loads(read_bytes(tmp_path, "sweep_report.json"))["rows"]
    assert [r["status"] for r in rows] == ["ok"]
    assert rows[0]["checks"] == {name: True for name in CHECK_NAMES}
    assert rows[0]["tau"] == [-1] * 9
    lines = read_bytes(tmp_path, "sweep.csv").decode().splitlines()
    assert lines[-1] == "0,ok," + "1," * len(CHECK_NAMES) + ";".join(["-1"] * 9)
