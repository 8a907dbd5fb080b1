"""Tests of scripts/solver_agreement.py on small hand-made artifact trees."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "solver_agreement.py"
spec = importlib.util.spec_from_file_location("solver_agreement", SCRIPT)
solver_agreement = importlib.util.module_from_spec(spec)
spec.loader.exec_module(solver_agreement)

CONFIG = {"model": {"a_max": 2, "gamma": 0.95}, "solver": {"tol": 1e-9},
          "output": {"directory": "solve"}}
BOUND = 1.9e-8


def value_csv(shift=0.0, config=CONFIG):
    rows = [f"{i}," + ",".join(repr(10.0 * i + j + shift) for j in range(3))
            for i in range(3)]
    comments = [] if config is None else [f"# config = {json.dumps(config)}"]
    return "\n".join([*comments, "# status = converged", "alpha_s\\alpha_b,0,1,2",
                      *rows]) + "\n"


def write_tree(root, shift=0.0, iterations=429, v_star=12.0, n_violations=5):
    (root / "solve").mkdir(parents=True)
    (root / "simulate").mkdir()
    (root / "solve" / "value.csv").write_text(value_csv(shift))
    (root / "solve" / "policy.csv").write_text("0,1,1\n")
    (root / "solve" / "solve_report.json").write_text(json.dumps({
        "config": CONFIG, "iterations": iterations,
        "suboptimality_bound": BOUND, "final_sweep_delta": 1e-9, "tau": [0, 1, 2]}))
    (root / "solve" / "verify_report.json").write_text(json.dumps({
        "all_passed": False, "source": "artifacts", "checks": [
            {"check": "submodular", "passed": False, "n_violations": n_violations,
             "violations": [[1, 1, -1e-3 - shift]]}]}))
    (root / "simulate" / "simulate_report.json").write_text(json.dumps({
        "config": {**CONFIG, "output": {"directory": "simulate"}},
        "mean": 11.9, "v_star_s0": v_star, "abs_gap": abs(v_star - 11.9)}))
    (root / "exit_codes.txt").write_text("0 solve\n")


def agree(tmp_path, **changes):
    write_tree(tmp_path / "base")
    write_tree(tmp_path / "changed", **changes)
    return solver_agreement.compare(tmp_path / "base", tmp_path / "changed")


def test_a_move_within_the_bound_agrees(tmp_path):
    assert agree(tmp_path, shift=BOUND / 2, iterations=8, v_star=12.0 + BOUND) == []


@pytest.mark.parametrize("changes, finding", [
    (dict(shift=2 * BOUND), "value.csv: moved"),
    (dict(v_star=12.0 + 2 * BOUND), "v_star_s0 moved"),
    (dict(n_violations=4), "verdicts or violation counts differ"),
])
def test_a_move_past_the_bound_or_a_new_verdict_is_found(tmp_path, changes, finding):
    findings = agree(tmp_path, **changes)
    assert len(findings) == 1 and finding in findings[0]


@pytest.mark.parametrize("name, text", [
    ("solve/policy.csv", "0,0,1\n"), ("exit_codes.txt", "3 solve\n")])
def test_any_other_differing_file_is_found(tmp_path, name, text):
    write_tree(tmp_path / "base")
    write_tree(tmp_path / "changed")
    (tmp_path / "changed" / name).write_text(text)
    assert solver_agreement.compare(tmp_path / "base", tmp_path / "changed") == [
        f"{name}: differs"]


@pytest.mark.parametrize("shift, findings", [
    (BOUND / 2, []), (2 * BOUND, ["copy/value.csv: moved by 3.800e-08, more than "
                                  "the base's bound 1.900e-08"])])
def test_a_value_csv_beside_no_solve_report_is_bounded_by_its_config(
        tmp_path, shift, findings):
    # as where a leg copies a solve's value.csv alone into a new directory
    for side, copy_shift in (("base", 0.0), ("changed", shift)):
        write_tree(tmp_path / side)
        (tmp_path / side / "copy").mkdir()
        (tmp_path / side / "copy" / "value.csv").write_text(value_csv(copy_shift))
    assert solver_agreement.compare(tmp_path / "base", tmp_path / "changed") == findings


@pytest.mark.parametrize("config", [None, {**CONFIG, "model": {"a_max": 2, "gamma": 0.9}}])
def test_a_value_csv_no_base_solve_bounds_is_found(tmp_path, config):
    for side, shift in (("base", 0.0), ("changed", BOUND / 2)):
        write_tree(tmp_path / side, shift=shift)
        (tmp_path / side / "solve" / "value.csv").write_text(value_csv(shift, config))
    assert solver_agreement.compare(tmp_path / "base", tmp_path / "changed") == [
        "solve/value.csv: no base solve with its config comment bounds it"]


def test_other_report_fields_and_missing_files_are_found(tmp_path):
    write_tree(tmp_path / "base")
    write_tree(tmp_path / "changed")
    report = tmp_path / "changed" / "solve" / "solve_report.json"
    report.write_text(report.read_text().replace("[0, 1, 2]", "[0, 1, 1]"))
    shutil.rmtree(tmp_path / "changed" / "simulate")
    findings = solver_agreement.compare(tmp_path / "base", tmp_path / "changed")
    assert findings == [
        f"simulate/simulate_report.json: only in {tmp_path / 'base'}",
        "solve/solve_report.json: ['tau'] differ"]


def test_main_prints_identical_or_agree_with_the_counts(tmp_path, capsys):
    base, changed = tmp_path / "base", tmp_path / "changed"
    write_tree(base)
    write_tree(changed)
    assert solver_agreement.main([str(base), str(changed)]) == 0
    assert capsys.readouterr().out == "identical: 6 artifacts\n"
    shutil.rmtree(changed)
    write_tree(changed, shift=BOUND / 2, iterations=8)
    assert solver_agreement.main([str(base), str(changed)]) == 0
    assert capsys.readouterr().out == "agree: 6 artifacts, 3 differ\n"


def test_an_empty_directory_or_a_file_against_a_directory_is_found(tmp_path):
    base, changed = tmp_path / "base", tmp_path / "changed"
    write_tree(base)
    write_tree(changed)
    (base / "solve" / "empty").mkdir()
    (base / "x").write_text("0\n")
    (changed / "x").mkdir()
    (changed / "x" / "y").write_text("0\n")
    assert solver_agreement.compare(base, changed) == [
        f"solve/empty: only in {base}", f"x/y: only in {changed}", "x: differs"]
