#!/usr/bin/env python3
"""Check that two artifact trees agree as an algorithm swap must.

    python3 scripts/solver_agreement.py BASE_WORK CHANGED_WORK

BASE_WORK and CHANGED_WORK are the two trees that
``scripts/byte_identity.sh`` leaves (WORK_DIR/base and WORK_DIR/changed).
A change of solver algorithm may move the value grid within the reported
suboptimality bound, but must leave the policy, and everything computed
from it, unchanged. So the check passes only when:

- the only files that differ are value.csv, solve_report.json,
  verify_report.json and simulate_report.json, and the two trees hold the
  same files (policy.csv, thresholds.csv, decision_map.txt,
  value_surface.pgm, trajectory.csv, every sweep file and exit_codes.txt
  are byte-identical);
- a differing solve_report.json differs only in iterations,
  final_sweep_delta and suboptimality_bound;
- a differing verify_report.json has the same verdict, and every check the
  same name, outcome and violation count;
- a differing simulate_report.json differs only in v_star_s0 and abs_gap;
- every value.csv, and every v_star_s0, is within the base's
  suboptimality_bound + 1e-10 of the base's: the bound of the base solve
  with the model and solver config that the base value.csv's
  ``# config = `` comment, or the simulate report, records. A value.csv
  may lie where no solve ran (a leg's copy of a solve); one without that
  comment, or whose config no base solve has, is a finding.

Prints one line per finding and exits 0 when there is none, 1 otherwise.
Needs only numpy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

SLACK = 1e-10
CONFIG_COMMENT = "# config = "
MAY_DIFFER = {
    "solve_report.json": {"iterations", "final_sweep_delta", "suboptimality_bound"},
    "simulate_report.json": {"v_star_s0", "abs_gap"},
}


def read_value_csv(path: Path) -> tuple[dict | None, np.ndarray]:
    """The config a value.csv's ``# config = `` comment records (None when it
    has none) and its grid: comment lines, a header row, then one row per
    alpha_s whose first cell is its label."""
    lines = path.read_text().splitlines()
    config = next((json.loads(line[len(CONFIG_COMMENT):]) for line in lines
                   if line.startswith(CONFIG_COMMENT)), None)
    rows = [line.split(",")[1:] for line in lines
            if line and not line.startswith("#")][1:]
    return config, np.array(rows, dtype=float)


def solve_key(config: dict) -> str:
    return json.dumps([config["model"], config["solver"]], sort_keys=True)


def differing_keys(a: dict, b: dict) -> set[str]:
    return {k for k in a.keys() | b.keys() if a.get(k) != b.get(k)}


def verdict(report: dict) -> list:
    return [report["all_passed"]] + [(c["check"], c["passed"], c["n_violations"])
                                     for c in report["checks"]]


def compare(base: Path, changed: Path) -> list[str]:
    files = {p.relative_to(base) for p in base.rglob("*") if p.is_file()}
    other = {p.relative_to(changed) for p in changed.rglob("*") if p.is_file()}
    findings = ([f"{rel}: only in {base}" for rel in sorted(files - other)]
                + [f"{rel}: only in {changed}" for rel in sorted(other - files)])
    bounds = {}
    for rel in files:
        if rel.name == "solve_report.json":
            report = json.loads((base / rel).read_text())
            bounds[solve_key(report["config"])] = report["suboptimality_bound"]

    for rel in sorted(files & other):
        old, new = base / rel, changed / rel
        if old.read_bytes() == new.read_bytes():
            continue
        name = rel.name
        if name == "value.csv":
            config, grid = read_value_csv(old)
            gap = float(np.max(np.abs(grid - read_value_csv(new)[1])))
            bound = None if config is None else bounds.get(solve_key(config))
            if bound is None:
                findings.append(f"{rel}: no base solve with its config comment "
                                f"bounds it")
            elif not gap <= bound + SLACK:
                findings.append(f"{rel}: moved by {gap:.3e}, more than the base's "
                                f"bound {bound:.3e}")
        elif name == "verify_report.json":
            a, b = json.loads(old.read_text()), json.loads(new.read_text())
            if verdict(a) != verdict(b):
                findings.append(f"{rel}: verdicts or violation counts differ")
            extra = differing_keys(a, b) - {"checks"}
            if extra:
                findings.append(f"{rel}: {sorted(extra)} differ")
        elif name in MAY_DIFFER:
            a, b = json.loads(old.read_text()), json.loads(new.read_text())
            extra = differing_keys(a, b) - MAY_DIFFER[name]
            if extra:
                findings.append(f"{rel}: {sorted(extra)} differ")
            if "v_star_s0" in a and "v_star_s0" in b:
                bound = bounds.get(solve_key(a["config"]))
                gap = abs(a["v_star_s0"] - b["v_star_s0"])
                if bound is None:
                    findings.append(f"{rel}: no base solve with this config "
                                    f"bounds v_star_s0")
                elif not gap <= bound + SLACK:
                    findings.append(f"{rel}: v_star_s0 moved by {gap:.3e}, more "
                                    f"than the base's bound {bound:.3e}")
        else:
            findings.append(f"{rel}: differs")
    return findings


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, changed = (Path(a) for a in argv)
    findings = compare(base, changed)
    for line in findings:
        print(line)
    if findings:
        return 1
    print(f"agree: {sum(1 for p in changed.rglob('*') if p.is_file())} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
