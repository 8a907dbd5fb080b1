#!/usr/bin/env python3
"""Check that two artifact trees are identical, or agree as an algorithm
swap must.

    python3 scripts/solver_agreement.py BASE_WORK CHANGED_WORK

BASE_WORK and CHANGED_WORK are the two trees that
``scripts/byte_identity.sh`` writes (WORK_DIR/base and WORK_DIR/changed)
and hands to this script. A change of solver algorithm may move the value
grid within the reported suboptimality bound, but must leave the policy,
and everything computed from it, unchanged. So the check passes only when:

- the two trees hold the same files and directories, and the only files
  that differ are value.csv, solve_report.json, verify_report.json and
  simulate_report.json (policy.csv, thresholds.csv, decision_map.txt,
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

Prints one line per finding and exits 1 when there is one. Else it exits
0 and prints "identical: N artifacts" when no file differs, or "agree: N
artifacts, M differ". A file or an empty directory on one side only is a
finding, so, as with ``diff -r``, no directory on one side only goes
unnamed. Needs only numpy.
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


def entries(root: Path) -> dict[Path, bool]:
    """Every path under root, relative to it, mapped to whether it is a file."""
    return {p.relative_to(root): p.is_file() for p in root.rglob("*")}


def tree_diff(base: Path, changed: Path) -> tuple[list[str], list[Path]]:
    """The findings for what lies on one side only, or is a file on one
    side and a directory on the other; and the files that differ."""
    a, b = entries(base), entries(changed)
    findings = []
    for root, here, there in ((base, a, b), (changed, b, a)):
        # a directory that holds anything is named by what it holds
        only = here.keys() - there.keys() - {rel.parent for rel in here}
        findings += [f"{rel}: only in {root}" for rel in sorted(only)]
    common = sorted(a.keys() & b.keys())
    findings += [f"{rel}: differs" for rel in common if a[rel] != b[rel]]
    differing = [rel for rel in common if a[rel] and b[rel]
                 and (base / rel).read_bytes() != (changed / rel).read_bytes()]
    return findings, differing


def judge(base: Path, changed: Path, differing: list[Path]) -> list[str]:
    """The findings for files that differ, each by what an algorithm swap
    may change in it."""
    findings = []
    bounds = {}
    for report_path in base.rglob("solve_report.json"):
        report = json.loads(report_path.read_text())
        bounds[solve_key(report["config"])] = report["suboptimality_bound"]

    for rel in differing:
        old, new = base / rel, changed / rel
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


def compare(base: Path, changed: Path) -> list[str]:
    """Every finding, as ``main`` prints them."""
    findings, differing = tree_diff(base, changed)
    return findings + judge(base, changed, differing)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, changed = (Path(a) for a in argv)
    findings, differing = tree_diff(base, changed)
    findings += judge(base, changed, differing)
    for line in findings:
        print(line)
    if findings:
        return 1
    n = sum(entries(changed).values())
    print(f"agree: {n} artifacts, {len(differing)} differ" if differing
          else f"identical: {n} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
