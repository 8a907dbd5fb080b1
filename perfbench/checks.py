"""Correctness checks on the CLI artifacts, computed apart from the program.

Nothing here calls into ``aoi_isac``: the grids are parsed by a reader of
this module's own, and the Bellman operator, the policy values and the
trajectory replay are built from the transition table in the docstring of
``aoi_isac/model.py``:

    action  outcome  next state
    sense   success  (alpha_s + 1, 1)
    sense   fail     (alpha_s + 1, alpha_b + 1)
    comm    success  (alpha_b + 1, alpha_b + 1)
    comm    fail     (alpha_s + 1, alpha_b + 1)

with both ages saturating at a_max and stage cost alpha_s plus the
activation cost of the action. Every check returns a list of error strings;
an empty list means the artifact passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = np.finfo(float).eps
THRESHOLD_CHECKS = ("monotone", "delta_monotone", "single_crossing",
                    "threshold_monotone")
# The verdict fault: these two checks fail on every correct solve, so any
# verify or sweep that folds them into its exit code fails.
KNOWN_FAILING_CHECKS = ("submodular", "q_submodular")


@dataclass(frozen=True)
class Model:
    lambda_s: float
    lambda_c: float
    c_s: float
    c_c: float
    gamma: float
    a_max: int

    @property
    def n(self) -> int:
        return self.a_max + 1


@dataclass(frozen=True)
class Table:
    """Flat-index successors and stage costs of every (state, action)."""
    succ_sense: np.ndarray
    succ_comm: np.ndarray
    succ_fail: np.ndarray
    cost_sense: np.ndarray
    cost_comm: np.ndarray


def transition_table(m: Model) -> Table:
    n = m.n
    a_s, a_b = np.divmod(np.arange(n * n), n)
    s1 = np.minimum(a_s + 1, m.a_max)
    b1 = np.minimum(a_b + 1, m.a_max)
    return Table(succ_sense=s1 * n + 1, succ_comm=b1 * n + b1,
                 succ_fail=s1 * n + b1,
                 cost_sense=a_s + m.c_s, cost_comm=a_s + m.c_c)


def q_values(V: np.ndarray, m: Model, t: Table):
    v = V.ravel()
    g = m.gamma
    q_sense = t.cost_sense + g * (m.lambda_s * v[t.succ_sense]
                                  + (1.0 - m.lambda_s) * v[t.succ_fail])
    q_comm = t.cost_comm + g * (m.lambda_c * v[t.succ_comm]
                                + (1.0 - m.lambda_c) * v[t.succ_fail])
    return q_sense.reshape(V.shape), q_comm.reshape(V.shape)


def policy_value(p_comm: np.ndarray, m: Model, t: Table) -> np.ndarray:
    """Value grid of the stationary policy that communicates with
    probability p_comm[state] (0/1 for a grid policy).

    Small grids are solved directly; larger ones by successive
    approximation until the a-posteriori error bound is below 1e-10 of the
    value scale, which stays far inside every tolerance it is compared to.
    """
    p = p_comm.ravel().astype(float)
    lam = p * m.lambda_c + (1.0 - p) * m.lambda_s
    cost = p * t.cost_comm + (1.0 - p) * t.cost_sense
    # success mass splits over the two actions' success successors
    w_sense = (1.0 - p) * m.lambda_s
    w_comm = p * m.lambda_c
    w_fail = 1.0 - lam
    n_states = p.size
    if n_states <= 4000:
        A = np.eye(n_states)
        rows = np.arange(n_states)
        np.add.at(A, (rows, t.succ_sense), -m.gamma * w_sense)
        np.add.at(A, (rows, t.succ_comm), -m.gamma * w_comm)
        np.add.at(A, (rows, t.succ_fail), -m.gamma * w_fail)
        return np.linalg.solve(A, cost).reshape(p_comm.shape)
    v = np.zeros(n_states)
    scale = (m.a_max + max(m.c_s, m.c_c)) / (1.0 - m.gamma)
    for _ in range(1_000_000):
        w = cost + m.gamma * (w_sense * v[t.succ_sense] + w_comm * v[t.succ_comm]
                              + w_fail * v[t.succ_fail])
        change = float(np.max(np.abs(w - v)))
        v = w
        if change * m.gamma / (1.0 - m.gamma) <= 1e-10 * scale:
            return v.reshape(p_comm.shape)
    raise RuntimeError("policy evaluation did not reach its error bound")


def read_grid(path: Path, integer: bool = False) -> np.ndarray:
    rows = []
    header_seen = False
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            continue
        rows.append(line.split(",")[1:])
    return np.array(rows, dtype=np.int64 if integer else float)


def read_tau_csv(path: Path) -> list[int]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return [int(ln.split(",")[1]) for ln in lines[1:]]


def read_trajectory(path: Path) -> np.ndarray:
    """trajectory.csv as an (h, 6) float array: k, alpha_s, alpha_b, action,
    outcome, stage_cost."""
    lines = path.read_text().splitlines()
    return np.array([ln.split(",") for ln in lines[1:] if ln], dtype=float)


def _taus(policy: np.ndarray) -> np.ndarray:
    """Last sense index of each column; valid once columns are single-crossing."""
    return np.sum(policy == 0, axis=0) - 1


def check_value_policy(V: np.ndarray, policy: np.ndarray, m: Model,
                       final_sweep_delta: float,
                       suboptimality_bound: float) -> list[str]:
    """Fixed point, greedy policy and threshold structure."""
    errors = []
    if V.shape != (m.n, m.n) or policy.shape != (m.n, m.n):
        return [f"grid shapes {V.shape}/{policy.shape} != {(m.n, m.n)}"]
    t = transition_table(m)
    q_sense, q_comm = q_values(V, m, t)
    TV = np.minimum(q_sense, q_comm)
    rounding = 16.0 * EPS * float(np.max(np.abs(V)))
    resid = float(np.max(np.abs(TV - V)))
    apost = resid / (1.0 - m.gamma)
    if resid > m.gamma * final_sweep_delta + rounding:
        errors.append(f"value.csv is not a Bellman fixed point: ||TV-V|| = "
                      f"{resid:.3e} > gamma * final sweep change "
                      f"{m.gamma * final_sweep_delta:.3e}")
    if apost > suboptimality_bound + rounding / (1.0 - m.gamma):
        errors.append(f"a-posteriori bound {apost:.3e} exceeds the reported "
                      f"suboptimality bound {suboptimality_bound:.3e}")

    d = q_sense - q_comm
    greedy = (d > 0.0).astype(np.int64)
    near_tie = np.abs(d) <= 2.0 * m.gamma * apost + rounding
    wrong = np.argwhere((greedy != policy) & ~near_tie)
    if wrong.size:
        i, j = wrong[0]
        errors.append(f"policy.csv is not greedy for value.csv at {len(wrong)} "
                      f"states, first ({i},{j}): Q_sense - Q_comm = {d[i, j]:.3e}, "
                      f"action {policy[i, j]}")

    slack = 2.0 * apost + rounding
    for axis, name in ((0, "alpha_s"), (1, "alpha_b")):
        drop = -np.diff(V, axis=axis)
        if np.max(drop) > slack:
            errors.append(f"value.csv decreases along {name} by {np.max(drop):.3e}")
    if np.any(np.diff(policy, axis=0) < 0):
        j = int(np.argwhere(np.diff(policy, axis=0) < 0)[0][1])
        errors.append(f"policy.csv row alpha_b={j} is not single-crossing")
    elif np.any(np.diff(_taus(policy)) < 0):
        errors.append("tau from policy.csv decreases in alpha_b")
    return errors


def check_solve(outdir: Path, m: Model) -> tuple[list[str], dict]:
    """The solve artifacts, plus the arrays later checks reuse."""
    V = read_grid(outdir / "value.csv")
    policy = read_grid(outdir / "policy.csv", integer=True)
    report = json.loads((outdir / "solve_report.json").read_text())
    errors = []
    if not report["converged"]:
        errors.append("solve_report.json says not converged")
    errors += check_value_policy(V, policy, m, report["final_sweep_delta"],
                                 report["suboptimality_bound"])
    tau = _taus(policy).tolist()
    if read_tau_csv(outdir / "thresholds.csv") != tau:
        errors.append("thresholds.csv does not match policy.csv")
    if report["tau"] != tau:
        errors.append("solve_report.json tau does not match policy.csv")
    return errors, {"V": V, "policy": policy, "tau": tau}


def _verdict_errors(checks: dict, where: str) -> tuple[list[str], bool]:
    """The four threshold certificates must pass. Returns (errors, whether a
    failed verdict is explained by the known failing checks alone)."""
    errors = [f"{where}: threshold certificate {name} did not pass"
              for name in THRESHOLD_CHECKS if checks.get(name) is not True]
    failing = {name for name, ok in checks.items() if not ok}
    return errors, failing <= set(KNOWN_FAILING_CHECKS)


def check_verify(outdir: Path, exit_code: int) -> list[str]:
    report = json.loads((outdir / "verify_report.json").read_text())
    checks = {c["check"]: c["passed"] for c in report["checks"]}
    errors, known = _verdict_errors(checks, "verify")
    if report["source"] != "artifacts":
        errors.append(f"verify read its grids from {report['source']}, "
                      f"not the solve artifacts")
    if exit_code not in (0, 4) or (exit_code == 4 and not known):
        errors.append(f"verify exit {exit_code} with checks {checks}")
    return errors


def check_sweep(outdir: Path, axis: str, values: list[float], m: Model,
                tau: list[int], exit_code: int) -> list[str]:
    report = json.loads((outdir / "sweep_report.json").read_text())
    rows = report["rows"]
    errors = []
    if report["axis"] != axis or [r["value"] for r in rows] != values:
        errors.append("sweep_report.json rows do not match the requested values")
    all_known = True
    for row in rows:
        where = f"sweep {axis}={row['value']}"
        if row.get("status") not in ("ok", "check_failed"):
            errors.append(f"{where}: status {row.get('status')}")
            continue
        errs, known = _verdict_errors(row["checks"], where)
        errors += errs
        all_known &= known
        if np.any(np.diff(row["tau"]) < 0):
            errors.append(f"{where}: tau decreases in alpha_b")
        if row["value"] == getattr(m, axis) and row["tau"] != tau:
            errors.append(f"{where}: tau differs from the solve at the same model")
    if exit_code not in (0, 4) or (exit_code == 4 and not all_known):
        errors.append(f"sweep exit {exit_code} not explained by the known "
                      f"failing checks")
    return errors


def truncation_bound(m: Model, horizon: int) -> float:
    return m.gamma ** horizon * (m.a_max + max(m.c_s, m.c_c)) / (1.0 - m.gamma)


def check_trajectory(traj: np.ndarray, m: Model, s0: tuple[int, int],
                     horizon: int, policy: np.ndarray | None) -> list[str]:
    """Replay trajectory.csv through the transition table. ``policy`` is the
    grid the actions must follow, or None for a randomised policy."""
    errors = []
    if traj.shape != (horizon, 6) or np.any(traj[:, 0] != np.arange(horizon)):
        return [f"trajectory.csv has shape {traj.shape}, expected ({horizon}, 6) "
                f"with k = 0..{horizon - 1}"]
    a_s = traj[:, 1].astype(np.int64)
    a_b = traj[:, 2].astype(np.int64)
    act = traj[:, 3].astype(np.int64)
    out = traj[:, 4].astype(np.int64)
    if (a_s[0], a_b[0]) != tuple(s0):
        errors.append(f"trajectory starts at ({a_s[0]},{a_b[0]}), not {s0}")
    if not (np.isin(act, (0, 1)).all() and np.isin(out, (0, 1)).all()):
        return errors + ["trajectory.csv has an action or outcome outside {0, 1}"]
    t = transition_table(m)
    flat = a_s * m.n + a_b
    succ = np.where(out == 0, t.succ_fail[flat],
                    np.where(act == 1, t.succ_comm[flat], t.succ_sense[flat]))
    bad = np.flatnonzero(succ[:-1] != flat[1:])
    if bad.size:
        errors.append(f"trajectory.csv row {bad[0] + 1} is not the successor of "
                      f"row {bad[0]} ({bad.size} such rows)")
    cost = np.where(act == 1, t.cost_comm[flat], t.cost_sense[flat])
    if np.any(cost != traj[:, 5]):
        errors.append("trajectory.csv stage_cost disagrees with the model")
    if policy is not None and np.any(policy[a_s, a_b] != act):
        errors.append("trajectory.csv actions do not follow policy.csv")
    return errors


def check_simulate(outdir: Path, m: Model, s0: tuple[int, int], n: int,
                   horizon: int, policy: np.ndarray, V: np.ndarray) -> list[str]:
    """Check a ``simulate --policy optimal`` run against the solved
    ``policy`` and value grid ``V``."""
    report = json.loads((outdir / "simulate_report.json").read_text())
    errors = []
    if (report["policy_source"], report["n_trajectories"],
            report["horizon"]) != ("optimal", n, horizon):
        errors.append("simulate_report.json does not describe the requested run")
    bias = truncation_bound(m, horizon)
    if abs(report["truncation_bias_bound"] - bias) > 1e-12 * bias:
        errors.append(f"truncation bound {report['truncation_bias_bound']} != {bias}")
    v_pi = float(policy_value(policy, m, transition_table(m))[s0])
    budget = bias + 4.0 * report["std_error"]
    if not abs(report["mean"] - v_pi) <= budget:
        errors.append(f"simulate mean {report['mean']:.6f} is further than "
                      f"{budget:.3e} from the policy value {v_pi:.6f}")
    if report.get("v_star_s0") != float(V[s0]):
        errors.append("simulate_report.json v_star_s0 is not value.csv at s0")
    errors += check_trajectory(read_trajectory(outdir / "trajectory.csv"), m,
                               s0, horizon, policy.astype(np.int64))
    return errors


def self_test(solved: dict, traj: np.ndarray, m: Model, s0: tuple[int, int],
              horizon: int, report: dict) -> list[str]:
    """The checks must reject three known-wrong answers built from correct
    artifacts: an always-sense policy, a value grid with one cell moved by
    1e-3, and a trajectory row with a wrong successor."""
    V, policy = solved["V"], solved["policy"]
    delta, bound = report["final_sweep_delta"], report["suboptimality_bound"]
    errors = []
    always_sense = np.zeros_like(policy)
    if not check_value_policy(V, always_sense, m, delta, bound):
        errors.append("self-test: an always-sense policy.csv was accepted")
    moved = V.copy()
    moved[m.a_max // 2, m.a_max // 2] += 1e-3
    if not check_value_policy(moved, policy, m, delta, bound):
        errors.append("self-test: value.csv moved by 1e-3 in one cell was accepted")
    wrong = traj.copy()
    wrong[1, 1] = (wrong[1, 1] + 1) % m.n
    if not any("successor" in e for e in check_trajectory(wrong, m, s0, horizon, None)):
        errors.append("self-test: a trajectory row with a wrong successor "
                      "was accepted")
    return errors
