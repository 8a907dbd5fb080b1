"""Acceptance suite: one test per criterion clause, one printed verdict line
per clause, all tolerances pinned.

Criteria 1, 2 and 7 are split into clauses. The "a" clauses certify the
monotone threshold structure. The "b" clauses pin the sign of the 2x2
cross-differences of V* (full grid) and of both Q grids (unclamped
interior): they are nonnegative, so V*/Q* have increasing differences
(supermodular), and the submodularity checks fail. The Bellman minimum is
what breaks submodularity: already at the second sweep the cross-difference
of T^2(0) at block (14,14) is +0.755. The supermodular direction is proved
in exact arithmetic on the a_max = 3 instance by
test_exact_cross_differences_small_instance; see the README's "Known
structural finding".
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from aoi_isac import gridio
from aoi_isac.cli import main
from aoi_isac.model import Action, ModelParams, delta_grid, q_grids, stage_cost
from aoi_isac.sim import baseline_policy, estimate_value, rollout
from aoi_isac.solver import extract_thresholds, value_iteration
from aoi_isac.structure import (check_delta_monotone, check_monotone,
                                check_q_submodular, check_single_crossing,
                                check_submodular, check_threshold_monotone)
from reference import (Outcome, delta, exhaustive_policy_oracle,
                       policy_iteration, transition)

IV = dict(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1, gamma=0.95)
REFERENCE = ModelParams(**IV, a_max=30)


def verdict(clause: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {clause}: {tag}{suffix}", flush=True)
    return ok


@pytest.fixture(scope="module")
def reference_solution():
    start = time.perf_counter()
    V, policy, report = value_iteration(REFERENCE, tol=1e-9, max_iter=100_000)
    return V, policy, report, time.perf_counter() - start


def test_criterion_1a_reference_solve_and_monotonicity(reference_solution):
    V, policy, report, elapsed = reference_solution
    ok = (report.converged and report.iterations <= 100_000 and elapsed < 10.0
          and check_monotone(V, tol=1e-9).passed)
    assert verdict("criterion 1a: reference solve converges and V* is monotone",
                   ok, f"{report.iterations} sweeps, {elapsed:.2f}s")


def test_criterion_1b_value_submodularity_full_grid(reference_solution):
    V, _, _, _ = reference_solution
    sup = check_submodular(-V, tol=1e-9)
    sub = check_submodular(V, tol=1e-9)
    verdict("criterion 1b: V* has increasing differences on the full grid at "
            "tol 1e-9, so it is not submodular", sup.passed and not sub.passed,
            f"{len(sup.violations)} negative cross-differences; "
            f"{len(sub.violations)} positive, max "
            f"{max((v[2] for v in sub.violations), default=0):.3g}")
    assert sup.passed, ("V* has a negative cross-difference beyond tol: "
                        f"{sup.violations[:5]}")
    assert not sub.passed, ("V* passed the submodularity check, contrary to "
                            "the README's 'Known structural finding'")


def test_criterion_2a_threshold_certificate(reference_solution):
    V, policy, _, _ = reference_solution
    tau, sc_ok = extract_thresholds(policy)
    per_row = check_single_crossing(policy)
    ok = (sc_ok and per_row.passed and len(tau) == 31
          and check_threshold_monotone(tau).passed
          and check_delta_monotone(V, REFERENCE, tol=1e-9).passed)
    assert verdict("criterion 2a: single-crossing on all 31 rows, tau "
                   "nondecreasing, delta monotone on the interior", ok,
                   f"tau={[int(t) for t in tau]}")


def _q_interior_supermodular(V, params):
    """True when both Q grids have increasing differences on the interior."""
    a = params.a_max
    return all(check_submodular(-q[:a, :a], tol=1e-9).passed
               for q in q_grids(V, params))


def test_criterion_2b_q_submodularity_interior(reference_solution):
    V, _, _, _ = reference_solution
    sup = _q_interior_supermodular(V, REFERENCE)
    sub = check_q_submodular(V, REFERENCE, tol=1e-9)
    verdict("criterion 2b: both Q grids have increasing differences on the "
            "interior at tol 1e-9, so they are not submodular",
            sup and not sub.passed,
            f"{len(sub.violations)} blocks fail submodularity")
    assert sup, "a Q grid has a negative interior cross-difference beyond tol"
    assert not sub.passed, ("the Q grids passed the submodularity check, "
                            "contrary to the README's 'Known structural "
                            "finding'")


def _exact_policy_value(policy, p):
    """Solve (I - gamma P) V = g for a fixed policy by Gauss-Jordan
    elimination; with Fraction parameters p the result is exact. Returns
    {state: value}."""
    states = list(itertools.product(range(p.n_ages), repeat=2))
    col = {s: k for k, s in enumerate(states)}
    n = len(states)
    rows = []
    for s in states:
        act = Action(int(policy[s]))
        lam = p.success_prob(act)
        row = [Fraction(0)] * n + [stage_cost(s, act, p)]
        row[col[s]] += 1
        row[col[transition(s, act, Outcome.SUCCESS, p)]] -= p.gamma * lam
        row[col[transition(s, act, Outcome.FAIL, p)]] -= p.gamma * (1 - lam)
        rows.append(row)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return {s: rows[col[s]][n] for s in states}


def test_exact_cross_differences_small_instance():
    # The reference parameters as exact decimals, on the 16-state grid.
    p = ModelParams(**{k: Fraction(str(v)) for k, v in IV.items()}, a_max=3)
    _, policy, _ = value_iteration(ModelParams(**IV, a_max=3), tol=1e-9)
    V = _exact_policy_value(policy, p)

    def q(s, act):
        lam = p.success_prob(act)
        return stage_cost(s, act, p) + p.gamma * (
            lam * V[transition(s, act, Outcome.SUCCESS, p)]
            + (1 - lam) * V[transition(s, act, Outcome.FAIL, p)])

    # Bellman optimality holds exactly, so V is the exact V*.
    assert all(V[s] == min(q(s, Action.SENSE), q(s, Action.COMM)) for s in V)
    cross = {(a, b): V[a + 1, b + 1] + V[a, b] - V[a + 1, b] - V[a, b + 1]
             for a, b in itertools.product(range(p.a_max), repeat=2)}
    # Block (1,1) spans ages {1, 2}: neither transient nor saturated.
    assert cross.pop((1, 1)) == Fraction(191, 314)
    assert all(x >= 0 for x in cross.values()), cross


def test_criterion_3_exhaustive_oracle_equivalence():
    p = ModelParams(**{**IV, "gamma": 0.9}, a_max=2)
    start = time.perf_counter()
    V_ex, pol_ex = exhaustive_policy_oracle(p)   # all 512 policies, exact
    V_vi, pol_vi, _ = value_iteration(p, tol=1e-12)
    elapsed = time.perf_counter() - start
    sup = float(np.max(np.abs(V_ex - V_vi)))
    clear = np.abs(delta_grid(V_vi, p)) > 1e-9
    ok = (sup <= 1e-6 and np.array_equal(pol_ex[clear], pol_vi[clear])
          and elapsed < 1.0)
    assert verdict("criterion 3: exhaustive oracle matches value iteration",
                   ok, f"sup gap {sup:.2e}, {elapsed:.2f}s")


def test_criterion_4_policy_iteration_agreement():
    worst = 0.0
    for a_max in (5, 10, 30):
        p = ModelParams(**IV, a_max=a_max)
        V_vi, _, _ = value_iteration(p, tol=1e-9)
        V_pi, _ = policy_iteration(p)
        worst = max(worst, float(np.max(np.abs(V_vi - V_pi))))
    ok = worst <= 1e-6
    assert verdict("criterion 4: policy iteration agrees with value iteration "
                   "for a_max in {5, 10, 30}", ok, f"worst sup gap {worst:.2e}")


def test_criterion_5_monte_carlo_consistency(reference_solution):
    V, policy, _, _ = reference_solution
    start = time.perf_counter()
    est = estimate_value(policy, REFERENCE, (1, 1), n=10_000, horizon=400, seed=42)
    elapsed = time.perf_counter() - start
    budget = 3 * est.std_error + est.truncation_bias_bound
    gap = abs(est.mean - float(V[1, 1]))
    ok = gap <= budget and elapsed < 30.0
    assert verdict("criterion 5: 10^4 seeded rollouts reproduce V*(1,1)", ok,
                   f"gap {gap:.4f} <= {budget:.4f}, {elapsed:.1f}s")


def test_criterion_6_policy_dominance(reference_solution):
    _, policy, _, _ = reference_solution
    opt = estimate_value(policy, REFERENCE, (1, 1), n=10_000, horizon=400, seed=42)
    margins = {}
    for kind, p_arg in (("always_sense", None), ("always_comm", None),
                        ("alternate", None), ("random_bernoulli", 0.5)):
        base = baseline_policy(kind, REFERENCE, p=p_arg)
        est = estimate_value(base, REFERENCE, (1, 1), n=10_000, horizon=400, seed=42)
        combined = np.hypot(opt.std_error, est.std_error)
        margins[kind] = (est.mean - opt.mean) / (3 * combined)
    ok = all(m > 1.0 for m in margins.values())
    assert verdict("criterion 6: optimal policy beats every baseline by > 3 "
                   "combined standard errors", ok,
                   ", ".join(f"{k}: {m:.0f}x" for k, m in margins.items()))


SWEEPS = [("c_c", (0.05, 0.1, 0.2, 0.4)), ("gamma", (0.5, 0.9, 0.95)),
          ("lambda_s", (0.3, 0.6, 0.8))]


def _sweep_instances():
    for axis, values in SWEEPS:
        for value in values:
            yield axis, value, ModelParams(**{**IV, axis: value}, a_max=30)


def test_criterion_7a_robustness_of_threshold_structure():
    bad = []
    for axis, value, p in _sweep_instances():
        V, policy, report = value_iteration(p, tol=1e-9)
        tau, sc_ok = extract_thresholds(policy)
        good = (report.converged and sc_ok
                and check_monotone(V, tol=1e-9).passed
                and check_delta_monotone(V, p, tol=1e-9).passed
                and check_threshold_monotone(tau).passed)
        if not good:
            bad.append(f"{axis}={value}")
    ok = not bad
    assert verdict("criterion 7a: threshold structure holds across the "
                   "parameter sweep (10 instances)", ok, ", ".join(bad))


def test_criterion_7b_robustness_of_full_suite():
    bad = []
    for axis, value, p in _sweep_instances():
        V, policy, report = value_iteration(p, tol=1e-9)
        if not (report.converged and check_submodular(-V, tol=1e-9).passed
                and _q_interior_supermodular(V, p)
                and not check_submodular(V, tol=1e-9).passed
                and not check_q_submodular(V, p, tol=1e-9).passed):
            bad.append(f"{axis}={value}")
    ok = verdict("criterion 7b: V* and both Q grids have increasing "
                 "differences, and are not submodular, across the sweep",
                 not bad, ", ".join(bad))
    assert ok, ("cross-difference sign differs from the README's 'Known "
                f"structural finding' on: {', '.join(bad)}")


def test_criterion_8_degenerate_analytics():
    myopic = ModelParams(**{**IV, "gamma": 0.0}, a_max=10)
    V, policy, report = value_iteration(myopic, tol=1e-9)
    two_sweeps = report.converged and report.iterations == 2
    all_comm = bool(np.all(policy == Action.COMM))  # c_c < c_s

    perfect = ModelParams(**{**IV, "lambda_s": 1.0, "lambda_c": 1.0}, a_max=10)
    ests = [estimate_value(baseline_policy(k, perfect), perfect, (1, 1),
                           n=100, horizon=50, seed=9)
            for k in ("always_sense", "always_comm")]
    zero_var = all(e.std_error == 0.0 for e in ests)

    p = ModelParams(**IV, a_max=6)
    const = np.full(p.grid_shape, 4.2)
    flat_delta = all(
        delta(const, s, p) == pytest.approx(p.c_s - p.c_c, abs=1e-12)
        for s in itertools.product(range(7), range(7)))

    ok = two_sweeps and all_comm and zero_var and flat_delta
    assert verdict("criterion 8: degenerate analytics (gamma=0 myopic in 2 "
                   "sweeps; perfect links zero variance; constant V flat delta)",
                   ok)


def _artifacts(outdir):
    return {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}


def test_criterion_9_cli_determinism(tmp_path):
    out = tmp_path / "out"
    commands = [
        ["solve"],
        ["verify"],
        ["simulate", "--policy", "optimal"],
        ["sweep", "--axis", "gamma", "--values", "0.5,0.9"],
    ]
    ok = True
    for argv in commands:
        first = second = None
        for attempt in range(2):
            main(argv + ["--output.directory", str(out)])
            snap = _artifacts(out)
            first, second = (snap, second) if attempt == 0 else (first, snap)
        ok &= first == second

    # CSV grids round-trip losslessly
    grid, comments = gridio.read_grid_csv(out / "value.csv")
    ok &= gridio.grid_csv_text(grid, comments).encode() == (out / "value.csv").read_bytes()
    reread, _ = gridio.read_grid_csv(out / "value.csv")
    ok &= bool(np.array_equal(grid, reread))
    assert verdict("criterion 9: CLI reruns byte-identical, CSV round-trip "
                   "lossless", ok)
