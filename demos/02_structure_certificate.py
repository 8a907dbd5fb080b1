"""Certify the structural properties of the solved instance numerically.

Runs every structure check on the reference solution and prints the verdict
table. Every verdict check passes at tolerance 1e-9: monotone value surface,
increasing differences of V and of both Q grids, action difference
nondecreasing in alpha_s / nonincreasing in alpha_b, a policy greedy for V,
per-row single crossing and nondecreasing tau.

The submodularity checks, which test the opposite sign and stay out of the
verdict, fail, and the failure is real, not numerical: the pointwise minimum
over the two actions creates positive cross-differences on the 2x2 blocks
straddling the switching curve (Comm below, Sense above-right), and those
blocks sit well inside the grid. The second value-iteration sweep already
shows it in closed form. The demo prints the violation band of V so you can
see it hug the switching curve, and the count of Q-grid blocks beside it.
"""

import numpy as np

from aoi_isac import (check_q_submodular, check_submodular,
                      default_model_params, extract_thresholds, q_grids,
                      run_all_checks, solve)


def main():
    params = default_model_params()
    V, policy, report = solve(params, tol=1e-9)
    print(f"solved in {report.iterations} sweeps; lambda_c >= lambda_s: "
          f"{params.lambda_ordering_ok}\n")

    print(f"{'check':22s} {'verdict':8s} violations  region")
    for r in run_all_checks(V, policy, params):
        print(f"{r.check_name:22s} {'pass' if r.passed else 'FAIL':8s} "
              f"{len(r.violations):10d}  {r.region}")

    r = check_submodular(V)
    if not r.passed:
        worst = max(r.violations, key=lambda v: v[2])
        print(f"\nlargest positive cross-difference: {worst[2]:.3f} at block "
              f"({worst[0]},{worst[1]})")
        tau, _ = extract_thresholds(policy)
        bad = np.zeros((params.a_max, params.a_max), dtype=bool)
        for a, b, _mag in r.violations:
            bad[a, b] = True
        print("violation band (X) vs switching thresholds (|):")
        for a in range(params.a_max):
            row = "".join(
                "X" if bad[a, b] else ("|" if tau[b] == a else ".")
                for b in range(params.a_max))
            print("  " + row)
        print("the band tracks the switching curve: these are the mixed-action "
              "blocks where min(Q_sense, Q_comm) loses submodularity")
        q = check_q_submodular(q_grids(V, params))
        print(f"Q grids: {len(q.violations)} blocks with a positive "
              f"cross-difference ({q.region})")


if __name__ == "__main__":
    main()
