"""Sweep system parameters and watch the switching curve respond.

Re-solves the reference instance along one parameter axis at a time and
prints the threshold curve per value. Cheaper communication pulls the
staircase left (communicate sooner); a larger discount factor and a weaker
sensing link reshape it while keeping it a nondecreasing staircase — the
threshold structure is robust across the whole sweep.
"""

from dataclasses import replace

from aoi_isac import (check_threshold_monotone, default_model_params,
                      extract_thresholds, solve)

SWEEPS = [("c_c", (0.05, 0.1, 0.2, 0.4)),
          ("gamma", (0.5, 0.9, 0.95)),
          ("lambda_s", (0.3, 0.6, 0.8))]


def main():
    base = default_model_params()
    for axis, values in SWEEPS:
        print(f"sweep {axis}:")
        for value in values:
            params = replace(base, **{axis: value})
            V, policy, report = solve(params, tol=1e-9)
            tau, sc_ok = extract_thresholds(policy)
            monotone = check_threshold_monotone(tau).passed
            verdict = "staircase ok" if (sc_ok and monotone) else "STRUCTURE BROKEN"
            head = " ".join(f"{t:3d}" for t in tau[:16])
            print(f"  {axis}={value:<5}  iters={report.iterations:4d}  "
                  f"{verdict}  tau[0:16]= {head} ...")
        print()


if __name__ == "__main__":
    main()
