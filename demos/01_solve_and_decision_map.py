"""Solve the reference instance and inspect the optimal decision map.

Solves the 31x31 age grid (lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1,
gamma=0.95) with ``solve``, as the CLI does: Bellman sweeps that switch to
policy iteration once the greedy policy settles. Then prints the solve
report, the switching thresholds tau(alpha_b), and an S/C glyph map of the
optimal policy. The sense region is a staircase: sensing is optimal while
the source age is small, and the staircase moves right as the base-station
age grows.
"""

import numpy as np

from aoi_isac import default_model_params, extract_thresholds, gridio, solve


def main():
    params = default_model_params()
    print(f"solving: {params}")
    V, policy, report = solve(params, tol=1e-9)
    print(f"converged in {report.iterations} sweeps and "
          f"{len(report.policy_changes)} policy evaluations "
          f"(final sweep change {report.final_sweep_delta:.2e}, "
          f"suboptimality bound {report.suboptimality_bound:.2e}, "
          f"{report.wall_time * 1e3:.1f} ms)")
    print(f"value range: V(0,0)={V[0, 0]:.3f} .. V(30,30)={V[-1, -1]:.3f}")

    tau, ok = extract_thresholds(policy)
    print(f"\nswitching thresholds tau(alpha_b), single-crossing={ok}:")
    print("  alpha_b:", " ".join(f"{j:3d}" for j in range(len(tau))))
    print("  tau:    ", " ".join(f"{t:3d}" for t in tau))
    print("  (tau = -1: comm everywhere in that row; tau = 30: sense everywhere)")

    print("\ndecision map (rows alpha_s top-to-bottom, cols alpha_b):")
    print(gridio.decision_map_text(policy))

    steeper = np.diff(V, axis=0).mean() / np.diff(V, axis=1).mean()
    print(f"value surface grows {steeper:.1f}x faster along alpha_s than "
          f"along alpha_b (the stage cost charges the source age directly)")


if __name__ == "__main__":
    main()
