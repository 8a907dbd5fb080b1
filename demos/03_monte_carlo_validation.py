"""Validate the solved value function by simulation and compare baselines.

Rolls the optimal policy through 10^4 seeded 400-slot trajectories from
s0 = (1,1) and checks the sample mean against V*(1,1) (the gap must sit
inside three standard errors plus the horizon-truncation bound). Then plays
the naive baselines with the same seeds: never updating the source
(always-sense) or never refreshing the base station (always-comm) is
dramatically worse; blind alternation and coin-flipping land in between.
"""

from aoi_isac import baseline_policy, default_model_params, estimate_value, solve

N, HORIZON, SEED, S0 = 10_000, 400, 42, (1, 1)


def main():
    params = default_model_params()
    V, policy, _ = solve(params, tol=1e-9)
    v_star = float(V[S0])

    est = estimate_value(policy, params, S0, n=N, horizon=HORIZON, seed=SEED)
    budget = 3 * est.std_error + est.truncation_bias_bound
    print(f"V*{S0} = {v_star:.4f}")
    print(f"Monte Carlo mean over {N} trajectories: {est.mean:.4f} "
          f"+/- {est.std_error:.4f}")
    print(f"|mean - V*| = {abs(est.mean - v_star):.4f} "
          f"(budget {budget:.4f}, truncation bound {est.truncation_bias_bound:.2e})")

    print(f"\n{'policy':22s} {'mean cost':>10s} {'std err':>9s} {'vs optimal':>11s}")
    print(f"{'optimal':22s} {est.mean:10.3f} {est.std_error:9.4f} {'-':>11s}")
    for kind, p in (("always_sense", None), ("always_comm", None),
                    ("alternate", None), ("random_bernoulli", 0.5)):
        base = baseline_policy(kind, params, p=p)
        b = estimate_value(base, params, S0, n=N, horizon=HORIZON, seed=SEED)
        label = kind if p is None else f"{kind}(p={p})"
        print(f"{label:22s} {b.mean:10.3f} {b.std_error:9.4f} "
              f"{b.mean - est.mean:+10.3f}")


if __name__ == "__main__":
    main()
