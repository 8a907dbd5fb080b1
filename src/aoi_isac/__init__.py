"""Age-of-information scheduling for an integrated sensing/communication link.

A base station either senses a remote source or communicates its latest
estimate back; both links are Bernoulli and each activation has a cost. The
package solves the resulting discounted two-age MDP, certifies the monotone
threshold structure of the optimal policy numerically, and validates the
solution against independent oracles and seeded Monte Carlo simulation.
"""

from .config import RunConfig, build_config, default_model_params
from .model import (Action, ModelParams, Outcome, delta, delta_grid, q_grids,
                    q_value, stage_cost, transition)
from .sim import (AlternatingPolicy, RandomCommPolicy, SimEstimate, Trajectory,
                  baseline_policy, estimate_value, rollout,
                  truncation_bias_bound)
from .solver import (SolveReport, bellman_backup, evaluate_policy,
                     exhaustive_policy_oracle, extract_policy,
                     extract_thresholds, policy_iteration, solve,
                     value_iteration)
from .structure import (StructureReport, check_delta_monotone, check_monotone,
                        check_q_submodular, check_single_crossing,
                        check_submodular, check_threshold_monotone,
                        run_all_checks)

__version__ = "0.1.0"

__all__ = [
    "Action", "AlternatingPolicy", "ModelParams", "Outcome", "RandomCommPolicy",
    "RunConfig", "SimEstimate", "SolveReport", "StructureReport", "Trajectory",
    "baseline_policy", "bellman_backup", "build_config", "check_delta_monotone",
    "check_monotone", "check_q_submodular", "check_single_crossing",
    "check_submodular", "check_threshold_monotone", "default_model_params",
    "delta", "delta_grid", "estimate_value", "evaluate_policy",
    "exhaustive_policy_oracle", "extract_policy", "extract_thresholds",
    "policy_iteration", "q_grids", "q_value", "rollout", "run_all_checks",
    "solve", "stage_cost", "transition", "truncation_bias_bound", "value_iteration",
]
