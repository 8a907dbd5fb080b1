"""Age-of-information scheduling for an integrated sensing/communication link.

A base station either senses a remote source or communicates its latest
estimate back; both links are Bernoulli and each activation has a cost. The
package solves the resulting discounted two-age MDP, certifies the monotone
threshold structure of the optimal policy numerically, and estimates policy
values by seeded Monte Carlo simulation. The independent oracles that the
solution is validated against are in tests/reference.py.
"""

from .config import RunConfig, build_config, default_model_params
from .model import Action, ModelParams, delta_grid, q_grids, stage_cost
from .sim import (AlternatingPolicy, RandomCommPolicy, SimEstimate, Trajectory,
                  baseline_policy, estimate_value, rollout,
                  truncation_bias_bound)
from .solver import (SolveReport, bellman_backup, evaluate_policy,
                     extract_policy, extract_thresholds, solve,
                     value_iteration)
from .structure import (StructureReport, check_delta_monotone, check_monotone,
                        check_q_submodular, check_single_crossing,
                        check_submodular, check_threshold_monotone,
                        run_all_checks)

__version__ = "0.1.0"

__all__ = [
    "Action", "AlternatingPolicy", "ModelParams", "RandomCommPolicy",
    "RunConfig", "SimEstimate", "SolveReport", "StructureReport", "Trajectory",
    "baseline_policy", "bellman_backup", "build_config", "check_delta_monotone",
    "check_monotone", "check_q_submodular", "check_single_crossing",
    "check_submodular", "check_threshold_monotone", "default_model_params",
    "delta_grid", "estimate_value", "evaluate_policy", "extract_policy",
    "extract_thresholds", "q_grids", "rollout", "run_all_checks", "solve",
    "stage_cost", "truncation_bias_bound", "value_iteration",
]
