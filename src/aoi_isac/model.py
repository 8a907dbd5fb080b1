"""MDP primitives for two-age sensing/communication scheduling.

The state is the pair (alpha_s, alpha_b): age of information at the source
and at the base station, on the truncated grid {0..a_max}^2. Each slot the
controller either senses (the base station refreshes on success) or
communicates (the source catches up to the base station on success); both
links are Bernoulli. Ages advance by one slot regardless of the outcome,
saturating at a_max:

    action  outcome  next state
    sense   success  (alpha_s + 1, 1)
    sense   fail     (alpha_s + 1, alpha_b + 1)
    comm    success  (alpha_b + 1, alpha_b + 1)
    comm    fail     (alpha_s + 1, alpha_b + 1)

The stage cost is alpha_s plus the activation cost of the chosen action,
and the objective is the expected discounted sum of stage costs.

A policy grid holds one action per state, 0 (sense) or 1 (comm), in any
dtype. ``comm_mask`` is the one rule that reads it: policy evaluation, the
simulator and the structure checks all take their comm cells from it, so
every reader of a policy grid rejects a cell that is not an action.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

State = tuple[int, int]

# 4,004,001 states. Peak RSS above the interpreter (ru_maxrss) at this size:
# value iteration, 5 sweeps, 96.2 MB: V and the stacked pair during the
# sweeps, then V and extract_policy's two grids in the same room.
# solver.evaluate_policy 176 MB on the optimal policy (gamma=0.95, 3,226
# anchors; 175 MB at gamma=0.999, 3,199) and 221 MB on a random policy that
# reaches all 3,999 anchors: its three grid-sized tables (92 MB) and its
# anchor matrix (79 and 122 MB), of which the bordered anchor solve that
# all three take makes no copy.
# solver.solve 181 MB (gamma=0.95: 15 sweeps, one evaluation; gamma=0.999:
# 179 MB, 16 sweeps, one evaluation): the evaluation's peak plus the int8
# policy, because the sweep grids are freed before it
MAX_A_MAX = 2000
# The largest value_upper_bound accepted. Every discounted cost, and so
# every value, lies in [0, bound] up to rounding. The widest sum taken of
# them is the Monte Carlo's spread: up to n <= 10^8 (config.MAX_SIM_DRAWS)
# squared deviations, each at most about bound^2, so the sum stays near
# 10^8 * 10^300 = 10^308, below the largest double, 1.8e308; the solver's
# sums and the PGM's range max - min are smaller. Above it, a solve or a
# simulation would write nan or inf.
MAX_VALUE_BOUND = 1e150


class Action(IntEnum):
    SENSE = 0
    COMM = 1


@dataclass(frozen=True)
class ModelParams:
    """Scalar problem constants.

    lambda_s / lambda_c are the sensing / communication success
    probabilities, c_s / c_c the per-activation costs, gamma the discount
    factor and a_max the saturation age. gamma = 0 is admitted for
    degenerate (myopic) instances.
    """

    lambda_s: float
    lambda_c: float
    c_s: float
    c_c: float
    gamma: float
    a_max: int

    def __post_init__(self):
        if not 0.0 <= self.lambda_s <= 1.0:
            raise ValueError(f"lambda_s must be in [0, 1], got {self.lambda_s}")
        if not 0.0 <= self.lambda_c <= 1.0:
            raise ValueError(f"lambda_c must be in [0, 1], got {self.lambda_c}")
        if not 0.0 <= self.c_s < math.inf:
            raise ValueError(f"c_s must be finite and >= 0, got {self.c_s}")
        if not 0.0 <= self.c_c < math.inf:
            raise ValueError(f"c_c must be finite and >= 0, got {self.c_c}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        try:
            integral = int(self.a_max) == self.a_max
        except (OverflowError, ValueError):  # inf, nan
            integral = False
        if not integral or not 2 <= self.a_max <= MAX_A_MAX:
            raise ValueError(f"a_max must be an integer in [2, {MAX_A_MAX}], "
                             f"got {self.a_max}")
        # an integral 5.0 or np.int64(5) is stored as int: the grid
        # functions need one (shapes, ranges)
        object.__setattr__(self, "a_max", int(self.a_max))
        if not self.value_upper_bound <= MAX_VALUE_BOUND:
            raise ValueError(
                f"c_s={self.c_s}, c_c={self.c_c}, gamma={self.gamma} and "
                f"a_max={self.a_max} bound the value by (a_max + max(c_s, "
                f"c_c)) / (1 - gamma) = {self.value_upper_bound:.6g}; it must "
                f"be at most {MAX_VALUE_BOUND:g}")

    @property
    def lambda_ordering_ok(self) -> bool:
        """True when lambda_c >= lambda_s.

        The threshold-structure guarantees are only established under this
        ordering; construction is permitted either way, and verification
        reports surface the flag.
        """
        return self.lambda_c >= self.lambda_s

    @property
    def n_ages(self) -> int:
        return self.a_max + 1

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.a_max + 1, self.a_max + 1)

    @property
    def max_stage_cost(self) -> float:
        return self.a_max + max(self.c_s, self.c_c)

    @property
    def value_upper_bound(self) -> float:
        """Discounted sum of the maximal stage cost; bounds any value grid."""
        return self.max_stage_cost / (1.0 - self.gamma)


def comm_mask(policy) -> np.ndarray:
    """The comm cells of a policy grid, as a bool grid: True where it plays 1
    (comm), False where it plays 0 (sense), whatever its dtype; a bool grid,
    which holds only actions, is returned as it is. Every reader of a policy
    grid takes its actions from here, so each rejects a cell that is not an
    action: ValueError naming the first such cell (alpha_s, alpha_b) and
    its value."""
    policy = np.asarray(policy)
    if policy.dtype == bool:
        return policy
    comm = policy == Action.COMM
    bad = (policy != Action.SENSE) != comm  # neither sense nor comm
    if bad.any():
        alpha_s, alpha_b = map(int, np.unravel_index(bad.argmax(), bad.shape))
        raise ValueError(f"policy cell (alpha_s, alpha_b) = ({alpha_s}, {alpha_b}) "
                         f"is {policy[alpha_s, alpha_b]}, not 0 (sense) or 1 (comm)")
    return comm


def check_policy_grid(policy, params: ModelParams) -> np.ndarray:
    """``comm_mask`` of a policy grid, which must have the model's grid
    shape, else ValueError."""
    if np.shape(policy) != params.grid_shape:
        raise ValueError(f"policy grid shape {np.shape(policy)} does not match "
                         f"model.a_max={params.a_max} {params.grid_shape}")
    return comm_mask(policy)


def dynamics(alpha_s, alpha_b, params: ModelParams):
    """The transition table and the stage cost, vectorised.

    alpha_s and alpha_b are integer ages (or arrays of them) that broadcast
    together. Returns (succ, fail, cost): succ[a] is the successor state
    (alpha_s', alpha_b') after action a succeeds, fail the successor after
    either action fails, and cost[a] the stage cost of action a, with a
    indexing Action. Each component keeps the shape of the age array it is
    computed from. Entries agree with the scalar ``transition`` and
    ``stage_cost`` of tests/reference.py.
    """
    up_s = np.minimum(np.add(alpha_s, 1), params.a_max)
    up_b = np.minimum(np.add(alpha_b, 1), params.a_max)
    succ = ((up_s, 1), (up_b, up_b))
    cost = (np.add(alpha_s, params.c_s), np.add(alpha_s, params.c_c))
    return succ, (up_s, up_b), cost


@functools.lru_cache(maxsize=64)
def _backup_tables(params: ModelParams):
    """(succ, p, fail_weight, cost) of ``q_grids``, built once per params.

    succ is (2, n): the flat index into V of each action's success
    successor, along alpha_s for sense and along alpha_b for comm. p and
    fail_weight are the (2, 1) columns p and 1 - p, and cost is the (2, n, 1)
    stage-cost column; index 0 is sense and 1 is comm. The arrays are shared
    by every caller, so they are read-only.
    """
    n = params.n_ages
    ages = np.arange(n)
    succ, _, cost = dynamics(ages, ages, params)
    tables = (np.array([s * n + b for s, b in succ]),
              np.array([[params.lambda_s], [params.lambda_c]], dtype=float),
              np.array([[1.0 - params.lambda_s], [1.0 - params.lambda_c]],
                       dtype=float),
              np.stack(cost)[:, :, None])
    for t in tables:
        t.flags.writeable = False
    return tables


def q_grids(V: np.ndarray, params: ModelParams,
            out: np.ndarray | None = None) -> np.ndarray:
    """Both action-value grids over the full state grid, vectorised.

    Returns Q of shape (2, n, n), Q[0] = q_sense and Q[1] = q_comm, which
    unpacks as the pair; entries agree with tests/reference.py's ``q_value``
    at every state, including saturated boundary states. The success
    successors and costs come from ``dynamics`` once per params: the costs
    and the sense success term depend on alpha_s alone and the comm success
    term on alpha_b alone, so they are gathered as columns and a row. The
    fail successor is read as a shifted view of V, so no grid-sized index or
    temporary array is built, and each step runs once for both actions.

    ``out`` optionally receives the result, which is then returned: a
    C-contiguous float64 array of shape (2, n, n) that does not overlap V.
    """
    V = np.asarray(V, dtype=float)
    if V.shape != params.grid_shape:
        raise ValueError(f"value grid shape {V.shape} != {params.grid_shape}")
    n = params.n_ages
    if out is None:
        out = np.empty((2, n, n))
    elif not (isinstance(out, np.ndarray) and out.shape == (2, n, n)
              and out.dtype == np.float64 and out.flags.c_contiguous):
        got = (f"{out.dtype} {out.shape} strides {out.strides}"
               if isinstance(out, np.ndarray) else type(out).__name__)
        raise ValueError(f"out must be a C-contiguous float64 array of shape "
                         f"{(2, n, n)}, got {got}")
    elif np.may_share_memory(out, V):
        raise ValueError("out must not overlap V")
    Q = out
    succ, p, fail_weight, cost = _backup_tables(params)
    # cost + gamma * (p * V[succ] + (1 - p) * V[fail]), operand for operand.
    # Row-major, the fail successor (i + 1, j + 1) lies n + 1 cells after
    # (i, j); the last row and column saturate, so they repeat their
    # neighbours (which also overwrites the wrapped cells)
    flat = V.reshape(-1)
    np.multiply(fail_weight, flat[n + 1:], out=Q.reshape(2, -1)[:, :-n - 1])
    Q[:, -1, :-1] = Q[:, -2, :-1]
    Q[:, :, -1] = Q[:, :, -2]
    v_succ = flat.take(succ)
    v_succ *= p
    Q[0] += v_succ[0, :, None]  # a column for sense
    Q[1] += v_succ[1]  # a row for comm
    Q *= params.gamma
    Q += cost
    return Q


def delta_grid(V: np.ndarray, params: ModelParams) -> np.ndarray:
    """Q_sense - Q_comm over the full grid.

    The difference overwrites q_sense, so the call holds two grids beside V.
    """
    Q = q_grids(V, params)
    return np.subtract(Q[0], Q[1], out=Q[0])
