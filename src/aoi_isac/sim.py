"""Seeded Monte Carlo rollout of scheduling policies through the age dynamics.

Randomness discipline: one root seed. Trajectory i draws from the i-th
spawned child of the root SeedSequence, so changing the number of
trajectories (or running them in any order) never changes an individual
trajectory. Each child splits once more into an outcome stream and an action
stream; only randomised policies consume the action stream, so e.g. a
Bernoulli(0) policy reproduces the always-sense trajectories bit for bit.

Policies are either stationary grids (int array indexed [alpha_s, alpha_b])
or small per-slot objects for the stateful baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Action, ModelParams, State, dynamics

_OUTCOME_STREAM, _ACTION_STREAM = 0, 1


class AlternatingPolicy:
    """Sense on even slots, comm on odd slots, regardless of state."""

    uses_action_stream = False

    def actions(self, alpha_s, alpha_b, slot, u=None):
        return np.broadcast_to(np.int8(slot % 2), np.shape(alpha_s))


class RandomCommPolicy:
    """Comm with probability p each slot (drawn from the action stream),
    sense otherwise."""

    uses_action_stream = True

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p

    def actions(self, alpha_s, alpha_b, slot, u):
        return (u < self.p).astype(np.int8)


@dataclass
class Trajectory:
    states: np.ndarray        # (horizon+1, 2)
    actions: np.ndarray       # (horizon,)
    outcomes: np.ndarray      # (horizon,)
    discounted_cost: float
    horizon: int


@dataclass
class SimEstimate:
    mean: float
    std_error: float
    n_trajectories: int
    horizon: int
    truncation_bias_bound: float


def baseline_policy(kind: str, params: ModelParams, p: float | None = None):
    """Named comparison policies: 'always_sense' and 'always_comm' come back
    as stationary grids, 'alternate' and 'random_bernoulli' as per-slot
    policy objects ('random_bernoulli' needs p)."""
    if kind == "always_sense":
        return np.full(params.grid_shape, Action.SENSE, dtype=np.int8)
    if kind == "always_comm":
        return np.full(params.grid_shape, Action.COMM, dtype=np.int8)
    if kind == "alternate":
        return AlternatingPolicy()
    if kind == "random_bernoulli":
        if p is None:
            raise ValueError("random_bernoulli needs the comm probability p")
        return RandomCommPolicy(p)
    raise ValueError(f"unknown baseline policy {kind!r}")


def truncation_bias_bound(params: ModelParams, horizon: int) -> float:
    """Tail bound on the cost ignored by a finite-horizon estimate of the
    infinite-horizon objective."""
    return params.gamma ** horizon * params.max_stage_cost / (1.0 - params.gamma)


def _streams(policy, seed, keys: list[tuple], horizon: int):
    """Outcome and action uniforms, one row per trajectory, for the
    trajectories seeded by the descendants of seed at the spawn-key suffixes
    in keys (``()`` is seed itself); the action rows only for policies that
    use them, else None.

    Each seed sequence is built from the root's entropy and spawn key. That
    equals a fresh ``spawn`` but never advances a caller's SeedSequence, so
    passing the same object again gives the same streams.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

    def stream(key, which):
        ss = np.random.SeedSequence(root.entropy, pool_size=root.pool_size,
                                    spawn_key=root.spawn_key + key + (which,))
        return np.random.default_rng(ss).random(horizon)

    u_out = np.empty((len(keys), horizon))
    u_act = (np.empty((len(keys), horizon))
             if getattr(policy, "uses_action_stream", False) else None)
    for i, key in enumerate(keys):
        u_out[i] = stream(key, _OUTCOME_STREAM)
        if u_act is not None:
            u_act[i] = stream(key, _ACTION_STREAM)
    return u_out, u_act


def _lockstep(policy, params: ModelParams, s0: State, u_out: np.ndarray,
              u_act: np.ndarray | None, record: bool):
    """Run len(u_out) trajectories from s0 in lockstep through the dynamics.

    u_out (and u_act, for policies that use it) hold one row of per-slot
    uniforms per trajectory. Returns the discounted costs and, when record
    is set, the (horizon+1, 2, n) states and (horizon, n) actions and
    outcomes; otherwise None in their place. Each trajectory's arithmetic
    depends only on its own row, so a trajectory run alone or in any batch
    comes out bit-identical.
    """
    n, horizon = u_out.shape
    grid = policy if isinstance(policy, np.ndarray) else None
    S = np.full(n, s0[0])
    B = np.full(n, s0[1])
    cost = np.zeros(n)
    gamma_pow = 1.0
    if record:
        states = np.empty((horizon + 1, 2, n), dtype=int)
        actions = np.empty((horizon, n), dtype=np.int8)
        outcomes = np.empty((horizon, n), dtype=np.int8)
        states[0] = S, B
    for k in range(horizon):
        if grid is not None:
            A = grid[S, B]
        else:
            A = policy.actions(S, B, k, None if u_act is None else u_act[:, k])
        comm = A == Action.COMM
        success = u_out[:, k] < np.where(comm, params.lambda_c, params.lambda_s)
        succ, fail, g = dynamics(S, B, params)
        cost += gamma_pow * np.where(comm, g[Action.COMM], g[Action.SENSE])
        gamma_pow *= params.gamma
        # per age: the chosen action's success successor, else the fail one
        S, B = (np.where(success, np.where(comm, c, s), f)
                for s, c, f in zip(succ[Action.SENSE], succ[Action.COMM], fail))
        if record:
            actions[k] = A
            outcomes[k] = success
            states[k + 1] = S, B
    return cost, (states, actions, outcomes) if record else None


def rollout(policy, params: ModelParams, s0: State, horizon: int,
            seed) -> Trajectory:
    """One trajectory of the age dynamics under a policy.

    Outcomes are Bernoulli in the chosen action's success probability, drawn
    from the stream derived from seed (an int, or a SeedSequence when the
    caller manages splitting). Identical inputs yield identical trajectories.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    a_s, a_b = s0
    if not (0 <= a_s <= params.a_max and 0 <= a_b <= params.a_max):
        raise ValueError(f"s0 {s0!r} outside the grid [0, {params.a_max}]^2")

    u_out, u_act = _streams(policy, seed, [()], horizon)
    cost, (states, actions, outcomes) = _lockstep(policy, params, s0, u_out,
                                                  u_act, record=True)
    return Trajectory(states[:, :, 0], actions[:, 0], outcomes[:, 0],
                      float(cost[0]), horizon)


def estimate_value(policy, params: ModelParams, s0: State, n: int,
                   horizon: int, seed) -> SimEstimate:
    """Mean discounted cost over n independent seeded trajectories, with its
    standard error and the horizon-truncation bias bound.

    Deterministic given (seed, n, horizon); the aggregation (numpy pairwise
    summation) is independent of any execution order.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    u_out, u_act = _streams(policy, seed, [(i,) for i in range(n)], horizon)
    costs, _ = _lockstep(policy, params, s0, u_out, u_act, record=False)
    if np.ptp(costs) == 0.0:
        std_error = 0.0  # identical samples: exactly zero spread
    else:
        std_error = float(np.std(costs, ddof=1) / math.sqrt(n))
    return SimEstimate(
        mean=float(np.mean(costs)),
        std_error=std_error,
        n_trajectories=n,
        horizon=horizon,
        truncation_bias_bound=truncation_bias_bound(params, horizon),
    )


def trajectory_csv_lines(traj: Trajectory, params: ModelParams) -> list[str]:
    """Per-slot CSV rows (k, alpha_s, alpha_b, action, outcome, stage_cost);
    the terminal state is recoverable from the last row via the dynamics."""
    lines = ["k,alpha_s,alpha_b,action,outcome,stage_cost"]
    for k in range(traj.horizon):
        a_s, a_b = traj.states[k]
        act = int(traj.actions[k])
        g = a_s + params.activation_cost(act)
        lines.append(f"{k},{a_s},{a_b},{act},{int(traj.outcomes[k])},{g:.17g}")
    return lines
