"""References the tests compare the package against: the scalar model
(``transition``, ``stage_cost``, ``success_prob`` and ``q_value``), the
dense linear systems built from it state by state, policy iteration from a
cold start, exhaustive policy enumeration and a scalar Monte Carlo
trajectory."""

from __future__ import annotations

import itertools
from enum import IntEnum

import numpy as np

from aoi_isac.model import Action, ModelParams, State
from aoi_isac.sim import AlternatingPolicy, RandomCommPolicy
from aoi_isac.solver import _improve, extract_policy


class Outcome(IntEnum):
    FAIL = 0
    SUCCESS = 1


def _check_state(state: State, params: ModelParams) -> None:
    a_s, a_b = state
    if not (0 <= a_s <= params.a_max and 0 <= a_b <= params.a_max):
        raise ValueError(f"state {state!r} outside the grid [0, {params.a_max}]^2")


def transition(state: State, action: Action | int, outcome: Outcome | int,
               params: ModelParams) -> State:
    """Deterministic successor of (state, action, outcome), saturated at a_max."""
    _check_state(state, params)
    a_s, a_b = state
    if action == Action.SENSE:
        nxt_s, nxt_b = (a_s + 1, 1) if outcome == Outcome.SUCCESS else (a_s + 1, a_b + 1)
    else:
        nxt_s, nxt_b = (a_b + 1, a_b + 1) if outcome == Outcome.SUCCESS else (a_s + 1, a_b + 1)
    cap = params.a_max
    return (min(nxt_s, cap), min(nxt_b, cap))


def success_prob(params: ModelParams, action: Action | int) -> float:
    """Success probability of the action's link: lambda_c or lambda_s."""
    return params.lambda_c if action == Action.COMM else params.lambda_s


def stage_cost(state: State, action: Action | int, params: ModelParams) -> float:
    """Per-slot cost: source age plus the activation cost of the action."""
    return state[0] + (params.c_c if action == Action.COMM else params.c_s)


def q_value(V: np.ndarray, state: State, action: Action | int,
            params: ModelParams) -> float:
    """Action value: stage cost plus the discounted two-point expectation of V."""
    V = np.asarray(V)
    p = success_prob(params, action)
    v_succ = V[transition(state, action, Outcome.SUCCESS, params)]
    v_fail = V[transition(state, action, Outcome.FAIL, params)]
    return stage_cost(state, action, params) + params.gamma * (p * v_succ + (1.0 - p) * v_fail)


def delta(V: np.ndarray, state: State, params: ModelParams) -> float:
    """Action difference Q_sense - Q_comm; sensing is preferred where it is <= 0."""
    return q_value(V, state, Action.SENSE, params) - q_value(V, state, Action.COMM, params)


def _linear_systems(policies: np.ndarray, params: ModelParams):
    """(I - gamma P, g) of a batch of policies, one flattened policy per row:
    A of shape (B, n_states, n_states) and g of shape (B, n_states), so that
    each policy's value solves A[k] v = g[k]. Row k of a policy's P and g is
    row k of P[a] and of cost[a] for the action a it plays there, built
    state by state from ``transition``, ``stage_cost`` and ``success_prob``.
    """
    n = params.n_ages
    states = list(itertools.product(range(n), repeat=2))
    P = np.zeros((2, n * n, n * n))
    cost = np.zeros((2, n * n))
    for a, (k, state) in itertools.product(Action, enumerate(states)):
        p = success_prob(params, a)
        # the two successors coincide at saturation; both weights land
        for outcome, weight in ((Outcome.SUCCESS, p), (Outcome.FAIL, 1.0 - p)):
            a_s, a_b = transition(state, a, outcome, params)
            P[a, k, a_s * n + a_b] += weight
        cost[a, k] = stage_cost(state, a, params)
    policies, rows = np.asarray(policies, dtype=np.intp), np.arange(n * n)
    return np.eye(n * n) - params.gamma * P[policies, rows], cost[policies, rows]


def policy_iteration(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Policy iteration from the greedy policy of V = 0: alternate exact
    evaluation (``evaluate_policy``) with greedy improvement (``_improve``'s
    rule) until the policy is stable; returns (V, policy). Raises
    RuntimeError after 1000 evaluations (``_improve``'s bound)."""
    policy = extract_policy(np.zeros(params.grid_shape), params)
    V, policy, _ = _improve(policy, params)
    return V, policy


def exhaustive_policy_oracle(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force ground truth for tiny grids: evaluate every stationary
    deterministic policy exactly and return the pointwise-minimal value grid
    with its argmin policy.

    Only admissible for (a_max+1)^2 <= 16 states (at most 65536 policies);
    each candidate is evaluated by a batched linear solve.
    """
    n_states = params.n_ages ** 2
    if n_states > 16:
        raise ValueError(
            f"exhaustive enumeration needs (a_max+1)^2 <= 16 states, got {n_states}")

    state_bit = np.arange(n_states, dtype=np.int64)

    v_min = np.full(n_states, np.inf)
    best_sum = np.inf
    best_bits = None
    best_v = None
    total, chunk = 1 << n_states, 4096  # a batch's systems take 8 MB
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        bits = (idx[:, None] >> state_bit[None, :]) & 1          # (B, n_states)
        A, g = _linear_systems(bits, params)
        v_all = np.linalg.solve(A, g[..., None])[..., 0]         # (B, n_states)

        v_min = np.minimum(v_min, v_all.min(axis=0))
        sums = v_all.sum(axis=1)
        k = int(np.argmin(sums))
        if sums[k] < best_sum:
            best_sum = sums[k]
            best_bits = bits[k]
            best_v = v_all[k]

    # a single policy attains the pointwise minimum; a gap here is a fault
    if not np.allclose(best_v, v_min, rtol=0.0, atol=1e-9):
        raise RuntimeError("no single policy attained the pointwise minimum")
    policy = best_bits.astype(np.int8).reshape(params.grid_shape)
    return v_min.reshape(params.grid_shape), policy


def scalar_trajectory(policy, params: ModelParams, s0: State, horizon: int,
                      seed: int, i: int):
    """Trajectory i of ``estimate_value(policy, params, s0, n, horizon,
    seed)`` for an int seed and any n > i, one slot at a time.

    The outcomes come from numpy's own generator,
    ``default_rng(SeedSequence(seed, spawn_key=(i, 0))).random(horizon)``,
    and a ``RandomCommPolicy`` draws its actions from the same with
    ``(i, 1)``. A slot succeeds when its uniform is below the action's
    success probability; the state follows the scalar ``transition`` and
    the cost adds ``gamma_pow * stage_cost``. policy is a 0/1 grid, an
    ``AlternatingPolicy`` or a ``RandomCommPolicy``. Returns (states,
    actions, outcomes, discounted cost).
    """
    def stream(which):
        ss = np.random.SeedSequence(seed, spawn_key=(i, which))
        return np.random.default_rng(ss).random(horizon)

    u_out = stream(0)
    u_act = stream(1) if isinstance(policy, RandomCommPolicy) else None
    state, cost, gamma_pow = tuple(s0), 0.0, 1.0
    states, actions, outcomes = [state], [], []
    for k in range(horizon):
        if isinstance(policy, np.ndarray):
            a = int(policy[state])
        elif isinstance(policy, AlternatingPolicy):
            a = k % 2
        else:
            a = int(u_act[k] < policy.p)
        o = int(u_out[k] < success_prob(params, a))
        cost += gamma_pow * stage_cost(state, a, params)
        gamma_pow *= params.gamma
        state = transition(state, a, o, params)
        states.append(state)
        actions.append(a)
        outcomes.append(o)
    return np.array(states), np.array(actions), np.array(outcomes), cost
