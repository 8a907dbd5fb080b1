"""References the tests compare the package against: the scalar model, the
dense linear systems built from it state by state, policy iteration from a
cold start and exhaustive policy enumeration."""

from __future__ import annotations

import itertools
from enum import IntEnum

import numpy as np

from aoi_isac.model import Action, ModelParams, State, stage_cost
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


def q_value(V: np.ndarray, state: State, action: Action | int,
            params: ModelParams) -> float:
    """Action value: stage cost plus the discounted two-point expectation of V."""
    V = np.asarray(V)
    p = params.success_prob(action)
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
        p = params.success_prob(a)
        # the two successors coincide at saturation; both weights land
        for outcome, weight in ((Outcome.SUCCESS, p), (Outcome.FAIL, 1.0 - p)):
            a_s, a_b = transition(state, a, outcome, params)
            P[a, k, a_s * n + a_b] += weight
        cost[a, k] = stage_cost(state, a, params)
    policies, rows = np.asarray(policies, dtype=np.intp), np.arange(n * n)
    return np.eye(n * n) - params.gamma * P[policies, rows], cost[policies, rows]


def policy_iteration(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Policy iteration from the greedy policy of V = 0: alternate exact
    evaluation (``evaluate_policy``) with greedy improvement (ties to sense)
    until the policy is stable; returns (V, policy). Raises RuntimeError
    after 1000 evaluations (``_improve``'s bound)."""
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
