"""Dynamic-programming solvers for the two-age scheduling MDP.

Value iteration is the workhorse; policy iteration and exhaustive policy
enumeration (tiny grids only) serve as independent cross-checks. Policy
evaluation is exact at every grid size: ``evaluate_policy`` solves for the
values of the at most 2 a_max - 1 anchor states that a success can reach,
while the oracle solves the dense (I - gamma P) v = g. Every loop has a
bound. All grids are dense float64 arrays indexed [alpha_s, alpha_b],
policies are int arrays with 0 = sense, 1 = comm.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import Action, ModelParams, delta_grid, dynamics, q_grids


@dataclass
class SolveReport:
    """What value iteration did. ``sweep_deltas`` is the sup-norm change of
    every sweep, so its last entry is ``final_sweep_delta``, and
    ``contraction_ratio`` is the last sweep's change over the one before it
    (NaN after a single sweep): the observed contraction, at most gamma up
    to rounding. Neither enters the CLI artifacts."""

    iterations: int
    final_sweep_delta: float
    suboptimality_bound: float
    converged: bool
    wall_time: float
    sweep_deltas: list[float]
    contraction_ratio: float


def bellman_backup(V: np.ndarray, params: ModelParams,
                   out: np.ndarray | tuple[np.ndarray, np.ndarray] | None = None
                   ) -> np.ndarray:
    """One synchronous backup: pointwise min of the two action-value grids.

    The input grid is read only. ``out`` is passed to ``q_grids``; the
    result lands in its first grid (q_sense), which is returned, and the
    second is left holding q_comm.
    """
    Q = q_grids(V, params, out=out)
    return np.minimum(Q[0], Q[1], out=Q[0])


def extract_policy(V: np.ndarray, params: ModelParams) -> np.ndarray:
    """Greedy policy for V: sense where Q_sense - Q_comm <= 0, comm elsewhere.

    Ties go to sense, which keeps oracle comparisons reproducible.
    """
    return (delta_grid(V, params) > 0.0).astype(np.int8)


def value_iteration(params: ModelParams, tol: float = 1e-9,
                    max_iter: int = 100_000) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Iterate synchronous backups from V = 0 until the sup-norm sweep change
    drops to tol.

    Returns (V, greedy policy, report). On a tolerance-based exit the
    standard contraction argument bounds the remaining error by
    gamma * tol / (1 - gamma), which the report carries as
    ``suboptimality_bound`` (computed from the final sweep change). If
    max_iter is exhausted first the report has ``converged = False`` and the
    partial grids are still returned; the caller decides whether to accept
    them.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    start = time.perf_counter()
    # three grids for the whole run, in one block: V and the stacked pair
    # that the backup fills. The backup W lands in the pair's first grid and
    # becomes V; the second takes q_comm and then |W - V|. So V moves from
    # block[0] to block[1] to block[2] and back, and the pair is the other
    # two grids, W's first
    block = np.zeros((3,) + params.grid_shape)
    rotation = (block[1:3], block[2::-2], block[0:2])
    V = block[0]
    sweep_deltas = []
    iterations = 0
    converged = False
    while iterations < max_iter:
        Q = rotation[iterations % 3]
        iterations += 1
        W = bellman_backup(V, params, out=Q)
        scratch = np.subtract(W, V, out=Q[1])
        sweep_delta = float(np.abs(scratch, out=scratch).max())
        sweep_deltas.append(sweep_delta)
        V = W
        if sweep_delta <= tol:
            converged = True
            break

    # keep V alone: move it to block[0] and shrink the block to that grid
    # in place, so the caller holds one grid and extract_policy's two fit
    # in the memory the sweeps used
    if iterations % 3:
        block[0] = V
    del V, W, Q, scratch, rotation
    block.resize(params.grid_shape)
    V = block
    bound = params.gamma * sweep_delta / (1.0 - params.gamma)
    report = SolveReport(
        iterations=iterations,
        final_sweep_delta=sweep_delta,
        suboptimality_bound=bound,
        converged=converged,
        wall_time=time.perf_counter() - start,
        sweep_deltas=sweep_deltas,
        contraction_ratio=(sweep_delta / sweep_deltas[-2] if iterations > 1
                           else math.nan),
    )
    return V, extract_policy(V, params), report


def extract_thresholds(policy: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-row switching thresholds of a policy grid.

    For each base-station age alpha_b, tau[alpha_b] is the largest source
    age still played as sense (-1 when the whole row is comm, a_max when the
    whole row is sense). The returned flag is True when every row is a sense
    block followed by a comm block; any comm-to-sense flip while alpha_s
    ascends clears it, and that row's tau is still the last sense index.
    """
    policy = np.asarray(policy)
    tau = np.empty(policy.shape[1], dtype=int)
    single_crossing_ok = True
    for j in range(policy.shape[1]):
        sense_idx = np.flatnonzero(policy[:, j] == Action.SENSE)
        tau[j] = sense_idx[-1] if sense_idx.size else -1
        if sense_idx.size != tau[j] + 1:
            single_crossing_ok = False
    return tau, single_crossing_ok


def _policy_tables(policies: np.ndarray, params: ModelParams):
    """(p, g, succ, fail) of flattened policies (states last): each state's
    success probability, stage cost and success successor, shaped like
    policies, and the action-independent fail successor, as flat indices.

    p and g are float even for integer inputs, so callers may scale them in
    place. The tables are built from age vectors and broadcast, so only the
    outputs are grid-sized.
    """
    n = params.n_ages
    ages = np.arange(n)
    succ, fail, cost = dynamics(ages[:, None], ages[None, :], params)
    succ_sense, succ_comm = (s * n + b for s, b in succ)

    shape = np.shape(policies)
    comm = (np.asarray(policies) == Action.COMM).reshape(-1, n, n)
    p = np.where(comm, float(params.lambda_c), float(params.lambda_s))
    succ_idx = np.where(comm, succ_comm, succ_sense)
    g = np.where(comm, cost[Action.COMM], cost[Action.SENSE])
    g = g.astype(float, copy=False)
    return (p.reshape(shape), g.reshape(shape), succ_idx.reshape(shape),
            (fail[0] * n + fail[1]).ravel())


def _linear_systems(policies: np.ndarray, params: ModelParams):
    """(I - gamma P, g) of a batch of policies, one flattened policy per row.

    policies has shape (B, n_states); returns A of shape (B, n_states,
    n_states) and g of shape (B, n_states), so that each policy's value is
    the solution of A[k] v = g[k]: the dense reference of the exhaustive
    oracle and the tests.
    """
    p, g, succ_idx, fail_idx = _policy_tables(policies, params)
    batch, n_states = p.shape
    states = np.arange(n_states)
    b_idx = np.arange(batch)[:, None]
    A = np.zeros((batch, n_states, n_states))
    A[:, states, states] = 1.0
    # success and fail successors can coincide at saturation; the two
    # subtractions are separate statements, so both land
    A[b_idx, states, succ_idx] -= params.gamma * p
    A[b_idx, states, fail_idx] -= params.gamma * (1.0 - p)
    return A, g


# Fail-chain weights prod gamma (1 - p) below this are zeroed. Each anchor's
# chain starts at weight 1, so a dropped term of u (weight * stage cost) or
# of W (weight * gamma p) is under 1e-200 of a weight-1 term of the same
# kind; summed over at most a_max + 1 steps that is far below double
# resolution (1.1e-16) unless the stage costs span some 180 orders of
# magnitude. Left in, the weights decay into subnormals, and LU on them runs
# several times slower (1,999 anchors: 0.64 s against 0.20 s).
_NEGLIGIBLE_WEIGHT = 1e-200


def evaluate_policy(policy: np.ndarray, params: ModelParams) -> np.ndarray:
    """Value grid of a fixed stationary policy, exact at every grid size.

    Success successors, the anchors, lie on the column (k, 1) and the
    diagonal (k, k): at most 2 a_max - 1 states. Fail chains step both ages
    and end within a_max steps at the corner (a_max, a_max), whose fail
    self-loop is folded in closed form. Walking the anchors' fail chains in
    lockstep gives (I - W) y = u for the anchor values y; the grid is then
    V = g + gamma p y[anchor] + gamma (1 - p) V[fail], summed along the
    fail chains by pointer doubling.
    """
    policy = np.asarray(policy)
    if policy.shape != params.grid_shape:
        raise ValueError(f"policy shape {policy.shape} != {params.grid_shape}")
    p, g, succ_idx, fail = _policy_tables(policy.ravel(), params)
    q = params.gamma * (1.0 - p)
    gp = np.multiply(params.gamma, p, out=p)  # p is not needed again
    corner = fail.size - 1
    scale = 1.0 / (1.0 - q[corner])
    g[corner] *= scale
    gp[corner] *= scale
    q[corner] = 0.0

    anchors = np.flatnonzero(np.bincount(succ_idx, minlength=fail.size))
    slot = np.searchsorted(anchors, succ_idx)  # each state's anchor
    del succ_idx  # grid-sized arrays are 32 MB each at a_max = 2000
    rows = np.arange(anchors.size)
    u = np.zeros(anchors.size)
    W = np.zeros((anchors.size, anchors.size))
    at, weight = anchors, np.ones(anchors.size)
    for _ in range(params.a_max + 1):  # the corner ends every chain by then
        u += weight * g[at]
        W[rows, slot[at]] += weight * gp[at]
        weight = weight * q[at]
        weight[weight < _NEGLIGIBLE_WEIGHT] = 0.0
        at = fail[at]
    W *= -1.0  # I - W in place: the solve's own copy is the only other matrix
    W[rows, rows] += 1.0
    y = np.linalg.solve(W, u)

    V = gp * y[slot]
    V += g
    del W, slot
    for _ in range(params.a_max.bit_length()):  # 2^rounds > a_max chain steps
        V += q * V[fail]
        q *= q[fail]
        fail = fail[fail]
    return V.reshape(params.grid_shape)


def policy_iteration(params: ModelParams,
                     max_sweeps: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """Alternate exact policy evaluation (``evaluate_policy``) with greedy
    improvement (ties to sense) until the policy is stable; returns
    (V, policy).

    A finite MDP with a fixed tie rule must stabilise, so exceeding
    max_sweeps signals an implementation fault and raises.
    """
    policy = extract_policy(np.zeros(params.grid_shape), params)
    for _ in range(max_sweeps):
        V = evaluate_policy(policy, params)
        improved = extract_policy(V, params)
        if np.array_equal(improved, policy):
            return V, policy
        policy = improved
    raise RuntimeError(f"policy iteration did not stabilise within {max_sweeps} sweeps")


def exhaustive_policy_oracle(params: ModelParams,
                             chunk: int = 4096) -> tuple[np.ndarray, np.ndarray]:
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
    total = 1 << n_states
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
