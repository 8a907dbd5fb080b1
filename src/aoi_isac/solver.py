"""Dynamic-programming solvers for the two-age scheduling MDP.

``solve`` is the workhorse: value-iteration sweeps until the greedy policy
settles, then policy iteration from that policy, then sweeps again until the
sweep change meets the tolerance. Plain value iteration is the reference it
is tested against; tests/reference.py holds the cold-start policy iteration
and exhaustive enumeration (tiny grids) that cross-check it. Policy
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

from .model import Action, ModelParams, _backup_tables, delta_grid, q_grids


@dataclass
class SolveReport:
    """What a solve did. ``iterations`` counts every Bellman sweep and
    ``sweep_deltas`` holds the sup-norm change of each, so its last entry is
    ``final_sweep_delta``. ``contraction_ratio`` is the last sweep's change
    over the one before it (NaN after a single sweep): in plain value
    iteration the observed contraction, at most gamma up to rounding. When
    the last sweep follows a jump to an exact policy value, the ratio is that
    sweep's change over the last warm-up sweep's, far below gamma: it
    measures the jump, not the contraction. ``policy_changes`` has one entry
    per exact policy evaluation, the number of states the greedy improvement
    after it changed (so the last is 0); it is empty when no jump happened.
    None of the last three enters the CLI artifacts."""

    iterations: int
    final_sweep_delta: float
    suboptimality_bound: float
    converged: bool
    wall_time: float
    sweep_deltas: list[float]
    contraction_ratio: float
    policy_changes: list[int]


def bellman_backup(V: np.ndarray, params: ModelParams,
                   out: np.ndarray | None = None,
                   greedy: np.ndarray | None = None) -> np.ndarray:
    """One synchronous backup: pointwise min of the two action-value grids.

    The input grid is read only. ``out`` is passed to ``q_grids``; the
    result lands in out[0] (q_sense), which is returned, and out[1] is left
    holding q_comm. ``greedy``, a bool grid, optionally receives V's greedy
    policy on the way: True (comm) where Q_sense > Q_comm, so ties go to
    sense as in ``extract_policy``.
    """
    Q = q_grids(V, params, out=out)
    if greedy is not None:
        np.greater(Q[0], Q[1], out=greedy)
    return np.minimum(Q[0], Q[1], out=Q[0])


def extract_policy(V: np.ndarray, params: ModelParams) -> np.ndarray:
    """Greedy policy for V: sense where Q_sense - Q_comm <= 0, comm elsewhere.

    Ties go to sense, which keeps oracle comparisons reproducible.
    """
    return (delta_grid(V, params) > 0.0).astype(np.int8)


def _check_budget(tol: float, max_iter: int) -> None:
    if not 0.0 < tol < math.inf:  # NaN too
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def _sweep(V: np.ndarray, params: ModelParams, Q: np.ndarray,
           greedy: np.ndarray | None = None) -> float:
    """One Bellman sweep in place: V becomes TV, with the stacked pair Q as
    scratch; returns the sup-norm change. ``greedy`` is passed to
    ``bellman_backup``."""
    W = bellman_backup(V, params, out=Q, greedy=greedy)
    change = np.subtract(W, V, out=Q[1])
    V[...] = W
    return float(np.abs(change, out=change).max())


def _report(params: ModelParams, start: float, sweep_deltas: list[float],
            tol: float, policy_changes: list[int]) -> SolveReport:
    sweep_delta = sweep_deltas[-1]
    return SolveReport(
        iterations=len(sweep_deltas),
        final_sweep_delta=sweep_delta,
        suboptimality_bound=params.gamma * sweep_delta / (1.0 - params.gamma),
        converged=sweep_delta <= tol,
        wall_time=time.perf_counter() - start,
        sweep_deltas=sweep_deltas,
        contraction_ratio=(sweep_delta / sweep_deltas[-2]
                           if len(sweep_deltas) > 1 else math.nan),
        policy_changes=policy_changes,
    )


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
    _check_budget(tol, max_iter)
    start = time.perf_counter()
    # V and the stacked pair that each backup fills, for the whole run
    V = np.zeros(params.grid_shape)
    Q = np.empty((2,) + params.grid_shape)
    sweep_deltas = []
    while len(sweep_deltas) < max_iter:
        sweep_deltas.append(_sweep(V, params, Q))
        if sweep_deltas[-1] <= tol:
            break
    del Q  # extract_policy's two grids fit in the memory the pair held
    report = _report(params, start, sweep_deltas, tol, [])
    return V, extract_policy(V, params), report


def solve(params: ModelParams, tol: float = 1e-9,
          max_iter: int = 100_000) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Value iteration that jumps to policy iteration once its greedy policy
    settles (modified policy iteration); the same contract as
    ``value_iteration``.

    Warm-up: Bellman sweeps from V = 0, each recording the greedy policy of
    the grid it starts from. Jump: at the first sweep whose greedy policy
    equals the previous sweep's, policy iteration from that policy replaces
    V by the exact value of a policy that is greedy for its own value.
    Finish: Bellman sweeps from there until the sweep change drops to tol.
    ``max_iter`` bounds all sweeps; the jump needs one left for the finish,
    so a run cut off or converged before it is value iteration's, bit for
    bit. ``suboptimality_bound`` is gamma / (1 - gamma) times the final
    sweep change, an a-posteriori bound whichever phase the sweep was in.
    """
    _check_budget(tol, max_iter)
    start = time.perf_counter()
    # V and the backup's stacked pair share one block. Freeing a buffer of
    # at most 32 MiB raises glibc's dynamic mmap threshold to its size, and
    # the evaluation's smaller temporaries then come from the heap and stay
    # resident: at a_max = 2000 a lone 32 MB V freed at the jump adds 38 MB
    # to the peak, the 96 MB block nothing
    grids = np.zeros((3,) + params.grid_shape)
    V, Q = grids[0], grids[1:]
    greedy = np.empty((2,) + params.grid_shape, dtype=bool)  # this sweep's, the last one's
    sweep_deltas = []
    while len(sweep_deltas) < max_iter:
        k = len(sweep_deltas)
        sweep_deltas.append(_sweep(V, params, Q, greedy=greedy[k % 2]))
        if sweep_deltas[-1] <= tol or (k and np.array_equal(*greedy)):
            break
    policy_changes = []
    if sweep_deltas[-1] <= tol or len(sweep_deltas) == max_iter:
        V = V.copy()  # one grid for the caller, not the block
        del Q, grids, greedy
    else:  # the greedy policy settled: jump
        policy = greedy[k % 2].astype(np.int8)
        del V, Q, grids, greedy  # the evaluations never hold the sweep grids
        V, _, policy_changes = _improve(policy, params)
        Q = np.empty((2,) + params.grid_shape)
        while len(sweep_deltas) < max_iter:
            sweep_deltas.append(_sweep(V, params, Q))
            if sweep_deltas[-1] <= tol:
                break
        del Q
    report = _report(params, start, sweep_deltas, tol, policy_changes)
    return V, extract_policy(V, params), report


def extract_thresholds(policy: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-row switching thresholds of a policy grid.

    For each base-station age alpha_b, tau[alpha_b] is the largest source
    age still played as sense (-1 when the whole row is comm, a_max when the
    whole row is sense). The returned flag is True when every row is a sense
    block followed by a comm block; any comm-to-sense flip while alpha_s
    ascends clears it, and that row's tau is still the last sense index.
    """
    sense = np.asarray(policy) == Action.SENSE
    rows = np.arange(sense.shape[0])[:, None]
    tau = np.where(sense, rows, -1).max(axis=0, initial=-1)
    single_crossing_ok = bool((sense.sum(axis=0) == tau + 1).all())
    return tau, single_crossing_ok


# Fail-chain weights prod gamma (1 - p) below this are zeroed. Each anchor's
# chain starts at weight 1, so a dropped term of u (weight * stage cost) or
# of W (weight * gamma p) is under 1e-200 of a weight-1 term of the same
# kind; summed over at most a_max + 1 steps that is far below double
# resolution (1.1e-16) unless the stage costs span some 180 orders of
# magnitude. Left in, the weights decay into subnormals, and LU on them runs
# several times slower (1,999 anchors: 0.64 s against 0.20 s).
_NEGLIGIBLE_WEIGHT = 1e-200

# (steps, anchors) cells that one block of the fail-chain walk handles; bounds
# its working memory (about 100 bytes a cell) whatever a_max is
_CELLS_PER_BLOCK = 1 << 13


def _fail_successor(X: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """out[i, j] = X[min(i + d, a_max), min(j + d, a_max)]: X read at the
    d-step fail successor (0 < d <= a_max), by four slice copies; the last
    row and column saturate. Returns out."""
    k = X.shape[0] - d
    out[:k, :k] = X[d:, d:]
    out[:k, k:] = X[d:, -1:]
    out[k:, :k] = X[-1, d:]
    out[k:, k:] = X[-1, -1]
    return out


def evaluate_policy(policy: np.ndarray, params: ModelParams) -> np.ndarray:
    """Value grid of a fixed stationary policy, exact at every grid size.

    Success successors, the anchors, lie on the column (k, 1) and the
    diagonal (k, k): at most 2 a_max - 1 states, found from the per-age
    success successors of ``_backup_tables`` and the rows that sense and
    columns that communicate. Fail chains step both ages and end within
    a_max steps at the corner (a_max, a_max), whose fail self-loop is folded
    in closed form. Walking the anchors' fail chains gives (I - W) y = u for
    the anchor values y; the walk runs in blocks of steps, each one
    (steps, anchors) array, and stops once every chain's weight is zero.
    The grid is then V = g + gamma p y[anchor] + gamma (1 - p) V[fail],
    summed along the fail chains by pointer doubling: round r reads the
    2^r-step fail successor as four slice copies. Every sum adds its terms
    in the order of a walk one step at a time, so the result is that walk's
    bit for bit.
    """
    policy = np.asarray(policy)
    if policy.shape != params.grid_shape:
        raise ValueError(f"policy shape {policy.shape} != {params.grid_shape}")
    n, top = params.n_ages, params.a_max
    succ, success_prob, _, cost = _backup_tables(params)
    comm = policy == Action.COMM
    p = np.where(comm, success_prob[Action.COMM], success_prob[Action.SENSE])
    g = np.where(comm, cost[Action.COMM], cost[Action.SENSE]).astype(float, copy=False)
    q = params.gamma * (1.0 - p)
    gp = np.multiply(params.gamma, p, out=p)  # p is not needed again
    scale = 1.0 / (1.0 - q[top, top])
    g[top, top] *= scale
    gp[top, top] *= scale
    q[top, top] = 0.0

    # each age's success successor (flat) and its anchor's slot: sense
    # along alpha_s, comm along alpha_b
    anchors = np.union1d(succ[0][~comm.all(axis=1)], succ[1][comm.any(axis=0)])
    slot = np.searchsorted(anchors, succ)
    # an age where no state plays the action has no anchor; any valid slot
    # does, as nothing reads it
    np.minimum(slot, anchors.size - 1, out=slot)
    m = anchors.size
    u = np.zeros(m)
    W = np.zeros((m, m))
    row_start = np.arange(m) * m  # flat index of each anchor's row of W
    first_s, first_b = np.divmod(anchors, n)
    # the chains whose weight is not yet zero (the rest would add zeros)
    live, weight = np.arange(m), np.ones(m)
    steps_per_block = max(1, _CELLS_PER_BLOCK // m)
    # the corner ends every chain by step a_max
    for lo in range(0, top + 1, steps_per_block):
        steps = np.arange(lo, min(lo + steps_per_block, top + 1))[:, None]
        age_s = np.minimum(first_s[live] + steps, top)
        age_b = np.minimum(first_b[live] + steps, top)
        at = age_s * n + age_b
        # weights[t] is the weight at step lo + t, the last row the carry
        weights = np.empty((len(steps) + 1, live.size))
        weights[0] = weight
        q.take(at, out=weights[1:])
        np.multiply.accumulate(weights, axis=0, out=weights)
        weights[weights < _NEGLIGIBLE_WEIGHT] = 0.0
        weight, weights = weights[-1], weights[:-1]
        terms = g.take(at)
        terms *= weights
        terms[0] += u[live]
        # a scan adds row after row; a reduction over a single live chain
        # would sum pairwise, in another order
        u[live] = np.add.accumulate(terms, axis=0, out=terms)[-1]
        terms = gp.take(at)
        terms *= weights
        cols = np.where(comm.take(at), slot[1][age_b], slot[0][age_s])
        cols += row_start[live]
        np.add.at(W.reshape(-1), cols.reshape(-1), terms.reshape(-1))
        live, weight = live[weight > 0.0], weight[weight > 0.0]
        if not live.size:
            break
    del age_s, age_b, at, weights, terms, cols  # the last block's, before LU
    W *= -1.0  # I - W in place: the solve's own copy is the only other matrix
    W.reshape(-1)[::m + 1] += 1.0
    y = np.linalg.solve(W, u)
    del W

    V = np.where(comm, y[slot[1]], y[slot[0]][:, None])
    V *= gp
    V += g
    del comm, gp, g
    shifted = np.empty_like(V)
    for r in range(top.bit_length()):  # 2^rounds > a_max chain steps
        V += np.multiply(_fail_successor(V, 1 << r, shifted), q, out=shifted)
        q *= _fail_successor(q, 1 << r, shifted)
    return V


def _improve(policy: np.ndarray, params: ModelParams, max_sweeps: int = 1000
             ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Policy iteration from ``policy``: alternate exact evaluation with
    greedy improvement (ties to sense) until the policy is stable. Returns
    (V, policy, changes), changes holding the number of states each
    improvement changed, one per evaluation.

    A finite MDP with a fixed tie rule must stabilise, so exceeding
    max_sweeps signals an implementation fault and raises.
    """
    changes = []
    while len(changes) < max_sweeps:
        V = evaluate_policy(policy, params)
        improved = extract_policy(V, params)
        changes.append(int(np.count_nonzero(improved != policy)))
        if not changes[-1]:
            return V, policy, changes
        policy, V = improved, None  # no stale grid beside the next evaluation
    raise RuntimeError(f"policy iteration did not stabilise within {max_sweeps} sweeps")
