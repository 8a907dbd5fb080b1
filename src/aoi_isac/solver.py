"""Dynamic-programming solvers for the two-age scheduling MDP.

``solve`` is the workhorse: value-iteration sweeps until the greedy policy
settles, then policy iteration from that policy, then sweeps again until the
sweep change meets the tolerance. Plain value iteration is the reference it
is tested against; tests/reference.py holds the cold-start policy iteration
and exhaustive enumeration (tiny grids) that cross-check it. Policy
evaluation is exact at every grid size: ``evaluate_policy`` solves for the
values of the at most 2 a_max - 1 anchor states that a success can reach,
then sums every fail chain in one pass backward from the corner
(a_max, a_max), while the oracle solves the dense (I - gamma P) v = g. The
anchor system is upper triangular with a narrow band but for a thin left
border, and one solve takes it: back-substitution on the band and a Schur
system on the border, which on small grids is every column, a dense LU.
Every loop has a bound. All grids are dense float64 arrays indexed
[alpha_s, alpha_b]. A policy grid holds 0 = sense, 1 = comm, and every
reader of one rejects any other cell (``model.comm_mask``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import (Action, ModelParams, _backup_tables, check_policy_grid,
                    comm_mask, delta_grid, q_grids)


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
    V by the exact value of a policy greedy for its own value up to
    rounding. Finish: Bellman sweeps from there until the sweep change
    drops to tol.
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
    sweep_deltas, policy_changes = [], []
    while len(sweep_deltas) < max_iter:
        k = len(sweep_deltas)
        sweep_deltas.append(_sweep(V, params, Q,
                                   greedy=None if policy_changes else greedy[k % 2]))
        if sweep_deltas[-1] <= tol:
            break
        if not policy_changes and k and k + 1 < max_iter and np.array_equal(*greedy):
            # the greedy policy settled and a sweep is left to finish: jump
            policy = greedy[k % 2].astype(np.int8)
            V = Q = grids = greedy = None  # the evaluations never hold the sweep grids
            V, _, policy_changes = _improve(policy, params)
            Q = np.empty((2,) + params.grid_shape)
    if not policy_changes:
        V = V.copy()  # one grid for the caller, not the block
    del Q, grids, greedy
    report = _report(params, start, sweep_deltas, tol, policy_changes)
    return V, extract_policy(V, params), report


def extract_thresholds(policy: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-row switching thresholds of a policy grid.

    For each base-station age alpha_b, tau[alpha_b] is the largest source
    age still played as sense (-1 when the whole row is comm, a_max when the
    whole row is sense). The returned flag is True when every row is a sense
    block followed by a comm block; any comm-to-sense flip while alpha_s
    ascends clears it, and that row's tau is still the last sense index.
    A cell that is not an action raises ValueError (``model.comm_mask``).
    """
    sense = ~comm_mask(policy)
    rows = np.arange(sense.shape[0])[:, None]
    tau = np.where(sense, rows, -1).max(axis=0, initial=-1)
    single_crossing_ok = bool((sense.sum(axis=0) == tau + 1).all())
    return tau, single_crossing_ok


# (steps, anchors) cells that one block of the fail-chain walk handles; bounds
# its working memory (about 100 bytes a cell) whatever a_max is
_CELLS_PER_BLOCK = 1 << 13

# The anchor system of m anchors, border k and band w is solved with that
# border and band when m >= _BORDERED_MIN_ANCHORS and
# m >= _BORDERED_MIN_RATIO (k + w), else with every column as border, which
# is the dense LU. Measured on optimal and random policies at a_max 30 to
# 300: the dense LU won every system below 160 anchors, and the bordered
# solve every larger one with m >= 1.5 (k + w); in between, either won
_BORDERED_MIN_ANCHORS = 160
_BORDERED_MIN_RATIO = 1.5
# the rows of the band that one back-substitution step solves
_BAND_BLOCK = 32


def _reach(cols: np.ndarray, rows: np.ndarray, terms: np.ndarray, m: int
           ) -> tuple[int, int]:
    """(border, width) of one block of the fail-chain walk over m anchors,
    whose terms land in the columns ``cols`` of the rows ``rows``: one past
    the last column that holds a nonzero term left of its row's block of
    the band (blocks counted from the last row), and the farthest that one
    lies right of the diagonal. A term below the diagonal inside its row's
    block sets no border: the corner's, when the corner senses and succeeds
    to the anchor just before it."""
    nonzero = terms > 0.0
    first = m - _BAND_BLOCK * ((m - 1 - rows) // _BAND_BLOCK + 1)
    border = np.where(nonzero & (cols < first), cols, -1).max() + 1
    return int(border), int(np.where(nonzero, cols - rows, 0).max())


def _anchor_solve(W: np.ndarray, u: np.ndarray, k: int, w: int) -> np.ndarray:
    """y with (I - W) y = u, for the anchors' fail-chain matrix W; W is
    overwritten with W - I.

    Every entry of W below the diagonal lies in its first k columns, the
    border, or in its row's block of the band (``_reach``), and none lies
    more than w columns right of the diagonal. Below the crossover every
    column is border: the band is empty and the Schur system is the whole
    of I - W, solved by dense LU.
    """
    m = u.size
    if m < max(_BORDERED_MIN_ANCHORS, _BORDERED_MIN_RATIO * (k + w)):
        k, w = m, 0
    W.reshape(-1)[::m + 1] -= 1.0
    # Order y as the border unknowns y_B = y[:k], then the rest y_R. Below
    # the first k rows, I - W is block upper triangular, in blocks of
    # _BAND_BLOCK rows counted from the last and with band w, beside the
    # border columns W_RB: y_R = z + Z y_B, where (I - W_RR) [z, Z] =
    # [u_R, W_RB], solved block by block from the last. The first k rows
    # then leave (I - W_BB - W_BR Z) y_B = u_B + W_BR z, the k x k Schur
    # system.
    # Why this is stable: each row of W sums to at most gamma, the expected
    # discount at the chain's first success. Along a chain the weights run
    # r_0 = 1, r_{t+1} = r_t q_t, and the terms are r_t gamma p_t =
    # r_t (gamma - q_t), so they sum to
    # gamma - (1 - gamma) (r_1 + ... + r_T) - r_{T+1} <= gamma; the corner's
    # folded gamma p / (1 - gamma (1 - p)) is at most gamma too, and the
    # cut-off only drops terms. So I - W is strictly diagonally dominant by
    # rows: its diagonal exceeds the rest of its row by at least 1 - gamma.
    # So is every principal block of it, and the Schur complement of one
    # (Carlson and Markham): all are nonsingular, and Gaussian elimination
    # on them grows no entry more than twofold, without a row exchange
    # (Wilkinson). A diagonal block is upper triangular, but for the
    # corner's one entry; on a triangular block LAPACK's partially pivoted
    # LU exchanges no row and updates nothing, so its solve is
    # back-substitution. Each block is solved as a block of W - I, that is
    # -(I - W), with negated right-hand sides: negation changes no pivot
    # and commutes with rounding, so every answer is bit for bit that of
    # I - W, and no block is copied.
    Z = np.concatenate((u[k:, None], W[k:, :k]), axis=1)
    np.negative(Z, out=Z)  # in place: a strided out would take ufunc buffers
    for hi in range(m, k, -_BAND_BLOCK):
        lo, end = max(k, hi - _BAND_BLOCK), min(hi + w, m)
        rows = Z[lo - k:hi - k]
        rows -= W[lo:hi, hi:end] @ Z[hi - k:end - k]
        rows[...] = np.linalg.solve(W[lo:hi, lo:hi], rows)
    end = min(k + w, m)
    W_BR, Z_top = W[:k, k:end], Z[:end - k]
    S = W[:k, :k]
    if k < m:  # else W_BR is empty, and its product would be m x m zeros
        S += W_BR @ Z_top[:, 1:]
    y = np.empty(m)
    y[:k] = np.linalg.solve(S, -u[:k] - W_BR @ Z_top[:, 0])
    y[k:] = Z[:, 0] + Z[:, 1:] @ y[:k]
    return y


def evaluate_policy(policy: np.ndarray, params: ModelParams) -> np.ndarray:
    """Value grid of a fixed stationary policy, exact at every grid size.
    A policy that ``model.check_policy_grid`` turns down raises ValueError.

    Success successors, the anchors, lie on the column (k, 1) and the
    diagonal (k, k): at most 2 a_max - 1 states, found from the per-age
    success successors of ``_backup_tables`` and the rows that sense and
    columns that communicate. Fail chains step both ages and end within
    a_max steps at the corner (a_max, a_max), whose fail self-loop is folded
    in closed form. Walking the anchors' fail chains gives (I - W) y = u for
    the anchor values y; the walk runs in blocks of steps, each one
    (steps, anchors) array, and stops once every chain's weight is zero.
    Ordered by flat index, the anchors make I - W upper triangular but for
    its first k columns, the border, with every entry at most w columns
    right of the diagonal; the walk reads k and w from the terms it adds.
    ``_anchor_solve`` back-substitutes the band in blocks of rows, carrying
    the border columns, and solves a k x k Schur system for the border
    values. Where the anchors are few or k + w wide beside them, the
    reference instance at a_max = 30 among them, every column is border and
    that Schur system is the dense LU of I - W.
    The grid is then V = g + gamma p y[anchor] + gamma (1 - p) V[fail],
    summed along the fail chains in one backward pass: each state adds its
    q V[fail] once, after its fail successor is final. The saturated last
    row and column go first, each a loop from the corner; then each row
    reads the row below, one column on. So V is bit for bit the per-state
    recursion taken in reverse row-major order.
    """
    comm = check_policy_grid(policy, params)
    n, top = params.n_ages, params.a_max
    succ, success_prob, _, cost = _backup_tables(params)
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
    border = width = 0
    # Fail-chain weights prod gamma (1 - p) below this cut-off are zeroed,
    # and u is bit for bit the sum without it. Every anchor has
    # alpha_s >= 1, so a chain's first term, of weight 1, is at least 1 and
    # so is every partial sum (no term is negative). Weights never grow
    # (q <= gamma < 1), and every cost on a chain is at most
    # value_upper_bound, the corner's cost scaled by 1 / (1 - q) too. So a
    # dropped term is below 2^-54, while half an ulp of a sum of at least 1
    # is at least 2^-53 (the factor of 2 covers the rounding of the bound
    # and of the product): added, it would leave the sum's bits unchanged.
    # W is not covered: a dropped term can be the first of its cell. That y,
    # and so V, stays bit for bit is observed only (tests/test_solver.py).
    # The bound is at most MAX_VALUE_BOUND = 1e150, so the cut-off is above
    # 5e-167: no chain walks further than under a fixed 1e-200. Left in, the
    # weights decay into subnormals, and LU on them runs several times
    # slower (1,999 anchors: 0.64 s against 0.20 s).
    negligible = 2.0 ** -54 / params.value_upper_bound
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
        weights[weights < negligible] = 0.0
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
        if m >= _BORDERED_MIN_ANCHORS:  # else every column is border whatever they are
            block_border, block_width = _reach(cols, live, terms, m)
            border, width = max(border, block_border), max(width, block_width)
        cols += row_start[live]
        np.add.at(W.reshape(-1), cols.reshape(-1), terms.reshape(-1))
        live, weight = live[weight > 0.0], weight[weight > 0.0]
        if not live.size:
            break
    del age_s, age_b, at, weights, terms, cols  # the last block's
    y = _anchor_solve(W, u, border, width)
    del W

    V = np.where(comm, y[slot[1]], y[slot[0]][:, None])
    V *= gp
    V += g
    del comm, gp, g
    # V += q V[fail], each fail successor final before it is read. The
    # corner's q is 0; a failure on the last row or column steps along it
    # towards the corner, a loop over Python floats from there
    for edge, q_edge in ((V[top], q[top]), (V[:, top], q[:, top])):
        values, factors = edge.tolist(), q_edge.tolist()
        for k in reversed(range(top)):
            values[k] += factors[k] * values[k + 1]
        edge[:] = values
    # any other state fails to the row below, one column on
    for i in reversed(range(top)):
        V[i, :top] += q[i, :top] * V[i + 1, 1:]
    return V


# Improvement keeps a state's action where |Q_sense - Q_comm| is within this
# many ulps of max V (values are >= 0), the rounding of a few operations on
# values up to max V: switching on such noise cycles where the values dwarf
# the ages (c_s = c_c = 1e17, gamma = 0.99: V near 1e19, whose ulp is 2048)
_IMPROVE_SLACK_ULPS = 8


def _improve(policy: np.ndarray, params: ModelParams, max_sweeps: int = 1000
             ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Policy iteration from ``policy``: alternate exact evaluation with
    greedy improvement (comm where Q_sense - Q_comm > 0, the current action
    where the gap is rounding) until the policy is stable. Returns (V,
    policy, changes), changes holding the number of states each improvement
    changed, one per evaluation.

    A finite MDP whose improvements each lower the value must stabilise, so
    exceeding max_sweeps signals an implementation fault and raises.
    """
    changes = []
    while len(changes) < max_sweeps:
        V = evaluate_policy(policy, params)
        d = delta_grid(V, params)
        improved = (d > 0.0).astype(np.int8)
        within = np.abs(d, out=d) <= _IMPROVE_SLACK_ULPS * np.spacing(V.max())
        improved[within] = policy[within]
        del d, within  # the delta grid's block, before the next evaluation
        changes.append(int(np.count_nonzero(improved != policy)))
        if not changes[-1]:
            return V, policy, changes
        policy, V = improved, None  # no stale grid beside the next evaluation
    raise RuntimeError(f"policy iteration did not stabilise within {max_sweeps} sweeps")
