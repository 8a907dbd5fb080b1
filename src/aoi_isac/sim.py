"""Seeded Monte Carlo rollout of scheduling policies through the age dynamics.

Randomness discipline: one root seed. Trajectory i draws from the i-th
spawned child of the root SeedSequence, so changing the number of
trajectories (or running them in any order) never changes an individual
trajectory. Each child splits once more into an outcome stream and an action
stream; only randomised policies consume the action stream, so e.g. a
Bernoulli(0) policy reproduces the always-sense trajectories bit for bit.

Streams as arrays. Stream ``which`` (0 outcomes, 1 actions) of trajectory i
is ``default_rng(SeedSequence(entropy, spawn_key=spawn_key + (i, which),
pool_size=pool_size)).random(horizon)`` for the root's entropy, spawn key
and pool size, exactly as if each child were spawned and its generator
built. No per-trajectory object is built, though: ``_PCG64Lanes`` holds one
lane per trajectory and computes every lane's next draw with array
operations, one slot at a time. It equals numpy bit for bit because it
restates numpy's own integer arithmetic:

- SeedSequence hashes its entropy words into a pool in order: the run
  entropy, padded with zeros to the pool size when there is a spawn key,
  then the spawn-key words. Every word meets one hash constant per pool
  word, and the sequence of constants does not depend on the data. So the
  root's own pool is where every child's hashing stands after the root's
  words, and the lanes go on from it with their own key words, then expand
  the pool into four 64-bit words as ``generate_state(4, np.uint64)`` does.
- PCG64 is the 128-bit LCG with the XSL-RR output function of O'Neill,
  "PCG: A Family of Simple Fast Space-Efficient Statistically Good
  Algorithms for Random Number Generation" (2014). It seeds from those four
  words (state 0, inc = 2 initseq + 1, one step, add initstate, one step).
  Each draw steps state = state * M + inc (mod 2^128), held as two uint64
  halves, outputs the XOR of the halves rotated right by the top six state
  bits, and ``Generator.random`` maps that to (x >> 11) * 2^-53.

numpy's notes on seeding parallel streams through spawned SeedSequences:
https://numpy.org/doc/stable/reference/random/parallel.html. The tests
compare sampled lanes with numpy's own ``default_rng(SeedSequence(...))``.

All trajectories run in lockstep through flat per-state tables built once
from ``model.dynamics`` over the ages the run can reach, so a slot costs a
few gathers and one compare on arrays, and no trajectory's uniforms are
stored beyond the current slot.

Policies are either stationary grids (int array indexed [alpha_s, alpha_b])
or per-slot objects whose ``actions(slot, u)`` gives the slot's action from
the slot index and the action stream alone, never from the ages.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .model import Action, ModelParams, State, dynamics, stage_cost

_OUTCOME_STREAM, _ACTION_STREAM = 0, 1
# trajectories run together; bounds the working memory (about 200 bytes a
# trajectory) whatever n is
_LANES_PER_BLOCK = 1 << 16

# SeedSequence's hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M_HI, _M_LO = _PCG_MULT >> 64, _PCG_MULT & (1 << 64) - 1


class AlternatingPolicy:
    """Sense on even slots, comm on odd slots, regardless of state.

    ``actions(slot, u)`` returns the one action that every lane plays; u,
    the action-stream uniforms, is not read.
    """

    uses_action_stream = False

    def actions(self, slot, u=None):
        return np.int8(slot % 2)


class RandomCommPolicy:
    """Comm with probability p each slot (drawn from the action stream),
    sense otherwise, regardless of state.

    ``actions(slot, u)`` returns one action per lane from u, the lanes'
    action-stream uniforms for the slot.
    """

    uses_action_stream = True

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p

    def actions(self, slot, u):
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
    # trajectory 0 of the estimate, recorded in the same run
    trajectory: Trajectory | None = field(default=None, compare=False,
                                          repr=False)


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


def _n_words(x) -> int:
    """How many uint32 words SeedSequence makes of an entropy or spawn-key
    value that it has already accepted."""
    if isinstance(x, str):
        x = int(x, 16) if x.startswith("0x") else int(x)
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(_n_words(v) for v in x)


class _PCG64Lanes:
    """One PCG64 generator per lane, all stepped together.

    Lane j draws what ``default_rng(SeedSequence(root.entropy,
    spawn_key=root.spawn_key + (keys[j], which), pool_size=root.pool_size))``
    draws, or with spawn key ``root.spawn_key + (which,)`` when keys is None
    (one lane). keys must be below 2^32, one word each.
    """

    def __init__(self, root: np.random.SeedSequence, keys: np.ndarray | None,
                 which: int):
        n = 1 if keys is None else len(keys)
        words = [] if keys is None else [keys.astype(np.uint32)]
        words.append(np.full(n, which, dtype=np.uint32))
        s0, s1, s2, s3 = self._seed_state(root, words)
        self.inc_hi = s2 << 1 | s3 >> 63
        self.inc_lo = s3 << 1 | 1
        self.hi = self.inc_hi + s0  # state 0 stepped once is inc; add initstate
        self.lo = self.inc_lo + s1
        self.hi += self.lo < s1
        self._tmp = [np.empty(n, dtype=np.uint64) for _ in range(4)]
        self._step()

    @staticmethod
    def _seed_state(root, words):
        """Each lane's generate_state(4, np.uint64): root's pool, hashed on
        with the lane's words, then expanded."""
        pool_size = root.pool_size
        # each word before the lanes' own met one hash constant per pool word
        n_before = (max(_n_words(root.entropy), pool_size)
                    + _n_words(root.spawn_key))
        h = _INIT_A * pow(_MULT_A, pool_size * n_before, 1 << 32) & _MASK32
        pool = [np.full(len(words[0]), p, dtype=np.uint32) for p in root.pool]
        for w in words:
            for d in range(pool_size):
                h_next = h * _MULT_A & _MASK32
                v = (w ^ h) * h_next
                v ^= v >> 16
                mixed = pool[d] * _MIX_MULT_L - v * _MIX_MULT_R
                pool[d] = mixed ^ mixed >> 16
                h = h_next
        state = []
        h = _INIT_B
        for j in range(8):
            h_next = h * _MULT_B & _MASK32
            v = (pool[j % pool_size] ^ h) * h_next
            state.append((v ^ v >> 16).astype(np.uint64))
            h = h_next
        # uint32 words pair up little-endian into uint64 words
        return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]

    def _step(self):
        """state = state * M + inc (mod 2^128), in place."""
        hi, lo = self.hi, self.lo
        a0, a1, t, u = self._tmp
        # the high half of lo * M_LO, from 32-bit limbs; no sum exceeds 2^64
        np.bitwise_and(lo, _MASK32, out=a0)
        np.right_shift(lo, 32, out=a1)
        np.multiply(a0, _M_LO & _MASK32, out=t)
        t >>= 32
        np.multiply(a1, _M_LO & _MASK32, out=u)
        u += t
        np.bitwise_and(u, _MASK32, out=t)
        u >>= 32
        a0 *= _M_LO >> 32
        a0 += t
        a0 >>= 32
        a1 *= _M_LO >> 32
        a1 += u
        a1 += a0
        hi *= _M_LO
        hi += a1
        np.multiply(lo, _M_HI, out=t)
        hi += t
        lo *= _M_LO
        lo += self.inc_lo
        hi += self.inc_hi
        hi += lo < self.inc_lo

    def random(self, out: np.ndarray) -> np.ndarray:
        """Each lane's next uniform double in [0, 1), written to out."""
        self._step()
        x, rot, t, _ = self._tmp
        np.bitwise_xor(self.hi, self.lo, out=x)
        np.right_shift(self.hi, 58, out=rot)
        np.right_shift(x, rot, out=t)
        np.subtract(64, rot, out=rot)
        rot &= 63
        x <<= rot
        t |= x
        t >>= 11
        return np.multiply(t, 2.0 ** -53, out=out)


def _tables(params: ModelParams):
    """Flat tables of the dynamics, for flat state x = alpha_s * n_ages +
    alpha_b and action a: the successor after outcome o, indexed
    [2 (2 x + a) + o], and the stage cost and the success probability,
    indexed [2 x + a]."""
    ages = np.arange(params.n_ages)
    succ, fail, cost = dynamics(ages[:, None], ages[None, :], params)

    def interleave(dtype, *grids):
        out = np.empty(params.grid_shape + (len(grids),), dtype=dtype)
        for i, g in enumerate(grids):
            out[..., i] = g
        return out.ravel()

    def flat(state):
        return state[0] * params.n_ages + state[1]

    return (interleave(np.intp, flat(fail), flat(succ[Action.SENSE]),
                       flat(fail), flat(succ[Action.COMM])),
            interleave(float, cost[Action.SENSE], cost[Action.COMM]),
            interleave(float, params.lambda_s, params.lambda_c))


def check_policy_grid(policy: np.ndarray, params: ModelParams) -> None:
    """Raise ValueError unless the policy grid has the model's grid shape."""
    if policy.shape != params.grid_shape:
        raise ValueError(f"policy grid shape {policy.shape} does not match "
                         f"model.a_max={params.a_max} {params.grid_shape}")


def _lockstep(policy, params: ModelParams, s0: State, horizon: int,
              root: np.random.SeedSequence, keys: np.ndarray | None):
    """Run trajectories from s0 in lockstep through the dynamics.

    Trajectory j is seeded by child keys[j] of root, or by root itself when
    keys is None (one trajectory). Returns the discounted costs and the
    first trajectory, recorded. Each trajectory's arithmetic depends only on
    its own streams, so a trajectory run alone or in any batch comes out
    bit-identical.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    a_s, a_b = s0
    if not (0 <= a_s <= params.a_max and 0 <= a_b <= params.a_max):
        raise ValueError(f"s0 {s0!r} outside the grid [0, {params.a_max}]^2")
    # no age passes max(s0) + horizon, so the dynamics saturating there (if
    # below a_max) agree with the model's on every state the run visits
    reach = dataclasses.replace(params, a_max=min(params.a_max,
                                                  max(*s0, 2) + horizon))
    side = reach.n_ages
    grid = None
    if isinstance(policy, np.ndarray):
        check_policy_grid(policy, params)
        grid = (policy[:side, :side] == Action.COMM).astype(np.int8).ravel()
    successor, stage, success_prob = _tables(reach)
    outcome_rng = _PCG64Lanes(root, keys, _OUTCOME_STREAM)
    action_rng = (_PCG64Lanes(root, keys, _ACTION_STREAM)
                  if getattr(policy, "uses_action_stream", False) else None)
    n = 1 if keys is None else len(keys)
    u_out, u_act, idx = np.empty(n), np.empty(n), np.empty(n, dtype=np.intp)
    X = np.full(n, s0[0] * side + s0[1], dtype=np.intp)
    cost = np.zeros(n)
    gamma_pow = 1.0
    xs = np.empty(horizon + 1, dtype=np.intp)
    actions = np.empty(horizon, dtype=np.int8)
    outcomes = np.empty(horizon, dtype=np.int8)
    for k in range(horizon):
        if grid is not None:
            A = grid[X]
        else:
            u = None if action_rng is None else action_rng.random(u_act)
            A = np.broadcast_to(policy.actions(k, u), X.shape)
        np.multiply(X, 2, out=idx)
        idx += A
        success = outcome_rng.random(u_out) < success_prob[idx]
        cost += gamma_pow * stage[idx]
        gamma_pow *= params.gamma
        xs[k], actions[k], outcomes[k] = X[0], A[0], success[0]
        idx *= 2
        idx += success
        X = successor[idx]
    xs[horizon] = X[0]
    states = np.stack(np.divmod(xs, side), axis=1)
    return cost, Trajectory(states, actions, outcomes, float(cost[0]), horizon)


def _root(seed) -> np.random.SeedSequence:
    # a caller's SeedSequence is only read, never spawned from, so passing
    # it again gives the same streams
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def rollout(policy, params: ModelParams, s0: State, horizon: int,
            seed) -> Trajectory:
    """One trajectory of the age dynamics under a policy.

    Outcomes are Bernoulli in the chosen action's success probability, drawn
    from the stream derived from seed (an int, or a SeedSequence when the
    caller manages splitting). Identical inputs yield identical trajectories.
    """
    return _lockstep(policy, params, s0, horizon, _root(seed), None)[1]


def estimate_value(policy, params: ModelParams, s0: State, n: int,
                   horizon: int, seed) -> SimEstimate:
    """Mean discounted cost over n independent seeded trajectories, with its
    standard error and the horizon-truncation bias bound. The estimate
    carries trajectory 0, as ``rollout`` of child 0 of the seed returns it.

    Deterministic given (seed, n, horizon); the aggregation (numpy pairwise
    summation) is independent of any execution order.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    root = _root(seed)
    costs = np.empty(n)
    for lo in range(0, n, _LANES_PER_BLOCK):
        keys = np.arange(lo, min(n, lo + _LANES_PER_BLOCK))
        costs[lo:lo + len(keys)], traj = _lockstep(policy, params, s0, horizon,
                                                   root, keys)
        if lo == 0:
            first = traj
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
        trajectory=first,
    )


def trajectory_csv_lines(traj: Trajectory, params: ModelParams) -> list[str]:
    """Per-slot CSV rows (k, alpha_s, alpha_b, action, outcome, stage_cost);
    the terminal state is recoverable from the last row via the dynamics."""
    lines = ["k,alpha_s,alpha_b,action,outcome,stage_cost"]
    for k in range(traj.horizon):
        a_s, a_b = traj.states[k]
        act = int(traj.actions[k])
        g = stage_cost((a_s, a_b), act, params)
        lines.append(f"{k},{a_s},{a_b},{act},{int(traj.outcomes[k])},{g:.17g}")
    return lines
