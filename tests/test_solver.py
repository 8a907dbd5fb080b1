"""Solver tests: backup properties, value/policy iteration, oracles, thresholds."""

import cProfile
import sys

import numpy as np
import pytest

from aoi_isac import solver
from aoi_isac.model import Action, ModelParams, delta_grid, dynamics
from aoi_isac.solver import (_NEGLIGIBLE_WEIGHT, _fail_successor, _improve,
                             bellman_backup, evaluate_policy, extract_policy,
                             extract_thresholds, solve, value_iteration)
from reference import (_linear_systems, exhaustive_policy_oracle,
                       policy_iteration, q_value)

IV = dict(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1, gamma=0.95)


def make(a_max=30, **overrides):
    return ModelParams(**{**IV, **overrides, "a_max": a_max})


def test_backup_of_zero_is_myopic_cost():
    p = make(a_max=6)
    W = bellman_backup(np.zeros(p.grid_shape), p)
    expected = np.arange(7.0)[:, None] + min(p.c_s, p.c_c)
    assert np.allclose(W, np.broadcast_to(expected, (7, 7)), atol=0.0)
    # one backup from zero at (3,5) with the reference costs: min(3.2, 3.1)
    assert W[3, 5] == pytest.approx(3.1)


def test_backup_with_zero_discount_ignores_future():
    p = make(a_max=5, gamma=0.0)
    rng = np.random.default_rng(5)
    V = rng.random(p.grid_shape) * 100.0
    W = bellman_backup(V, p)
    expected = np.arange(6.0)[:, None] + min(p.c_s, p.c_c)
    assert np.array_equal(W, np.broadcast_to(expected, (6, 6)))


def test_backup_is_contraction_and_monotone():
    p = make(a_max=8)
    rng = np.random.default_rng(1)
    for _ in range(20):
        V = rng.random(p.grid_shape) * 50.0
        W = rng.random(p.grid_shape) * 50.0
        lhs = np.max(np.abs(bellman_backup(V, p) - bellman_backup(W, p)))
        assert lhs <= p.gamma * np.max(np.abs(V - W)) + 1e-12
        low = np.minimum(V, W)
        assert np.all(bellman_backup(low, p) <= bellman_backup(V, p) + 1e-12)


def test_backup_does_not_mutate_input():
    p = make(a_max=4)
    V = np.random.default_rng(2).random(p.grid_shape)
    before = V.copy()
    bellman_backup(V, p)
    assert np.array_equal(V, before)


def test_value_iteration_zero_discount_two_sweeps():
    p = make(a_max=10, gamma=0.0)
    V, policy, rep = value_iteration(p, tol=1e-9)
    assert rep.converged and rep.iterations == 2
    assert rep.final_sweep_delta == 0.0 and rep.suboptimality_bound == 0.0
    expected = np.arange(11.0)[:, None] + min(p.c_s, p.c_c)
    assert np.array_equal(V, np.broadcast_to(expected, (11, 11)))
    # c_c < c_s: myopic policy communicates everywhere
    assert np.all(policy == Action.COMM)


def test_value_iteration_iterates_nondecreasing_from_zero():
    p = make(a_max=6)
    V = np.zeros(p.grid_shape)
    for _ in range(30):
        W = bellman_backup(V, p)
        assert np.all(W >= V - 1e-12)
        V = W


def test_value_iteration_reference_instance():
    p = make()
    V, policy, rep = value_iteration(p, tol=1e-9)
    assert rep.converged
    assert rep.suboptimality_bound == pytest.approx(
        p.gamma * rep.final_sweep_delta / (1 - p.gamma))
    assert np.all(V >= 0.0) and np.all(V <= p.value_upper_bound)
    # nondecreasing in both coordinates
    assert np.all(np.diff(V, axis=0) >= -1e-9)
    assert np.all(np.diff(V, axis=1) >= -1e-9)
    # growth along the source age dominates growth along the base-station age
    assert V[-1, 0] - V[0, 0] > V[0, -1] - V[0, 0]
    assert np.diff(V, axis=0).mean() > np.diff(V, axis=1).mean()


def test_value_iteration_nonconvergence_is_reported():
    p = make()
    V, policy, rep = value_iteration(p, tol=1e-12, max_iter=5)
    assert not rep.converged and rep.iterations == 5
    assert rep.final_sweep_delta > 1e-12
    assert V.shape == p.grid_shape  # partial result still returned


def test_value_iteration_input_validation():
    p = make(a_max=4)
    with pytest.raises(ValueError, match="tol"):
        value_iteration(p, tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        value_iteration(p, max_iter=0)


@pytest.mark.parametrize("overrides, max_iter", [
    ({}, 100_000), (dict(gamma=0.99), 40), (dict(gamma=0.0), 100_000),
    ({}, 1)])  # 40 and 1 stop partial
def test_solve_report_carries_the_residual_trace(overrides, max_iter):
    p = make(a_max=10, **overrides)
    V, _, rep = value_iteration(p, max_iter=max_iter)
    d = np.array(rep.sweep_deltas)
    assert len(d) == rep.iterations and d[-1] == rep.final_sweep_delta
    # every entry is that sweep's sup-norm change, as the plain loop finds it
    W, ref = np.zeros(p.grid_shape), []
    for _ in range(rep.iterations):
        W, prev = bellman_backup(W, p), W
        ref.append(float(np.max(np.abs(W - prev))))
    assert rep.sweep_deltas == ref
    # T is a gamma-contraction in the sup norm, so each change is at most
    # gamma times the one before, up to the rounding of cells of V's size
    rounding = 8 * np.finfo(float).eps * np.abs(V).max()
    assert np.all(d[1:] <= p.gamma * d[:-1] + rounding)
    if rep.iterations > 1:
        assert rep.contraction_ratio == d[-1] / d[-2]
        assert rep.contraction_ratio <= p.gamma + rounding / d[-2]
    else:
        assert np.isnan(rep.contraction_ratio)


@pytest.mark.parametrize("max_iter", [1, 2, 3, 4])  # V ends in every slot
def test_value_iteration_returns_v_as_a_grid_of_its_own(max_iter):
    p = make(a_max=6)
    V, policy, rep = value_iteration(p, tol=1e-12, max_iter=max_iter)
    assert rep.iterations == max_iter
    assert V.flags.owndata and V.flags.c_contiguous and V.shape == p.grid_shape
    ref = np.zeros(p.grid_shape)
    for _ in range(max_iter):
        ref = bellman_backup(ref, p)
    assert np.array_equal(V, ref)
    assert np.array_equal(policy, extract_policy(ref, p))


def test_contraction_ratio_approaches_gamma():
    for gamma in (0.5, 0.95):
        _, _, rep = value_iteration(make(a_max=30, gamma=gamma))
        assert rep.converged
        assert rep.contraction_ratio == pytest.approx(gamma, rel=1e-3)


def test_value_iteration_rejects_nan_tol():
    with pytest.raises(ValueError, match="tol"):
        value_iteration(make(a_max=5), tol=float("nan"), max_iter=50)


def test_extract_policy_tie_goes_to_sense():
    p = make(a_max=4, c_s=0.3, c_c=0.3)
    assert np.all(extract_policy(np.zeros(p.grid_shape), p) == Action.SENSE)
    p2 = make(a_max=4, c_s=0.1, c_c=0.3)
    assert np.all(extract_policy(np.zeros(p2.grid_shape), p2) == Action.SENSE)


def test_greedy_policy_attains_backup_min():
    p = make(a_max=12)
    V, policy, _ = value_iteration(p, tol=1e-10)
    W = bellman_backup(V, p)
    for i in range(13):
        for j in range(13):
            assert q_value(V, (i, j), int(policy[i, j]), p) == pytest.approx(
                W[i, j], abs=1e-12)


def test_extract_thresholds_conventions():
    S, C = Action.SENSE, Action.COMM
    all_sense = np.full((4, 4), S, dtype=int)
    tau, ok = extract_thresholds(all_sense)
    assert ok and np.all(tau == 3)
    all_comm = np.full((4, 4), C, dtype=int)
    tau, ok = extract_thresholds(all_comm)
    assert ok and np.all(tau == -1)
    # one row S,S,C,C,C -> tau 1; scans go down columns (alpha_s ascending)
    pol = np.full((5, 3), C, dtype=int)
    pol[:2, 1] = S
    tau, ok = extract_thresholds(pol)
    assert ok and list(tau) == [-1, 1, -1]


def test_extract_thresholds_flags_reentry():
    S, C = Action.SENSE, Action.COMM
    pol = np.full((3, 3), C, dtype=int)
    pol[:, 0] = [S, C, S]
    tau, ok = extract_thresholds(pol)
    assert not ok
    assert tau[0] == 2  # last sense index still recorded


def dense_value(policy, p):
    """The policy's value from the dense (I - gamma P) v = g solve."""
    A, g = _linear_systems(np.asarray(policy).reshape(1, -1), p)
    return np.linalg.solve(A, g[..., None])[0, :, 0].reshape(p.grid_shape)


def max_rel_gap(V, reference):
    return np.max(np.abs(V - reference)) / np.max(np.abs(reference))


def test_evaluate_policy_matches_dense_solve():
    p = make(a_max=5)
    rng = np.random.default_rng(9)
    policy = rng.integers(0, 2, p.grid_shape)
    V = evaluate_policy(policy, p)
    assert max_rel_gap(V, dense_value(policy, p)) <= 1e-12
    assert np.all(V >= 0.0) and np.all(V <= p.value_upper_bound)


def evaluate_policy_step_by_step(policy, p):
    """Reference: the anchor evaluation walking every fail chain one step at
    a time, with grid-sized successor gathers of ``dynamics``."""
    n = p.n_ages
    ages = np.arange(n)
    succ, fail, cost = dynamics(ages[:, None], ages[None, :], p)
    comm = np.asarray(policy).ravel() == Action.COMM
    succ_sense, succ_comm = (np.broadcast_to(s * n + b, (n, n)).ravel()
                             for s, b in succ)
    succ_idx = np.where(comm, succ_comm, succ_sense)
    fail = (fail[0] * n + fail[1]).ravel()
    pr = np.where(comm, float(p.lambda_c), float(p.lambda_s))
    g = np.where(comm.reshape(n, n), cost[Action.COMM],
                 cost[Action.SENSE]).astype(float).ravel()
    q = p.gamma * (1.0 - pr)
    gp = p.gamma * pr
    corner = n * n - 1
    scale = 1.0 / (1.0 - q[corner])
    g[corner] *= scale
    gp[corner] *= scale
    q[corner] = 0.0
    anchors = np.flatnonzero(np.bincount(succ_idx, minlength=n * n))
    slot = np.searchsorted(anchors, succ_idx)
    rows = np.arange(anchors.size)
    u = np.zeros(anchors.size)
    W = np.zeros((anchors.size, anchors.size))
    at, weight = anchors, np.ones(anchors.size)
    for _ in range(p.a_max + 1):
        u += weight * g[at]
        W[rows, slot[at]] += weight * gp[at]
        weight = weight * q[at]
        weight[weight < _NEGLIGIBLE_WEIGHT] = 0.0
        at = fail[at]
    W *= -1.0
    W[rows, rows] += 1.0
    y = np.linalg.solve(W, u)
    V = gp * y[slot]
    V += g
    for _ in range(p.a_max.bit_length()):
        V += q * V[fail]
        q *= q[fail]
        fail = fail[fail]
    return V.reshape(p.grid_shape)


@pytest.mark.parametrize("lambdas", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                                     (1.0, 0.0), (0.3, 0.7)])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.999])
@pytest.mark.parametrize("a_max", [2, 3, 7])
@pytest.mark.parametrize("costs", [(IV["c_s"], IV["c_c"]), (0, 1)])  # ints too
def test_evaluate_policy_is_exact_across_the_parameter_grid(lambdas, gamma, a_max,
                                                            costs):
    p = make(a_max=a_max, lambda_s=lambdas[0], lambda_c=lambdas[1], gamma=gamma,
             c_s=costs[0], c_c=costs[1])
    rng = np.random.default_rng(a_max)
    for policy in (rng.integers(0, 2, p.grid_shape),
                   np.full(p.grid_shape, Action.SENSE),
                   np.full(p.grid_shape, Action.COMM)):
        V = evaluate_policy(policy, p)
        assert max_rel_gap(V, dense_value(policy, p)) <= 1e-12
        assert np.array_equal(V, evaluate_policy_step_by_step(policy, p))


def test_evaluate_policy_equals_the_step_walk_on_a_large_grid():
    # all comm, whose anchors are the a_max diagonal states: weights
    # (q = 0.95 * 0.1) fall below the cutoff at step 197 of chains up to 300
    # steps long, inside a block of steps
    p = make(a_max=300)
    q = p.gamma * (1.0 - p.lambda_c)
    crossing = int(np.ceil(np.log(_NEGLIGIBLE_WEIGHT) / np.log(q)))
    assert 0 < crossing % (solver._CELLS_PER_BLOCK // p.a_max) and crossing < p.a_max
    for policy in (np.full(p.grid_shape, Action.COMM), solve(p)[1]):
        assert np.array_equal(evaluate_policy(policy, p),
                              evaluate_policy_step_by_step(policy, p))


@pytest.mark.parametrize("cells", [1, 2000, 1 << 15])
def test_evaluate_policy_is_the_step_walk_at_every_block_size(monkeypatch, cells):
    # sensing on one diagonal and one row, comm (q = 0) elsewhere: a single
    # chain lives on for many blocks, where a reduction would sum pairwise
    monkeypatch.setattr(solver, "_CELLS_PER_BLOCK", cells)
    p = make(a_max=60, lambda_c=1.0, gamma=0.9)
    i, j = np.indices(p.grid_shape)
    lone_chain = np.where((i - j == 3) | (i == 3), Action.SENSE, Action.COMM)
    rng = np.random.default_rng(60)
    for policy in (lone_chain, rng.integers(0, 2, p.grid_shape)):
        assert np.array_equal(evaluate_policy(policy, p),
                              evaluate_policy_step_by_step(policy, p))


@pytest.mark.parametrize("a_max", [2, 3, 7, 30])
def test_fail_successor_slices_equal_the_gather_of_dynamics(a_max):
    p = make(a_max=a_max)
    ages = np.arange(p.n_ages)
    _, step, _ = dynamics(ages[:, None], ages[None, :], p)
    step = np.broadcast_arrays(*step)
    rng = np.random.default_rng(a_max)
    X = rng.random(p.grid_shape)
    at = np.broadcast_arrays(ages[:, None], ages[None, :])
    for d in range(1, a_max + 1):
        at = (step[0][at], step[1][at])  # d steps of the one-step fail successor
        out = np.full(p.grid_shape, np.nan)
        assert _fail_successor(X, d, out) is out
        assert np.array_equal(out, X[at])


def test_policy_iteration_zero_discount():
    p = make(a_max=6, gamma=0.0)
    V, policy = policy_iteration(p)
    assert np.all(policy == Action.COMM)  # c_c < c_s
    expected = np.arange(7.0)[:, None] + p.c_c
    assert np.allclose(V, np.broadcast_to(expected, (7, 7)), atol=1e-12)


def test_policy_iteration_agrees_with_value_iteration():
    p = make(a_max=10)
    V_pi, pol_pi = policy_iteration(p)
    V_vi, pol_vi, _ = value_iteration(p, tol=1e-11)
    assert np.max(np.abs(V_pi - V_vi)) <= 1e-6
    d = delta_grid(V_vi, p)
    clear = np.abs(d) > 1e-9
    assert np.array_equal(pol_pi[clear], pol_vi[clear])


@pytest.mark.parametrize("a_max", [5, 10, 30, 60])
def test_policy_iteration_reaches_value_iterations_policy(a_max):
    p = make(a_max=a_max)
    V_pi, pol_pi = policy_iteration(p)
    V_vi, pol_vi, rep = value_iteration(p)
    assert rep.converged
    assert np.array_equal(pol_pi, pol_vi)
    assert np.max(np.abs(V_pi - V_vi)) <= rep.suboptimality_bound + 1e-10


def test_policy_iteration_slow_contraction_large_grid_is_a_greedy_fixed_point():
    # value iteration needs about 22,000 sweeps here
    p = make(a_max=300, gamma=0.999)
    V, policy = policy_iteration(p)
    assert np.array_equal(extract_policy(V, p), policy)
    assert np.max(np.abs(bellman_backup(V, p) - V)) <= 1e-10 * np.max(np.abs(V))


def test_exhaustive_oracle_rejects_large_grids():
    with pytest.raises(ValueError, match="16"):
        exhaustive_policy_oracle(make(a_max=4))


def test_exhaustive_oracle_zero_discount_is_myopic():
    p = make(a_max=2, gamma=0.0)
    V, policy = exhaustive_policy_oracle(p)
    assert np.all(policy == Action.COMM)
    assert np.allclose(V, np.arange(3.0)[:, None] + p.c_c, atol=1e-12)


def test_exhaustive_oracle_value_bounded_in_free_perfect_link_case():
    p = make(a_max=2, gamma=0.9, lambda_s=1.0, lambda_c=1.0, c_s=0.0, c_c=0.0)
    V, _ = exhaustive_policy_oracle(p)
    assert np.all(np.isfinite(V))
    assert np.all(V <= p.a_max / (1 - p.gamma) + 1e-9)


def test_three_way_agreement_small_grids():
    # exhaustive enumeration is the ground truth; all methods must agree
    for a_max, gamma in ((2, 0.9), (3, 0.95), (2, 0.5)):
        p = make(a_max=a_max, gamma=gamma)
        V_ex, pol_ex = exhaustive_policy_oracle(p)
        V_vi, pol_vi, rep = value_iteration(p, tol=1e-12)
        V_pi, pol_pi = policy_iteration(p)
        assert rep.converged
        assert np.max(np.abs(V_vi - V_ex)) <= 1e-6
        assert np.max(np.abs(V_pi - V_ex)) <= 1e-6
        clear = np.abs(delta_grid(V_vi, p)) > 1e-9
        assert np.array_equal(pol_vi[clear], pol_ex[clear])
        assert np.array_equal(pol_pi[clear], pol_ex[clear])


def test_policy_iteration_fixed_policy_matches_oracle_exactly():
    p = make(a_max=2, gamma=0.9)
    _, pol_pi = policy_iteration(p)
    _, pol_ex = exhaustive_policy_oracle(p)
    assert np.array_equal(pol_pi, pol_ex)


def value_iteration_gather(p, tol, max_iter):
    """Reference: the value-iteration loop with full-grid gathers of
    ``dynamics``; returns (V, iterations, final sweep change)."""
    ages = np.arange(p.n_ages)
    succ, fail, cost = dynamics(ages[:, None], ages[None, :], p)
    V = np.zeros(p.grid_shape)
    for it in range(1, max_iter + 1):
        v_fail = V[fail]
        W = np.minimum(*(cost[a] + p.gamma * (lam * V[succ[a]] + (1.0 - lam) * v_fail)
                         for a, lam in ((Action.SENSE, p.lambda_s),
                                        (Action.COMM, p.lambda_c))))
        sweep_delta = float(np.max(np.abs(W - V)))
        V = W
        if sweep_delta <= tol:
            break
    return V, it, sweep_delta


@pytest.mark.parametrize("a_max, overrides, max_iter", [
    (2, {}, 100_000), (3, {}, 100_000), (7, dict(c_s=0, c_c=1), 100_000),
    (30, {}, 100_000), (30, dict(gamma=0.99), 40)])  # the last stops partial
def test_value_iteration_equals_the_gather_loop(a_max, overrides, max_iter):
    p = make(a_max=a_max, **overrides)
    V, _, rep = value_iteration(p, max_iter=max_iter)
    V_ref, iterations, sweep_delta = value_iteration_gather(p, 1e-9, max_iter)
    assert np.array_equal(V, V_ref)
    assert rep.iterations == iterations and rep.final_sweep_delta == sweep_delta
    assert rep.converged == (max_iter > 40)


def test_backup_into_out_leaves_input_and_rejects_overlap():
    p = make(a_max=6)
    V = np.random.default_rng(4).random(p.grid_shape) * 30.0
    before = V.copy()
    out = np.full((2,) + p.grid_shape, np.nan)
    W = bellman_backup(V, p, out=out)
    assert np.shares_memory(W, out[0]) and np.array_equal(W, bellman_backup(V, p))
    assert np.array_equal(V, before)
    buf = np.empty((3,) + p.grid_shape)
    buf[0] = V
    for v, overlapping in ((buf[0], buf[0:2]), (out[1], out)):
        with pytest.raises(ValueError, match="overlap"):
            bellman_backup(v, p, out=overlapping)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        bellman_backup(V, p, out=(out[0], out[1]))  # a pair of grids
    assert np.array_equal(V, before) and np.array_equal(buf[0], before)
    # disjoint parts of one buffer are fine
    assert np.array_equal(bellman_backup(buf[0], p, out=buf[1:]), W)


@pytest.mark.parametrize("a_max", [5, 5.0, np.int64(5)])
def test_integral_a_max_solves_like_an_int(a_max):
    V, policy, rep = value_iteration(make(a_max=a_max))
    V_ref, policy_ref, rep_ref = value_iteration(make(a_max=5))
    assert np.array_equal(V, V_ref) and np.array_equal(policy, policy_ref)
    assert rep.iterations == rep_ref.iterations
    assert rep.final_sweep_delta == rep_ref.final_sweep_delta
    assert np.array_equal(evaluate_policy(policy, make(a_max=a_max)),
                          evaluate_policy(policy, make(a_max=5)))


def traced(fn, *args):
    """fn(*args) under a no-op line tracer; the caller's tracer is restored."""
    def tracer(frame, event, arg):
        return tracer
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        return fn(*args)
    finally:
        sys.settrace(previous)


def profiled(fn, *args):
    return cProfile.Profile().runcall(fn, *args)


@pytest.mark.parametrize("run", [traced, profiled])
@pytest.mark.parametrize("fn", [value_iteration, solve])
def test_solvers_run_alike_under_a_tracer_or_profiler(run, fn):
    # a tracer holds extra references to the frame's locals, so a solver
    # must not depend on reference counts (ndarray.resize does)
    p = make(a_max=12)
    V, policy, rep = run(fn, p)
    V_ref, policy_ref, rep_ref = fn(p)
    assert np.array_equal(V, V_ref) and np.array_equal(policy, policy_ref)
    assert rep.iterations == rep_ref.iterations
    assert rep.sweep_deltas == rep_ref.sweep_deltas


EDGES = [dict(lambda_s=1.0, lambda_c=0.0), dict(c_s=0.0, c_c=0.0)]


@pytest.mark.parametrize("a_max, overrides", [
    *(pytest.param(a_max, dict(gamma=gamma), id=f"a_max={a_max}-gamma={gamma}")
      for a_max in (2, 8, 30, 60) for gamma in (0.0, 0.5, 0.95, 0.99, 0.999)),
    *(pytest.param(30, edge, id=",".join(f"{k}={v:g}" for k, v in edge.items()))
      for edge in EDGES)])
def test_solve_finds_value_iterations_policy(a_max, overrides):
    p = make(a_max=a_max, **overrides)
    tol = 1e-9
    V, policy, rep = solve(p, tol=tol)
    V_vi, policy_vi, rep_vi = value_iteration(p, tol=tol)
    assert rep.converged and rep_vi.converged
    assert np.array_equal(policy, policy_vi)
    assert np.max(np.abs(V - V_vi)) <= rep_vi.suboptimality_bound + 1e-10
    assert rep.final_sweep_delta <= tol
    rounding = 16 * np.finfo(float).eps * np.max(np.abs(V))
    residual = np.max(np.abs(bellman_backup(V, p) - V))
    assert residual <= p.gamma * rep.final_sweep_delta + rounding
    assert rep.iterations == len(rep.sweep_deltas)
    assert rep.suboptimality_bound == (
        p.gamma * rep.final_sweep_delta / (1 - p.gamma))
    if rep.policy_changes:
        assert rep.policy_changes[-1] == 0 and all(rep.policy_changes[:-1])


# the greedy policy settles at sweep 7 here; cut off there, no sweep is
# left to finish a jump
@pytest.mark.parametrize("max_iter", [5, 7])
def test_solve_cut_off_before_the_jump_is_value_iteration(max_iter):
    p = make(a_max=30)
    V, policy, rep = solve(p, tol=1e-9, max_iter=max_iter)
    V_vi, policy_vi, rep_vi = value_iteration(p, tol=1e-9, max_iter=max_iter)
    assert not rep.converged and rep.policy_changes == []
    assert np.array_equal(V, V_vi) and np.array_equal(policy, policy_vi)
    assert rep.iterations == rep_vi.iterations == max_iter
    assert rep.sweep_deltas == rep_vi.sweep_deltas
    assert solve(p, tol=1e-9, max_iter=8)[2].policy_changes == [0]


def test_solve_zero_discount_converges_in_two_sweeps_without_a_jump():
    p = make(a_max=10, gamma=0.0)
    V, policy, rep = solve(p)
    V_vi, _, _ = value_iteration(p)
    assert rep.converged and rep.iterations == 2 and rep.policy_changes == []
    assert np.array_equal(V, V_vi) and np.all(policy == Action.COMM)


def test_solve_jumps_once_the_greedy_policy_settles():
    p = make(a_max=30)
    V, policy, rep = solve(p)
    _, _, rep_vi = value_iteration(p)
    assert rep.policy_changes and rep.iterations < 20 < rep_vi.iterations
    # the jump lands on a fixed point up to rounding, so one finishing
    # sweep meets the tolerance
    assert rep.final_sweep_delta < 1e-11 < rep.sweep_deltas[-2]


def test_solve_input_validation():
    with pytest.raises(ValueError, match="tol"):
        solve(make(a_max=4), tol=float("nan"))
    with pytest.raises(ValueError, match="max_iter"):
        solve(make(a_max=4), max_iter=0)


def test_policy_improvement_bound_raises():
    p = make(a_max=8)
    always_comm = np.full(p.grid_shape, Action.COMM, dtype=np.int8)
    with pytest.raises(RuntimeError, match="stabilise"):
        _improve(always_comm, p, max_sweeps=1)
    V, policy, changes = _improve(always_comm, p)
    V_pi, policy_pi = policy_iteration(p)
    assert np.array_equal(policy, policy_pi) and np.allclose(V, V_pi)
    assert len(changes) >= 2 and changes[-1] == 0 and changes[0] > 0
