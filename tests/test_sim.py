"""Simulation tests: deterministic rollouts, seeding discipline, estimators."""

import tracemalloc

import numpy as np
import pytest

from aoi_isac import sim
from aoi_isac.model import Action, ModelParams, stage_cost
from aoi_isac.sim import (_PCG64Lanes, baseline_policy, estimate_value,
                          rollout, trajectory_csv_lines, truncation_bias_bound)
from aoi_isac.solver import value_iteration
from reference import transition

IV = dict(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1, gamma=0.95)


def make(a_max=30, **overrides):
    return ModelParams(**{**IV, **overrides, "a_max": a_max})


def test_rollout_deterministic_dynamics_all_sense():
    p = make(lambda_s=1.0, lambda_c=1.0)
    pol = baseline_policy("always_sense", p)
    traj = rollout(pol, p, (0, 0), horizon=3, seed=0)
    assert traj.states.tolist() == [[0, 0], [1, 1], [2, 1], [3, 1]]
    assert traj.discounted_cost == pytest.approx(
        0.2 + 0.95 * 1.2 + 0.95 ** 2 * 2.2)


def test_rollout_all_links_dead():
    p = make(lambda_s=0.0, lambda_c=0.0)
    for kind in ("always_sense", "always_comm", "alternate"):
        traj = rollout(baseline_policy(kind, p), p, (0, 0), horizon=3, seed=1)
        assert traj.states.tolist() == [[0, 0], [1, 1], [2, 2], [3, 3]]
        assert np.all(traj.outcomes == 0)


def test_rollout_all_comm_perfect_link():
    p = make(lambda_c=1.0)
    traj = rollout(baseline_policy("always_comm", p), p, (5, 2), horizon=2, seed=2)
    assert traj.states.tolist() == [[5, 2], [3, 3], [4, 4]]


def test_rollout_reproducible_and_consistent():
    p = make(a_max=12)
    V, pol, _ = value_iteration(p, tol=1e-8)
    t1 = rollout(pol, p, (1, 1), horizon=200, seed=123)
    t2 = rollout(pol, p, (1, 1), horizon=200, seed=123)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.outcomes, t2.outcomes)
    assert t1.discounted_cost == t2.discounted_cost
    # internal consistency: states follow the table, cost recomputable
    cost = 0.0
    for k in range(t1.horizon):
        s = tuple(t1.states[k])
        nxt = transition(s, int(t1.actions[k]), int(t1.outcomes[k]), p)
        assert nxt == tuple(t1.states[k + 1])
        cost += p.gamma ** k * stage_cost(s, int(t1.actions[k]), p)
    assert cost == pytest.approx(t1.discounted_cost, rel=1e-12)


def test_rollout_stays_in_source_older_region():
    p = make(a_max=10)
    pol = baseline_policy("always_comm", p)
    for seed in range(5):
        traj = rollout(pol, p, (4, 2), horizon=100, seed=seed)
        assert np.all(traj.states[:, 0] >= traj.states[:, 1])


def test_rollout_input_validation():
    p = make(a_max=5)
    pol = baseline_policy("always_sense", p)
    with pytest.raises(ValueError, match="horizon"):
        rollout(pol, p, (1, 1), horizon=0, seed=0)
    with pytest.raises(ValueError, match="s0"):
        rollout(pol, p, (9, 0), horizon=3, seed=0)


def test_alternate_policy_slot_pattern():
    p = make()
    pol = baseline_policy("alternate", p)
    traj = rollout(pol, p, (1, 1), horizon=4, seed=7)
    assert traj.actions.tolist() == [Action.SENSE, Action.COMM,
                                     Action.SENSE, Action.COMM]


def test_random_bernoulli_degenerate_matches_constant_policies():
    # p=0 never communicates; the action stream is separate from the outcome
    # stream, so trajectories coincide with always_sense bit for bit
    p = make()
    t_rand = rollout(baseline_policy("random_bernoulli", p, p=0.0), p, (1, 1),
                     horizon=50, seed=99)
    t_sense = rollout(baseline_policy("always_sense", p), p, (1, 1),
                      horizon=50, seed=99)
    assert np.array_equal(t_rand.states, t_sense.states)
    assert t_rand.discounted_cost == t_sense.discounted_cost
    t_rand1 = rollout(baseline_policy("random_bernoulli", p, p=1.0), p, (1, 1),
                      horizon=50, seed=99)
    t_comm = rollout(baseline_policy("always_comm", p), p, (1, 1),
                     horizon=50, seed=99)
    assert np.array_equal(t_rand1.states, t_comm.states)


def test_baseline_policy_validation():
    p = make()
    with pytest.raises(ValueError, match="unknown"):
        baseline_policy("optimal", p)
    with pytest.raises(ValueError, match="p must be"):
        baseline_policy("random_bernoulli", p, p=1.5)
    with pytest.raises(ValueError, match="needs"):
        baseline_policy("random_bernoulli", p)


def test_estimate_equals_mean_of_individual_rollouts():
    p = make(a_max=8)
    pol = baseline_policy("alternate", p)
    n, horizon, seed = 64, 60, 5
    est = estimate_value(pol, p, (1, 1), n=n, horizon=horizon, seed=seed)
    children = np.random.SeedSequence(seed).spawn(n)
    costs = np.array([rollout(pol, p, (1, 1), horizon, c).discounted_cost
                      for c in children])
    assert est.mean == np.mean(costs)  # bitwise: batch path mirrors rollouts
    assert est.std_error == pytest.approx(np.std(costs, ddof=1) / np.sqrt(n))


def test_seed_sequence_argument_is_reusable():
    # a SeedSequence passed in is read, never advanced: passing the same
    # object twice repeats the result, which equals the int-seed result
    p = make(a_max=10)
    pol = baseline_policy("random_bernoulli", p, p=0.3)
    root = np.random.SeedSequence(42)
    e1 = estimate_value(pol, p, (1, 1), n=200, horizon=100, seed=root)
    e2 = estimate_value(pol, p, (1, 1), n=200, horizon=100, seed=root)
    e_int = estimate_value(pol, p, (1, 1), n=200, horizon=100, seed=42)
    assert e1 == e2 == e_int
    t1 = rollout(pol, p, (1, 1), horizon=100, seed=root)
    t2 = rollout(pol, p, (1, 1), horizon=100, seed=root)
    t_int = rollout(pol, p, (1, 1), horizon=100, seed=42)
    for t in (t2, t_int):
        assert np.array_equal(t.states, t1.states)
        assert np.array_equal(t.actions, t1.actions)
        assert np.array_equal(t.outcomes, t1.outcomes)
        assert t.discounted_cost == t1.discounted_cost

def test_estimate_zero_variance_for_deterministic_links():
    for lam in (0.0, 1.0):
        p = make(lambda_s=lam, lambda_c=lam)
        pol = baseline_policy("always_sense", p)
        est = estimate_value(pol, p, (0, 0), n=50, horizon=30, seed=3)
        assert est.std_error == 0.0
        ref = rollout(pol, p, (0, 0), horizon=30, seed=11)
        assert est.mean == ref.discounted_cost


def test_estimate_deterministic_given_seed():
    p = make(a_max=6)
    pol = baseline_policy("random_bernoulli", p, p=0.4)
    e1 = estimate_value(pol, p, (1, 1), n=100, horizon=40, seed=8)
    e2 = estimate_value(pol, p, (1, 1), n=100, horizon=40, seed=8)
    assert e1 == e2


def test_estimate_is_prefix_stable_in_n():
    # growing n must not change the first trajectories' contribution
    p = make(a_max=6)
    pol = baseline_policy("always_sense", p)
    child0 = np.random.SeedSequence(17).spawn(1)[0]
    ref = rollout(pol, p, (1, 1), horizon=30, seed=child0).discounted_cost
    for n in (2, 10, 33):
        children = np.random.SeedSequence(17).spawn(n)
        again = rollout(pol, p, (1, 1), horizon=30, seed=children[0]).discounted_cost
        assert again == ref
        est = estimate_value(pol, p, (1, 1), n=n, horizon=30, seed=17)
        assert np.isfinite(est.mean)


def test_truncation_bias_bound_formula():
    p = make()
    assert truncation_bias_bound(p, 400) == pytest.approx(
        0.95 ** 400 * (30 + 0.2) / 0.05)
    assert truncation_bias_bound(make(gamma=0.0), 10) == 0.0
    est = estimate_value(baseline_policy("always_comm", p), p, (1, 1),
                         n=10, horizon=400, seed=1)
    assert est.truncation_bias_bound == truncation_bias_bound(p, 400)


def test_estimate_validation():
    p = make(a_max=5)
    with pytest.raises(ValueError, match="n must be"):
        estimate_value(baseline_policy("always_sense", p), p, (1, 1),
                       n=1, horizon=10, seed=0)


def test_trajectory_csv_matches_hand_rollout():
    p = make(lambda_s=1.0, lambda_c=1.0)
    traj = rollout(baseline_policy("always_sense", p), p, (0, 0), horizon=3, seed=0)
    lines = trajectory_csv_lines(traj, p)
    assert lines[0] == "k,alpha_s,alpha_b,action,outcome,stage_cost"
    assert len(lines) == 4
    hand = [(0, 0, 0, 0, 1, 0.2), (1, 1, 1, 0, 1, 1.2), (2, 2, 1, 0, 1, 2.2)]
    for line, row in zip(lines[1:], hand):
        cells = line.split(",")
        assert tuple(int(c) for c in cells[:5]) == row[:5]
        assert float(cells[5]) == row[5]  # 17 sig digits: lossless


def numpy_stream(root, key, which, horizon):
    """numpy's own draws for the stream the simulator derives from root."""
    ss = np.random.SeedSequence(root.entropy, pool_size=root.pool_size,
                                spawn_key=root.spawn_key + key + (which,))
    return np.random.default_rng(ss).random(horizon)


def lane_draws(root, keys, which, horizon, columns):
    """The sampled columns of the lanes' (horizon, lanes) draws."""
    lanes = _PCG64Lanes(root, keys, which)
    u = np.empty(1 if keys is None else len(keys))
    return np.array([lanes.random(u)[columns] for _ in range(horizon)])


@pytest.mark.parametrize("entropy", [0, 1, 2**32, 2**64 + 5, 2**200,
                                     [7, 2**40, 3]])
def test_streams_equal_numpys_bit_for_bit(entropy):
    roots = [np.random.SeedSequence(entropy),
             np.random.SeedSequence(entropy).spawn(3)[2],  # rollout(seed=child)
             np.random.SeedSequence(entropy, pool_size=8)]
    for root in roots:
        for which in (0, 1):
            for horizon in (1, 7):
                draws = lane_draws(root, np.arange(50), which, horizon, [0, 1, 49])
                for col, j in enumerate((0, 1, 49)):
                    assert np.array_equal(draws[:, col],
                                          numpy_stream(root, (j,), which, horizon))
            # one lane seeded by root itself, as rollout does
            draws = lane_draws(root, None, which, 7, [0])
            assert np.array_equal(draws[:, 0], numpy_stream(root, (), which, 7))


def test_streams_long_horizon_and_last_of_many_lanes():
    root = np.random.SeedSequence(12345678901234567890)
    n = 10_000
    for which in (0, 1):
        draws = lane_draws(root, np.arange(n), which, 400, [0, n - 1])
        for col, j in enumerate((0, n - 1)):
            assert np.array_equal(draws[:, col], numpy_stream(root, (j,), which, 400))


def test_estimate_records_trajectory_zero():
    p = make(a_max=10)
    pol = baseline_policy("random_bernoulli", p, p=0.3)
    est = estimate_value(pol, p, (1, 1), n=20, horizon=50, seed=5)
    child0 = np.random.SeedSequence(5).spawn(1)[0]
    ref = rollout(pol, p, (1, 1), 50, child0)
    t = est.trajectory
    assert np.array_equal(t.states, ref.states)
    assert np.array_equal(t.actions, ref.actions)
    assert np.array_equal(t.outcomes, ref.outcomes)
    assert t.discounted_cost == ref.discounted_cost and t.horizon == 50
    assert trajectory_csv_lines(t, p) == trajectory_csv_lines(ref, p)


def test_block_size_does_not_change_the_estimate(monkeypatch):
    p = make(a_max=10)
    pol = baseline_policy("random_bernoulli", p, p=0.4)
    whole = estimate_value(pol, p, (1, 1), n=50, horizon=30, seed=9)
    monkeypatch.setattr(sim, "_LANES_PER_BLOCK", 7)
    blocked = estimate_value(pol, p, (1, 1), n=50, horizon=30, seed=9)
    assert blocked == whole
    assert np.array_equal(blocked.trajectory.states, whole.trajectory.states)


def test_estimate_never_holds_n_by_horizon_uniforms():
    # an n x horizon float64 matrix of uniforms would take 80 MB here
    p = make(a_max=10)
    pol = baseline_policy("always_sense", p)
    tracemalloc.start()
    try:
        estimate_value(pol, p, (1, 1), n=1000, horizon=10_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_short_rollout_on_a_large_grid_follows_the_scalar_dynamics():
    # the run reaches ages up to max(s0) + horizon only, far below a_max
    p = make(a_max=2000)
    for pol in (baseline_policy("random_bernoulli", p, p=0.5),
                np.tile(np.arange(2001) % 2, (2001, 1)).astype(np.int8)):
        traj = rollout(pol, p, (3, 5), horizon=40, seed=4)
        cost, gamma_pow = 0.0, 1.0
        for k in range(40):
            s, a = tuple(traj.states[k]), int(traj.actions[k])
            if isinstance(pol, np.ndarray):
                assert a == pol[s]
            assert transition(s, a, int(traj.outcomes[k]), p) == tuple(traj.states[k + 1])
            cost += gamma_pow * stage_cost(s, a, p)
            gamma_pow *= p.gamma
        assert cost == traj.discounted_cost


def test_policy_grid_of_the_wrong_shape_is_rejected():
    p = make(a_max=5)
    for shape in ((7, 7), (5, 5)):
        grid = np.zeros(shape, dtype=np.int8)
        with pytest.raises(ValueError, match="shape"):
            estimate_value(grid, p, (1, 1), n=10, horizon=5, seed=0)
        with pytest.raises(ValueError, match="shape"):
            rollout(grid, p, (1, 1), horizon=5, seed=0)
