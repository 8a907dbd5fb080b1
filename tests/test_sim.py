"""Simulation tests: deterministic rollouts, seeding discipline, estimators."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from aoi_isac import gridio, sim
from aoi_isac.model import Action, ModelParams, dynamics
from aoi_isac.sim import (_PCG64Lanes, baseline_policy, estimate_value,
                          rollout, trajectory_csv_lines, truncation_bias_bound)
from aoi_isac.solver import solve, value_iteration
from reference import scalar_trajectory, stage_cost, success_prob, transition

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


@pytest.mark.parametrize("kind", ["optimal", "alternate", "random_bernoulli",
                                  "always_comm"])
def test_trajectory_csv_costs_sum_to_the_simulated_cost(kind):
    p = make()
    policy = (solve(p)[1] if kind == "optimal"
              else baseline_policy(kind, p, p=0.3))
    traj = estimate_value(policy, p, (1, 1), n=2, horizon=400, seed=1).trajectory
    cost, gamma_pow = 0.0, 1.0
    for line in trajectory_csv_lines(traj, p)[1:]:
        cost += float(line.split(",")[5]) * gamma_pow
        gamma_pow *= p.gamma
    assert cost == traj.discounted_cost


def numpy_stream(root, key, which, horizon):
    """numpy's own draws for the stream the simulator derives from root."""
    ss = np.random.SeedSequence(root.entropy, pool_size=root.pool_size,
                                spawn_key=root.spawn_key + key + (which,))
    return np.random.default_rng(ss).random(horizon)


def lane_draws(root, keys, which, horizon, columns):
    """The sampled columns of the lanes' (horizon, lanes) draws."""
    lanes = _PCG64Lanes(root, keys, which)
    r = np.empty(1 if keys is None else len(keys), dtype=np.uint64)
    return np.array([lanes.bits53(r)[columns] * 2.0 ** -53
                     for _ in range(horizon)])


@pytest.mark.parametrize("entropy", [0, 1, 2**32, 2**64 + 5, 2**200,
                                     [7, 2**40, 3], ["0x10", 3]])
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


def test_lane_step_carries_at_the_low_word_boundary():
    # lo * M_LO + inc_lo lands just below, at and just above 2^64: a carry
    # that depends on inc_lo's low 32 bits, which seeded streams reach only
    # about once in 2^32 steps
    lanes = _PCG64Lanes(np.random.SeedSequence(0), np.arange(4), 0)
    inverse = pow(sim._M_LO, -1, 2 ** 64)
    expected = []
    for j, d in enumerate((-1, 0, 1, 2)):
        lanes.lo[j] = (2 ** 64 - int(lanes.inc_lo[j]) + d) * inverse % 2 ** 64
        state = int(lanes.hi[j]) << 64 | int(lanes.lo[j])
        inc = int(lanes.inc_hi[j]) << 64 | int(lanes.inc_lo[j])
        expected.append((state * sim._PCG_MULT + inc) % 2 ** 128)
    lanes._step()
    assert [int(h) << 64 | int(lo) for h, lo in zip(lanes.hi, lanes.lo)] == expected


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


def test_policy_grid_with_a_cell_that_is_not_an_action_is_rejected():
    # a grid of 2s was simulated as all-sense
    p = make(a_max=5)
    one_bad_cell = np.zeros(p.grid_shape, dtype=np.int8)
    one_bad_cell[2, 4], one_bad_cell[3, 0] = -1, 7
    for grid, cell in ((np.full(p.grid_shape, 2), r"\(0, 0\) is 2,"),
                       (one_bad_cell, r"\(2, 4\) is -1,")):
        with pytest.raises(ValueError, match=r"cell \(alpha_s, alpha_b\) = " + cell):
            estimate_value(grid, p, (1, 1), n=10, horizon=5, seed=0)
        with pytest.raises(ValueError, match=cell):
            rollout(grid, p, (1, 1), horizon=5, seed=0)


class HasP:
    """Not a policy, though it has a comm probability attribute."""
    p = 0.5


@pytest.mark.parametrize("policy", ["always_sense", HasP()])
def test_policy_of_an_unknown_kind_is_rejected(policy):
    p = make(a_max=5)
    match = "policy grid .* AlternatingPolicy or a RandomCommPolicy, got "
    with pytest.raises(TypeError, match=match + type(policy).__name__):
        rollout(policy, p, (1, 1), horizon=5, seed=0)
    with pytest.raises(TypeError, match=match):
        estimate_value(policy, p, (1, 1), n=10, horizon=5, seed=0)


# success probabilities at the edges of the integer success test; from 0.5
# up p * 2^53 is an integer, and 0.3 is a typical p below it that is not
LAMBDA_EDGES = [0.0, 5e-324, 1e-300, 2.0 ** -53, 0.3, 0.5, 0.6, 1 - 2.0 ** -53,
                1.0]


def edge_draws(p):
    """53-bit draws at and around the success threshold of p."""
    f = math.floor(p * 2 ** 53)
    return sorted({r for r in (0, 1, f - 1, f, f + 1, 2 ** 53 - 1)
                   if 0 <= r < 2 ** 53})


@pytest.mark.parametrize("p", LAMBDA_EDGES)
def test_the_integer_success_test_is_exact_at_its_edges(p, monkeypatch):
    draws = edge_draws(p)
    # the uniform Generator.random makes of r, exactly, against p
    expected = [r * 2.0 ** -53 < p for r in draws]
    assert [r < sim._success_threshold(p) for r in draws] == expected
    # the same through the simulator: lane j's draws are all draws[j], and
    # from (5, 1) a comm success leads to (2, 2), a failure to (6, 2), so
    # the second slot's stage cost shows the first slot's outcome
    lanes = np.array(draws, dtype=np.uint64)
    monkeypatch.setattr(_PCG64Lanes, "bits53",
                        lambda self, out: np.copyto(out, lanes) or out)
    params = make(a_max=10, lambda_c=p)
    costs, _ = sim._lockstep(baseline_policy("always_comm", params), params,
                             (5, 1), 2, np.random.SeedSequence(0),
                             np.arange(len(draws)))
    assert (costs < 5.1 + 0.95 * 4.1).tolist() == expected
    # random_bernoulli:p plays comm on the same rule: from (5, 1) comm costs
    # 5.1 and sense 5.2 in the first slot
    params = make(a_max=10)
    costs, _ = sim._lockstep(baseline_policy("random_bernoulli", params, p=p),
                             params, (5, 1), 1, np.random.SeedSequence(0),
                             np.arange(len(draws)))
    assert (costs < 5.15).tolist() == expected


def policies_of_every_kind(params, tmp_path):
    """The five named policies and a grid read back from a policy file."""
    grid = np.random.default_rng(params.a_max).integers(
        0, 2, params.grid_shape).astype(np.int8)
    gridio.write_grid_csv(tmp_path / "policy.csv", grid)
    return {
        "optimal": solve(params, tol=1e-9, max_iter=10_000)[1],
        "always_sense": baseline_policy("always_sense", params),
        "always_comm": baseline_policy("always_comm", params),
        "alternate": baseline_policy("alternate", params),
        "random_bernoulli": baseline_policy("random_bernoulli", params, p=0.3),
        "policy_file": gridio.read_policy_csv(tmp_path / "policy.csv")[0],
    }


@pytest.mark.parametrize("lambdas", list(zip(LAMBDA_EDGES, LAMBDA_EDGES[3:]
                                             + LAMBDA_EDGES[:3])))
@pytest.mark.parametrize("a_max, s0, horizon", [
    (12, (1, 1), 25),
    (12, (12, 12), 25),  # the corner, where both ages saturate
    (60, (3, 5), 20),  # the run reaches ages up to 25 only
])
def test_lockstep_equals_the_scalar_reference_bit_for_bit(tmp_path, lambdas,
                                                          a_max, s0, horizon):
    params = make(a_max=a_max, lambda_s=lambdas[0], lambda_c=lambdas[1])
    n, seed = 12, 2 ** 40 + a_max
    for name, policy in policies_of_every_kind(params, tmp_path).items():
        costs, first = sim._lockstep(policy, params, s0, horizon,
                                     np.random.SeedSequence(seed), np.arange(n))
        for i in range(n):
            states, actions, outcomes, cost = scalar_trajectory(
                policy, params, s0, horizon, seed, i)
            assert costs[i] == cost, (name, i)
            if i == 0:
                assert np.array_equal(first.states, states), name
                assert np.array_equal(first.actions, actions), name
                assert np.array_equal(first.outcomes, outcomes), name
                assert first.discounted_cost == cost, name


@pytest.mark.parametrize("a_max", [2, 3, 6])
def test_key_tables_follow_the_dynamics_state_by_state(a_max):
    params = make(a_max=a_max, lambda_s=5e-324, lambda_c=1 - 2.0 ** -53)
    n = params.n_ages
    grid = np.random.default_rng(a_max).integers(
        0, 2, params.grid_shape).astype(np.int8)
    # the action the next key carries after action a leads to state nxt:
    # a grid's, alternate's and a drawn action's (sense, the draw added later)
    rules = [(np.repeat(grid.ravel(), 2), lambda nxt, a: grid[nxt]),
             (np.tile([1, 0], n * n), lambda nxt, a: 1 - a),
             (np.zeros(2 * n * n, dtype=np.int8), lambda nxt, a: 0)]
    for carry, carried in rules:
        successor, stage, threshold = sim._tables(params, carry)
        assert successor.shape == (4 * n * n,)
        assert stage.shape == threshold.shape == (2 * n * n,)
        assert threshold.dtype == np.uint64
        for a_s, a_b, a in itertools.product(range(n), range(n), Action):
            key = 2 * (a_s * n + a_b) + a
            succ, fail, cost = dynamics(a_s, a_b, params)
            assert stage[key] == cost[a]
            assert threshold[key] == math.ceil(success_prob(params, a) * 2 ** 53)
            for o, nxt in ((0, fail), (1, succ[a])):
                nxt = (int(nxt[0]), int(nxt[1]))
                assert (successor[2 * key + o]
                        == 2 * (nxt[0] * n + nxt[1]) + carried(nxt, a))
