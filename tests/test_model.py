"""Unit tests for the MDP primitives: transitions, costs, Q-values, delta."""

import itertools

import numpy as np
import pytest

from aoi_isac.model import (Action, ModelParams, _backup_tables, delta_grid,
                            dynamics, q_grids, stage_cost)
from aoi_isac.solver import bellman_backup
from reference import Outcome, delta, q_value, transition

IV = dict(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1, gamma=0.95)


def make(a_max=30, **overrides):
    return ModelParams(**{**IV, **overrides, "a_max": a_max})


def test_param_validation():
    with pytest.raises(ValueError, match="lambda_s"):
        make(lambda_s=1.2)
    with pytest.raises(ValueError, match="lambda_c"):
        make(lambda_c=-0.1)
    with pytest.raises(ValueError, match="c_s"):
        make(c_s=-1.0)
    with pytest.raises(ValueError, match="c_c"):
        make(c_c=-0.5)
    with pytest.raises(ValueError, match="gamma"):
        make(gamma=1.0)
    with pytest.raises(ValueError, match="a_max"):
        make(a_max=1)
    # gamma = 0 is admitted for degenerate instances
    assert make(gamma=0.0).gamma == 0.0


def test_lambda_ordering_flag():
    assert make().lambda_ordering_ok
    assert not make(lambda_s=0.9, lambda_c=0.6).lambda_ordering_ok


def test_transition_table():
    p = make()
    assert transition((3, 5), Action.SENSE, Outcome.SUCCESS, p) == (4, 1)
    assert transition((3, 5), Action.COMM, Outcome.SUCCESS, p) == (6, 6)
    assert transition((3, 5), Action.SENSE, Outcome.FAIL, p) == (4, 6)
    assert transition((3, 5), Action.COMM, Outcome.FAIL, p) == (4, 6)
    # saturation fixed point
    m = p.a_max
    assert transition((m, m), Action.COMM, Outcome.FAIL, p) == (m, m)
    assert transition((m, m), Action.SENSE, Outcome.SUCCESS, p) == (m, 1)


def test_transition_rejects_out_of_grid():
    p = make(a_max=5)
    with pytest.raises(ValueError, match="outside"):
        transition((6, 0), Action.SENSE, Outcome.SUCCESS, p)
    with pytest.raises(ValueError, match="outside"):
        transition((0, -1), Action.COMM, Outcome.FAIL, p)


def test_transition_total_and_deterministic():
    p = make(a_max=4)
    seen = {}
    for i, j, a, w in itertools.product(range(5), range(5), Action, Outcome):
        nxt = seen[(i, j, a, w)] = transition((i, j), a, w, p)
        assert 0 <= nxt[0] <= 4 and 0 <= nxt[1] <= 4
    assert len(seen) == 4 * 25


def test_transition_clamp_monotone_and_lattice_preserving():
    p = make(a_max=5)
    states = list(itertools.product(range(6), range(6)))
    for a, w in itertools.product(Action, Outcome):
        nxt = {s: transition(s, a, w, p) for s in states}
        for s1, s2 in itertools.product(states, states):
            n1, n2 = nxt[s1], nxt[s2]
            if s1[0] <= s2[0] and s1[1] <= s2[1]:
                assert n1[0] <= n2[0] and n1[1] <= n2[1]
            meet = (min(s1[0], s2[0]), min(s1[1], s2[1]))
            join = (max(s1[0], s2[0]), max(s1[1], s2[1]))
            assert nxt[meet] == (min(n1[0], n2[0]), min(n1[1], n2[1]))
            assert nxt[join] == (max(n1[0], n2[0]), max(n1[1], n2[1]))


def test_transition_preserves_source_older_than_base():
    p = make(a_max=6)
    for i, j in itertools.product(range(7), range(7)):
        if i < j:
            continue
        for a, w in itertools.product(Action, Outcome):
            ni, nj = transition((i, j), a, w, p)
            assert ni >= nj


def test_stage_cost():
    p = make()
    assert stage_cost((3, 5), Action.SENSE, p) == pytest.approx(3.2)
    assert stage_cost((7, 2), Action.COMM, p) == pytest.approx(7.1)
    assert stage_cost((0, 0), Action.COMM, make(c_c=0.0)) == 0.0
    hi = p.a_max + max(p.c_s, p.c_c)
    for i, j, a in itertools.product((0, 5, 30), (0, 30), Action):
        assert 0.0 <= stage_cost((i, j), a, p) <= hi


def test_q_value_zero_and_constant_v():
    p = make(a_max=6)
    zero = np.zeros(p.grid_shape)
    const = np.full(p.grid_shape, 7.25)
    for i, j, a in itertools.product(range(7), range(7), Action):
        assert q_value(zero, (i, j), a, p) == stage_cost((i, j), a, p)
        assert q_value(const, (i, j), a, p) == pytest.approx(
            stage_cost((i, j), a, p) + p.gamma * 7.25, abs=1e-12)


def test_q_value_hand_expectation():
    # V(i,j) = i + j, gamma 0.5, lambda_s 0.6, c_s 0.2:
    # sense at (2,2) -> success (3,1), fail (3,3)
    p = make(a_max=4, gamma=0.5)
    V = np.add.outer(np.arange(5.0), np.arange(5.0))
    expected = 2.2 + 0.5 * (0.6 * V[3, 1] + 0.4 * V[3, 3])
    assert expected == pytest.approx(4.6)
    assert q_value(V, (2, 2), Action.SENSE, p) == pytest.approx(4.6, abs=1e-12)


def test_delta_constant_v_is_cost_gap():
    p = make(a_max=5)
    for V in (np.zeros(p.grid_shape), np.full(p.grid_shape, 3.7)):
        for i, j in itertools.product(range(6), range(6)):
            assert delta(V, (i, j), p) == pytest.approx(p.c_s - p.c_c, abs=1e-12)


def test_delta_matches_closed_form_on_interior():
    # oracle: the closed-form expression, written out independently
    p = make(a_max=5)
    rng = np.random.default_rng(7)
    V = rng.random(p.grid_shape) * 12.0
    for i, j in itertools.product(range(5), range(5)):  # no clamp triggered
        closed = ((p.c_s - p.c_c)
                  + p.gamma * p.lambda_s * V[i + 1, 1]
                  - p.gamma * p.lambda_c * V[j + 1, j + 1]
                  + p.gamma * (p.lambda_c - p.lambda_s) * V[i + 1, j + 1])
        assert delta(V, (i, j), p) == pytest.approx(closed, abs=1e-12)


def test_delta_is_q_difference_everywhere():
    # includes clamped boundary states
    p = make(a_max=4)
    rng = np.random.default_rng(11)
    V = rng.random(p.grid_shape) * 5.0
    for i, j in itertools.product(range(5), range(5)):
        assert delta(V, (i, j), p) == pytest.approx(
            q_value(V, (i, j), Action.SENSE, p) - q_value(V, (i, j), Action.COMM, p),
            abs=0.0)


def test_q_grids_match_scalar_q_value():
    p = make(a_max=6)
    rng = np.random.default_rng(3)
    V = rng.random(p.grid_shape) * 20.0
    q_s, q_c = q_grids(V, p)
    d = delta_grid(V, p)
    for i, j in itertools.product(range(7), range(7)):
        assert q_s[i, j] == q_value(V, (i, j), Action.SENSE, p)
        assert q_c[i, j] == q_value(V, (i, j), Action.COMM, p)
        assert d[i, j] == q_s[i, j] - q_c[i, j]


def test_q_grids_rejects_wrong_shape():
    p = make(a_max=4)
    with pytest.raises(ValueError, match="shape"):
        q_grids(np.zeros((3, 3)), p)


def q_grids_gather(V, p):
    """Reference: both Q grids through full-grid gathers of ``dynamics``."""
    ages = np.arange(p.n_ages)
    succ, fail, cost = dynamics(ages[:, None], ages[None, :], p)
    v_fail = V[fail]
    return tuple(cost[a] + p.gamma * (lam * V[succ[a]] + (1.0 - lam) * v_fail)
                 for a, lam in ((Action.SENSE, p.lambda_s), (Action.COMM, p.lambda_c)))


@pytest.mark.parametrize("a_max", [2, 3, 7, 30])
@pytest.mark.parametrize("overrides", [{}, dict(c_s=0, c_c=1, gamma=0.5),
                                       dict(lambda_s=0.9, lambda_c=0.1, gamma=0.0)])
def test_q_grids_equal_the_gather_reference(a_max, overrides):
    p = make(a_max=a_max, **overrides)
    rng = np.random.default_rng(a_max)
    for V in (rng.random(p.grid_shape) * 40.0, np.zeros(p.grid_shape)):
        before = V.copy()
        ref = q_grids_gather(V, p)
        assert all(np.array_equal(q, r) for q, r in zip(q_grids(V, p), ref))
        # a NaN-filled out: every cell must be written
        out = np.full((2,) + p.grid_shape, np.nan)
        assert q_grids(V, p, out=out) is out
        assert all(np.array_equal(q, r) for q, r in zip(out, ref))
        assert np.array_equal(V, before)


def test_q_grids_rejects_unusable_out():
    # out is one C-contiguous (2, n, n) float64 array, so a pair of grids
    # or a reversed view of a block is rejected too
    p = make(a_max=4)
    n = p.n_ages
    V = np.zeros(p.grid_shape)
    block = np.empty((3, n, n))
    bad = {"pair": (block[1], block[2]),
           "reversed view": block[2::-2],
           "shape": np.empty((3, n, n)),
           "dtype": np.empty((2, n, n), dtype=np.float32),
           "strided halves": np.empty((2, n, 2 * n))[:, :, ::2],
           "transposed halves": np.empty((2, n, n)).transpose(0, 2, 1)}
    for out in bad.values():
        for fn in (q_grids, bellman_backup):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                fn(V, p, out=out)


@pytest.mark.parametrize("a_max", [2, 7, 30])
@pytest.mark.parametrize("overrides", [{}, dict(c_s=0, c_c=0, gamma=0.5),
                                       dict(lambda_s=1.0, lambda_c=0.0, gamma=0.0)])
def test_stacked_out_in_every_rotation_view_equals_the_gather_reference(
        a_max, overrides):
    # solve's three grids: V in one slot of a block, out in the two
    # contiguous slots beside it (block[1:3] after V, block[0:2] before it)
    p = make(a_max=a_max, **overrides)
    rng = np.random.default_rng(a_max)
    for v_slot, view in ((0, np.s_[1:3]), (2, np.s_[0:2])):
        block = np.full((3,) + p.grid_shape, np.nan)
        block[v_slot] = rng.random(p.grid_shape) * 40.0
        V = block[v_slot]
        before = V.copy()
        ref = q_grids_gather(V, p)
        out = block[view]
        got = q_grids(V, p, out=out)
        assert got is out
        assert all(np.array_equal(q, r) for q, r in zip(got, ref))
        out[...] = np.nan
        W = bellman_backup(V, p, out=out)
        assert np.shares_memory(W, out[0]) and W.shape == p.grid_shape
        assert np.array_equal(W, np.minimum(*ref))
        assert np.array_equal(out[1], ref[1])
        assert np.array_equal(V, before)
        # the reversed view of the other two slots is not C-contiguous
        for fn in (q_grids, bellman_backup):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                fn(V, p, out=block[view][::-1])
        assert np.array_equal(V, before)


def test_stacked_out_rejects_overlap_and_bad_layout():
    p = make(a_max=4)
    n = p.n_ages
    block = np.zeros((3, n, n))
    for v_slot, view in ((0, np.s_[0:2]), (1, np.s_[0:2]), (1, np.s_[1:3]),
                         (2, np.s_[1:3])):
        # one half of out is V itself
        for fn in (q_grids, bellman_backup):
            with pytest.raises(ValueError, match="overlap"):
                fn(block[v_slot], p, out=block[view])
    # V straddles the end of out
    buf = np.zeros(3 * n * n)
    with pytest.raises(ValueError, match="overlap"):
        q_grids(buf[2 * n * n - 3:3 * n * n - 3].reshape(n, n), p,
                out=buf[:2 * n * n].reshape(2, n, n))
    # halves that overlap each other cannot be C-contiguous
    grid_strides = (8 * n, 8)
    halves_overlap = {
        "zero stride": np.lib.stride_tricks.as_strided(
            buf, (2, n, n), (0,) + grid_strides),
        "one row apart": np.lib.stride_tricks.as_strided(
            buf, (2, n, n), (8 * n,) + grid_strides),
        "one cell back": np.lib.stride_tricks.as_strided(
            buf[1:], (2, n, n), (-8,) + grid_strides),
    }
    V = np.zeros(p.grid_shape)
    for out in halves_overlap.values():
        with pytest.raises(ValueError, match="C-contiguous float64"):
            q_grids(V, p, out=out)


def test_backup_tables_are_read_only_and_per_params():
    p = make(a_max=5)
    tables = _backup_tables(p)
    assert _backup_tables(make(a_max=5)) is tables  # built once per params
    for t in tables:
        assert not t.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t.flat[0] = 0
    other = _backup_tables(make(a_max=5, c_c=0.3))
    assert other is not tables
    assert not np.array_equal(other[-1], tables[-1])  # the cost columns
    V = np.random.default_rng(5).random(p.grid_shape)
    assert np.array_equal(q_grids(V, make(a_max=5, c_c=0.3))[1],
                          q_grids_gather(V, make(a_max=5, c_c=0.3))[1])


def test_a_max_is_stored_as_int():
    for a_max in (5, 5.0, np.int64(5)):
        p = make(a_max=a_max)
        assert type(p.a_max) is int and p == make(a_max=5)
    with pytest.raises(ValueError, match="a_max"):
        make(a_max=5.5)
