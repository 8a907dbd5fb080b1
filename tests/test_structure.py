"""Structure-check tests: mechanics on constructed grids plus the certified
properties of solved instances.

The checks of run_all_checks hold for every solved instance here; the
submodularity checks, which stay out of that verdict, are exercised on
constructed grids (where their verdicts are provable) because solved grids
genuinely violate them along the switching curve — see the acceptance suite.
"""

import itertools

import numpy as np
import pytest

from aoi_isac import structure
from aoi_isac.model import ModelParams, delta_grid, q_grids
from aoi_isac.solver import extract_policy, value_iteration
from aoi_isac.structure import (check_delta_monotone, check_greedy,
                                check_increasing_differences, check_monotone,
                                check_q_submodular, check_single_crossing,
                                check_submodular, check_threshold_monotone,
                                run_all_checks)

IV = dict(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1, gamma=0.95)


def make(a_max=30, **overrides):
    return ModelParams(**{**IV, **overrides, "a_max": a_max})


def grid_outer(n, f):
    return np.array([[float(f(i, j)) for j in range(n)] for i in range(n)])


def test_monotone_pass_and_fail():
    n = 7
    assert check_monotone(grid_outer(n, lambda i, j: i + j)).passed
    r = check_monotone(grid_outer(n, lambda i, j: -i))
    assert not r.passed
    # every adjacent pair along the first coordinate violates
    assert len(r.violations) == (n - 1) * n
    assert all(v[0] == "alpha_s" for v in r.violations)
    assert all(v[3] > r.tolerance for v in r.violations)


def test_submodular_pass_and_fail():
    n = 6
    modular = check_submodular(grid_outer(n, lambda i, j: i + j))
    assert modular.passed and not modular.violations
    r = check_submodular(grid_outer(n, lambda i, j: i * j))
    assert not r.passed
    assert len(r.violations) == (n - 1) ** 2  # every block, cross-difference +1
    assert all(v[2] == pytest.approx(1.0) for v in r.violations)


def test_increasing_differences_pass_and_fail():
    n = 6
    p = make(a_max=n - 1)
    V = grid_outer(n, lambda i, j: i * j)
    r = check_increasing_differences(V, q_grids(V, p))
    assert r.passed and r.tolerance == 1e-9
    V = grid_outer(n, lambda i, j: -i * j)
    r = check_increasing_differences(V, q_grids(V, p))
    assert not r.passed
    rows = [v for v in r.violations if v[0] == "V"]
    assert len(rows) == (n - 1) ** 2  # every block, cross-difference -1
    assert all(v[3] == pytest.approx(1.0) for v in rows)
    assert {v[0] for v in r.violations} <= {"V", "sense", "comm"}


def test_increasing_differences_tolerance_is_at_least_8_ulps_of_max_v():
    p = make(a_max=5)
    V = grid_outer(6, lambda i, j: 1e6 + i * j)
    r = check_increasing_differences(V, q_grids(V, p), tol=1e-15)
    assert r.passed and r.tolerance == 8 * np.spacing(V.max())
    assert check_increasing_differences(V, q_grids(V, p), tol=1.0).tolerance == 1.0


def test_greedy_pass_and_one_flip():
    p = make(a_max=12)
    V, _, _ = value_iteration(p, tol=1e-9)
    policy = extract_policy(V, p)
    assert check_greedy(delta_grid(V, p), policy).passed
    d = delta_grid(V, p)
    i, j = np.unravel_index(np.argmax(np.abs(d)), d.shape)
    policy[i, j] ^= 1
    r = check_greedy(delta_grid(V, p), policy)
    assert r.violations == [(i, j, d[i, j])] and abs(d[i, j]) > r.tolerance


def test_greedy_accepts_either_action_where_delta_is_zero():
    p = make(a_max=4, c_c=IV["c_s"])
    V = np.zeros(p.grid_shape)
    assert not delta_grid(V, p).any()
    policy = extract_policy(V, p)
    policy[2, 3] ^= 1
    assert check_greedy(delta_grid(V, p), policy).passed


def test_delta_monotone_constant_v():
    p = make(a_max=6)
    r = check_delta_monotone(delta_grid(np.zeros(p.grid_shape), p), p)
    assert r.passed and r.lambda_ordering_ok
    assert "interior" in r.region


def test_delta_monotone_reference_instance():
    p = make()
    V, _, _ = value_iteration(p, tol=1e-9)
    r = check_delta_monotone(delta_grid(V, p), p)
    assert r.passed and r.lambda_ordering_ok


def test_delta_monotone_carries_lambda_flag_when_violated():
    # deliberately reversed link qualities: check still runs, flag is surfaced
    p = make(a_max=6, lambda_s=0.9, lambda_c=0.6)
    r = check_delta_monotone(delta_grid(grid_outer(7, lambda i, j: i + j), p), p)
    assert r.lambda_ordering_ok is False


def test_q_submodular_zero_v_is_modular():
    p = make(a_max=6)
    r = check_q_submodular(q_grids(np.zeros(p.grid_shape), p))
    assert r.passed and not r.violations


def test_q_submodular_flags_supermodular_input():
    p = make(a_max=5)
    r = check_q_submodular(q_grids(grid_outer(6, lambda i, j: i * j), p))
    assert not r.passed
    assert {v[0] for v in r.violations} <= {"sense", "comm"}
    assert len(r.violations) >= 1


def test_q_grids_inherit_submodularity_from_f_members():
    # for monotone + submodular V both Q grids stay submodular on the
    # interior (stage cost modular; clamped transitions are lattice maps)
    p = make(a_max=7)
    n = p.n_ages
    rng = np.random.default_rng(21)
    for _ in range(25):
        a, b, c, d = rng.random(4)
        V = grid_outer(n, lambda i, j: a * np.sqrt(i + j + 1) + b * max(i, j)
                       + c * i + d * j)
        assert check_monotone(V).passed and check_submodular(V).passed
        assert check_q_submodular(q_grids(V, p)).passed


def test_delta_direction_properties_for_f_members():
    # with lambda_c >= lambda_s and V in F: delta nondecreasing in alpha_s on
    # the whole interior; nonincreasing in alpha_b wherever alpha_s >= alpha_b
    p = make(a_max=7)
    n = p.n_ages
    rng = np.random.default_rng(22)
    for _ in range(25):
        a, b = rng.random(2)
        V = grid_outer(n, lambda i, j: a * np.log1p(i + j) + b * max(i, j) + i)
        d = delta_grid(V, p)[: p.a_max, : p.a_max]
        assert np.all(np.diff(d, axis=0) >= -1e-12)
        rise = np.diff(d, axis=1)
        for i, j in itertools.product(range(p.a_max), range(p.a_max - 1)):
            if i >= j:
                assert rise[i, j] <= 1e-12


def listed(excess, tol, *label):
    """(*label, i, j, excess) wherever excess > tol, row-major."""
    i, j = np.nonzero(excess > tol)
    return [(*label, a, b, v)
            for a, b, v in zip(i.tolist(), j.tolist(), excess[i, j].tolist())]


def cross(grid):
    return grid[1:, 1:] + grid[:-1, :-1] - grid[1:, :-1] - grid[:-1, 1:]


def typed(violations):
    return [(v, tuple(type(x) for x in v)) for v in violations]


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_difference_checks_list_what_their_formulas_give(tol):
    """Each difference check lists exactly what its defining formula gives,
    values, order and Python types alike: a drop is -np.diff, increasing
    differences are the cross-differences of the negated grid, and a
    threshold drop is (int(j), int(drop))."""
    rng = np.random.default_rng(31)
    listed_any = 0
    for k in range(40):
        p = make(a_max=int(rng.integers(2, 9)))
        a = p.a_max
        # integer-valued grids have differences of exactly 0
        V = (rng.integers(-2, 3, p.grid_shape).astype(float) if k % 4 == 0
             else rng.normal(size=p.grid_shape) * rng.choice([1e-3, 1.0, 50.0]))
        V *= rng.choice([-1.0, 1.0])
        q = [g[:a, :a] for g in q_grids(V, p)]
        d = delta_grid(V, p)[:a, :a]
        r = check_increasing_differences(V, q_grids(V, p), tol)
        t = r.tolerance
        assert t == max(tol, 8 * np.spacing(np.abs(V).max()))
        tau = rng.integers(-1, a + 1, a + 1)
        drop = -np.diff(tau)
        expected = [
            (check_monotone(V, tol),
             listed(-np.diff(V, axis=0), tol, "alpha_s")
             + listed(-np.diff(V, axis=1), tol, "alpha_b")),
            (check_submodular(V, tol), listed(cross(V), tol)),
            (r, listed(cross(-V), t, "V") + listed(cross(-q[0]), t, "sense")
             + listed(cross(-q[1]), t, "comm")),
            (check_delta_monotone(delta_grid(V, p), p, tol),
             listed(-np.diff(d, axis=0), tol, "alpha_s")
             + listed(np.diff(d, axis=1), tol, "alpha_b")),
            (check_q_submodular(q_grids(V, p), tol),
             listed(cross(q[0]), tol, "sense") + listed(cross(q[1]), tol, "comm")),
            (check_threshold_monotone(tau),
             [(int(j), int(drop[j])) for j in np.flatnonzero(drop > 0)]),
        ]
        for report, want in expected:
            assert typed(report.violations) == typed(want), report.check_name
            listed_any += len(want)
    assert listed_any > 0


def test_threshold_monotone():
    assert check_threshold_monotone(np.array([2, 2, 2, 2])).passed
    r = check_threshold_monotone(np.array([0, 2, 1]))
    assert not r.passed
    assert r.violations == [(1, 1)]  # drop of 1 at index 1 -> 2


def test_single_crossing_check():
    S, C = 0, 1
    good = np.array([[S, S], [S, C], [C, C]])
    assert check_single_crossing(good).passed
    bad = np.array([[S, S], [C, S], [S, C]])
    r = check_single_crossing(bad)
    assert not r.passed
    assert (0, 2) in r.violations  # comm at alpha_s=1, sense again at alpha_s=2


def test_reports_are_reproducible_and_pure():
    p = make(a_max=8)
    rng = np.random.default_rng(4)
    V = rng.random(p.grid_shape) * 9.0
    before = V.copy()
    first = check_submodular(V)
    second = check_submodular(V)
    assert first == second
    assert np.array_equal(V, before)
    d1 = check_delta_monotone(delta_grid(V, p), p)
    d2 = check_delta_monotone(delta_grid(V, p), p)
    assert d1 == d2 and np.array_equal(V, before)


def test_checks_leave_the_grids_they_are_handed_unchanged():
    p = make(a_max=8)
    rng = np.random.default_rng(5)
    V = rng.random(p.grid_shape) * 9.0
    Q, d = q_grids(V, p), delta_grid(V, p)
    policy = rng.integers(0, 2, p.grid_shape)
    before = [g.copy() for g in (V, Q, d, policy)]
    reports = [check_increasing_differences(V, Q), check_q_submodular(Q),
               check_delta_monotone(d, p), check_greedy(d, policy),
               *run_all_checks(V, policy, p)]
    assert all(r.violations for r in reports[:4])
    assert all(np.array_equal(g, b) for g, b in zip((V, Q, d, policy), before))


def test_report_serialisation():
    r = check_monotone(grid_outer(4, lambda i, j: -i))
    d = r.to_dict()
    assert d["check"] == "monotone" and d["passed"] is False
    assert d["n_violations"] == len(d["violations"]) == len(r.violations)
    assert all(isinstance(v, list) for v in d["violations"])


def test_run_all_checks_order_and_certified_subset():
    p = make(a_max=12)
    V, policy, rep = value_iteration(p, tol=1e-9)
    assert rep.converged
    reports = run_all_checks(V, policy, p)
    names = [r.check_name for r in reports]
    assert names == ["monotone", "increasing_differences", "delta_monotone",
                     "greedy", "single_crossing", "threshold_monotone"]
    by_name = {r.check_name: r for r in reports}
    # the threshold-structure certificate holds on every solved instance
    for name in ("monotone", "delta_monotone", "single_crossing",
                 "threshold_monotone"):
        assert by_name[name].passed, name


def test_run_all_checks_builds_q_and_delta_once_each(monkeypatch):
    p = make(a_max=12)
    V, policy, _ = value_iteration(p, tol=1e-9)
    calls = []

    def counted(name):
        fn = getattr(structure, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("q_grids", "delta_grid"):
        monkeypatch.setattr(structure, name, counted(name))
    run_all_checks(V, policy, p)
    assert sorted(calls) == ["delta_grid", "q_grids"]


@pytest.mark.parametrize("kind", ["nan", "inf", "nan_from_row_6"])
def test_run_all_checks_rejects_a_non_finite_value_grid(kind):
    # every comparison with nan is false, so such a grid would pass
    p = make(a_max=12)
    V, policy, _ = value_iteration(p, tol=1e-9)
    if kind == "nan_from_row_6":
        V[6:] = np.nan
    else:
        V[:] = float(kind)
    with pytest.raises(ValueError, match="non-finite"):
        run_all_checks(V, policy, p)


@pytest.mark.parametrize("overrides", [
    {}, dict(lambda_s=0.0, lambda_c=1.0), dict(lambda_s=1.0, lambda_c=0.0),
    dict(lambda_s=0.0, lambda_c=0.0), dict(lambda_s=1.0, lambda_c=1.0),
    dict(gamma=0.0)])
def test_q_cross_differences_are_those_of_v_shifted_and_scaled(overrides):
    """On the unclamped interior, cross(Q_a)[i, j] = gamma (1 - lambda_a)
    cross(V)[i + 1, j + 1]: the stage cost and the success term each depend
    on one age only, so they cancel in a cross-difference, and the fail
    successor is (i + 1, j + 1). So the Q grids' sign is V's."""
    rng = np.random.default_rng(33)
    for k in range(20):
        p = make(a_max=int(rng.integers(2, 13)), **overrides)
        a = p.a_max
        V = (value_iteration(p, tol=1e-9)[0] if k % 2 == 0
             else rng.normal(size=p.grid_shape) * rng.choice([1e-3, 1.0, 50.0]))
        Q = q_grids(V, p)
        ulps = 16 * np.spacing(np.abs(Q).max())
        for q, lam in zip(Q, (p.lambda_s, p.lambda_c)):
            want = p.gamma * (1 - lam) * cross(V)[1:, 1:]
            assert np.abs(cross(q[:a, :a]) - want).max() <= ulps, (k, lam)
