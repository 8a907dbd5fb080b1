"""Whole-array policy scans against per-column reference loops.

`extract_thresholds` and `check_single_crossing` scan every column of a
policy grid at once. The references below walk one column at a time; the
scans must agree with them on tau, the single-crossing flag and the
violation list, order included.
"""

import numpy as np
import pytest

from aoi_isac.model import Action
from aoi_isac.solver import extract_thresholds
from aoi_isac.structure import check_single_crossing

S, C = int(Action.SENSE), int(Action.COMM)


def thresholds_per_column(policy):
    tau = np.empty(policy.shape[1], dtype=int)
    ok = True
    for j in range(policy.shape[1]):
        sense_idx = np.flatnonzero(policy[:, j] == Action.SENSE)
        tau[j] = sense_idx[-1] if sense_idx.size else -1
        if sense_idx.size != tau[j] + 1:
            ok = False
    return tau, ok


def flips_per_column(policy):
    violations = []
    for j in range(policy.shape[1]):
        col = policy[:, j]
        flips = np.flatnonzero((col[1:] == Action.SENSE) & (col[:-1] == Action.COMM))
        violations += [(j, int(i) + 1) for i in flips]
    return violations


def reentries():
    pol = np.full((9, 4), C, dtype=np.int8)
    pol[:, 2] = [S, C, S, C, C, S, S, C, S]  # three comm-to-sense flips
    pol[:3, 0] = S
    pol[7, 3] = S
    return pol


def policies():
    rng = np.random.default_rng(20260122)
    cases = {
        "all_sense": np.full((6, 6), S, dtype=np.int8),
        "all_comm": np.full((6, 6), C, dtype=np.int8),
        "reentries": reentries(),
        "single_row": np.array([[S, C, C, S, C]], dtype=np.int8),
        "single_column": np.array([[C], [S], [S], [C], [S]], dtype=np.int8),
        "one_cell_sense": np.array([[S]], dtype=np.int8),
        "one_cell_comm": np.array([[C]], dtype=np.int8),
        "threshold": (np.arange(8)[:, None] > np.arange(8)[None, :] // 2).astype(np.int8),
    }
    for k, p in enumerate((0.1, 0.5, 0.9)):
        cases[f"random_{p}"] = (rng.random((12, 7 + k)) < p).astype(np.int8)
    cases["random_int64"] = rng.integers(0, 2, size=(10, 10))
    return cases


@pytest.mark.parametrize("name, policy", list(policies().items()))
def test_scans_match_the_per_column_reference(name, policy):
    tau, ok = extract_thresholds(policy)
    want_tau, want_ok = thresholds_per_column(policy)
    assert tau.dtype == want_tau.dtype
    assert tau.tolist() == want_tau.tolist()
    assert ok is want_ok

    report = check_single_crossing(policy)
    want = flips_per_column(policy)
    assert report.violations == want  # order included: by alpha_b, then alpha_s
    assert all(type(x) is int for v in report.violations for x in v)
    assert report.passed is (not want)
    assert report.passed is want_ok


def test_reentries_are_listed_column_by_column():
    report = check_single_crossing(reentries())
    assert report.violations == [(2, 2), (2, 5), (2, 8), (3, 7)]
    tau, ok = extract_thresholds(reentries())
    assert tau.tolist() == [2, -1, 8, 7] and not ok
