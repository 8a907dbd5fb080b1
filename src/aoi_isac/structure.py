"""Numerical certificates for the structural properties of solved grids.

Each check is a pure function returning a StructureReport. run_all_checks
runs the six that a solved (V, policy) pair passes: coordinatewise
monotonicity of V, increasing differences of V and of both action-value
grids, single-crossing and antitone behaviour of the action difference, a
policy greedy for V, and monotonicity of the switching curve. Inequalities
are tested up to a floating-point tolerance, which only absorbs rounding
accumulated by the solver. A cross-difference adds four values near max V,
so its rounding scales with max V: the increasing-differences check widens
the tolerance to at least 8 ulps of max |V| and reports the one it used.

check_submodular and check_q_submodular test the opposite sign and stay
out of the verdict. They report violations on solved grids, and those are
real, not rounding: the 2x2 cross-differences of a solved value grid and of
its Q grids are nonnegative and positive along the switching curve. The
acceptance suite checks this sign on every swept instance, and proves it
for the value grid in exact arithmetic on a 16-state instance.

Violations are collected exhaustively in row-major coordinate order, never
truncated, so counterexamples can be inspected. Checks that quantify over
the action difference or the Q grids are restricted to the unclamped
interior (both ages <= a_max - 1): saturated states mix transition rows and
the closed-form difference does not apply there. Skipped regions are always
named in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Action, ModelParams, delta_grid, q_grids
from .solver import extract_thresholds

DEFAULT_TOL = 1e-9
# the check names, in the order run_all_checks returns the reports
CHECK_NAMES = ("monotone", "increasing_differences", "delta_monotone",
               "greedy", "single_crossing", "threshold_monotone")


@dataclass
class StructureReport:
    check_name: str
    violations: list = field(default_factory=list)
    tolerance: float = DEFAULT_TOL
    region: str = "full grid"
    lambda_ordering_ok: bool | None = None  # set by checks that rely on lambda_c >= lambda_s

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        d = {
            "check": self.check_name,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "region": self.region,
            "n_violations": len(self.violations),
            "violations": [list(v) for v in self.violations],
        }
        if self.lambda_ordering_ok is not None:
            d["lambda_ordering_ok"] = self.lambda_ordering_ok
        return d


def _listed(mask: np.ndarray, values: np.ndarray, *label) -> list:
    """(*label, i, j, values[i, j]) for every True cell of mask, row-major."""
    i, j = np.nonzero(mask)
    return [(*label, a, b, v)
            for a, b, v in zip(i.tolist(), j.tolist(), values[i, j].tolist())]


def _axis_drops(grid: np.ndarray, axis: int, tol: float, label: str) -> list:
    """Violations of nondecreasing-along-axis, as (label, i, j, magnitude)."""
    drop = -np.diff(grid, axis=axis)
    return _listed(drop > tol, drop, label)


def check_monotone(V: np.ndarray, tol: float = DEFAULT_TOL) -> StructureReport:
    """Coordinatewise nondecreasing in both ages, over all adjacent pairs."""
    V = np.asarray(V, dtype=float)
    violations = _axis_drops(V, 0, tol, "alpha_s") + _axis_drops(V, 1, tol, "alpha_b")
    return StructureReport("monotone", violations, tol)


def _submodular_excesses(grid: np.ndarray, tol: float, *label) -> list:
    """Positive cross-differences on 2x2 blocks, as (*label, a, b, excess)."""
    excess = grid[1:, 1:] + grid[:-1, :-1] - grid[1:, :-1] - grid[:-1, 1:]
    return _listed(excess > tol, excess, *label)


def check_submodular(V: np.ndarray, tol: float = DEFAULT_TOL) -> StructureReport:
    """V(a+1,b+1) + V(a,b) <= V(a+1,b) + V(a,b+1) on every 2x2 block."""
    V = np.asarray(V, dtype=float)
    violations = _submodular_excesses(V, tol)
    return StructureReport("submodular", violations, tol)


def check_increasing_differences(V: np.ndarray, params: ModelParams,
                                 tol: float = DEFAULT_TOL) -> StructureReport:
    """V(a+1,b+1) + V(a,b) >= V(a+1,b) + V(a,b+1) on every 2x2 block of V,
    and of both action-value grids on the unclamped interior. The
    tolerance is at least 8 ulps of max |V|, the rounding of a
    cross-difference of values near max V."""
    V = np.asarray(V, dtype=float)
    tol = max(tol, 8 * float(np.spacing(np.abs(V).max())))
    q_sense, q_comm = q_grids(V, params)
    interior = (slice(params.a_max), slice(params.a_max))
    violations = (_submodular_excesses(-V, tol, "V")
                  + _submodular_excesses(-q_sense[interior], tol, "sense")
                  + _submodular_excesses(-q_comm[interior], tol, "comm"))
    return StructureReport(
        "increasing_differences", violations, tol,
        region=f"V: full grid; Q: interior alpha_s, alpha_b <= "
               f"{params.a_max - 1} (saturated row/column skipped)",
    )


def check_delta_monotone(V: np.ndarray, params: ModelParams,
                         tol: float = DEFAULT_TOL) -> StructureReport:
    """Action difference nondecreasing in alpha_s and nonincreasing in
    alpha_b, on the unclamped interior."""
    d = delta_grid(V, params)[: params.a_max, : params.a_max]
    violations = _axis_drops(d, 0, tol, "alpha_s")
    rise = np.diff(d, axis=1)
    violations += _listed(rise > tol, rise, "alpha_b")
    return StructureReport(
        "delta_monotone", violations, tol,
        region=f"interior alpha_s, alpha_b <= {params.a_max - 1} "
               f"(saturated row/column skipped)",
        lambda_ordering_ok=params.lambda_ordering_ok,
    )


def check_q_submodular(V: np.ndarray, params: ModelParams,
                       tol: float = DEFAULT_TOL) -> StructureReport:
    """2x2-block submodularity of both action-value grids on the unclamped
    interior. Passes whenever V is monotone and submodular. A solved V is
    not submodular, and its Q grids fail this check as well."""
    q_sense, q_comm = q_grids(V, params)
    interior = (slice(params.a_max), slice(params.a_max))
    violations = (_submodular_excesses(q_sense[interior], tol, "sense")
                  + _submodular_excesses(q_comm[interior], tol, "comm"))
    return StructureReport(
        "q_submodular", violations, tol,
        region=f"interior alpha_s, alpha_b <= {params.a_max - 1} "
               f"(saturated row/column skipped)",
    )


def check_greedy(V: np.ndarray, policy: np.ndarray, params: ModelParams,
                 tol: float = DEFAULT_TOL) -> StructureReport:
    """The policy is greedy for V: comm where Q_sense - Q_comm > 0, sense
    elsewhere. Violations list each state that breaks this rule and whose
    action difference exceeds tol in magnitude, as (alpha_s, alpha_b,
    delta)."""
    d = delta_grid(V, params)
    wrong = (np.asarray(policy) != (d > 0)) & (np.abs(d) > tol)
    return StructureReport("greedy", _listed(wrong, d), tol)


def check_threshold_monotone(tau: np.ndarray) -> StructureReport:
    """Switching curve nondecreasing in alpha_b; thresholds are integers so
    no tolerance applies."""
    tau = np.asarray(tau)
    drop = -np.diff(tau)
    bad = np.flatnonzero(drop > 0)
    violations = [(int(j), int(drop[j])) for j in bad]
    return StructureReport("threshold_monotone", violations, tolerance=0.0,
                           region="tau over alpha_b")


def check_single_crossing(policy: np.ndarray) -> StructureReport:
    """Each policy row (fixed alpha_b, alpha_s ascending) must be a sense
    block followed by a comm block; violations list every comm-to-sense flip
    as (alpha_b, alpha_s)."""
    policy = np.asarray(policy)
    # flips[i, j]: comm at (alpha_s = i, alpha_b = j), sense at i + 1; the
    # transpose lists them column by column, as (alpha_b, alpha_s)
    flips = (policy[1:] == Action.SENSE) & (policy[:-1] == Action.COMM)
    b, s = np.nonzero(flips.T)
    violations = list(zip(b.tolist(), (s + 1).tolist()))
    return StructureReport("single_crossing", violations, tolerance=0.0,
                           region="policy rows, alpha_s ascending")


def run_all_checks(V: np.ndarray, policy: np.ndarray, params: ModelParams,
                   tol: float = DEFAULT_TOL) -> list[StructureReport]:
    """The full certificate: every structural check on a solved (V, policy)
    pair, in CHECK_NAMES order."""
    tau, _ = extract_thresholds(policy)
    return [
        check_monotone(V, tol),
        check_increasing_differences(V, params, tol),
        check_delta_monotone(V, params, tol),
        check_greedy(V, policy, params, tol),
        check_single_crossing(policy),
        check_threshold_monotone(tau),
    ]
