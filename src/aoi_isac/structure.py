"""Numerical certificates for the structural properties of solved grids.

Each check is a pure predicate on the grid it tests, returning a
StructureReport: V, its Q grids as q_grids stacks them, the action
difference d = Q_sense - Q_comm, a policy (read by model.comm_mask, which
rejects a cell that is not an action with ValueError) or its switching curve.
run_all_checks derives Q and d from V, each once, and runs the six checks
that a solved (V, policy) pair passes: coordinatewise monotonicity of V,
increasing differences of V and of both Q grids, single-crossing and
antitone behaviour of d, a policy greedy for V, and monotonicity of the
switching curve. Inequalities are tested up to a floating-point
tolerance, which only absorbs rounding accumulated by the solver. A
cross-difference adds four values near max V, so its rounding scales with
max V: the increasing-differences check widens the tolerance to at least 8
ulps of max |V| and reports the one it used.

Every difference check lists, through one signed kernel, the cells of a
difference array (along an age, or across 2x2 blocks) where the sign times
the difference exceeds the tolerance. increasing_differences and
submodular are its two signs on the cross-differences; check_submodular
and check_q_submodular stay out of the verdict. They report violations on
solved grids, and those are real, not rounding: the 2x2 cross-differences
of a solved value grid and of its Q grids are nonnegative and positive
along the switching curve. The acceptance suite checks this sign on every
swept instance, and proves it for the value grid in exact arithmetic on a
16-state instance.

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

from .model import ModelParams, comm_mask, delta_grid, q_grids
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
    """(*label, *index, values[index]) for every True cell of mask, row-major."""
    index = np.nonzero(mask)
    return [(*label, *cell)
            for cell in zip(*(i.tolist() for i in index), values[index].tolist())]


def _excesses(values: np.ndarray, tol: float, sign: int, *label) -> list:
    """The cells of a fresh difference array where sign * values exceeds
    tol, listed with that excess; sign -1 negates values in place, exactly."""
    if sign < 0:
        np.negative(values, out=values)
    return _listed(values > tol, values, *label)


def _cross(grid: np.ndarray) -> np.ndarray:
    """Cross-differences grid(a+1,b+1) + grid(a,b) - grid(a+1,b) - grid(a,b+1)."""
    return grid[1:, 1:] + grid[:-1, :-1] - grid[1:, :-1] - grid[:-1, 1:]


def _interior(grid: np.ndarray) -> str:
    """The region of the checks on the unclamped interior of a grid, or of a
    Q pair, of n = a_max + 1 ages."""
    return (f"interior alpha_s, alpha_b <= {grid.shape[-1] - 2} "
            "(saturated row/column skipped)")


def _q_excesses(Q: np.ndarray, tol: float, sign: int) -> list:
    """Cross-difference excesses of both Q grids on the unclamped interior."""
    return [v for label, q in zip(("sense", "comm"), Q)
            for v in _excesses(_cross(q[:-1, :-1]), tol, sign, label)]


def check_monotone(V: np.ndarray, tol: float = DEFAULT_TOL) -> StructureReport:
    """Coordinatewise nondecreasing in both ages, over all adjacent pairs."""
    V = np.asarray(V, dtype=float)
    violations = (_excesses(np.diff(V, axis=0), tol, -1, "alpha_s")
                  + _excesses(np.diff(V, axis=1), tol, -1, "alpha_b"))
    return StructureReport("monotone", violations, tol)


def check_submodular(V: np.ndarray, tol: float = DEFAULT_TOL) -> StructureReport:
    """V(a+1,b+1) + V(a,b) <= V(a+1,b) + V(a,b+1) on every 2x2 block."""
    V = np.asarray(V, dtype=float)
    return StructureReport("submodular", _excesses(_cross(V), tol, 1), tol)


def check_increasing_differences(V: np.ndarray, Q: np.ndarray,
                                 tol: float = DEFAULT_TOL) -> StructureReport:
    """V(a+1,b+1) + V(a,b) >= V(a+1,b) + V(a,b+1) on every 2x2 block of V,
    and of both action-value grids Q (as q_grids returns them) on the
    unclamped interior. The tolerance is at least 8 ulps of max |V|, the
    rounding of a cross-difference of values near max V."""
    V = np.asarray(V, dtype=float)
    tol = max(tol, 8 * float(np.spacing(np.abs(V).max())))
    violations = (_excesses(_cross(V), tol, -1, "V")
                  + _q_excesses(Q, tol, -1))
    return StructureReport("increasing_differences", violations, tol,
                           region=f"V: full grid; Q: {_interior(Q)}")


def check_delta_monotone(d: np.ndarray, params: ModelParams,
                         tol: float = DEFAULT_TOL) -> StructureReport:
    """Action difference d = Q_sense - Q_comm nondecreasing in alpha_s and
    nonincreasing in alpha_b, on the unclamped interior. params only sets
    the report's lambda_ordering_ok."""
    d = np.asarray(d, dtype=float)
    interior = d[:-1, :-1]
    violations = (_excesses(np.diff(interior, axis=0), tol, -1, "alpha_s")
                  + _excesses(np.diff(interior, axis=1), tol, 1, "alpha_b"))
    return StructureReport("delta_monotone", violations, tol,
                           region=_interior(d),
                           lambda_ordering_ok=params.lambda_ordering_ok)


def check_q_submodular(Q: np.ndarray, tol: float = DEFAULT_TOL) -> StructureReport:
    """2x2-block submodularity of both action-value grids Q (as q_grids
    returns them) on the unclamped interior. Passes whenever V is monotone
    and submodular. A solved V is not submodular, and its Q grids fail this
    check as well."""
    return StructureReport("q_submodular", _q_excesses(Q, tol, 1), tol,
                           region=_interior(Q))


def check_greedy(d: np.ndarray, policy: np.ndarray,
                 tol: float = DEFAULT_TOL) -> StructureReport:
    """Comm where the action difference d > 0, sense elsewhere: the policy
    is greedy for d. Violations list each state off this rule where |d| >
    tol, as (alpha_s, alpha_b, delta); a non-action cell raises ValueError."""
    d = np.asarray(d, dtype=float)
    wrong = (comm_mask(policy) != (d > 0)) & (np.abs(d) > tol)
    return StructureReport("greedy", _listed(wrong, d), tol)


def check_threshold_monotone(tau: np.ndarray) -> StructureReport:
    """Switching curve nondecreasing in alpha_b; thresholds are integers so
    no tolerance applies."""
    return StructureReport("threshold_monotone", _excesses(np.diff(tau), 0, -1),
                           tolerance=0.0, region="tau over alpha_b")


def check_single_crossing(policy: np.ndarray) -> StructureReport:
    """Each policy row (fixed alpha_b, alpha_s ascending) must be a sense
    block followed by a comm block; violations list every comm-to-sense flip
    as (alpha_b, alpha_s)."""
    comm = comm_mask(policy)
    # the flips, comm at (alpha_s = i, alpha_b = j) and sense at i + 1, from
    # the transpose: column by column, as (alpha_b, alpha_s)
    b, s = np.nonzero((comm[:-1] & ~comm[1:]).T)
    violations = list(zip(b.tolist(), (s + 1).tolist()))
    return StructureReport("single_crossing", violations, tolerance=0.0,
                           region="policy rows, alpha_s ascending")


def run_all_checks(V: np.ndarray, policy: np.ndarray, params: ModelParams,
                   tol: float = DEFAULT_TOL) -> list[StructureReport]:
    """The full certificate: every structural check on a solved (V, policy)
    pair, in CHECK_NAMES order, from one Q pair of V (freed after its check)
    and one action difference. A non-finite V raises ValueError."""
    V = np.asarray(V, dtype=float)
    if not np.isfinite(V).all():
        raise ValueError("the value grid has a non-finite cell")
    tau, _ = extract_thresholds(policy)
    reports = [check_monotone(V, tol),
               check_increasing_differences(V, q_grids(V, params), tol)]
    d = delta_grid(V, params)
    return reports + [
        check_delta_monotone(d, params, tol),
        check_greedy(d, policy, tol),
        check_single_crossing(policy),
        check_threshold_monotone(tau),
    ]
