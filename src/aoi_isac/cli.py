"""Command-line entry point: solve / verify / simulate / sweep.

Configuration comes from one JSON document plus dotted-name flags
(--model.gamma 0.9 beats the file). Every artifact but trajectory.csv and
value_surface.pgm embeds the resolved config, and all are byte-identical
across reruns with the same config and seed.

Exit codes: 0 success, 2 invalid config or input, 3 non-convergence,
4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import gridio, sim, solver, structure
from .config import FIELDS, RunConfig, SolverConfig, build_config, load_config_file
from .model import ModelParams, check_policy_grid

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_CHECK_FAILED = 4

# the exit code of each sweep row status other than "ok"
SWEEP_EXITS = {"rejected": EXIT_BAD_CONFIG, "not_converged": EXIT_NOT_CONVERGED,
               "check_failed": EXIT_CHECK_FAILED}

SWEEP_AXES = tuple(dotted.partition(".")[2] for dotted, typ in FIELDS.items()
                   if dotted.startswith("model.") and typ is float)


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE", help="JSON config document")
    for dotted, typ in FIELDS.items():
        # build_config splits the text of a tuple field at its commas
        p.add_argument(f"--{dotted}", dest=dotted, default=None, metavar="X",
                       type=typ if typ in (int, float) else str,
                       help=f"override {dotted}")


def _resolve_config(args) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    overrides = {dotted: val for dotted, val in vars(args).items()
                 if dotted in FIELDS and val is not None}
    return build_config(file_values, overrides)


def _config_comment(cfg: RunConfig, status: str) -> list[str]:
    return [
        "config = " + json.dumps(cfg.to_dict(), sort_keys=True),
        f"status = {status}",
        "layout: rows alpha_s ascending, cols alpha_b ascending",
    ]


def _outdir(cfg: RunConfig) -> Path:
    d = Path(cfg.output.directory)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output.directory {d}: {exc.strerror}") from None
    return d


def _solve(params: ModelParams, solver_cfg: SolverConfig):
    return solver.solve(params, tol=solver_cfg.tol, max_iter=solver_cfg.max_iter)


def _model_mismatch(path: Path, comments: list[str],
                    params: ModelParams) -> list[str]:
    """The model fields, as 'model.<name>=<solved> (not <wanted>)', in which
    the 'config =' comment of the solve artifact at path differs from
    params; none when the artifact has no such comment."""
    for comment in comments:
        if comment.startswith("config = "):
            try:
                solved = dict(json.loads(comment[len("config = "):])["model"])
            except (ValueError, TypeError, KeyError):
                raise ValueError(f"{path}: 'config =' comment has no model "
                                 f"object") from None
            return [f"model.{k}={solved.get(k)!r} (not {v!r})"
                    for k, v in dataclasses.asdict(params).items()
                    if solved.get(k) != v]
    return []


def _write_solve_artifacts(cfg: RunConfig, V, policy, report) -> None:
    tau, sc_ok = solver.extract_thresholds(policy)
    out = _outdir(cfg)
    status = "converged" if report.converged else "partial"
    comments = _config_comment(cfg, status)
    formats = cfg.output.formats
    if "csv" in formats:
        gridio.write_grid_csv(out / "value.csv", V, comments)
        gridio.write_grid_csv(out / "policy.csv", policy, comments)
        tau_lines = [f"# {c}" for c in comments] + ["alpha_b,tau"]
        tau_lines += [f"{j},{t}" for j, t in enumerate(tau.tolist())]
        (out / "thresholds.csv").write_text("\n".join(tau_lines) + "\n")
    if "json" in formats:
        gridio.write_json(out / "solve_report.json", {
            "config": cfg.to_dict(),
            "status": status,
            "converged": report.converged,
            "iterations": report.iterations,
            "final_sweep_delta": report.final_sweep_delta,
            "suboptimality_bound": report.suboptimality_bound,
            "single_crossing_ok": sc_ok,
            "lambda_ordering_ok": cfg.model.lambda_ordering_ok,
            "tau": tau.tolist(),
        })
    if "ascii" in formats:
        (out / "decision_map.txt").write_text(
            gridio.decision_map_text(policy, comments))
        (out / "value_surface.pgm").write_text(gridio.value_pgm_text(V))


def cmd_solve(cfg: RunConfig) -> int:
    V, policy, report = _solve(cfg.model, cfg.solver)
    _write_solve_artifacts(cfg, V, policy, report)
    print(f"solve: iterations={report.iterations} "
          f"policy_evaluations={len(report.policy_changes)} "
          f"final_sweep_delta={report.final_sweep_delta:.3e} "
          f"suboptimality_bound={report.suboptimality_bound:.3e} "
          f"wall_time={report.wall_time:.3f}s")
    if not report.converged:
        print("solve: NOT converged (artifacts written with status=partial)",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    value_path, policy_path = out / "value.csv", out / "policy.csv"
    have_v, have_p = value_path.exists(), policy_path.exists()
    if have_v != have_p:
        missing = policy_path if have_v else value_path
        raise ValueError(f"incomplete solve artifacts in {out} (missing "
                         f"{missing.name}); run solve or remove the leftover file")
    if have_v:
        V, v_comments = gridio.read_grid_csv(value_path)
        policy, p_comments = gridio.read_policy_csv(policy_path)
        foreign = [f"{path} was solved for another model: {', '.join(fields)}"
                   for path, comments in ((value_path, v_comments),
                                          (policy_path, p_comments))
                   if (fields := _model_mismatch(path, comments, cfg.model))]
        if foreign:
            raise ValueError("; ".join(foreign))
        mismatched = [f"{path.name} {grid.shape}"
                      for path, grid in ((value_path, V), (policy_path, policy))
                      if grid.shape != cfg.model.grid_shape]
        if mismatched:
            raise ValueError(f"artifact grids {', '.join(mismatched)} do not match "
                             f"model.a_max={cfg.model.a_max} {cfg.model.grid_shape}")
        source = "artifacts"
    else:
        V, policy, report = _solve(cfg.model, cfg.solver)
        source = "in-process"
        if not report.converged:
            raise RuntimeError("in-process solve did not converge; nothing to verify")

    reports = structure.run_all_checks(V, policy, cfg.model, tol=cfg.solver.tol)
    all_passed = all(r.passed for r in reports)
    bundle = {
        "config": cfg.to_dict(),
        "source": source,
        "lambda_ordering_ok": cfg.model.lambda_ordering_ok,
        "all_passed": all_passed,
        "checks": [r.to_dict() for r in reports],
    }
    gridio.write_json(out / "verify_report.json", bundle)
    if not cfg.model.lambda_ordering_ok:
        print("verify: note: lambda_c < lambda_s, threshold-structure guarantees "
              "do not apply", file=sys.stderr)
    for r in reports:
        print(f"verify: {r.check_name}: {'pass' if r.passed else 'FAIL'} "
              f"({len(r.violations)} violations, region: {r.region})")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _number(text: str, name: str) -> float:
    """float(text), or a ValueError that names the flag entry (name) that
    text came from."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name} is not a number") from None


def _resolve_policy(cfg: RunConfig, source: str, policy_file: str | None):
    """Returns (policy, label, v_star or None). v_star is only available for
    the optimal policy, where the solve happens anyway. A policy file's grid
    is checked here, before the output directory is made."""
    if policy_file is not None:
        policy, _ = gridio.read_policy_csv(policy_file)
        check_policy_grid(policy, cfg.model)
        return policy, f"file:{policy_file}", None
    if source == "optimal":
        V, policy, report = _solve(cfg.model, cfg.solver)
        if not report.converged:
            raise RuntimeError("solve for the optimal policy did not converge")
        return policy, "optimal", V
    kind, p = source, None
    if source.startswith("random_bernoulli:"):
        kind, text = source.split(":", 1)
        p = _number(text, f"--policy {source!r}: p {text!r}")
    try:
        return sim.baseline_policy(kind, cfg.model, p=p), source, None
    except ValueError as exc:
        raise ValueError(f"--policy {source!r}: {exc}") from None


def cmd_simulate(cfg: RunConfig, policy_source: str, policy_file: str | None) -> int:
    policy, label, v_star = _resolve_policy(cfg, policy_source, policy_file)
    out = _outdir(cfg)
    est = sim.estimate_value(policy, cfg.model, cfg.sim.s0, cfg.sim.n,
                             cfg.sim.horizon, cfg.sim.seed)
    summary = {
        "config": cfg.to_dict(),
        "policy_source": label,
        "mean": est.mean,
        "std_error": est.std_error,
        "n_trajectories": est.n_trajectories,
        "horizon": est.horizon,
        "truncation_bias_bound": est.truncation_bias_bound,
    }
    if v_star is not None:
        v0 = float(v_star[cfg.sim.s0])
        summary["v_star_s0"] = v0
        summary["abs_gap"] = abs(est.mean - v0)
    gridio.write_json(out / "simulate_report.json", summary)
    (out / "trajectory.csv").write_text(
        "\n".join(sim.trajectory_csv_lines(est.trajectory, cfg.model)) + "\n")
    print(f"simulate [{label}]: mean={est.mean:.6f} std_error={est.std_error:.2e} "
          f"bias_bound={est.truncation_bias_bound:.2e}")
    if "abs_gap" in summary:
        print(f"simulate: |mean - V*(s0)| = {summary['abs_gap']:.2e}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, axis: str, values: list[float]) -> int:
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    out = _outdir(cfg)

    rows = []
    for value in values:
        row = {"value": value}
        try:
            params = dataclasses.replace(cfg.model, **{axis: value})
        except ValueError as exc:
            print(f"sweep: {axis}={value} rejected: {exc}", file=sys.stderr)
            row["status"] = "rejected"
            rows.append(row)
            continue
        V, policy, report = _solve(params, cfg.solver)
        if report.converged:
            reports = structure.run_all_checks(V, policy, params, tol=cfg.solver.tol)
            passed = all(r.passed for r in reports)
            row["status"] = "ok" if passed else "check_failed"
            row["checks"] = {r.check_name: r.passed for r in reports}
            row["lambda_ordering_ok"] = params.lambda_ordering_ok
            row["tau"] = solver.extract_thresholds(policy)[0].tolist()
        else:
            row["status"] = "not_converged"
        rows.append(row)
        print(f"sweep: {axis}={value}: {row['status']}")

    lines = [f"# {c}" for c in _config_comment(cfg, f"sweep axis={axis}")]
    lines.append(",".join([axis, "status", *structure.CHECK_NAMES, "tau"]))
    for row in rows:
        cells = [gridio.fmt_real(row["value"]), row["status"]]
        if "checks" in row:
            cells += ["1" if row["checks"][name] else "0"
                      for name in structure.CHECK_NAMES]
            cells.append(";".join(str(t) for t in row["tau"]))
        else:
            cells += [""] * (len(structure.CHECK_NAMES) + 1)
        lines.append(",".join(cells))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    gridio.write_json(out / "sweep_report.json", {
        "config": cfg.to_dict(), "axis": axis, "rows": rows,
    })
    # the lowest code present wins: a rejected value ahead of an unconverged
    # solve ahead of a failed check
    return min((SWEEP_EXITS[row["status"]] for row in rows
                if row["status"] != "ok"), default=EXIT_OK)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-isac",
        description="Solve, verify, and simulate the two-age sensing/communication "
                    "scheduling problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each flag is built once, in a parent, and every command that takes it
    # shares its Action. A command's own flags come ahead of the config
    # flags, the order its usage and --help print them in.
    config = argparse.ArgumentParser(add_help=False)
    _add_config_flags(config)
    sim_flags = argparse.ArgumentParser(add_help=False)
    sim_flags.add_argument("--policy", default="optimal",
                           help="optimal | always_sense | always_comm | alternate "
                                "| random_bernoulli:<p>")
    sim_flags.add_argument("--policy-file", default=None, metavar="CSV",
                           help="policy grid CSV (overrides --policy)")
    sweep_flags = argparse.ArgumentParser(add_help=False)
    sweep_flags.add_argument("--axis", required=True, help="|".join(SWEEP_AXES))
    sweep_flags.add_argument("--values", required=True, metavar="V,V,...",
                             help="comma-separated parameter values")

    sub.add_parser("solve", parents=[config],
                   help="solve the MDP; writes grids and report")
    sub.add_parser("verify", parents=[config],
                   help="structural checks on solve artifacts")
    sub.add_parser("simulate", parents=[sim_flags, config],
                   help="Monte Carlo estimate of a policy")
    sub.add_parser("sweep", parents=[sweep_flags, config],
                   help="re-solve along one parameter axis")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.policy, args.policy_file)
        if args.command == "sweep":
            values = []
            for entry in args.values.split(","):
                values.append(_number(entry, f"--values entry {entry!r}"))
                if not math.isfinite(values[-1]):
                    raise ValueError(f"--values entry {entry!r} is not finite")
            return cmd_sweep(cfg, args.axis, values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
