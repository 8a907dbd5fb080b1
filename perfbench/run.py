"""Benchmark of the aoi-isac CLI: solve, verify, simulate and sweep.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 55 --trace 0

One process runs one workload. It repeats rounds of the four commands,
called in process through ``aoi_isac.cli.main`` in that order, until
``--seconds`` have passed, after one warm-up round. Each command call is one
operation; a call that exits non-zero is a failed operation. ``--seed`` is
passed to the program as ``--sim.seed``. After the timed rounds the
artifacts are checked by ``checks.py``, which does not use the program, and
the checks are shown to reject three wrong answers.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics: the upper quartile over the timed rounds of each command's wall
time and of the whole round (``pipeline_p75_s``), the process's peak
resident set, and ``setup_s``, the median time a fresh interpreter takes
to import ``aoi_isac.cli``. The upper quartile, not the mean or the median,
because the host runs at a steady slow level broken by fast stretches of
some seconds: the mean and the median move with the share of a run that
falls in fast stretches, while the upper quartile stays on the slow level
unless fast stretches fill three quarters of the run (see README.md). With
``--trace 1`` rounds alternate between untraced and traced; the traced
ones record spans (``spans.py``) and give the per-layer metrics as means
over traced rounds, and ``trace.overhead_s`` is the traced minus the
untraced mean round.

Exit codes: 0 when the run completed (the JSON line says whether the
outputs were correct), 2 when the checkout holds no program source.
"""

import os
import sys

# One BLAS thread, set before numpy loads: every workload is one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from checks import Model  # noqa: E402

REFERENCE = dict(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1, gamma=0.95, a_max=30)


@dataclass(frozen=True)
class Workload:
    model: Model
    n: int
    horizon: int
    axis: str
    values: tuple[float, ...]
    s0: tuple[int, int] = (1, 1)


WORKLOADS = {
    # the default user path: MC seed-tree set-up dominates
    "reference": Workload(Model(**REFERENCE), n=10_000, horizon=400,
                          axis="c_c", values=(0.05, 0.1, 0.2, 0.4)),
    # 90,601 states: per-sweep grid gathers, 1.7 MB CSVs, 3,984 violations
    "large_grid": Workload(Model(**REFERENCE | {"a_max": 300}), n=1000,
                           horizon=400, axis="c_c", values=(0.1, 0.4)),
}
COMMANDS = ("solve", "verify", "simulate", "sweep")
# One round. verify takes milliseconds on two workloads, so it runs after
# each other command, for three samples a round.
ROUND = ("solve", "verify", "simulate", "verify", "sweep", "verify")
END_TO_END_UNITS = {"setup_s": "s", "solve_p75_s": "s", "verify_p75_s": "s",
                    "simulate_p75_s": "s", "sweep_p75_s": "s",
                    "pipeline_p75_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "solver.value_iteration_s": "s", "solver.sweeps": "count",
    "solver.sweep_us": "us", "model.q_grids_us": "us",
    "solver.evaluate_policy_s": "s", "structure.run_all_checks_s": "s",
    "structure.violations": "count", "sim.estimate_value_s": "s",
    "sim.streams_s": "s", "sim.rollout_s": "s", "sim.trajectory_csv_s": "s",
    "gridio.write_s": "s", "gridio.read_s": "s", "gridio.bytes_written": "B",
    "cli.self_s": "s", "trace.overhead_s": "s",
}
MIN_TIMED_ROUNDS = 3


def command_argv(w: Workload, outdir: Path, seed: int) -> dict[str, list[str]]:
    common = [f"--model.{k}={v}" for k, v in vars(w.model).items()]
    common += [f"--sim.n={w.n}", f"--sim.horizon={w.horizon}",
               f"--sim.s0={w.s0[0]},{w.s0[1]}", f"--sim.seed={seed}",
               f"--output.directory={outdir}"]
    return {
        "solve": ["solve", *common],
        "verify": ["verify", *common],
        "simulate": ["simulate", "--policy=optimal", *common],
        "sweep": ["sweep", f"--axis={w.axis}",
                  "--values=" + ",".join(repr(v) for v in w.values), *common],
    }


def run_command(main, argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI call: (exit code, wall seconds, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation; keep its traceback
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - t0
    return code, elapsed, sink.getvalue()


def setup_probe() -> float:
    """Wall time of a fresh interpreter importing aoi_isac.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import aoi_isac.cli"], env=env,
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def digest(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def check_outputs(w: Workload, outdir: Path, codes: dict[str, int]) -> list[str]:
    errors = []
    for cmd in ("solve", "simulate"):
        if codes[cmd] != 0:
            errors.append(f"{cmd} exited {codes[cmd]}")
    solve_errors, solved = checks.check_solve(outdir, w.model)
    errors += solve_errors
    errors += checks.check_verify(outdir, codes["verify"])
    errors += checks.check_sweep(outdir, w.axis, list(w.values), w.model,
                                 solved["tau"], codes["sweep"])
    errors += checks.check_simulate(
        outdir, w.model, w.s0, w.n, w.horizon, solved["policy"], solved["V"])
    report = json.loads((outdir / "solve_report.json").read_text())
    traj = checks.read_trajectory(outdir / "trajectory.csv")
    errors += checks.self_test(solved, traj, w.model, w.s0, w.horizon, report)
    return errors


def probes(w: Workload, modules: dict, outdir: Path, seed: int) -> dict[str, float]:
    """Layer probes outside the CLI path: evaluate the solved policy, and
    build the simulation's per-trajectory streams (horizon 1)."""
    sim, solver = modules["sim"], modules["solver"]
    params = modules["model"].ModelParams(**vars(w.model))
    grid = checks.read_grid(outdir / "policy.csv", integer=True).astype("int8")
    t0 = time.perf_counter()
    solver.evaluate_policy(grid, params)
    t1 = time.perf_counter()
    sim.estimate_value(grid, params, w.s0, w.n, 1, seed)
    t2 = time.perf_counter()
    return {"solver.evaluate_policy_s": t1 - t0, "sim.streams_s": t2 - t1}


def mean_of(rows: list[dict], key: str) -> float:
    return statistics.fmean(r[key] for r in rows)


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "aoi_isac" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'aoi_isac'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import aoi_isac.cli as cli
    from aoi_isac import gridio, model, sim, solver, structure
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: aoi_isac imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    modules = dict(gridio=gridio, model=model, sim=sim, solver=solver,
                   structure=structure)
    from spans import Tracer

    w = WORKLOADS[args.workload]
    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    argvs = command_argv(w, outdir, args.seed)
    tracer = Tracer(modules)

    setup = []
    if not args.trace:
        setup_probe()  # fills the bytecode and file caches; not counted
        setup += [setup_probe(), setup_probe()]

    attempted = failed = 0
    errors: list[str] = []
    rounds: list[dict] = []         # timed rounds, untraced
    traced: list[dict] = []         # timed rounds, traced
    verify_times: list[float] = []
    deadline = None
    rnd = 0
    while True:
        trace_this = bool(args.trace) and rnd % 2 == 0 and rnd > 0
        t_round = time.perf_counter()
        times: dict[str, list[float]] = {c: [] for c in COMMANDS}
        codes = []
        tracer.round = rnd
        with tracer.installed() if trace_this else contextlib.nullcontext():
            for cmd in ROUND:
                with tracer.span(f"cli.{cmd}") if trace_this else contextlib.nullcontext():
                    code, elapsed, log = run_command(cli.main, argvs[cmd])
                times[cmd].append(elapsed)
                codes.append(code)
                attempted += 1
                failed += code != 0
                if code not in (0, 4):
                    errors.append(f"round {rnd} {cmd}: exit {code}: {log[-500:]}")
        if rnd == 0:
            first_codes = codes
            first_digest = digest(outdir)
            deadline = time.perf_counter() + args.seconds
        else:
            row = {f"{c}_s": times[c][0] for c in COMMANDS}
            row["pipeline_s"] = sum(row.values())
            if trace_this:
                row.update(tracer.round_metrics(rnd))
                row.update(probes(w, modules, outdir, args.seed))
                traced.append(row)
            else:
                rounds.append(row)
                verify_times += times["verify"]
                if not args.trace:
                    setup.append(setup_probe())
            if codes != first_codes or digest(outdir) != first_digest:
                errors.append(f"round {rnd}: exit codes or artifacts differ "
                              f"from the first round")
        rnd += 1
        last_round = time.perf_counter() - t_round
        enough = len(rounds) >= MIN_TIMED_ROUNDS and (
            not args.trace or len(traced) >= MIN_TIMED_ROUNDS)
        # stop when the next round would end after the deadline
        if enough and time.perf_counter() + last_round > deadline:
            break

    try:
        # the last call of each command wrote the artifacts on disk
        errors += check_outputs(w, outdir, dict(zip(ROUND, first_codes)))
    except (OSError, KeyError, ValueError) as exc:  # missing or malformed artifacts
        errors.append(f"artifacts could not be checked: {exc!r}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    (OUT / f"{args.workload}-rounds.json").write_text(json.dumps(
        {"untraced": rounds, "traced": traced, "verify_s": verify_times,
         "setup_s": setup}, indent=1))
    if args.trace:
        tracer.write(OUT / f"{args.workload}-trace.csv.gz")
        metrics = {k: mean_of(traced, k) for k in PER_LAYER_UNITS
                   if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (mean_of(traced, "pipeline_s")
                                       - mean_of(rounds, "pipeline_s"))
        units = PER_LAYER_UNITS
    else:
        metrics = {f"{c}_p75_s": upper_quartile([r[f"{c}_s"] for r in rounds])
                   for c in ("solve", "simulate", "sweep", "pipeline")}
        metrics["verify_p75_s"] = upper_quartile(verify_times)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS

    n_rounds = len(rounds) + len(traced)
    print(f"workload {args.workload}: seed {args.seed}, {rnd} rounds "
          f"({n_rounds} timed, {len(traced)} traced), "
          f"{attempted} operations attempted, {failed} failed")
    for k in units:
        print(f"  {k:28s} {metrics[k]:14.6f} {units[k]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
