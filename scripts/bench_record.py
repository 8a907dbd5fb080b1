"""Record one run of the benchmark as BENCH_<label>.json.

    python3 scripts/bench_record.py --workload large_grid --seed 9 \
        --label large_grid-change [--checkout DIR] [--out DIR]

Runs DIR/perfbench/run.py (DIR defaults to the checkout holding this script)
unchanged, with --trace 0 and the run length BENCHMARK.json names, in a
child process using this interpreter, and writes BENCH_<label>.json into
--out (default: the root of this checkout). The record holds the run's
metrics, its correctness verdict and operation counts, the workload, seed
and run length, the CPU model and core count, the Python and numpy
versions, and the measured checkout's git revision (with `dirty` true when
its tracked files differ from that revision).

Measuring a parent commit: clone it (`git clone`) and pass the clone as
--checkout, so the record names its revision.

Exit codes: 0 when the record was written, else the benchmark's exit code
(nothing is written).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision(checkout: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        return {"revision": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "dirty": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    seconds = json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"]
    command = [sys.executable, str(checkout / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "0"]
    started = datetime.datetime.now(datetime.timezone.utc)
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return proc.returncode
    result = json.loads(proc.stdout.splitlines()[-1])

    record = {
        "label": args.label,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "started_utc": started.isoformat(timespec="seconds"),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git_revision(checkout),
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
