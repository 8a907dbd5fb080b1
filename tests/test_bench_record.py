"""scripts/bench_record.py on a stand-in checkout whose benchmark prints a
fixed result line."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"

RESULT = {"correct": True, "attempted": 6, "failed": 4,
          "metrics": {"solve_p75_s": {"value": 0.25, "unit": "s"}}}


def fake_checkout(tmp_path, exit_code=0):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 55}))
    (checkout / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "print('argv', json.dumps(sys.argv[1:]))\n"
        f"print(json.dumps({RESULT!r}))\n"
        f"sys.exit({exit_code})\n")
    return checkout


def record(tmp_path, checkout):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "large_grid", "--seed", "9",
         "--label", "x-change", "--checkout", str(checkout), "--out", str(tmp_path)],
        capture_output=True, text=True)


def test_writes_the_run_and_its_context(tmp_path):
    proc = record(tmp_path, fake_checkout(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rec = json.loads((tmp_path / "BENCH_x-change.json").read_text())
    assert rec["metrics"] == RESULT["metrics"]
    assert (rec["correct"], rec["attempted"], rec["failed"]) == (True, 6, 4)
    assert (rec["workload"], rec["seed"], rec["seconds"]) == ("large_grid", 9, 55)
    assert rec["cpu_model"] and rec["cpu_count"] >= 1
    assert rec["python"].count(".") == 2 and rec["numpy"]
    assert set(rec["git"]) == {"revision", "dirty"}
    # the benchmark ran with its own options only, untraced, for run_seconds
    argv = json.loads(proc.stdout.splitlines()[0].removeprefix("argv "))
    assert argv == ["--workload", "large_grid", "--seed", "9",
                    "--seconds", "55", "--trace", "0"]


def test_a_failed_benchmark_writes_no_record(tmp_path):
    proc = record(tmp_path, fake_checkout(tmp_path, exit_code=2))
    assert proc.returncode == 2
    assert not (tmp_path / "BENCH_x-change.json").exists()
