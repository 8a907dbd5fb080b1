"""Spans around the calls into the program's layers, recorded from outside.

``Tracer.installed()`` replaces the public functions of ``solver``, ``model``,
``structure``, ``sim`` and ``gridio`` at their module attributes with
wrappers that record a span (name, start, end, parent, round) in memory. A
function imported into another module is wrapped at that binding too (for
example ``q_grids`` where ``solver`` and ``structure`` bind it), so every
call lands in one span named after the defining module. ``gridio.fmt_real``
is left alone: it runs once per CSV cell, and a span there would time the
tracer, not the layer.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import time
from collections import defaultdict
from pathlib import Path

# (span name, [(module name, attribute), ...]) for every wrapped binding
WRAPPED = [
    ("solver.value_iteration", [("solver", "value_iteration")]),
    ("solver.bellman_backup", [("solver", "bellman_backup")]),
    ("solver.extract_policy", [("solver", "extract_policy")]),
    ("solver.extract_thresholds", [("solver", "extract_thresholds"),
                                   ("structure", "extract_thresholds")]),
    ("model.q_grids", [("model", "q_grids"), ("solver", "q_grids"),
                       ("structure", "q_grids")]),
    ("model.delta_grid", [("model", "delta_grid"), ("solver", "delta_grid"),
                          ("structure", "delta_grid")]),
    ("structure.run_all_checks", [("structure", "run_all_checks")]),
    ("structure.check_monotone", [("structure", "check_monotone")]),
    ("structure.check_submodular", [("structure", "check_submodular")]),
    ("structure.check_delta_monotone", [("structure", "check_delta_monotone")]),
    ("structure.check_q_submodular", [("structure", "check_q_submodular")]),
    ("structure.check_single_crossing", [("structure", "check_single_crossing")]),
    ("structure.check_threshold_monotone", [("structure", "check_threshold_monotone")]),
    ("sim.baseline_policy", [("sim", "baseline_policy")]),
    ("sim.estimate_value", [("sim", "estimate_value")]),
    ("sim.rollout", [("sim", "rollout")]),
    ("sim.trajectory_csv_lines", [("sim", "trajectory_csv_lines")]),
    ("gridio.write_json", [("gridio", "write_json")]),
    ("gridio.write_grid_csv", [("gridio", "write_grid_csv")]),
    ("gridio.grid_csv_text", [("gridio", "grid_csv_text")]),
    ("gridio.read_grid_csv", [("gridio", "read_grid_csv")]),
    ("gridio.read_policy_csv", [("gridio", "read_policy_csv")]),
    ("gridio.decision_map_text", [("gridio", "decision_map_text")]),
    ("gridio.value_pgm_text", [("gridio", "value_pgm_text")]),
]
GRIDIO_WRITERS = ("gridio.write_json", "gridio.write_grid_csv",
                  "gridio.decision_map_text", "gridio.value_pgm_text")
GRIDIO_READERS = ("gridio.read_grid_csv", "gridio.read_policy_csv")
FILE_WRITERS = ("gridio.write_json", "gridio.write_grid_csv")

NAME, START, END, PARENT, ROUND = range(5)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.round = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "structure.run_all_checks":
                self.counts[self.round, "violations"] += sum(
                    len(r.violations) for r in result)
            elif name in FILE_WRITERS:
                self.counts[self.round, "bytes_written"] += os.path.getsize(args[0])
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in WRAPPED for the duration of the block."""
        saved = []
        try:
            for name, bindings in WRAPPED:
                mod, attr = bindings[0]
                wrapper = self._wrap(name, getattr(self.modules[mod], attr))
                for mod, attr in bindings:
                    saved.append((mod, attr, getattr(self.modules[mod], attr)))
                    setattr(self.modules[mod], attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(self.modules[mod], attr, fn)

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: round, name, start_us, end_us, parent."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,round,name,start_us,end_us,parent\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[ROUND]},{s[NAME]},{(s[START] - t0) * 1e6:.1f},"
                         f"{(s[END] - t0) * 1e6:.1f},{s[PARENT]}\n")

    def round_metrics(self, rnd: int) -> dict[str, float]:
        """Per-layer totals of one traced round. A gridio span nested in
        another gridio span is left out of the gridio totals, and a command
        span's self time is its duration minus that of its children."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[ROUND] != rnd:
                continue
            dur = s[END] - s[START]
            parent = self.spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += dur
            if s[NAME].startswith("gridio.") and parent.startswith("gridio."):
                continue
            total[s[NAME]] += dur
            calls[s[NAME]] += 1
        cli_self = sum(self.spans[i][END] - self.spans[i][START] - child_time[i]
                       for i, s in enumerate(self.spans)
                       if s[ROUND] == rnd and s[NAME].startswith("cli."))
        sweeps = calls["solver.bellman_backup"]
        return {
            "solver.value_iteration_s": total["solver.value_iteration"],
            "solver.sweeps": sweeps,
            "solver.sweep_us": 1e6 * total["solver.bellman_backup"] / max(sweeps, 1),
            "model.q_grids_us": 1e6 * total["model.q_grids"]
                                / max(calls["model.q_grids"], 1),
            "structure.run_all_checks_s": total["structure.run_all_checks"],
            "structure.violations": self.counts[rnd, "violations"],
            "sim.estimate_value_s": total["sim.estimate_value"],
            "sim.rollout_s": total["sim.rollout"],
            "sim.trajectory_csv_s": total["sim.trajectory_csv_lines"],
            "gridio.write_s": sum(total[n] for n in GRIDIO_WRITERS),
            "gridio.read_s": sum(total[n] for n in GRIDIO_READERS),
            "gridio.bytes_written": self.counts[rnd, "bytes_written"],
            "cli.self_s": cli_self,
        }
