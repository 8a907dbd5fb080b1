"""Run configuration: one JSON document, dotted-path overrides, defaults.

Defaults are the reference experiment (a_max = 30, gamma = 0.95,
lambda_s = 0.6, lambda_c = 0.9, c_s = 0.2, c_c = 0.1) with solver tolerance
1e-9 and a 10^4-trajectory, 400-slot simulation from s0 = (1, 1), seed 42.
Every validation error names the offending dotted field.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .model import ModelParams

VALID_FORMATS = ("csv", "json", "ascii")


def default_model_params() -> ModelParams:
    return ModelParams(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1,
                       gamma=0.95, a_max=30)


@dataclass
class SolverConfig:
    tol: float = 1e-9
    max_iter: int = 100_000

    def validate(self):
        if self.tol <= 0:
            raise ValueError(f"solver.tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"solver.max_iter must be >= 1, got {self.max_iter}")


@dataclass
class SimConfig:
    n: int = 10_000
    horizon: int = 400
    seed: int = 42
    s0: tuple[int, int] = (1, 1)

    def validate(self, a_max: int):
        if self.n < 2:
            raise ValueError(f"sim.n must be >= 2, got {self.n}")
        if self.horizon < 1:
            raise ValueError(f"sim.horizon must be >= 1, got {self.horizon}")
        s = tuple(self.s0)
        if len(s) != 2 or not all(isinstance(v, int) and 0 <= v <= a_max for v in s):
            raise ValueError(f"sim.s0 must be two integers in [0, {a_max}], got {self.s0}")


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = VALID_FORMATS

    def validate(self):
        for f in self.formats:
            if f not in VALID_FORMATS:
                raise ValueError(f"output.formats entry {f!r} not one of {VALID_FORMATS}")
        if not self.formats:
            raise ValueError("output.formats must not be empty")


@dataclass
class RunConfig:
    model: ModelParams = field(default_factory=default_model_params)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self):
        # ModelParams validates itself on construction
        self.solver.validate()
        self.sim.validate(self.model.a_max)
        self.output.validate()

    def to_dict(self) -> dict:
        return asdict(self)


_SECTIONS = ("model", "solver", "sim", "output")


def _apply(values: dict, section: str, data: dict):
    known = set(values[section])
    for key, val in data.items():
        if key not in known:
            raise ValueError(f"unknown config field {section}.{key}")
        values[section][key] = val


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Assemble a RunConfig from defaults, then a parsed JSON document, then
    dotted-path overrides ('model.gamma' etc.); later sources win."""
    base = RunConfig()
    values = base.to_dict()

    if file_values:
        for section, data in file_values.items():
            if section not in _SECTIONS:
                raise ValueError(f"unknown config section {section!r}")
            if not isinstance(data, dict):
                raise ValueError(f"config section {section!r} must be an object")
            _apply(values, section, data)

    for dotted, val in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in _SECTIONS or key not in values[section]:
            raise ValueError(f"unknown config field {dotted}")
        values[section][key] = val

    try:
        model = ModelParams(**values["model"])
    except ValueError as exc:
        raise ValueError(f"model.{exc}") from None
    cfg = RunConfig(
        model=model,
        solver=SolverConfig(**values["solver"]),
        sim=SimConfig(n=values["sim"]["n"], horizon=values["sim"]["horizon"],
                      seed=values["sim"]["seed"], s0=tuple(values["sim"]["s0"])),
        output=OutputConfig(directory=values["output"]["directory"],
                            formats=tuple(values["output"]["formats"])),
    )
    cfg.validate()
    return cfg


def load_config_file(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: invalid JSON ({exc})") from None
