"""Run configuration: one JSON document, dotted-path overrides, defaults.

Defaults are the reference experiment (a_max = 30, gamma = 0.95,
lambda_s = 0.6, lambda_c = 0.9, c_s = 0.2, c_c = 0.1) with solver tolerance
1e-9 and a 10^4-trajectory, 400-slot simulation from s0 = (1, 1), seed 42.
The section dataclasses are the schema: ``FIELDS`` maps each dotted leaf to
its declared type, and the CLI flags and the type checks derive from it.
Every validation error names the offending dotted field.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field, fields

from .gridio import read_text
from .model import ModelParams
from .solver import _check_budget

VALID_FORMATS = ("csv", "json", "ascii")
# bounds the simulation's work, n * horizon trajectory slots: 10^8 is 25x
# the benchmark's largest simulation. The uniforms are drawn slot by slot and
# never stored, so this no longer bounds memory.
MAX_SIM_DRAWS = 10**8


def default_model_params() -> ModelParams:
    return ModelParams(lambda_s=0.6, lambda_c=0.9, c_s=0.2, c_c=0.1,
                       gamma=0.95, a_max=30)


@dataclass
class SolverConfig:
    tol: float = 1e-9
    max_iter: int = 100_000

    def __post_init__(self):
        _check_budget(self.tol, self.max_iter)


@dataclass
class SimConfig:
    n: int = 10_000
    horizon: int = 400
    seed: int = 42
    s0: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n * self.horizon > MAX_SIM_DRAWS:
            raise ValueError(f"n * horizon must be <= {MAX_SIM_DRAWS}, got "
                             f"sim.n={self.n}, sim.horizon={self.horizon}")


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = VALID_FORMATS

    def __post_init__(self):
        for f in self.formats:
            if f not in VALID_FORMATS:
                raise ValueError(f"formats entry {f!r} not one of {VALID_FORMATS}")
        if not self.formats:
            raise ValueError("formats must not be empty")


@dataclass
class RunConfig:
    model: ModelParams = field(default_factory=default_model_params)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        if not all(0 <= v <= self.model.a_max for v in self.sim.s0):
            raise ValueError(f"sim.s0 must be two integers in [0, {self.model.a_max}], "
                             f"got {self.sim.s0}")

    def to_dict(self) -> dict:
        return asdict(self)


# the modules use postponed annotations, so resolve the declared types
SECTIONS = typing.get_type_hints(RunConfig)
FIELDS = {f"{section}.{f.name}": typing.get_type_hints(cls)[f.name]
          for section, cls in SECTIONS.items() for f in fields(cls)}


def _has_type(typ, value) -> bool:
    """An int passes for a float and a bool for no number; a tuple field
    takes a list of its declared length (any length for tuple[X, ...])."""
    args = typing.get_args(typ)
    if args:
        return (isinstance(value, (list, tuple))
                and (args[-1] is Ellipsis or len(value) == len(args))
                and all(_has_type(args[0], v) for v in value))
    accepted = (int, float) if typ is float else typ
    return isinstance(value, accepted) and not isinstance(value, bool)


def _file_leaves(file_values: dict):
    if not isinstance(file_values, dict):
        raise ValueError("config document must be an object")
    for section, data in file_values.items():
        if section not in SECTIONS:
            raise ValueError(f"unknown config section {section!r}")
        if not isinstance(data, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key, val in data.items():
            yield f"{section}.{key}", val


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Assemble a RunConfig from defaults, then a parsed JSON document, then
    dotted-path overrides ('model.gamma' etc.); later sources win. An
    override for a tuple field may be a comma-separated string."""
    values = RunConfig().to_dict()
    leaves = list(_file_leaves(file_values or {}))
    for dotted, val in (overrides or {}).items():
        typ = FIELDS.get(dotted)
        if isinstance(val, str) and typing.get_origin(typ) is tuple:
            try:  # a bad element leaves the text for the type check to name
                val = [typing.get_args(typ)[0](p.strip()) for p in val.split(",")]
            except ValueError:
                pass
        leaves.append((dotted, val))
    for dotted, val in leaves:
        typ = FIELDS.get(dotted)
        if typ is None:
            raise ValueError(f"unknown config field {dotted}")
        if not _has_type(typ, val):
            name = f"a list ({typ})" if typing.get_args(typ) else typ.__name__
            raise ValueError(f"{dotted} must be {name}, got {val!r}")
        section, _, key = dotted.partition(".")
        values[section][key] = tuple(val) if isinstance(val, list) else val

    sections = {}
    for section, cls in SECTIONS.items():
        try:
            sections[section] = cls(**values[section])
        except ValueError as exc:
            raise ValueError(f"{section}.{exc}") from None
    return RunConfig(**sections)


def load_config_file(path) -> dict:
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: invalid JSON ({exc})") from None
