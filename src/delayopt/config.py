"""Experiment configuration: a flat INI file with typed sections.

The schema is documented in docs/config_schema.md and exercised by the
shipped presets. Unknown keys fail loudly with the section and key named, so
typos do not silently fall back to defaults.

Each section is declared once, by a dataclass that checks its own ranges:
``[delay]`` by ``delays.DelaySpec``, ``[algorithm.*]`` by
``optimizers.AlgorithmConfig``, ``[environment.*]`` by the environment's
config, ``[stability]`` and ``[compare]`` here. This module types the INI
values, names the section in errors, and checks what spans sections.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import math
import os
import re
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from delayopt.core import ContractError
from delayopt.delays import DELAY_PARAMETERS, DelaySpec
from delayopt.environments import ENVIRONMENTS, environment_names
from delayopt.optimizers import AlgorithmConfig, make_algorithm


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names section and key."""


@dataclass
class StabilitySettings:
    eta_lo: float = 1e-4
    eta_hi: float = 8.0
    resolution: float = 0.001
    horizon: int = 500
    delays: list[int] = field(default_factory=lambda: [1, 10, 20, 40])

    def __post_init__(self):  # each range test is written so that NaN fails it
        if not 0 < self.eta_lo < self.eta_hi < math.inf:
            raise ContractError("needs 0 < eta_lo < eta_hi < inf")
        if not self.resolution > 0:
            raise ContractError("resolution must be positive")
        if not self.horizon >= 1:
            raise ContractError("horizon must be >= 1")
        if not self.delays or min(self.delays) < 0:
            raise ContractError("delays must be a non-empty list of delays >= 0")
        if repeated := [d for i, d in enumerate(self.delays) if d in self.delays[:i]]:
            raise ContractError(f"delays must be unique; {repeated[0]} is repeated")


@dataclass
class CompareSettings:
    treatment: str = ""
    control: str = ""


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    environment: str = "hard_quadratic"
    env_args: dict[str, Any] = field(default_factory=dict)
    env_sweep: dict[str, list[Any]] = field(default_factory=dict)  # key -> values, zipped
    rounds: int = 100
    seeds: list[int] = field(default_factory=lambda: [0])
    summary_window: int = 200
    out_dir: str = "results"
    delays: list[DelaySpec] = field(default_factory=lambda: [DelaySpec()])
    algorithms: list[AlgorithmConfig] = field(default_factory=list)
    stability: Optional[StabilitySettings] = None
    compare: Optional[CompareSettings] = None

    def validate(self) -> None:
        if self.environment not in ENVIRONMENTS:
            raise ConfigError(f"[experiment] environment {self.environment!r} is unknown; "
                              f"known: {', '.join(environment_names())}")
        entry = ENVIRONMENTS[self.environment]
        swept = [("sweep", key, value) for key, values in self.env_sweep.items() for value in values]
        for section, key, value in [("args", *item) for item in self.env_args.items()] + swept:
            if key not in entry.fields:
                raise ConfigError(f"[environment.{section}] unknown key {key!r} "
                                  f"for environment {self.environment!r}")
            if not _fits(value, entry.fields[key]):
                raise ConfigError(f"[environment.{section}] {key} = {value!r}: expected "
                                  f"{_type_name(entry.fields[key])} for environment {self.environment!r}")
        lengths = {key: len(values) for key, values in self.env_sweep.items()}
        if 0 in lengths.values() or len(set(lengths.values())) > 1:
            raise ConfigError(f"[environment.sweep] needs non-empty lists of one length, got {lengths}")
        if both := sorted(self.env_sweep.keys() & self.env_args.keys()):
            raise ConfigError(f"[environment.sweep] {', '.join(both)} also set in [environment.args]")
        for label, variant in self.variants():
            try:
                entry.config(**variant.env_args)
            except ContractError as exc:
                where = f"[environment.sweep] {label}:" if label else "[environment.args]"
                raise ConfigError(f"{where} {exc} (environment {self.environment!r})") from exc
        if self.rounds < 1:
            raise ConfigError("[experiment] rounds must be >= 1")
        if self.summary_window < 1:
            raise ConfigError("[experiment] summary_window must be >= 1")
        if not self.out_dir:
            raise ConfigError("[experiment] out must name a directory, got ''")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError(f"[experiment] seeds must be a non-empty list of seeds >= 0, got {self.seeds}")
        if not self.delays:
            raise ConfigError("[delay] at least one delay process is required")
        if not self.algorithms:
            raise ConfigError("at least one [algorithm.*] section is required")
        names = [a.name for a in self.algorithms]
        # a name is a file name part and a CSV cell, so it holds no separator
        for name in names:
            if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
                raise ConfigError(f"[algorithm.{name}] the label may hold only letters, digits, '_', '.' and '-'")
        # cells are keyed by seed, delay label and algorithm name, so a repeat
        # would overwrite a cell or be counted twice
        for what, labels in (("[experiment] seeds", self.seeds),
                             ("[delay] delay labels", [spec.describe() for spec in self.delays]),
                             ("algorithm names", names)):
            if repeated := [label for i, label in enumerate(labels) if label in labels[:i]]:
                raise ConfigError(f"{what} must be unique; {repeated[0]} is repeated")
        for algo in self.algorithms:
            if algo.gradient == "two_stage" and not entry.problem.has_prediction_target:
                raise ConfigError(f"[algorithm.{algo.name}]: environment {self.environment!r} exposes no "
                                  "prediction target; the two-stage baseline cannot run on it")
        if self.compare is not None:
            for role, nm in (("treatment", self.compare.treatment), ("control", self.compare.control)):
                if nm not in names:
                    raise ConfigError(f"[compare] {role} {nm!r} does not match any [algorithm.*] section")
            if self.compare.treatment == self.compare.control:
                raise ConfigError(f"[compare] treatment and control are both {self.compare.control!r}; "
                                  "name two different arms")

    def variants(self) -> list[tuple[str, "ExperimentConfig"]]:
        """``(label, config)`` per position of ``env_sweep``: its values merged
        into ``env_args``, no sweep, and ``out_dir`` ``<out>/<label>``. A config
        that sweeps nothing is its own only variant, labelled ``""``."""
        positions = [dict(zip(self.env_sweep, values)) for values in zip(*self.env_sweep.values())]
        labels = ["__".join(f"{key}-{value}" for key, value in position.items()) for position in positions]
        return [(label, dataclasses.replace(self, env_args={**self.env_args, **position}, env_sweep={},
                                            out_dir=os.path.join(self.out_dir, label)))
                for label, position in zip(labels, positions)] or [("", self)]

    def hash(self) -> str:
        """Stable digest of the configuration for CSV headers.

        ``out_dir`` is left out: it says where outputs go, not what produced
        them, so identical runs written to two directories stay byte-identical.
        An empty ``env_sweep`` is left out too, so unswept hashes stay put.
        """
        blob = io.StringIO()
        for f in dataclasses.fields(self):
            if f.name != "out_dir" and (f.name != "env_sweep" or self.env_sweep):
                blob.write(f"{f.name}={getattr(self, f.name)!r}\n")
        return hashlib.sha256(blob.getvalue().encode()).hexdigest()[:12]


def _coerce(value: str) -> Any:
    text = value.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low == "none":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _fits(value: Any, expected: Any) -> bool:
    """Whether a coerced value suits a field of type ``expected``: None suits
    only an Optional field, and an int suits a float field and is kept as
    written."""
    if typing.get_origin(expected) is typing.Union:  # Optional[T]
        if value is None:
            return True
        (expected,) = (arg for arg in typing.get_args(expected) if arg is not type(None))
    kinds = (int, float) if expected is float else expected
    return isinstance(value, kinds) and isinstance(value, bool) == (expected is bool)


def _type_name(expected: Any) -> str:
    args = typing.get_args(expected)
    if not args:
        return expected.__name__
    return " or ".join("none" if arg is type(None) else arg.__name__ for arg in args)


def _int_list(text: str, where: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a list of integers, got {text!r}") from exc


def _section_keys(cls: type, *names: str, **extra: Any) -> dict[str, Any]:
    """Declared types of the named fields of dataclass ``cls`` (all fields
    if none are named), plus section-only keys and their types."""
    hints = typing.get_type_hints(cls)
    return {**{name: hints[name] for name in (names or hints)}, **extra}


# INI key -> type, per section. typing.get_type_hints costs more than a whole
# parse, so the tables are built once, at import.
_EXPERIMENT_KEYS = _section_keys(ExperimentConfig, "name", "environment", "rounds", "seeds",
                                 "summary_window", out=str)
_DELAY_KEYS = _section_keys(DelaySpec, sweep=list[int])
# the section label is the algorithm's name, and ``kind`` its registry entry,
# which alone sets the gradient source and the base rule
_ALGORITHM_KEYS = {"kind": str, **_section_keys(AlgorithmConfig, "eta0", "beta_damping", "schedule_mode",
                                                "clip_norm")}
_STABILITY_KEYS = _section_keys(StabilitySettings)
_COMPARE_KEYS = _section_keys(CompareSettings)
# every section a config may hold; ``<label>`` stands for any non-empty name
_SECTIONS = ("experiment", "environment.args", "environment.sweep", "delay", "delay.<label>",
             "algorithm.<label>", "stability", "compare")


def _built(where: str, make: Callable, *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, with a range error prefixed by ``where``."""
    try:
        return make(*args, **kwargs)
    except ContractError as exc:
        raise ConfigError(f"{where} {exc}") from exc


def _read_section(parser: configparser.ConfigParser, section: str, keys: dict[str, Any]) -> dict[str, Any]:
    """A section's items as typed values: a ``str`` key takes the stripped
    text, a ``list[int]`` key an integer list, and any other key the coerced
    value, which must suit the declared type."""
    values: dict[str, Any] = {}
    for key, raw in parser.items(section):
        if key not in keys:
            raise ConfigError(f"[{section}] unknown key {key!r}")
        expected = keys[key]
        if expected is str:
            values[key] = raw.strip()
        elif expected == list[int]:
            values[key] = _int_list(raw, f"[{section}] {key}")
        else:
            value = _coerce(raw)
            if not _fits(value, expected):
                raise ConfigError(f"[{section}] {key} = {value!r}: expected {_type_name(expected)}")
            values[key] = value
    return values


def _delay_specs(parser: configparser.ConfigParser, section: str) -> list[DelaySpec]:
    """The delay processes of one ``[delay]`` or ``[delay.<label>]`` section:
    one, or one per ``sweep`` value of a constant delay."""
    values = _read_section(parser, section, _DELAY_KEYS)
    kind = values.get("kind", DelaySpec.kind)
    if kind in DELAY_PARAMETERS:  # an unknown kind fails in DelaySpec
        reads = DELAY_PARAMETERS[kind]
        for key in values:
            if key not in ("kind", "sweep", *reads):
                raise ConfigError(f"[{section}] {key} is not read by kind {kind!r}, "
                                  f"which reads only {', '.join(reads)}")
    sweep = values.pop("sweep", None)
    spec = _built(f"[{section}]", DelaySpec, **values)
    if sweep is None:
        return [spec]
    if spec.kind != "constant":
        raise ConfigError(f"[{section}] sweep lists are only supported for constant delays")
    if not sweep:
        raise ConfigError(f"[{section}] sweep lists no delay; give at least one value")
    return [_built(f"[{section}] sweep:", dataclasses.replace, spec, d=d) for d in sweep]


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    for section in parser.sections():
        prefix, _, label = section.partition(".")
        if section not in _SECTIONS and not (label and f"{prefix}.<label>" in _SECTIONS):
            raise ConfigError(f"[{section}] unknown section; known: {', '.join(_SECTIONS)}")

    cfg = ExperimentConfig(algorithms=[])
    if parser.has_section("experiment"):
        values = _read_section(parser, "experiment", _EXPERIMENT_KEYS)
        if "out" in values:
            values["out_dir"] = values.pop("out")
        cfg = dataclasses.replace(cfg, **values)

    if parser.has_section("environment.args"):
        cfg.env_args = {k: _coerce(v) for k, v in parser.items("environment.args")}
    if parser.has_section("environment.sweep"):
        cfg.env_sweep = {k: [_coerce(tok) for tok in v.replace(",", " ").split()]
                         for k, v in parser.items("environment.sweep")}

    if delay_sections := [s for s in parser.sections() if s.partition(".")[0] == "delay"]:
        cfg.delays = [spec for section in delay_sections for spec in _delay_specs(parser, section)]

    for section in parser.sections():
        if not section.startswith("algorithm."):
            continue
        label = section.split(".", 1)[1]
        overrides = _read_section(parser, section, _ALGORITHM_KEYS)
        algo = _built(f"[{section}]:", make_algorithm, overrides.pop("kind", label), **overrides)
        cfg.algorithms.append(dataclasses.replace(algo, name=label))

    if parser.has_section("stability"):
        cfg.stability = _built("[stability]", StabilitySettings,
                               **_read_section(parser, "stability", _STABILITY_KEYS))

    if parser.has_section("compare"):
        cfg.compare = CompareSettings(**_read_section(parser, "compare", _COMPARE_KEYS))

    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
