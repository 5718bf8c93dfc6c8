"""Structured key-value configuration for experiments.

Format: UTF-8 text, one `section.key = value` assignment per line.  Blank
lines and lines starting with `#` are ignored.  Keys are grouped by dotted
section prefix:

    network.*   physical parameters (densities in per-km2 config units)
    policy.*    numeric evaluation knobs
    sim.*       slot-level simulator knobs
    sweep.*     optional parameter sweep (absent -> single-point runs)

The keys of a section are the fields of its dataclass, parsed by their
annotated types: NetworkParams, NumericPolicy and SimConfig live in core,
SweepSpec here.  The densities lambda_b/lambda_u appear as
lambda_b_per_km2/lambda_u_per_km2.
A field without a default is a required key.  Unknown keys, duplicate keys,
and malformed values are rejected with the offending line number.  When `sweep.parameter` names a network field, that
field must NOT also appear in the network section; the template is filled
per sweep value.
"""
from __future__ import annotations

import dataclasses
import enum
import typing
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .core import (NetworkParams, NumericPolicy, SimConfig,
                   per_km2_to_per_m2, per_m2_to_per_km2, validate)

SWEEPABLE = ("lambda_b", "lambda_u", "e_th")
METRICS = ("p_tr", "t_avg", "t_total", "mean_users", "sustainable_ratio")
RUN_MODES = ("analytic", "simulate", "both")


class ConfigError(ValueError):
    """Malformed or contradictory configuration; carries file context."""

    def __init__(self, message: str, path: str = "?", line: Optional[int] = None):
        loc = f"{path}:{line}" if line is not None else path
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep: evaluate `metrics` at each value of
    `parameter` under the given run mode(s).  Values carry config units
    (per-km2 for densities, joules for e_th)."""

    parameter: str
    values: Tuple[float, ...]
    metrics: Tuple[str, ...]
    mode: str = "both"

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ValueError(
                f"sweep.parameter must be one of {SWEEPABLE}, got "
                f"{self.parameter!r}")
        if not self.values:
            raise ValueError("sweep.values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep.values must be strictly increasing")
        if not self.metrics:
            raise ValueError("sweep.metrics must be non-empty")
        for m in self.metrics:
            if m not in METRICS:
                raise ValueError(f"unknown sweep metric {m!r}")
        if self.mode not in RUN_MODES:
            raise ValueError(f"sweep.mode must be one of {RUN_MODES}")
        if "sustainable_ratio" in self.metrics:
            if self.parameter != "lambda_b":
                raise ValueError(
                    "sustainable_ratio sweeps over lambda_b only")
            if self.mode != "analytic":
                raise ValueError(
                    "sustainable_ratio has no simulated estimator; use "
                    "sweep.mode = analytic")


_BOOL = {"true": True, "false": False}

# NetworkParams densities are per m2; config files give them per km2 under
# these keys
PER_KM2_KEYS = {"lambda_b": "lambda_b_per_km2", "lambda_u": "lambda_u_per_km2"}


def to_field(name: str, value):
    """A config-unit value of field `name` in the units its dataclass holds."""
    return per_km2_to_per_m2(value) if name in PER_KM2_KEYS else value


# section -> the dataclass whose fields are its keys
_SECTION_TYPES = {"network": NetworkParams, "policy": NumericPolicy,
                  "sim": SimConfig, "sweep": SweepSpec}


def _schema(cls) -> Dict[str, Tuple[dataclasses.Field, object]]:
    """{config key: (field, type)} for every field of a section dataclass."""
    hints = typing.get_type_hints(cls)
    return {PER_KM2_KEYS.get(f.name, f.name): (f, hints[f.name])
            for f in dataclasses.fields(cls)}


_SECTIONS = {name: _schema(cls) for name, cls in _SECTION_TYPES.items()}


def _parse_value(kind, raw: str, key: str):
    if typing.get_origin(kind) is tuple:   # comma-separated list
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if not items:
            raise ValueError(f"{key}: empty list")
        return tuple(_parse_value(typing.get_args(kind)[0], s, key)
                     for s in items)
    if issubclass(kind, enum.Enum):
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(
                f"{key}: expected one of {[m.value for m in kind]}, got "
                f"{raw!r}") from None
    if kind is bool:
        if raw.lower() not in _BOOL:
            raise ValueError(f"{key}: expected true/false, got {raw!r}")
        return _BOOL[raw.lower()]
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{key}: expected integer, got {raw!r}") from None
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"{key}: expected number, got {raw!r}") from None
    return raw


def _format_value(kind, value) -> str:
    """Inverse of _parse_value: the config text of a field value."""
    if typing.get_origin(kind) is tuple:
        return ",".join(_format_value(typing.get_args(kind)[0], v)
                        for v in value)
    if issubclass(kind, enum.Enum):
        return value.value
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return repr(value)
    return str(value)


def _km2_text(density: float) -> str:
    """The shortest per-km2 config text of a per-m2 density that loads back
    to exactly that density."""
    km2 = per_m2_to_per_km2(density)
    for digits in range(1, 18):
        candidate = float(f"{km2:.{digits}g}")
        if per_km2_to_per_m2(candidate) == density:
            return repr(candidate)
    return repr(km2)


def parse_text(text: str, path: str = "?") -> Dict[str, Dict[str, object]]:
    """Parse config text into {section: {key: value}} with strict checks."""
    out: Dict[str, Dict[str, object]] = {s: {} for s in _SECTIONS}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'section.key = value': {stripped!r}",
                              path, lineno)
        lhs, rhs = stripped.split("=", 1)
        dotted, raw = lhs.strip(), rhs.strip()
        if "." not in dotted:
            raise ConfigError(f"key {dotted!r} lacks a section prefix",
                              path, lineno)
        section, key = dotted.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}", path, lineno)
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {dotted!r}", path, lineno)
        if key in out[section]:
            raise ConfigError(f"duplicate key {dotted!r}", path, lineno)
        try:
            out[section][key] = _parse_value(_SECTIONS[section][key][1],
                                             raw, dotted)
        except ValueError as exc:
            raise ConfigError(str(exc), path, lineno) from None
    return out


def _build(section: str, values: Dict[str, object], path: str):
    """The section's dataclass from parsed config values; a field without
    a default is a required key."""
    kwargs = {}
    for key, (field, _) in _SECTIONS[section].items():
        if key in values:
            kwargs[field.name] = to_field(field.name, values[key])
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"missing required key {section}.{key}", path)
    try:
        return _SECTION_TYPES[section](**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from None


def load_config(path: str, overrides: Optional[Dict[str, str]] = None):
    """Read and validate a config file.

    overrides maps dotted keys (e.g. "network.lambda_b_per_km2") to raw
    string values; they take precedence over file contents.  Returns
    (NetworkParams, NumericPolicy, SimConfig, SweepSpec-or-None); the
    NetworkParams of a sweep run is the template with the swept field set
    to the first sweep value.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from None
    raw = parse_text(text, path)

    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        if section not in _SECTIONS or key not in _SECTIONS[section]:
            raise ConfigError(f"unknown override {dotted!r}", path)
        try:
            raw[section][key] = _parse_value(_SECTIONS[section][key][1],
                                             str(value), dotted)
        except ValueError as exc:
            raise ConfigError(f"override {exc}", path) from None

    sweep = _build("sweep", raw["sweep"], path) if raw["sweep"] else None

    net = dict(raw["network"])
    if sweep is not None:
        swept_key = PER_KM2_KEYS.get(sweep.parameter, sweep.parameter)
        if swept_key in net:
            raise ConfigError(
                f"network.{swept_key} conflicts with sweep.parameter = "
                f"{sweep.parameter}; leave it out of the network section",
                path)
        net[swept_key] = sweep.values[0]
    params = _build("network", net, path)
    try:
        validate(params)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from None
    return (params, _build("policy", raw["policy"], path),
            _build("sim", raw["sim"], path), sweep)


def resolved_lines(params: NetworkParams, policy: NumericPolicy,
                   sim: SimConfig, sweep: Optional[SweepSpec]) -> list:
    """Flat `section.key=value` lines capturing the full effective config,
    suitable for a reproducibility preamble.  Densities in per-km2."""
    lines = []
    for section, obj in (("network", params), ("policy", policy),
                         ("sim", sim), ("sweep", sweep)):
        if obj is None:
            continue
        for key, (field, kind) in _SECTIONS[section].items():
            value = getattr(obj, field.name)
            text = (_km2_text(value) if field.name in PER_KM2_KEYS
                    else _format_value(kind, value))
            lines.append(f"{section}.{key}={text}")
    return sorted(lines)
