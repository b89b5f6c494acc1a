"""Flat key-value configuration of all model parameters.

The file format is INI with one section per model area and parameter names
matching the usual symbols (H, lambda, kp, kd, C1, xi, omega_n, k, h, r).
Every experiment output embeds a hash of the resolved configuration so that
result files can be matched to the exact parameter set that produced them.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace

from .controllers import ControllerSet
from .dynamics import DynamicsParams


class UsageError(ValueError):
    """Bad configuration: a parameter, composition, scenario or ring setting
    that cannot be run.  The command line maps it, and only it, to exit 2."""


@dataclass
class MobilitySpec:
    """Road and experiment-grid defaults for the ring experiments, and the
    source of :class:`ring.RingSpec`'s road defaults."""

    lanes: int = 3
    circumference: float = 10_000.0
    speed_classes_kmh: tuple[float, ...] = (100.0, 115.0, 130.0)
    speed_jitter_kmh: float = 5.0
    densities: tuple[float, ...] = (10, 20, 40, 60, 80, 100, 120, 140, 160, 180)
    platoon_sizes: tuple[int, ...] = (4, 8, 16)
    penetration_rates: tuple[float, ...] = (0.25, 0.5, 0.75)
    ring_duration: float = 600.0
    ring_warmup: float = 120.0
    counter_window: float = 15.0
    volatility_sample_dt: float = 0.5

    def __post_init__(self):
        check(self, "mobility")


@dataclass
class Config:
    dynamics: DynamicsParams = field(default_factory=DynamicsParams)
    controllers: ControllerSet = field(default_factory=ControllerSet)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)

    def __post_init__(self):
        # the Ploeg filter takes Euler steps of gain dt / H, which overshoot above 1
        if self.dynamics.dt > self.controllers.ploeg.H:
            raise UsageError("[ploeg] H must not be shorter than the [dynamics] dt")


# One row per INI entry: (section, key, owning field of the Config, domain).  The
# hash names a [dynamics] or [mobility] value by its field and a controller value
# by its INI key.  Values are floats unless _CASTS says otherwise, and finite.
SCHEMA = (
    ("dynamics", "powertrain lag", "dynamics.tau", "positive"),
    ("dynamics", "dt", "dynamics.dt", "positive"),
    ("dynamics", "u_min", "dynamics.u_min", "negative"),
    ("dynamics", "u_max", "dynamics.u_max", "positive"),
    ("dynamics", "emergency u_min", "dynamics.emergency_u_min", "negative"),
    ("acc", "H", "controllers.acc.H", "positive"),
    ("acc", "lambda", "controllers.acc.lam", "positive"),
    ("ploeg", "H", "controllers.ploeg.H", "positive"),
    ("ploeg", "kp", "controllers.ploeg.kp", "positive"),
    ("ploeg", "kd", "controllers.ploeg.kd", "positive"),
    ("path", "C1", "controllers.path.c1", "in (0, 1)"),
    ("path", "xi", "controllers.path.xi", "at least 1"),
    ("path", "omega_n", "controllers.path.omega_n", "positive"),
    ("path", "dd", "controllers.path.dd", "positive"),
    ("gsbl", "k", "controllers.gsbl.k", "positive"),
    ("gsbl", "h", "controllers.gsbl.h", "non-negative"),
    ("gsbl", "r", "controllers.gsbl.r_default", "positive"),
    ("gsbl", "r_min", "controllers.gsbl.r_min", "positive"),
    ("gsbl", "r_max", "controllers.gsbl.r_max", "positive"),
    ("gsbl", "d", "controllers.gsbl.d", "positive"),
    ("gsbl", "delta_a", "controllers.gsbl.delta_a", "negative"),
    ("gsbl", "delta_t", "controllers.gsbl.delta_t", "non-negative"),
    ("idm", "v0", "controllers.idm.v0", "positive"),
    ("idm", "T", "controllers.idm.T", "positive"),
    ("idm", "a_max", "controllers.idm.a_max", "positive"),
    ("idm", "b_comf", "controllers.idm.b_comf", "positive"),
    ("idm", "s0", "controllers.idm.s0", "non-negative"),
    ("idm", "delta", "controllers.idm.delta", "positive"),
    ("mobility", "lanes", "mobility.lanes", "at least 1"),
    ("mobility", "circumference", "mobility.circumference", "positive"),
    ("mobility", "desired speeds", "mobility.speed_classes_kmh", "positive"),
    ("mobility", "speed jitter", "mobility.speed_jitter_kmh", "non-negative"),
    ("mobility", "densities", "mobility.densities", "positive"),
    ("mobility", "platoon sizes", "mobility.platoon_sizes", "at least 2"),
    ("mobility", "penetration rates", "mobility.penetration_rates", "in [0, 1]"),
    ("mobility", "duration", "mobility.ring_duration", "positive"),
    ("mobility", "warmup", "mobility.ring_warmup", "non-negative"),
    ("mobility", "counter window", "mobility.counter_window", "positive"),
    ("mobility", "volatility sample dt", "mobility.volatility_sample_dt", "positive"),
)
_HASH_BY_FIELD = ("dynamics", "mobility")
DOMAINS = {
    "positive": lambda x: 0 < x < math.inf,
    "negative": lambda x: -math.inf < x < 0,
    "non-negative": lambda x: 0 <= x < math.inf,
    "at least 1": lambda x: 1 <= x < math.inf,
    "at least 2": lambda x: 2 <= x < math.inf,
    "in (0, 1)": lambda x: 0 < x < 1,
    "in [0, 1]": lambda x: 0 <= x <= 1,
}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split(",")))


def _integral(text: str) -> int:
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not a whole number")
    return int(value)


_CASTS = {
    "mobility.lanes": int,
    "mobility.speed_classes_kmh": _floats,
    "mobility.densities": _floats,
    "mobility.platoon_sizes": lambda s: tuple(map(_integral, s.split(","))),
    "mobility.penetration_rates": _floats,
}
_FIELD_BY_KEY = {(section, key): path for section, key, path, _ in SCHEMA}


def _get(cfg: Config, path: str):
    return functools.reduce(getattr, path.split("."), cfg)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def check(obj, section: str) -> None:
    """Raise :class:`UsageError` if a field of ``obj`` lies outside its ``section`` domain."""
    for sec, key, path, domain in SCHEMA:
        value = getattr(obj, path.rpartition(".")[2], None)
        entries = value if isinstance(value, (tuple, list)) else (value,)
        if sec == section and value is not None and not all(map(DOMAINS[domain], entries)):
            raise UsageError(f"[{section}] {key} must be {domain}, got {_fmt(value)}")


def config_to_text(cfg: Config) -> str:
    """Serialize a configuration to the INI text format."""
    out = []
    for section, rows in itertools.groupby(SCHEMA, key=lambda row: row[0]):
        out.append(f"[{section}]")
        out.extend(f"{key} = {_fmt(_get(cfg, path))}" for _, key, path, _ in rows)
        out.append("")
    return "\n".join(out)


def load_config(text: str) -> Config:
    """Parse configuration text; unspecified values keep their defaults.

    An unknown section or key is an error, so a misspelt name cannot
    silently leave its default in place.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse configuration: {exc}") from exc

    if parser.defaults():   # their keys would be copied into every section
        raise UsageError(f"unknown section [{parser.default_section}]")
    known = {section for section, *_ in SCHEMA}
    updates: dict[str, dict] = {}     # owner path -> {field: value}
    for section in parser.sections():
        if section not in known:
            raise UsageError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            path = _FIELD_BY_KEY.get((section, key))
            if path is None:
                raise UsageError(f"unknown key {key!r} in [{section}]")
            try:
                value = _CASTS.get(path, float)(raw)
            except ValueError as exc:
                raise UsageError(f"bad value {raw!r} for [{section}] {key}") from exc
            owner, _, name = path.rpartition(".")
            updates.setdefault(owner, {})[name] = value

    cfg = Config()
    for owner, values in updates.items():
        parent, _, name = owner.rpartition(".")
        holder = _get(cfg, parent) if parent else cfg
        setattr(holder, name, replace(getattr(holder, name), **values))
    return replace(cfg)   # built anew, so the rule across sections runs


def load_config_file(path) -> Config:
    with open(path, encoding="utf-8") as fh:
        return load_config(fh.read())


def resolved_dict(cfg: Config) -> dict:
    """Canonical nested dict of every resolved parameter."""
    out: dict[str, dict] = {}
    for section, key, path, _ in SCHEMA:
        value = _get(cfg, path)
        name = path.rpartition(".")[2] if section in _HASH_BY_FIELD else key
        out.setdefault(section, {})[name] = list(value) if isinstance(value, tuple) else value
    return out


def spec_hash(cfg: Config, extra: dict | None = None) -> str:
    """Stable hash of the resolved configuration plus experiment parameters."""
    payload = {"config": resolved_dict(cfg)}
    if extra:
        payload["experiment"] = extra
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
