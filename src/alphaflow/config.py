"""JSON run configuration: parsing, validation, the effective-config dict."""

from __future__ import annotations

import dataclasses
import json
import numbers
import os

from .errors import ConfigurationError
from .solver import SimConfig


def _integer(value) -> int:
    """An int, or a float with an integral value; bools and the rest raise."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError("expected an integer")


def _real(value) -> float:
    """A float from a number; bools and the rest raise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError("expected a number")


#: the cast of each SimConfig annotation (a string: solver postpones annotations)
_CASTS = {"int": _integer, "float": _real, "str": str}

#: JSON key -> (SimConfig field, cast): each field under its own name, but
#: ``lam`` under "lambda"; an absent optional key keeps the field's default
_KEYS = {("lambda" if f.name == "lam" else f.name): (f.name, _CASTS[f.type])
         for f in dataclasses.fields(SimConfig)}

#: the keys of the fields without a default
_REQUIRED = tuple(key for key, f in zip(_KEYS, dataclasses.fields(SimConfig))
                  if f.default is dataclasses.MISSING)

#: the keys that fix the integrated system; seed, dt and the run length
#: may differ between runs of one system
PHYSICS_KEYS = ("dim", "n", "alpha", "eta", "lambda", "epsilon", "delta")


def physics(config: SimConfig) -> dict:
    """The :data:`PHYSICS_KEYS` values of a configuration, by JSON key."""
    return {key: getattr(config, _KEYS[key][0]) for key in PHYSICS_KEYS}


def physics_mismatch(ours: dict, theirs: dict) -> str:
    """"key ours vs theirs" for each differing :data:`PHYSICS_KEYS` entry; "" if none."""
    return ", ".join(f"{key} {ours[key]} vs {theirs[key]}"
                     for key in PHYSICS_KEYS if ours[key] != theirs[key])


def config_from_dict(doc: dict) -> SimConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    unknown = sorted(set(doc) - set(_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise ConfigurationError(f"missing required config keys: {', '.join(missing)}")
    kwargs = {}
    for key, value in doc.items():
        attr, cast = _KEYS[key]
        try:
            kwargs[attr] = cast(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"config key {key!r} has invalid value {value!r}: {exc}"
            ) from None
    try:
        return SimConfig(**kwargs)
    except ConfigurationError:
        raise
    except Exception as exc:  # dataclass-level type errors
        raise ConfigurationError(str(exc)) from None


def parse_config(path) -> SimConfig:
    """Load and validate a JSON config file."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(doc)


def config_to_dict(config: SimConfig) -> dict:
    """Effective configuration with every default filled in.

    Floats survive a JSON round-trip exactly (shortest-repr encoding), so
    ``config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg``.
    """
    return {key: cast(getattr(config, attr)) for key, (attr, cast) in _KEYS.items()}
