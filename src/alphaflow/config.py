"""JSON run configuration: parsing, validation, round-trip emission."""

from __future__ import annotations

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


#: JSON key -> (SimConfig attribute, type); an absent optional key keeps
#: the SimConfig default
_KEYS = {
    "dim": ("dim", _integer),
    "n": ("n", _integer),
    "alpha": ("alpha", _real),
    "eta": ("eta", _real),
    "lambda": ("lam", _real),
    "epsilon": ("epsilon", _real),
    "delta": ("delta", _real),
    "dt": ("dt", _real),
    "t_end": ("t_end", _real),
    "snapshot_stride": ("snapshot_stride", _integer),
    "initial_condition": ("initial_condition", str),
    "stress_init": ("stress_init", str),
    "seed": ("seed", _integer),
}

_REQUIRED = ("n", "alpha", "eta", "lambda", "dt", "t_end")

#: the keys that fix the integrated system; seed, dt and the run length
#: may differ between runs of one system
PHYSICS_KEYS = ("dim", "n", "alpha", "eta", "lambda", "epsilon", "delta")


def physics(config: SimConfig) -> dict:
    """The :data:`PHYSICS_KEYS` values of a configuration, by JSON key."""
    return {key: getattr(config, _KEYS[key][0]) for key in PHYSICS_KEYS}


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

    Floats survive a JSON round-trip exactly (shortest-repr encoding),
    so parse(emit(cfg)) == cfg.
    """
    out = {}
    for key, (attr, cast) in _KEYS.items():
        value = getattr(config, attr)
        out[key] = cast(value)
    return out


def emit_config(config: SimConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config_to_dict(config), handle, sort_keys=True, indent=2)
        handle.write("\n")
