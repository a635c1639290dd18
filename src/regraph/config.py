"""Run configuration: JSON schema with defaults, strict key checking.

A config file holds up to three sections (data, model, train). Every key has
a default; unknown keys are rejected with the full key path so typos never
silently fall back to a default. The ``data.synth`` and ``train`` leaves are
read off the ``SyntheticConfig`` and ``TrainConfig`` fields, so each of their
defaults lives on its dataclass alone. Graph settings are ``build-graph``
flags, kept in the graph file and the checkpoint; the headline metric reading
is ``evaluate --literal-eq14``.
"""

import dataclasses
import json
import math
import typing
from pathlib import Path

from regraph.data import GRID_STEP_MIN, MAX_GAP_STEPS, SyntheticConfig
from regraph.errors import ConfigError
from regraph.models import ModelSpec
from regraph.models.architectures import CONNECTIVITY_OF
from regraph.training import TrainConfig

__all__ = [
    "load_config",
    "model_spec_from",
    "resolve_config",
    "synth_config_from",
    "train_config_from",
]

_MISSING = object()

# JSON types accepted for a dataclass field, by the type of its default
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
               tuple: (list,)}


def _field_leaves(cls, defaults=None, nullable=(), skip=()) -> dict:
    """One leaf per field of a config dataclass; a tuple field's leaf also
    takes its item types and length from the field's annotation."""
    defaults = defaults or {}
    hints = typing.get_type_hints(cls)
    leaves = {}
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        default = defaults.get(f.name, f.default)
        types = _JSON_TYPES[type(default)]
        if f.name in nullable:
            types += (type(None),)
        if isinstance(default, tuple):
            items = typing.get_args(hints[f.name])  # (int, ...) or (float, float)
            length = None if items[-1] is Ellipsis else len(items)
            leaves[f.name] = (list(default), types, _JSON_TYPES[items[0]], length)
        else:
            leaves[f.name] = (default, types)
    return leaves


# (default, accepted types[, item types, length or None for any]); None
# defaults carry their concrete type.
# Train leaves that differ from their TrainConfig field: epochs has no
# dataclass default, grad_clip_norm may be null (no clipping), and horizons
# is data.horizons.
_SCHEMA = {
    "data": {
        "grid_step_min": (GRID_STEP_MIN, int),
        "max_gap_steps": (MAX_GAP_STEPS, int),
        "k": (6, int),
        "horizons": ([1, 3, 12, 36], list, (int,), None),
        "train_weeks": ([], list),
        "test_weeks": ([], list),
        "generality_weeks": ([], list),
        "synth": _field_leaves(SyntheticConfig),
    },
    "model": {
        "architecture": ("RegTGCN", str),
        # None resolves by architecture: 512 for TGCN, 256 for the rest
        "hidden": (None, (int, type(None))),
        "seed": (0, int),
    },
    "train": _field_leaves(TrainConfig, defaults={"epochs": 100},
                           nullable={"grad_clip_norm"}, skip={"horizons"}),
}


def _resolve_section(schema: dict, given, path: str) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"config section '{path}' must be an object")
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown config key: {path}.{key}"
                              if path else f"unknown config key: {key}")
    out = {}
    for key, node in schema.items():
        child_path = f"{path}.{key}" if path else key
        value = given.get(key, _MISSING)
        if isinstance(node, dict):
            out[key] = _resolve_section(node, {} if value is _MISSING else value,
                                        child_path)
            continue
        default, types, *items = node
        if value is _MISSING:
            out[key] = default
            continue
        _check_type(value, types, child_path)
        if items:
            _check_items(value, child_path, *items)
        out[key] = value
    return out


def _check_type(value, types, path: str) -> None:
    if (isinstance(value, bool) and bool not in _as_tuple(types)
            or not isinstance(value, types)):
        raise ConfigError(f"config key {path} has the wrong type: expected "
                          f"{_type_names(types)}, got {_type_names(type(value))}")
    # json reads NaN, Infinity and -Infinity, and an overflowing 1e999 as inf
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {path} must be a finite number, got {value}")


def _check_items(values: list, path: str, types, length) -> None:
    if length is not None and len(values) != length:
        raise ConfigError(f"config key {path} must hold {length} items, got {len(values)}")
    for i, value in enumerate(values):
        _check_type(value, types, f"{path}[{i}]")


def _as_tuple(types):
    return types if isinstance(types, tuple) else (types,)


def _type_names(types) -> str:
    names = [("null" if t is type(None) else t.__name__)
             for t in _as_tuple(types)]
    return " or ".join(names)


def resolve_config(given: dict) -> dict:
    """Merge a user config over the defaults, rejecting unknown keys."""
    if not isinstance(given, dict):
        raise ConfigError("config root must be a JSON object")
    return _resolve_section(_SCHEMA, given, "")


def load_config(path) -> dict:
    """Read and resolve a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    return resolve_config(raw)


def resolve_hidden(architecture: str, hidden) -> int:
    if hidden is not None:
        return hidden
    return 512 if architecture == "TGCN" else 256


def model_spec_from(resolved: dict) -> ModelSpec:
    m = resolved["model"]
    architecture = m["architecture"]
    data = resolved["data"]
    return ModelSpec(
        architecture=architecture,
        hidden=resolve_hidden(architecture, m["hidden"]),
        k=data["k"],
        horizons=tuple(data["horizons"]),
        connectivity=CONNECTIVITY_OF.get(architecture),
        seed=m["seed"],
        grid_step_min=data["grid_step_min"],
        max_gap_steps=data["max_gap_steps"])


def _dataclass_from(cls, section: dict, **given):
    """Fill a config dataclass from its resolved section.

    Lists become tuples, and float fields go through float(), so an int
    given for one (``noise_level: 0``) reaches the dataclass as a float.
    """
    values = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in given:
            continue
        value = section[f.name]
        if isinstance(value, list):
            value = tuple(value)
        elif isinstance(f.default, float) and value is not None:
            value = float(value)
        values[f.name] = value
    return cls(**values)


def synth_config_from(resolved: dict) -> SyntheticConfig:
    return _dataclass_from(SyntheticConfig, resolved["data"]["synth"])


def train_config_from(resolved: dict) -> TrainConfig:
    return _dataclass_from(TrainConfig, resolved["train"],
                           horizons=tuple(resolved["data"]["horizons"]))
