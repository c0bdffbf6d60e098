"""Flat key/value config files and the shipped model presets.

Config syntax: one `key = value` per line, each key once, `#` comments,
values parsed as int, float, bool or string. GEMMA_MINI_PRESETS may point
at a directory of extra .cfg files; its entries shadow the built-ins on
name clashes. A preset's name is its file name. Every key of a config file
or preset is a ModelConfig field, except that a planning preset adds
embedding_params, non_embedding_params and optionally vision_encoder_params.
"""

import os
from contextlib import contextmanager
from importlib import resources
from typing import Union

from .errors import ConfigError
from .memplan import ModelPreset
from .model import ModelConfig

ENV_VAR = "GEMMA_MINI_PRESETS"
# the ModelPreset counts a planning preset adds to its ModelConfig fields
PLANNING_KEYS = ("embedding_params", "non_embedding_params", "vision_encoder_params")


def parse_config_text(text: str) -> dict:
    """key -> coerced value of each `key = value` line; a line without `=`
    or a key set twice is a ValueError naming the line or lines."""
    values: dict = {}
    seen: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: {key} is already set on line {seen[key]}")
        seen[key] = lineno
        values[key] = _coerce(value.strip())
    return values


def _coerce(s: str) -> Union[int, float, bool, str]:
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def load_config_file(path: str) -> dict:
    with open(path) as f:
        return parse_config_text(f.read())


def model_config_from_file(path: str) -> ModelConfig:
    return ModelConfig.from_dict(load_config_file(path))


def _builtin_dir():
    return resources.files("gemma_mini") / "presets"


def list_presets() -> list[str]:
    names = {p.name[: -len(".cfg")] for p in _builtin_dir().iterdir() if p.name.endswith(".cfg")}
    env_dir = os.environ.get(ENV_VAR)
    if env_dir and os.path.isdir(env_dir):
        names |= {f[: -len(".cfg")] for f in os.listdir(env_dir) if f.endswith(".cfg")}
    return sorted(names)


def preset_values(name: str) -> dict:
    """Raw key/values for a preset, env directory taking precedence."""
    env_dir = os.environ.get(ENV_VAR)
    if env_dir:
        candidate = os.path.join(env_dir, name + ".cfg")
        if os.path.isfile(candidate):
            return load_config_file(candidate)
    builtin = _builtin_dir() / (name + ".cfg")
    if builtin.is_file():
        return parse_config_text(builtin.read_text())
    raise ConfigError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")


@contextmanager
def _naming(name: str):  # a ConfigError of the block, prefixed `preset '<name>': `
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"preset {name!r}: {exc}") from None


def preset_config(name: str) -> ModelConfig:
    """The ModelConfig of a preset without counts, such as toy; a ConfigError names the preset."""
    values = preset_values(name)
    with _naming(name):
        return ModelConfig.from_dict(values)


def load_preset(name: str) -> ModelPreset:
    """The planning preset of a preset file: its PLANNING_KEYS counts, popped,
    and the ModelConfig of the rest; a ConfigError names the preset."""
    values = preset_values(name)
    for key in PLANNING_KEYS[:2]:  # vision_encoder_params defaults to 0
        if key not in values:
            raise ConfigError(f"preset {name!r} is missing required key {key!r}")
    counts = {key: values.pop(key, 0) for key in PLANNING_KEYS}
    with _naming(name):
        return ModelPreset(name=name, config=ModelConfig.from_dict(values), **counts)
