"""Flat key/value config files and the shipped model presets.

Config syntax: one `key = value` per line, `#` comments, values parsed as
int, float, bool or string. GEMMA_MINI_PRESETS may point at a directory of
extra .cfg files; its entries shadow the built-ins on name clashes.
"""

import os
from importlib import resources
from typing import Union

from .memplan import ModelPreset
from .model import ModelConfig

ENV_VAR = "GEMMA_MINI_PRESETS"


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = _coerce(value.strip())
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
    raise KeyError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")


def load_preset(name: str) -> ModelPreset:
    values = preset_values(name)
    try:
        return ModelPreset(
            name=values.get("name", name),
            embedding_params=values["embedding_params"],
            non_embedding_params=values["non_embedding_params"],
            vision_encoder_params=values.get("vision_encoder_params", 0),
            n_layers=values["n_layers"],
            num_kv_heads=values["num_kv_heads"],
            head_dim=values["head_dim"],
            local_per_global=values.get("local_per_global", 5),
            window=values.get("window", 1024),
        )
    except KeyError as exc:
        raise KeyError(f"preset {name!r} is missing required key {exc}") from exc
