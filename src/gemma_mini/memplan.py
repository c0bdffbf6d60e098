"""Analytical memory planner: weight bytes per precision scheme plus KV
bytes at a context length, reported per model preset.

GB means 10^9 bytes throughout. The language-model parameter counts alone
enter the weight math; vision-encoder parameters are tracked as metadata
but excluded.
"""

import json
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .kvcache import kv_bytes
from .model import layer_kinds

GB = 1e9


@dataclass(frozen=True)
class PrecisionScheme:
    name: str
    bits_per_weight: int
    embedding_bits: int
    block_size: Optional[int] = None  # weights per shared scale, blockwise only
    scale_bits: int = 0

    def __post_init__(self):
        if self.bits_per_weight not in (4, 8, 16):
            raise ValueError(f"bits_per_weight must be 4, 8 or 16, got {self.bits_per_weight}")
        if (self.block_size is None) != (self.scale_bits == 0):
            raise ValueError("block_size and scale_bits come together")


# Embedding tables stay at 8 bits in the int4/sfp8 schemes; blockwise int4
# carries one 16-bit scale per 32 weights. Both knobs are adjustable via
# custom PrecisionScheme instances.
SCHEMES = {
    "bf16": PrecisionScheme("bf16", 16, 16),
    "int4": PrecisionScheme("int4", 4, 8),
    "int4_block32": PrecisionScheme("int4_block32", 4, 8, block_size=32, scale_bits=16),
    "sfp8": PrecisionScheme("sfp8", 8, 8),
}


def weight_bytes(embedding_params: int, non_embedding_params: int, scheme: PrecisionScheme) -> float:
    """Bytes for the weights alone under a precision scheme."""
    if embedding_params < 0 or non_embedding_params < 0:
        raise ValueError("parameter counts must be >= 0")
    total = embedding_params * scheme.embedding_bits / 8
    total += non_embedding_params * scheme.bits_per_weight / 8
    if scheme.block_size is not None:
        total += (non_embedding_params / scheme.block_size) * scheme.scale_bits / 8
    return total


@dataclass
class MemoryReport:
    model: str
    context: int
    kv_bits: int
    kv_gb: float
    weights_gb: dict  # scheme name -> GB

    @property
    def totals_gb(self) -> dict:
        """scheme name -> weights + kv, GB"""
        return {name: w + self.kv_gb for name, w in self.weights_gb.items()}

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "context": self.context,
            "kv_bits": self.kv_bits,
            "kv_gb": self.kv_gb,
            "weights_gb": dict(self.weights_gb),
            "totals_gb": self.totals_gb,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "MemoryReport":
        """The report of a to_dict. A missing, unknown or mistyped entry, or
        totals that are not weights + KV, is one ValueError."""
        try:
            rep = cls(d["model"], d["context"], d["kv_bits"], d["kv_gb"], dict(d["weights_gb"]))
            counts, sizes = (rep.context, rep.kv_bits), (rep.kv_gb, *rep.weights_gb.values())
            if not (isinstance(rep.model, str) and all(isinstance(k, str) for k in rep.weights_gb)
                    and all(type(n) is int and n >= 0 for n in counts)
                    and all(type(x) is float and 0 <= x < float("inf") for x in sizes)):
                raise ValueError("an entry has the wrong type or a negative value")
            if rep.to_dict() != d:
                raise ValueError("totals_gb is not weights_gb + kv_gb, or an entry is unknown")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"not a memory report: {exc}") from None
        return rep

    def format_table(self, schemes: Optional[list[str]] = None) -> str:
        names = schemes or list(self.weights_gb)
        rows = [f"{self.model}  (context {self.context}, {self.kv_bits}-bit KV)"]
        rows.append(f"{'scheme':<14}{'weights (GB)':>14}{'+KV (GB)':>12}")
        for name in names:
            rows.append(
                f"{name:<14}{self.weights_gb[name]:>14.1f}{self.totals_gb[name]:>12.1f}"
            )
        return "\n".join(rows)


@dataclass(frozen=True)
class ModelPreset:
    """Parameter-count metadata plus enough architecture to size a KV cache.

    Depth/width/head fields of the shipped presets are representative
    placeholders, not verified against any released checkpoint; the
    parameter counts are what the planner trusts.
    """

    name: str
    embedding_params: int
    non_embedding_params: int
    vision_encoder_params: int
    n_layers: int
    num_kv_heads: int
    head_dim: int
    local_per_global: int
    window: int

    def __post_init__(self):
        for name, least in (("embedding_params", 0), ("non_embedding_params", 0),
                            ("vision_encoder_params", 0), ("n_layers", 1), ("num_kv_heads", 1),
                            ("head_dim", 1), ("local_per_global", 0), ("window", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(
                    f"preset {self.name!r}: {name} must be an int >= {least}, got {value!r}")


def report(preset: ModelPreset, context: int, kv_bits: int = 8) -> MemoryReport:
    """Weights per scheme and the KV bytes they all share at this context;
    context 0 means weights only."""
    if context < 0:
        raise ValueError(f"context must be >= 0, got {context}")
    if context > 0:
        pattern = layer_kinds(preset.n_layers, preset.local_per_global)
        kv = kv_bytes(
            pattern, context, preset.num_kv_heads, preset.head_dim,
            kv_bits / 8, preset.window,
        )["total"]
    else:
        kv = 0.0
    weights = {
        name: weight_bytes(preset.embedding_params, preset.non_embedding_params, scheme) / GB
        for name, scheme in SCHEMES.items()
    }
    return MemoryReport(
        model=preset.name, context=context, kv_bits=kv_bits, kv_gb=kv / GB, weights_gb=weights,
    )
