"""Grouped-query attention with QK-norm and per-kind causal masking.

Local layers attend inside a trailing window (the query position counts as
part of the window); Global layers attend to the whole causal prefix. Both
kinds carry their own rotary parameters.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import NEG_INF, RopeParams, rms_norm, softmax_rows


class LayerKind(Enum):
    LOCAL = "local"
    GLOBAL = "global"


@dataclass(frozen=True)
class AttentionConfig:
    num_query_heads: int
    num_kv_heads: int
    head_dim: int
    kind: LayerKind
    rope: RopeParams
    window: Optional[int] = None  # required for LOCAL, forbidden for GLOBAL

    def __post_init__(self):
        if self.num_query_heads % self.num_kv_heads != 0:
            raise ConfigError(
                f"num_kv_heads {self.num_kv_heads} must divide num_query_heads {self.num_query_heads}"
            )
        if self.kind is LayerKind.LOCAL:
            if self.window is None or self.window < 1:
                raise ConfigError("LOCAL attention requires window >= 1")
        elif self.window is not None:
            raise ConfigError("GLOBAL attention takes no window")
        if self.rope.head_dim != self.head_dim:
            raise ConfigError(
                f"rope head_dim {self.rope.head_dim} != attention head_dim {self.head_dim}"
            )

    @property
    def group_size(self) -> int:
        return self.num_query_heads // self.num_kv_heads


def build_mask(
    kind: LayerKind,
    q_positions: np.ndarray,
    k_positions: np.ndarray,
    window: Optional[int] = None,
) -> np.ndarray:
    """Additive {0, -inf} mask of shape (len(q), len(k)).

    Entry (i, j) is 0 iff k_pos[j] <= q_pos[i] and, for LOCAL,
    q_pos[i] - k_pos[j] < window: a query at p sees keys in
    [p - window + 1, p].
    """
    q_positions = np.asarray(q_positions, dtype=np.int64)
    k_positions = np.asarray(k_positions, dtype=np.int64)
    if np.any(np.diff(q_positions) < 0) or np.any(np.diff(k_positions) < 0):
        raise ValueError("positions must be non-decreasing")
    if kind is LayerKind.LOCAL and window is None:
        raise ConfigError("LOCAL mask requires a window")
    diff = q_positions[:, None] - k_positions[None, :]
    allowed = diff >= 0
    if kind is LayerKind.LOCAL:
        allowed &= diff < window
    return np.where(allowed, 0.0, NEG_INF)


def qk_norm(
    q: np.ndarray,
    k: np.ndarray,
    q_gain: Optional[np.ndarray] = None,
    k_gain: Optional[np.ndarray] = None,
    eps: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """RMS-normalize query and key vectors per head, before rotary embedding.

    q: (Hq, T, head_dim), k: (Hkv, T, head_dim). Gains are per head,
    shape (H, head_dim), and default to ones.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"q head_dim {q.shape[-1]} != k head_dim {k.shape[-1]}")
    q_gain = np.ones(q.shape[-1]) if q_gain is None else np.asarray(q_gain, dtype=np.float64)
    k_gain = np.ones(k.shape[-1]) if k_gain is None else np.asarray(k_gain, dtype=np.float64)
    if q_gain.ndim == 2:
        q_gain = q_gain[:, None, :]  # broadcast over the sequence axis
    if k_gain.ndim == 2:
        k_gain = k_gain[:, None, :]
    return rms_norm(q, q_gain, eps), rms_norm(k, k_gain, eps)


def attention_probs(
    q: np.ndarray, k: np.ndarray, cfg: AttentionConfig, mask: np.ndarray
) -> np.ndarray:
    """Attention weights (num_query_heads, Tq, Tk): softmax over keys of the
    1/sqrt(head_dim)-scaled logits plus the additive mask. Query head h reads
    kv head h // group_size; inputs are not validated."""
    k_exp = np.repeat(k, cfg.group_size, axis=0)  # (Hq, Tk, head_dim)
    logits = q @ k_exp.transpose(0, 2, 1) / np.sqrt(cfg.head_dim)
    return softmax_rows(logits + mask[None, :, :])


def gqa_attend(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    cfg: AttentionConfig,
    mask: np.ndarray,
) -> np.ndarray:
    """Attention where query head h reads kv head h // group_size.

    q: (num_query_heads, Tq, head_dim), k/v: (num_kv_heads, Tk, head_dim),
    mask: (Tq, Tk) additive. Returns per-head outputs
    (num_query_heads, Tq, head_dim). Logits are scaled by 1/sqrt(head_dim).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.shape[0] != cfg.num_query_heads or k.shape[0] != cfg.num_kv_heads:
        raise ShapeError(
            f"expected {cfg.num_query_heads} q heads / {cfg.num_kv_heads} kv heads, "
            f"got {q.shape[0]} / {k.shape[0]}"
        )
    if q.shape[-1] != cfg.head_dim or k.shape != v.shape:
        raise ShapeError(f"bad head shapes: q {q.shape}, k {k.shape}, v {v.shape}")
    if mask.shape != (q.shape[1], k.shape[1]):
        raise ShapeError(f"mask shape {mask.shape} != ({q.shape[1]}, {k.shape[1]})")
    return attention_probs(q, k, cfg, mask) @ np.repeat(v, cfg.group_size, axis=0)
