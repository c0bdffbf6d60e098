"""Dense float64 kernels: row softmax, RMS norm, rotary embedding.

Everything here is pure and reentrant; all math is 64-bit. Besides numpy's
own products, these three kernels are the numeric primitives the rest of
the package builds on.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError, MaskError, ShapeError

NEG_INF = float("-inf")


@dataclass(frozen=True)
class RopeParams:
    """Rotary embedding parameters for one attention layer kind.

    base_freq: 10_000 for sliding-window layers, 1_000_000 for full-context
    layers. scale divides positions (positional interpolation); 1 means no
    rescaling, 8 is the long-context setting.
    """

    base_freq: float
    scale: float = 1.0
    head_dim: int = 0

    def __post_init__(self):
        if self.head_dim % 2 != 0 or self.head_dim <= 0:
            raise ConfigError(f"head_dim must be positive and even, got {self.head_dim}")
        if not 0 < self.base_freq < np.inf:
            raise ConfigError(f"base_freq must be finite and > 0, got {self.base_freq}")
        if not 1 <= self.scale < np.inf:
            raise ConfigError(f"scale must be finite and >= 1, got {self.scale}")

    def inv_freqs(self) -> np.ndarray:
        """theta_i = base ** (-2i / head_dim), i = 0 .. head_dim/2 - 1; read-only, shared."""
        return self._inv_freqs

    @cached_property
    def _inv_freqs(self) -> np.ndarray:
        # built on first use and kept in the instance __dict__, outside the fields
        # that equality and hashing read
        i = np.arange(self.head_dim // 2, dtype=np.float64)
        theta = self.base_freq ** (-2.0 * i / self.head_dim)
        theta.flags.writeable = False
        return theta


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with max-subtraction.

    -inf entries are mask sentinels and map to exactly 0. A row that is
    entirely -inf has no legal attention target and raises MaskError.
    """
    m = np.asarray(m, dtype=np.float64)
    row_max = np.maximum.reduce(m, axis=-1, keepdims=True)  # np.max without its wrapper
    # a NaN anywhere in a row makes its max NaN, a +inf makes it +inf and a
    # fully masked row makes it -inf; one check catches all three
    if not np.logical_and.reduce(np.isfinite(row_max), axis=None):  # .all() without its wrapper
        if np.isnan(row_max).any() or (row_max == np.inf).any():
            raise ValueError("softmax input must be finite or -inf")
        raise MaskError("fully masked row: every entry is -inf")
    e = m - row_max
    np.exp(e, out=e)  # exp(-inf) == 0, no nan because row_max is finite
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _rms_norm(v: np.ndarray, gain: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(div, out) of rms_norm on a float64 array v, without its checks: the
    divisor sqrt(mean(v^2) + eps) along the last axis, kept with length 1,
    which the training tape keeps, and gain * v / div. Every norm on the
    layer path runs this body."""
    # np.mean's own sum and divide, without its Python wrapper
    div = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True) / v.shape[-1] + eps)
    return div, gain * v / div


def rms_norm(
    v: np.ndarray, gain: np.ndarray, eps: float = 1e-6, div: Optional[np.ndarray] = None,
) -> np.ndarray:
    """out[i] = gain[i] * v[i] / sqrt(mean(v^2) + eps), along the last axis.

    div, if given, is the divisor _rms_norm computes, kept by the caller.
    """
    v = np.asarray(v, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    if gain.shape[-1] != v.shape[-1]:
        raise ShapeError(f"gain length {gain.shape[-1]} != vector length {v.shape[-1]}")
    if div is not None:
        return gain * v / div
    if eps <= 0:
        raise ConfigError(f"eps must be > 0, got {eps}")
    return _rms_norm(v, gain, eps)[1]


def rope_cos_sin(positions: np.ndarray, p: RopeParams) -> tuple[np.ndarray, np.ndarray]:
    """The angle step of rope_apply: cos and sin of theta_i * position / scale,
    each (n, head_dim/2) for positions (n,). Every layer of a kind shares them."""
    angles = (positions[:, None] / p.scale) * p.inv_freqs()[None, :]
    return np.cos(angles), np.sin(angles)


def rope_rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The rotate step of rope_apply: pairs (x[2i], x[2i+1]) of x (..., n,
    head_dim) turned by the angles whose cos and sin are (n, head_dim/2).
    Rotating by (cos, -sin) undoes it."""
    x = np.asarray(x, dtype=np.float64)
    if cos.ndim != 2 or sin.shape != cos.shape or x.shape[-2:] != (len(cos), 2 * cos.shape[1]):
        raise ShapeError(f"cos {cos.shape} and sin {sin.shape} do not match x {x.shape}")
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def rope_apply(x: np.ndarray, positions: np.ndarray, p: RopeParams) -> np.ndarray:
    """Rotate interleaved pairs (x[2i], x[2i+1]) by theta_i * position / scale.

    x: (..., n, head_dim), positions: (n,) absolute token indices. The
    rotation is orthogonal, so vector norms are preserved, and attention
    dot products depend on positions only through (m - n) / scale.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != p.head_dim:
        raise ShapeError(f"vector length {x.shape[-1]} != head_dim {p.head_dim}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 1 or positions.shape[0] != x.shape[-2]:
        raise ShapeError(f"positions shape {positions.shape} does not match x {x.shape}")
    return rope_rotate(x, *rope_cos_sin(positions, p))
