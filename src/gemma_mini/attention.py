"""Grouped-query attention with QK-norm and per-kind causal masking.

Local layers attend inside a trailing window (the query position counts as
part of the window); Global layers attend to the whole causal prefix. Both
kinds carry their own rotary parameters.

`plan` computes what every layer of one kind shares over a chunk: the
rotation, the mask and the layout. The forward pass calls it once per kind,
and the backward pass again from the tape's positions.

Scores are computed in blocks, with query heads grouped under the kv head
they read. A pass has one of three layouts:

- DENSE: one block, every query against every key under a (Tq, Tk) mask.
  Cached chunks and short uncached passes run dense, and a decode step
  (one row after a cache, which hands it only keys it sees) with no mask.
- BAND: a long uncached LOCAL pass cuts the rows into blocks of `window`
  queries, each scoring only its own key block and the one before, so it
  costs O(T * window) instead of O(T^2).
- TILES: a long uncached GLOBAL pass runs in causal query tiles of 64 rows.
  Tile [b, e) is the dense pass of its rows over keys [0, e), masked by
  `_tiles` from the plan's (64, 64) causal diagonal block, which skips the
  fully masked blocks above the diagonal (as FlashAttention does). No T x T
  array is built.

attend returns no probabilities: attend_backward recomputes them block by
block through the forward's own helper, so they match it bit for bit.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import NEG_INF, RopeParams, rms_norm, rope_cos_sin, softmax_rows


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
    for pos in (q_positions, k_positions):
        if (pos[1:] < pos[:-1]).any():
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


DENSE, BAND, TILES = "dense", "band", "tiles"
_TILE = 64  # query rows per causal tile


def pass_layout(cfg: AttentionConfig, n_rows: int) -> str:
    """The layout of an uncached pass over n_rows consecutive positions.

    A banded LOCAL pass scores 2 * window keys per query; at n_rows <=
    2 * window that is no fewer than the dense causal pass scores. Tiles
    skip little of a GLOBAL pass over 2 * _TILE rows or fewer and cost a
    loop, so such a pass stays dense.
    """
    if cfg.kind is LayerKind.LOCAL:
        return BAND if n_rows > 2 * cfg.window else DENSE
    return TILES if n_rows > 2 * _TILE else DENSE


def band_mask(n_rows: int, window: int) -> np.ndarray:
    """Additive mask (n_blocks, window, 2 * window) of a banded LOCAL pass.

    Query block b holds rows [b * window, (b + 1) * window) and scores the
    keys of blocks b - 1 and b. Every block shares one relative mask; the
    first half of block 0 is padding before row 0 and is masked too.
    """
    n_blocks = -(-n_rows // window)
    mask = np.empty((n_blocks, window, 2 * window))
    mask[:] = build_mask(
        LayerKind.LOCAL, np.arange(window, 2 * window), np.arange(2 * window), window
    )
    mask[0, :, :window] = NEG_INF
    return mask


def plan(cfg: AttentionConfig, positions: np.ndarray, retained: Optional[np.ndarray] = None):
    """(cos, sin, mask, layout): what every layer of cfg's kind shares over
    a chunk at `positions`. retained holds the positions of the earlier keys
    such a layer reads with the chunk (KvCache.retained), or is None.

    Rows with no earlier keys attend to one another only, in the layout of
    an uncached pass (pass_layout): a long LOCAL layer banded, a long GLOBAL
    layer in causal tiles, any other dense. Others attend densely over the
    retained keys, then their own, masked by position; one row sees them
    all, unmasked (mask None). A banded pass's mask is band_mask's, a tiled
    one's the (64, 64) causal block on each tile's diagonal.
    """
    cos, sin = rope_cos_sin(positions, cfg.rope)
    T = positions.shape[0]
    layout = DENSE if retained is not None else pass_layout(cfg, T)
    if retained is not None and T == 1:
        mask = None
    elif layout == BAND:
        mask = band_mask(T, cfg.window)  # the band reads keys by row, not position
    elif layout == TILES:
        mask = build_mask(cfg.kind, np.arange(_TILE), np.arange(_TILE))
    else:
        key_positions = positions if retained is None else np.concatenate((retained, positions))
        mask = build_mask(cfg.kind, positions, key_positions, cfg.window)
    return cos, sin, mask, layout


def _query_blocks(x: np.ndarray, cfg: AttentionConfig, band: bool) -> np.ndarray:
    """(num_query_heads, T, hd) -> (num_kv_heads, group_size, n_blocks, rows, hd).

    Query head h sits at [h // group_size, h % group_size]. A dense pass is
    one block of T rows; a banded one is zero-padded to whole windows.
    """
    rows = cfg.window if band else x.shape[1]
    if x.shape[1] % rows:  # banded, not whole windows
        x = np.concatenate((x, np.zeros((x.shape[0], -x.shape[1] % rows, x.shape[2]))), axis=1)
    return x.reshape(cfg.num_kv_heads, cfg.group_size, -1, rows, x.shape[-1])


def _merge_query_blocks(xb: np.ndarray, n_rows: int) -> np.ndarray:
    """Inverse of _query_blocks: (num_query_heads, n_rows, hd), padding dropped."""
    h_kv, group, n_blocks, rows, hd = xb.shape
    return xb.reshape(h_kv * group, n_blocks * rows, hd)[:, :n_rows]


def _key_blocks(x: np.ndarray, cfg: AttentionConfig, band: bool) -> np.ndarray:
    """(num_kv_heads, T, hd) -> (num_kv_heads, 1, n_blocks, keys, hd).

    A dense pass is one block of all T keys. Banded block b holds key rows
    [(b - 1) * window, (b + 1) * window), zero-padded outside [0, T).
    """
    if not band:
        return x[:, None, None]
    (h_kv, T, hd), w = x.shape, cfg.window
    padded = np.zeros((h_kv, -(-T // w) + 1, w, hd))  # rows -w .. T-1, then zeros
    padded.reshape(h_kv, -1, hd)[:, w : w + T] = x
    return np.concatenate([padded[:, :-1], padded[:, 1:]], axis=2)[:, None]


def _fold_key_blocks(xb: np.ndarray, n_rows: int, band: bool) -> np.ndarray:
    """Adjoint of _key_blocks, group axis summed: (num_kv_heads, n_blocks, keys,
    hd) -> (num_kv_heads, n_rows, hd), adding the two copies of each banded row."""
    if not band:
        return xb[:, 0]
    h_kv, n_blocks, keys, hd = xb.shape
    w = keys // 2
    out = np.zeros((h_kv, n_blocks + 1, w, hd))
    out[:, :-1] += xb[:, :, :w]
    out[:, 1:] += xb[:, :, w:]
    return out.reshape(h_kv, -1, hd)[:, w : w + n_rows]


def _tiles(diagonal: np.ndarray, T: int):
    """(b, e, mask) per causal tile [b, e) of a TILES pass over rows 0 .. T-1,
    in order. mask is the tile's (e - b, e) slice of the (T, T) causal mask:
    0 left of the tile's diagonal block, which is diagonal[:e - b, :e - b]."""
    for b in range(0, T, _TILE):
        e = min(b + _TILE, T)
        mask = np.zeros((e - b, e))
        mask[:, b:] = diagonal[: e - b, : e - b]
        yield b, e, mask


def _probs(qb: np.ndarray, kb: np.ndarray, cfg: AttentionConfig, mask) -> np.ndarray:
    """Softmax over keys of qb's scaled logits against kb plus the mask, if
    any; one helper for attend and attend_backward, so both get the same bits."""
    scores = qb @ kb.swapaxes(-1, -2)
    scores /= np.sqrt(cfg.head_dim)
    if mask is not None:
        scores += mask
    return softmax_rows(scores)


def attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, cfg: AttentionConfig,
    mask: Optional[np.ndarray], layout: str,
) -> np.ndarray:
    """Attention of q (num_query_heads, Tq, hd) over k, v (num_kv_heads, Tk,
    hd), query head h reading kv head h // group_size: (num_query_heads,
    Tq, hd).

    DENSE: one block under a (Tq, Tk) additive mask, or None. BAND: q, k, v
    cover the same consecutive rows and mask is band_mask(Tq, window).
    TILES: q, k, v cover rows 0 .. T-1 and mask is plan's (64, 64) diagonal
    block. Inputs are not validated.
    """
    if layout == TILES:  # tile [b, e) is the dense pass of its rows over keys [0, e)
        out = np.empty_like(q)
        for b, e, tile_mask in _tiles(mask, q.shape[1]):
            out[:, b:e] = attend(q[:, b:e], k[:, :e], v[:, :e], cfg, tile_mask, DENSE)
        return out
    band = layout == BAND
    probs = _probs(_query_blocks(q, cfg, band), _key_blocks(k, cfg, band), cfg, mask)
    return _merge_query_blocks(probs @ _key_blocks(v, cfg, band), q.shape[1])


def attend_backward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, dout: np.ndarray, cfg: AttentionConfig,
    mask: np.ndarray, layout: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dq, dk, dv) of an uncached attend over rows 0 .. T-1, given its mask
    and d(out). The probabilities are recomputed block by block (tile by
    tile) from q and k, as attend computed them.

    A key row sits in every block that reads it and under every query head
    of its group; its gradient sums those copies.
    """
    n_rows = q.shape[1]
    if layout == TILES:  # tile [b, e) reads and writes key rows [0, e)
        dq, dk, dv = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
        for b, e, tile_mask in _tiles(mask, n_rows):
            dq[:, b:e], dk_tile, dv_tile = attend_backward(
                q[:, b:e], k[:, :e], v[:, :e], dout[:, b:e], cfg, tile_mask, DENSE)
            dk[:, :e] += dk_tile
            dv[:, :e] += dv_tile
        return dq, dk, dv
    band = layout == BAND
    qb, kb = _query_blocks(q, cfg, band), _key_blocks(k, cfg, band)
    probs = _probs(qb, kb, cfg, mask)
    dout = _query_blocks(dout, cfg, band)
    dprobs = dout @ _key_blocks(v, cfg, band).swapaxes(-1, -2)
    dscores = dprobs  # probs * (dprobs - rowsum(dprobs * probs)), in place
    dscores -= np.add.reduce(dprobs * probs, axis=-1, keepdims=True)
    dscores *= probs
    scale = 1.0 / np.sqrt(cfg.head_dim)
    dq = dscores @ kb
    dq *= scale
    dk = dscores.swapaxes(-1, -2) @ qb
    dk *= scale
    dv = probs.swapaxes(-1, -2) @ dout
    dq = _merge_query_blocks(dq, n_rows)
    return (
        dq,
        _fold_key_blocks(dk.sum(axis=1), n_rows, band),
        _fold_key_blocks(dv.sum(axis=1), n_rows, band),
    )


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
    return attend(q, k, v, cfg, mask, DENSE)
