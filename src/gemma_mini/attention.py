"""Grouped-query attention and per-kind causal masking.

Local layers attend inside a trailing window (the query position counts as
part of the window); Global layers attend to the whole causal prefix. Both
kinds carry their own rotary parameters.

`plan` computes, from a chunk's positions alone, what every layer of one
kind shares over it: the rotation and, when the chunk runs banded, the
band's mask. The forward pass calls it once per kind, and the backward pass
again from the tape's positions.

Scores are computed in blocks, with query heads grouped under the kv head
they read. A chunk runs one of two ways:

- Banded: a LOCAL chunk from position 0 over more than 2 * window rows
  cuts its rows into blocks of `window` queries, each scoring only its own
  key block and the one before, all in one batch, so it costs O(T * window)
  instead of O(T^2).
- Causal tiles: every other chunk, whether a short pass, a chunk after
  earlier rows or a decode step, runs in query tiles of up to 64 rows. Tile
  [b, e) scores keys [lo, R + e) of the R earlier keys followed by the
  chunk's: lo is 0 for GLOBAL and the first key row b sees for LOCAL. Each
  tile builds its own mask as it runs, a GLOBAL tile over its diagonal
  block only. No T x (R + T) array is built. A decode step, one row after
  earlier keys, is one unmasked block.

attend returns no probabilities: attend_backward recomputes them block by
block through the forward's own helper, so they match it bit for bit.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
# rms_norm is bound here though attention does not call it: perfbench/test_tracer.py
# pins this module among its import sites
from .tensor import NEG_INF, RopeParams, _softmax_rows, rms_norm, rope_cos_sin  # noqa: F401


class LayerKind(Enum):
    LOCAL = "local"
    GLOBAL = "global"
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C, not by name


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

    @cached_property
    def _sqrt_head_dim(self) -> float:  # the logits' divisor, kept like RopeParams._inv_freqs
        return float(np.sqrt(self.head_dim))


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
    q_col, k_row = q_positions[:, None], k_positions[None, :]
    allowed = k_row <= q_col  # compared directly: no (len(q), len(k)) int64 difference
    if kind is LayerKind.LOCAL:
        allowed &= k_row > q_col - window
    return np.where(allowed, 0.0, NEG_INF)


_TILE = 64  # query rows per causal tile


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


def plan(cfg: AttentionConfig, positions: np.ndarray):
    """(cos, sin, band): what every layer of cfg's kind shares over a chunk
    at consecutive `positions`.

    band is band_mask(T, window) for a LOCAL chunk from position 0 over more
    than 2 * window rows, and None for every other chunk, which runs in
    causal tiles. Over fewer rows a band, which scores 2 * window keys per
    row, would score no fewer than the tiles; a chunk after position 0
    reads earlier keys, which the band has no block for.
    """
    cos, sin = rope_cos_sin(positions, cfg.rope)
    T = positions.shape[0]
    if cfg.kind is LayerKind.LOCAL and T > 2 * cfg.window and positions[0] == 0:
        return cos, sin, band_mask(T, cfg.window)
    return cos, sin, None


def _query_blocks(x: np.ndarray, cfg: AttentionConfig, rows: int) -> np.ndarray:
    """(num_query_heads, T, hd) -> (num_kv_heads, group_size, n_blocks, rows, hd),
    zero-padded to whole blocks. Query head h sits at [h // group_size, h % group_size]."""
    if x.shape[1] % rows:  # banded, not whole windows
        x = np.concatenate((x, np.zeros((x.shape[0], -x.shape[1] % rows, x.shape[2]))), axis=1)
    return x.reshape(cfg.num_kv_heads, cfg.group_size, -1, rows, x.shape[-1])


def _merge_query_blocks(xb: np.ndarray, n_rows: int) -> np.ndarray:
    """Inverse of _query_blocks: (num_query_heads, n_rows, hd), padding dropped."""
    h_kv, group, n_blocks, rows, hd = xb.shape
    return xb.reshape(h_kv * group, n_blocks * rows, hd)[:, :n_rows]


def _key_blocks(x: np.ndarray, cfg: AttentionConfig) -> np.ndarray:
    """(num_kv_heads, T, hd) -> (num_kv_heads, 1, n_blocks, 2 * window, hd) of a
    banded pass: block b holds key rows [(b - 1) * window, (b + 1) * window),
    zero-padded outside [0, T)."""
    (h_kv, T, hd), w = x.shape, cfg.window
    padded = np.zeros((h_kv, -(-T // w) + 1, w, hd))  # rows -w .. T-1, then zeros
    padded.reshape(h_kv, -1, hd)[:, w : w + T] = x
    return np.concatenate([padded[:, :-1], padded[:, 1:]], axis=2)[:, None]


def _fold_key_blocks(xb: np.ndarray, n_rows: int) -> np.ndarray:
    """Adjoint of _key_blocks, group axis summed: (num_kv_heads, n_blocks,
    2 * window, hd) -> (num_kv_heads, n_rows, hd), adding the two copies of each row."""
    h_kv, n_blocks, keys, hd = xb.shape
    w = keys // 2
    out = np.zeros((h_kv, n_blocks + 1, w, hd))
    out[:, :-1] += xb[:, :, :w]
    out[:, 1:] += xb[:, :, w:]
    return out.reshape(h_kv, -1, hd)[:, w : w + n_rows]


def _tile(cfg: AttentionConfig, n_earlier: int, b: int, n_rows: int):
    """(e, lo, mask) of the causal tile at row b of a tiled pass over n_rows
    rows after n_earlier keys: its rows [b, e) read key rows [lo,
    n_earlier + e), from the first one row b sees (0 for GLOBAL) to row
    e - 1 itself, skipping the fully masked blocks (as FlashAttention does).
    mask is build_mask's over the last keys it covers, by position relative
    to its first one: for LOCAL every key the tile reads, for GLOBAL only
    the tile's own rows, the (e - b, e - b) diagonal block, since every
    earlier key is seen by every row."""
    R, e = n_earlier, min(b + _TILE, n_rows)
    rows = np.arange(R + b, R + e)
    if cfg.kind is LayerKind.GLOBAL:
        return e, 0, build_mask(cfg.kind, rows, rows)
    lo = max(0, R + b - cfg.window + 1)
    return e, lo, build_mask(cfg.kind, rows, np.arange(lo, R + e), cfg.window)


def _probs(qb: np.ndarray, kb: np.ndarray, cfg: AttentionConfig, mask) -> np.ndarray:
    """Softmax over keys of qb's scaled logits against kb plus the mask, if
    any, added to the last keys it covers; one helper for attend and
    attend_backward, so both get the same bits. The scores are normalised
    in place."""
    scores = qb @ kb.swapaxes(-1, -2)
    scores /= cfg._sqrt_head_dim
    if mask is not None:
        scores[..., scores.shape[-1] - mask.shape[-1]:] += mask
    return _softmax_rows(scores)


def _dense(q: np.ndarray, k: np.ndarray, v: np.ndarray, cfg: AttentionConfig, mask):
    """Attention of q over every row of k, v in one block, under a (Tq, Tk) mask or none.
    The block is unpadded, so q and the output only change shape (_query_blocks' layout)."""
    probs = _probs(q.reshape(cfg.num_kv_heads, -1, 1, *q.shape[1:]), k[:, None, None], cfg, mask)
    return (probs @ v[:, None, None]).reshape(q.shape)


def attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, cfg: AttentionConfig, band: Optional[np.ndarray],
) -> np.ndarray:
    """Attention of q (num_query_heads, Tq, hd) over k, v (num_kv_heads, Tk,
    hd), query head h reading kv head h // group_size: (num_query_heads,
    Tq, hd). band is the chunk's plan's.

    With a band, q, k, v cover the same rows 0 .. T-1. Without, k, v hold
    Tk - Tq earlier rows, then q's own, and q runs in tiles of up to 64
    rows (_tile); one row after earlier rows, a decode step, is one
    unmasked block over the key rows [lo, Tk) it sees.
    Inputs are not validated.
    """
    if band is not None:
        probs = _probs(_query_blocks(q, cfg, cfg.window), _key_blocks(k, cfg), cfg, band)
        return _merge_query_blocks(probs @ _key_blocks(v, cfg), q.shape[1])
    n_rows, R = q.shape[1], k.shape[1] - q.shape[1]
    if n_rows == 1 and R:  # sees every key from lo on: no mask
        lo = 0 if cfg.kind is LayerKind.GLOBAL else max(0, R - cfg.window + 1)
        return _dense(q, k[:, lo:], v[:, lo:], cfg, None)
    tiles = []
    for b in range(0, n_rows, _TILE):
        e, lo, tile_mask = _tile(cfg, R, b, n_rows)
        tiles.append(_dense(q[:, b:e], k[:, lo : R + e], v[:, lo : R + e], cfg, tile_mask))
    return tiles[0] if len(tiles) == 1 else np.concatenate(tiles, axis=1)  # one: no copy


def _block_grads(qb, kb, vb, dout_b, cfg: AttentionConfig, mask):
    """(dq, dk, dv) of blocks qb over kb, vb given d(out) dout_b; dk and dv
    are summed over the group axis, the query heads that read a kv head.
    Two block-sized buffers are live, probs and dprobs (which becomes
    dscores in place), besides one head's share of their product; probs is
    freed after its last read."""
    probs = _probs(qb, kb, cfg, mask)
    dv = (probs.swapaxes(-1, -2) @ dout_b).sum(axis=1)
    dprobs = dout_b @ vb.swapaxes(-1, -2)
    # rowsum(dprobs * probs) one (kv head, query head) at a time: each row sums
    # alone, so the bits are those of the whole block's product
    rowsum = np.empty(probs.shape[:-1] + (1,))
    for h in np.ndindex(probs.shape[:2]):
        rowsum[h] = np.add.reduce(dprobs[h] * probs[h], axis=-1, keepdims=True)
    dscores = dprobs  # probs * (dprobs - rowsum), in place
    dscores -= rowsum
    dscores *= probs
    del probs
    scale = 1.0 / cfg._sqrt_head_dim
    dq = dscores @ kb
    dq *= scale
    dk = dscores.swapaxes(-1, -2) @ qb
    dk *= scale
    return dq, dk.sum(axis=1), dv


def attend_backward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, dout: np.ndarray, cfg: AttentionConfig,
    band: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dq, dk, dv) of an uncached attend over rows 0 .. T-1, given its plan's
    band and d(out). The probabilities are recomputed band by band or tile
    by tile from q and k, as attend computed them.

    A key row sits in every block that reads it and under every query head
    of its group; its gradient sums those copies.
    """
    n_rows = q.shape[1]
    if band is not None:
        dq, dk, dv = _block_grads(_query_blocks(q, cfg, cfg.window), _key_blocks(k, cfg),
                                  _key_blocks(v, cfg), _query_blocks(dout, cfg, cfg.window),
                                  cfg, band)
        return (_merge_query_blocks(dq, n_rows), _fold_key_blocks(dk, n_rows),
                _fold_key_blocks(dv, n_rows))
    dq, dk, dv = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
    for b in range(0, n_rows, _TILE):  # tile [b, e) reads and writes key rows [lo, e)
        e, lo, tile_mask = _tile(cfg, 0, b, n_rows)
        dq_tile, dk_tile, dv_tile = _block_grads(
            _query_blocks(q[:, b:e], cfg, e - b), k[:, None, None, lo:e], v[:, None, None, lo:e],
            _query_blocks(dout[:, b:e], cfg, e - b), cfg, tile_mask)
        dq[:, b:e] = _merge_query_blocks(dq_tile, e - b)
        dk[:, lo:e] += dk_tile[:, 0]
        dv[:, lo:e] += dv_tile[:, 0]
    return dq, dk, dv


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
    return _dense(q, k, v, cfg, mask)
