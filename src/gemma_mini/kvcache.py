"""Per-layer key/value storage plus cache-size accounting.

Local layers keep a ring buffer of the last `window` entries; Global layers
keep everything up to max_context. Positions are appended in order, so a
layer's next position fixes which absolute positions it holds and in which
slots; none are stored.

Entries arrive in blocks of consecutive positions: one row per decode step,
or a whole prompt in one prefill chunk. A ring keeps only the last `window`
rows of a longer block. `append` writes a block with at most two slice
copies, one on either side of the ring's wrap. `joined` reads a layer's
rows oldest first followed by a new chunk's in one copy per array, so a
layer attends over both without copying its history twice; `view` is its
case with no new rows.

A cache instance has a single owner and is not thread-safe; separate
generation streams each get their own cache.
"""

from typing import Optional, Sequence

import numpy as np

from .attention import LayerKind
from .errors import CapacityError, OrderingError, ShapeError


class KvCache:
    """Bounded per-layer K/V store keyed by absolute token position."""

    def __init__(
        self,
        layer_kinds: Sequence[LayerKind],
        window: int,
        max_context: int,
        num_kv_heads: int,
        head_dim: int,
    ):
        # what the cache was built for; a model checks it against its own in one comparison
        self.spec = (tuple(layer_kinds), window, max_context, num_kv_heads, head_dim)
        self.layer_kinds = list(layer_kinds)
        self.window = window
        self.max_context = max_context
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        self._caps = [
            window if kind is LayerKind.LOCAL else max_context for kind in self.layer_kinds
        ]
        self._keys = [np.zeros((c, num_kv_heads, head_dim)) for c in self._caps]
        self._values = [np.zeros((c, num_kv_heads, head_dim)) for c in self._caps]
        self._next_pos = [0] * len(self.layer_kinds)

    def __len__(self) -> int:
        return self.next_pos

    @property
    def next_pos(self) -> int:
        # all layers advance in lockstep; a partially appended step is a bug
        first = self._next_pos[0] if self._next_pos else 0
        if any(p != first for p in self._next_pos):
            raise OrderingError(f"layers disagree on next position: {self._next_pos}")
        return first

    def append(self, layer: int, k: np.ndarray, v: np.ndarray, pos: int) -> None:
        """Store K/V for a layer at positions pos, pos + 1, ...; pos must be the
        layer's next position.

        k, v: a block (T, num_kv_heads, head_dim) or one row (num_kv_heads,
        head_dim). A ring keeps the block's last min(T, capacity) rows. Every
        check runs before the first write.
        """
        if k.ndim == 2:  # one row
            k, v = k[None], v[None]
        if pos != self._next_pos[layer]:
            raise OrderingError(
                f"layer {layer} expected position {self._next_pos[layer]}, got {pos}"
            )
        if v.shape != k.shape:
            raise ShapeError(f"keys {k.shape} and values {v.shape} differ in shape")
        n, cap = k.shape[0], self._caps[layer]
        end = pos + n
        if self.layer_kinds[layer] is LayerKind.GLOBAL and end > cap:
            raise CapacityError(f"global layer {layer} is full at {cap} entries")
        keep = min(n, cap)
        slot = (end - keep) % cap  # ring for local layers; never wraps for global
        head = min(keep, cap - slot)  # rows up to the end of the buffer, then wrap to 0
        first = n - keep  # a ring drops the rows before it
        for store, block in ((self._keys[layer], k), (self._values[layer], v)):
            store[slot:slot + head] = block[first:first + head]
            if head < keep:
                store[:keep - head] = block[first + head:]
        self._next_pos[layer] = end

    def retained(self, layer: int) -> np.ndarray:
        """Positions (n,) the layer holds, in increasing order."""
        n = self._next_pos[layer]
        return np.arange(max(0, n - self._caps[layer]), n)

    def joined(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(keys, values): the stored rows in increasing position order, followed
        by the rows of k and v (T, num_kv_heads, head_dim), one copy per array."""
        n, cap = self._next_pos[layer], self._caps[layer]
        # once a ring wraps, its oldest entry is in the next slot to write
        oldest, end = max(0, n - cap) % cap, min(n, cap)
        keys, values = self._keys[layer], self._values[layer]
        return (
            np.concatenate((keys[oldest:end], keys[:oldest], k)),
            np.concatenate((values[oldest:end], values[:oldest], v)),
        )

    def view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the stored (keys, values, positions) in increasing position order.

        keys/values: (n, num_kv_heads, head_dim), positions: (n,).
        """
        none = np.empty((0, self.num_kv_heads, self.head_dim))
        return (*self.joined(layer, none, none), self.retained(layer))


def kv_bytes(
    pattern: Sequence[LayerKind],
    context: int,
    num_kv_heads: int,
    head_dim: int,
    bytes_per_elem: float,
    window: int,
) -> dict:
    """Cache footprint at a given context length.

    Each global layer holds `context` entries, each local layer
    min(context, window); the factor 2 counts keys and values. No
    per-entry metadata is modeled.
    """
    if context < 1:
        raise ValueError(f"context must be >= 1, got {context}")
    per_layer = []
    for kind in pattern:
        tokens = context if kind is LayerKind.GLOBAL else min(context, window)
        per_layer.append(2 * tokens * num_kv_heads * head_dim * bytes_per_elem)
    return {"per_layer": per_layer, "total": sum(per_layer)}


def kv_curve(
    pattern: Sequence[LayerKind],
    num_kv_heads: int,
    head_dim: int,
    bytes_per_elem: float,
    contexts: Sequence[int],
    window: int,
) -> list[tuple[int, float]]:
    """kv_bytes evaluated at each context, for plotting or CSV export."""
    contexts = list(contexts)
    if any(b > a for a, b in zip(contexts[1:], contexts)):
        raise ValueError("contexts must be ascending")
    return [
        (c, kv_bytes(pattern, c, num_kv_heads, head_dim, bytes_per_elem, window)["total"])
        for c in contexts
    ]


def kv_curve_csv(points: Sequence[tuple[int, float]]) -> str:
    lines = ["context,bytes"]
    lines += [f"{c},{b:.0f}" for c, b in points]
    return "\n".join(lines) + "\n"
