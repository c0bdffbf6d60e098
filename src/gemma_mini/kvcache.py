"""Per-layer key/value storage plus cache-size accounting.

Each layer holds its rows oldest first, one array for keys and one
for values, heads first as (num_kv_heads, rows, head_dim): the layout the
layer's projections produce and attention reads, so neither side
transposes. A Local layer keeps its last `window` entries, a Global layer
everything up to max_context. Positions are appended in order, so a layer's
next position and its row count fix which absolute positions it holds; none
are stored. The arrays own exactly the rows they hold, so a layer's bytes
are what kv_bytes counts for it.

Entries arrive in blocks of consecutive positions: one row per decode step,
or a whole prompt in one prefill chunk. `append` returns the held rows the
block can see, then the block, in one copy per array: all of a Global
layer's, a Local layer's newest `window - 1`, since the one at `pos -
window` is outside every row's window. The layer keeps the last `window` of
them (a Global layer all), which after one row is what it returned. The
cache takes no part in planning attention: a chunk's plan follows from its
positions alone.

A cache instance has a single owner and is not thread-safe; separate
generation streams each get their own cache.
"""

from typing import Sequence

import numpy as np

from .attention import LayerKind
from .errors import CapacityError, ConfigError, OrderingError, ShapeError


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
        for name, value in (("window", window), ("num_kv_heads", num_kv_heads),
                            ("head_dim", head_dim)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        # what the cache was built for; a model checks it against its own in one comparison
        self.spec = (tuple(layer_kinds), window, max_context, num_kv_heads, head_dim)
        self.layer_kinds = list(layer_kinds)
        self.window = window
        self.max_context = max_context
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        none = np.empty((num_kv_heads, 0, head_dim))
        self._keys = [none] * len(self.layer_kinds)  # never written in place
        self._values = [none] * len(self.layer_kinds)
        self._next_pos = [0] * len(self.layer_kinds)
        self._visible = [window - 1 if k is LayerKind.LOCAL else max_context for k in layer_kinds]

    @property
    def next_pos(self) -> int:
        # all layers advance in lockstep; a partially appended step is a bug
        first = self._next_pos[0] if self._next_pos else 0
        if self._next_pos.count(first) != len(self._next_pos):
            raise OrderingError(f"layers disagree on next position: {self._next_pos}")
        return first

    def append(self, layer: int, k: np.ndarray, v: np.ndarray, pos: int) -> tuple:
        """Store K/V for a layer at positions pos, pos + 1, ...; pos must be the
        layer's next position.

        k, v: a block (num_kv_heads, T, head_dim) or one row (num_kv_heads,
        head_dim). Returns (keys, values), each (num_kv_heads, rows,
        head_dim): the held rows the block can see, oldest first, followed by
        the block's, one copy per array. A Local layer then keeps the last
        `window` of them. Every check runs before the store changes.
        """
        if k.ndim == 2:  # one row
            k, v = k[:, None], v[:, None]
        if pos != self._next_pos[layer]:
            raise OrderingError(
                f"layer {layer} expected position {self._next_pos[layer]}, got {pos}"
            )
        if (v.shape != k.shape or k.ndim != 3
                or k.shape[::2] != (self.num_kv_heads, self.head_dim)):
            raise ShapeError(f"keys {k.shape} and values {v.shape} are not both blocks of "
                             f"({self.num_kv_heads}, rows, {self.head_dim})")
        end = pos + k.shape[1]
        if self.layer_kinds[layer] is LayerKind.GLOBAL and end > self.max_context:
            raise CapacityError(f"global layer {layer} is full at {self.max_context} entries")
        first = max(0, self._keys[layer].shape[1] - self._visible[layer])  # oldest one seen
        keys = np.concatenate((self._keys[layer][:, first:], k), axis=1)
        values = np.concatenate((self._values[layer][:, first:], v), axis=1)
        if self.layer_kinds[layer] is LayerKind.LOCAL and keys.shape[1] > self.window:
            self._keys[layer] = keys[:, -self.window:].copy()
            self._values[layer] = values[:, -self.window:].copy()
        else:
            self._keys[layer], self._values[layer] = keys, values
        self._next_pos[layer] = end
        return keys, values

    def view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of all stored (keys, values, positions) in increasing position order.

        keys/values: (num_kv_heads, n, head_dim), positions: (n,).
        """
        n, keys = self._next_pos[layer], self._keys[layer]
        return keys.copy(), self._values[layer].copy(), np.arange(n - keys.shape[1], n)


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
