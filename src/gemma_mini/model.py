"""Decoder stack: layer interleaving, forward pass, decoding, weight I/O.

Each block is a sandwich of RMS norms around grouped-query attention and a
gated MLP:

    x = x + norm_post_attn(attn(norm_pre_attn(x)))
    x = x + norm_post_mlp(mlp(norm_pre_mlp(x)))

Attention is QK-normed and rotary-embedded with parameters chosen by the
layer's kind. Logits read out through the tied embedding by default.
Weights are immutable after load and can be shared across threads; each
generation stream owns its private KvCache.
"""

import zipfile
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .attention import (
    AttentionConfig, LayerKind, attend, band_mask, build_mask, qk_norm, uses_band,
)
from .errors import CapacityError, ConfigError, ShapeError
from .kvcache import KvCache
from .tensor import RopeParams, rms_norm, rope_apply, softmax_rows

GELU_C = float(np.sqrt(2.0 / np.pi))
GELU_A = 0.044715


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximated GELU, the gate nonlinearity of the MLP."""
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_A * x * x * x)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(GELU_C * (x + GELU_A * x * x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x)


def layer_kinds(n_layers: int, local_per_global: int = 5) -> list[LayerKind]:
    """Repeating block of `local_per_global` LOCALs then one GLOBAL.

    Position i is GLOBAL iff i % (ratio + 1) == ratio, so the stack starts
    local and a ratio of 0 degenerates to all-global.
    """
    if n_layers < 1:
        raise ConfigError(f"n_layers must be >= 1, got {n_layers}")
    if local_per_global < 0:
        raise ConfigError(f"ratio must be >= 0, got {local_per_global}")
    period = local_per_global + 1
    return [
        LayerKind.GLOBAL if i % period == local_per_global else LayerKind.LOCAL
        for i in range(n_layers)
    ]


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    hidden_dim: int
    vocab_size: int
    max_context: int
    num_query_heads: int
    num_kv_heads: int
    head_dim: int
    local_per_global: int = 5
    window: int = 1024
    rope_local_base: float = 10_000.0
    rope_global_base: float = 1_000_000.0
    rope_scale_local: float = 1.0
    rope_scale_global: float = 1.0
    tie_embeddings: bool = True
    rms_eps: float = 1e-6

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        if not 1 <= self.window <= self.max_context:
            raise ConfigError(
                f"window {self.window} must lie in [1, max_context={self.max_context}]"
            )
        if self.num_query_heads % self.num_kv_heads != 0:
            raise ConfigError("num_kv_heads must divide num_query_heads")
        if self.head_dim % 2 != 0:
            raise ConfigError("head_dim must be even")

    def attn_for(self, kind: LayerKind) -> AttentionConfig:
        return self._attn_configs[kind]

    @cached_property
    def _attn_configs(self) -> dict:
        # built on first use and kept in the instance __dict__, outside the fields
        # that equality, hashing and weight files read
        heads = (self.num_query_heads, self.num_kv_heads, self.head_dim)
        local = RopeParams(self.rope_local_base, self.rope_scale_local, self.head_dim)
        glob = RopeParams(self.rope_global_base, self.rope_scale_global, self.head_dim)
        return {
            LayerKind.LOCAL: AttentionConfig(*heads, LayerKind.LOCAL, local, self.window),
            LayerKind.GLOBAL: AttentionConfig(*heads, LayerKind.GLOBAL, glob),
        }

    def kinds(self) -> list[LayerKind]:
        return list(self._kinds)

    @cached_property
    def _kinds(self) -> tuple:
        # built once, like _attn_configs; immutable, since every cache and pass shares it
        return tuple(layer_kinds(self.n_layers, self.local_per_global))

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        fields = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in fields})


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _layer_param_shapes(cfg: ModelConfig) -> dict:
    d, hq, hkv, hd = cfg.d_model, cfg.num_query_heads, cfg.num_kv_heads, cfg.head_dim
    return {
        "wq": (d, hq * hd),
        "wk": (d, hkv * hd),
        "wv": (d, hkv * hd),
        "wo": (hq * hd, d),
        "q_gain": (hq, hd),
        "k_gain": (hkv, hd),
        "pre_attn_norm": (d,),
        "post_attn_norm": (d,),
        "pre_mlp_norm": (d,),
        "post_mlp_norm": (d,),
        "w_gate": (d, cfg.hidden_dim),
        "w_up": (d, cfg.hidden_dim),
        "w_down": (cfg.hidden_dim, d),
    }


def param_shapes(cfg: ModelConfig) -> dict:
    shapes = {"embed": (cfg.vocab_size, cfg.d_model)}
    per_layer = _layer_param_shapes(cfg)
    for i in range(cfg.n_layers):
        for name, shape in per_layer.items():
            shapes[f"layer{i}.{name}"] = shape
    shapes["final_norm"] = (cfg.d_model,)
    if not cfg.tie_embeddings:
        shapes["lm_head"] = (cfg.d_model, cfg.vocab_size)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0, scale: float = 0.02) -> dict:
    """Gaussian init for projections and the embedding; unit gains for norms."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        base = name.split(".")[-1]
        if base.endswith("_norm") or base.endswith("_gain"):
            params[name] = np.ones(shape)
        else:
            params[name] = rng.normal(0.0, scale, size=shape)
    return params


def count_params(cfg: ModelConfig) -> dict:
    """Closed-form parameter counts, split like a spec sheet.

    embedding covers the token table; everything else (projections, gains,
    norms, untied head if any) is non_embedding.
    """
    embedding = cfg.vocab_size * cfg.d_model
    per_layer = sum(int(np.prod(s)) for s in _layer_param_shapes(cfg).values())
    non_embedding = cfg.n_layers * per_layer + cfg.d_model
    if not cfg.tie_embeddings:
        non_embedding += cfg.d_model * cfg.vocab_size
    return {"embedding": embedding, "non_embedding": non_embedding}


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def _check_tokens(cfg: ModelConfig, tokens: np.ndarray) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1:
        raise ShapeError(f"tokens must be 1-D, got shape {tokens.shape}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab_size):
        raise ValueError(f"token ids must lie in [0, {cfg.vocab_size})")
    return tokens


def _split_heads(x: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    # (T, n_heads*head_dim) -> (n_heads, T, head_dim)
    return x.reshape(x.shape[0], n_heads, head_dim).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    # (n_heads, T, head_dim) -> (T, n_heads*head_dim)
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _layer(params, cfg, i, kind, h, positions, cache=None):
    """Decoder block i over rows h at absolute `positions`: (new h, saved).

    Without a cache the rows attend to one another; a LOCAL layer over more
    than 2 * window rows does so in query blocks of `window` rows, each over
    its own and the previous key block (banded), any other layer through one
    dense masked block. With a cache, the single row appends its key and
    value to layer i first and attends densely over everything the layer
    retains. `saved` holds what backward_full reads from the tape.
    """
    p = lambda name: params[f"layer{i}.{name}"]
    att, eps = cfg.attn_for(kind), cfg.rms_eps
    ln1 = rms_norm(h, p("pre_attn_norm"), eps)
    q = _split_heads(ln1 @ p("wq"), att.num_query_heads, att.head_dim)
    k = _split_heads(ln1 @ p("wk"), att.num_kv_heads, att.head_dim)
    v = _split_heads(ln1 @ p("wv"), att.num_kv_heads, att.head_dim)
    qn, kn = qk_norm(q, k, p("q_gain"), p("k_gain"), eps)
    qr = rope_apply(qn, positions, att.rope)
    kr = rope_apply(kn, positions, att.rope)
    keys, values, key_positions = kr, v, positions
    if cache is not None:
        cache.append(i, kr[:, 0, :], v[:, 0, :], int(positions[0]))
        keys, values, key_positions = cache.view(i)  # (S, Hkv, hd) chronological
        keys, values = keys.transpose(1, 0, 2), values.transpose(1, 0, 2)
    T = h.shape[0]
    band = cache is None and uses_band(att, T)  # the band reads keys by row, not position
    if band:
        mask = band_mask(T, att.window)
    else:
        mask = build_mask(kind, positions, key_positions, att.window)
    probs, out = attend(qr, keys, values, att, mask, band)
    merged = _merge_heads(out)
    attn_out = merged @ p("wo")
    x1 = h + rms_norm(attn_out, p("post_attn_norm"), eps)

    ln2 = rms_norm(x1, p("pre_mlp_norm"), eps)
    gate = ln2 @ p("w_gate")
    up = ln2 @ p("w_up")
    act = gelu(gate) * up
    mlp_out = act @ p("w_down")
    saved = dict(
        kind=kind, x0=h, ln1=ln1, q=q, k=k, v=v, qr=qr, kr=kr, probs=probs,
        merged=merged, attn_out=attn_out, x1=x1, ln2=ln2, gate=gate, up=up, act=act,
        mlp_out=mlp_out,
    )
    return x1 + rms_norm(mlp_out, p("post_mlp_norm"), eps), saved


def _run(params, cfg, tokens, positions, cache=None, tape=None):
    """Embed, run every layer, read out logits; appends to `tape` if given."""
    h = params["embed"][tokens]
    for i, kind in enumerate(cfg._kinds):
        h, saved = _layer(params, cfg, i, kind, h, positions, cache)
        if tape is not None:
            tape["layers"].append(saved)
    hf = rms_norm(h, params["final_norm"], cfg.rms_eps)
    if tape is not None:
        tape["h_last"], tape["hf"] = h, hf
    return hf @ (params["embed"].T if cfg.tie_embeddings else params["lm_head"])


def forward_full(
    params: dict,
    cfg: ModelConfig,
    tokens: Sequence[int],
    keep_tape: bool = False,
):
    """Whole-sequence forward pass over positions 0 .. len(tokens) - 1.

    Long LOCAL layers run banded, every other layer dense (see _layer).
    Returns (logits, tape); tape holds the per-layer intermediates the
    backward pass needs and is None unless keep_tape is set.
    """
    tokens = _check_tokens(cfg, tokens)
    T = tokens.shape[0]
    if T > cfg.max_context:
        raise CapacityError(f"sequence length {T} exceeds max_context {cfg.max_context}")
    positions = np.arange(T)
    tape = {"tokens": tokens, "positions": positions, "layers": []} if keep_tape else None
    return _run(params, cfg, tokens, positions, tape=tape), tape


def make_cache(cfg: ModelConfig) -> KvCache:
    return KvCache(cfg._kinds, cfg.window, cfg.max_context, cfg.num_kv_heads, cfg.head_dim)


def decode_step(params: dict, cfg: ModelConfig, cache: KvCache, token: int) -> np.ndarray:
    """Append one token to the cache and return its logits row (vocab,)."""
    pos = cache.next_pos
    if pos >= cfg.max_context:
        raise CapacityError(f"context is full at {cfg.max_context} tokens")
    tokens = np.asarray([token], dtype=np.int64)
    return _run(params, cfg, tokens, np.asarray([pos]), cache)[0]


def forward(
    params: dict,
    cfg: ModelConfig,
    tokens: Sequence[int],
    cache: Optional[KvCache] = None,
) -> np.ndarray:
    """Logits (len(tokens), vocab) for a token chunk.

    Without a cache this is a whole-sequence pass. With a cache the tokens
    are consumed one position at a time so every query sees exactly the
    window the cache retains.
    """
    tokens = _check_tokens(cfg, tokens)
    if cache is None:
        logits, _ = forward_full(params, cfg, tokens)
        return logits
    if (
        tuple(cache.layer_kinds) != cfg._kinds
        or cache.window != cfg.window
        or cache.max_context != cfg.max_context
        or cache.num_kv_heads != cfg.num_kv_heads
        or cache.head_dim != cfg.head_dim
    ):
        raise ConfigError("cache was built for a different model configuration")
    if cache.next_pos + tokens.shape[0] > cfg.max_context:
        raise CapacityError(
            f"cache at {cache.next_pos} cannot take {tokens.shape[0]} more tokens "
            f"(max_context {cfg.max_context})"
        )
    rows = [decode_step(params, cfg, cache, int(t)) for t in tokens]
    return np.stack(rows) if rows else np.zeros((0, cfg.vocab_size))


def generate(
    params: dict,
    cfg: ModelConfig,
    prompt: Sequence[int],
    max_new: int,
    sampler: str = "greedy",
    temperature: float = 1.0,
    seed: int = 0,
    stop_ids: Sequence[int] = (),
) -> list[int]:
    """Autoregressive decode; stops at max_new tokens or any stop id.

    The stop token, when produced, is kept in the returned sequence.
    Deterministic for a given seed; "greedy" ignores the seed entirely.
    """
    prompt = list(prompt)
    if not prompt:
        raise ValueError("prompt must be non-empty")
    if sampler not in ("greedy", "temperature"):
        raise ValueError(f"unknown sampler {sampler!r}")
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    cache = make_cache(cfg)
    logits = forward(params, cfg, prompt, cache)
    out = list(prompt)
    rng = np.random.default_rng(seed)
    stop = set(int(s) for s in stop_ids)
    for step in range(max_new):
        if step:  # feed back the previous token; the last one's logits would go unread
            logits = forward(params, cfg, [out[-1]], cache)
        row = logits[-1]
        if sampler == "greedy":
            nxt = int(np.argmax(row))
        else:
            probs = softmax_rows(row[None, :] / temperature)[0]
            nxt = int(rng.choice(cfg.vocab_size, p=probs))
        out.append(nxt)
        if nxt in stop:
            break
    return out


# ---------------------------------------------------------------------------
# Weight files: one np.savez archive of the tensors, the config and a format
# ---------------------------------------------------------------------------

WEIGHTS_FORMAT = 1


def save_weights(params: dict, cfg: ModelConfig, path: str) -> None:
    """Write one archive at exactly `path`: '<f8' tensors, 0-d `config.<field>`s, `format`."""
    entries = {f"config.{f.name}": np.asarray(getattr(cfg, f.name), dtype=f.type)
               for f in fields(cfg)}
    entries.update({name: np.asarray(arr, dtype="<f8") for name, arr in params.items()})
    with open(path, "wb") as fh:  # a handle, so numpy does not append ".npz"
        np.savez(fh, format=np.asarray(WEIGHTS_FORMAT), **entries)


def load_weights(path: str) -> tuple[dict, ModelConfig]:
    """(params, cfg) from a save_weights archive. Any failure, including another file
    format or a missing, unknown or malformed entry, is one ValueError naming path and cause."""
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("not an np.savez archive; the old .bin + .manifest is not read")
            fh.seek(0)
            entries = dict(np.load(fh, allow_pickle=False))
        if not np.array_equal(entries.pop("format", None), WEIGHTS_FORMAT):
            raise ValueError(f"format entry is missing or not {WEIGHTS_FORMAT}")
        dtypes = {f.name: np.dtype(f.type) for f in fields(ModelConfig)}
        values = {k[7:]: entries.pop(k) for k in list(entries) if k.startswith("config.")}
        if set(values) != set(dtypes):
            raise ValueError(f"config field mismatch: {sorted(set(dtypes) ^ set(values))}")
        for name, arr in values.items():
            if arr.shape != () or arr.dtype != dtypes[name]:
                raise ValueError(f"config.{name} is not a 0-d {dtypes[name]}")
        cfg = ModelConfig(**{name: arr.item() for name, arr in values.items()})
        shapes = param_shapes(cfg)
        if set(entries) != set(shapes):
            raise ValueError(f"tensor name mismatch: {sorted(set(shapes) ^ set(entries))}")
        for name, arr in entries.items():
            if arr.shape != shapes[name] or arr.dtype != "<f8" or not np.isfinite(arr).all():
                raise ValueError(f"tensor {name} is not finite float64 of shape {shapes[name]}")
    except (ValueError, EOFError, OSError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return {name: entries[name] for name in shapes}, cfg
