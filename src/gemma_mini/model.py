"""Decoder stack: layer interleaving, forward pass, decoding, weight I/O.

Each block is a sandwich of RMS norms around grouped-query attention and a
gated MLP:

    x = x + norm_post_attn(attn(norm_pre_attn(x)))
    x = x + norm_post_mlp(mlp(norm_pre_mlp(x)))

Attention is QK-normed and rotary-embedded with parameters chosen by the
layer's kind. A layer stores its projections as one wqkv = [wq | wk | wv]
and its qk-norm gains as one qk_gain, so one product makes every head; each
norm on the layer path runs tensor's private (divisor, output) body. A pass
computes one attention.plan per layer kind from the chunk's positions alone
(the rotation and the band, if it runs banded) and shares it with every
layer of that kind; backward_full plans again from the training tape's
positions. Logits read out through the tied embedding by
default.
Every pass enters the layers through _run, which first refuses ids outside
the vocabulary, a cache built for another config and a chunk past
max_context; forward(tokens, cache) checks its whole chunk once before its
per-token decode_steps.
Weights are immutable after load and can be shared across threads; each
generation stream owns its private KvCache.
"""

import math
import zipfile
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .attention import AttentionConfig, LayerKind, attend, plan
from .errors import CapacityError, ConfigError, ShapeError
from .kvcache import KvCache
from .tensor import RopeParams, _rms_norm, rms_norm, rope_rotate, softmax_rows

GELU_C = float(np.sqrt(2.0 / np.pi))
GELU_A = 0.044715


def gelu(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """tanh-approximated GELU, the gate nonlinearity of the MLP, given its
    tanh term t = tanh(GELU_C * (x + GELU_A * x^3)), which the tape keeps."""
    return 0.5 * x * (1.0 + t)


def layer_kinds(n_layers: int, local_per_global: int = 5) -> list[LayerKind]:
    """Repeating block of `local_per_global` LOCALs then one GLOBAL.

    Position i is GLOBAL iff i % (ratio + 1) == ratio, so the stack starts
    local and a ratio of 0 degenerates to all-global.
    """
    if n_layers < 1:
        raise ConfigError(f"n_layers must be >= 1, got {n_layers}")
    if local_per_global < 0:
        raise ConfigError(f"local_per_global must be >= 0, got {local_per_global}")
    period = local_per_global + 1
    return [
        LayerKind.GLOBAL if i % period == local_per_global else LayerKind.LOCAL
        for i in range(n_layers)
    ]


_TAKES = {int: int, float: (int, float), bool: bool}  # field type -> what from_dict takes


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
        """Every bad field fails here, with one ConfigError, before any pass."""
        for name in ("n_layers", "d_model", "hidden_dim", "vocab_size", "num_query_heads",
                     "num_kv_heads"):  # the heads before any modulo
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.window <= self.max_context:
            raise ConfigError(
                f"window {self.window} must lie in [1, max_context={self.max_context}]"
            )
        if not 0 < self.rms_eps < np.inf:
            raise ConfigError(f"rms_eps must be finite and > 0, got {self.rms_eps}")
        # built now, so that layer_kinds, AttentionConfig and RopeParams check
        # local_per_global, the heads, head_dim and the rotary fields at construction
        self._kinds, self._attn_configs

    def attn_for(self, kind: LayerKind) -> AttentionConfig:
        return self._attn_configs[kind]

    @cached_property
    def _attn_configs(self) -> dict:
        # built by __post_init__ and kept in the instance __dict__, outside the
        # fields that equality, hashing and weight files read
        heads = (self.num_query_heads, self.num_kv_heads, self.head_dim)
        local = self._rope("rope_local_base", "rope_scale_local")
        glob = self._rope("rope_global_base", "rope_scale_global")
        return {
            LayerKind.LOCAL: AttentionConfig(*heads, LayerKind.LOCAL, local, self.window),
            LayerKind.GLOBAL: AttentionConfig(*heads, LayerKind.GLOBAL, glob),
        }

    def _rope(self, base: str, scale: str) -> RopeParams:
        # RopeParams of the two named fields; its error for one of them names the field
        try:
            return RopeParams(getattr(self, base), getattr(self, scale), self.head_dim)
        except ConfigError as exc:
            field = {"base_freq": base, "scale": scale}.get(str(exc).split()[0])
            if field is None:  # head_dim's own error already names its field
                raise
            raise ConfigError(f"{field}: {exc}") from None

    def kinds(self) -> list[LayerKind]:
        return list(self._kinds)

    @cached_property
    def _kinds(self) -> tuple:
        # built by __post_init__, like _attn_configs; immutable, since every cache and
        # pass shares it
        return tuple(layer_kinds(self.n_layers, self.local_per_global))

    @cached_property
    def _cache_spec(self) -> tuple:
        # the KvCache.spec of make_cache(self); forward compares the two
        return (self._kinds, self.window, self.max_context, self.num_kv_heads, self.head_dim)

    @cached_property
    def _layer_keys(self) -> tuple:
        # per layer, each parameter's short name -> its key in the params dict
        names = _layer_param_shapes(self)
        return tuple({name: f"layer{i}.{name}" for name in names} for i in range(self.n_layers))

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config of a config file's or a weight archive's values; keys that
        are no field are ignored. An int field takes an int (not a bool), a
        float field an int or a float, a bool field a bool."""
        names = cls.__dataclass_fields__
        missing = [n for n, f in names.items() if f.default is MISSING and n not in d]
        if missing:
            raise ConfigError(f"config is missing required keys: {', '.join(missing)}")
        values = {k: v for k, v in d.items() if k in names}
        for name, value in values.items():
            want = names[name].type
            if isinstance(value, bool) != (want is bool) or not isinstance(value, _TAKES[want]):
                raise ConfigError(f"{name} must be {want.__name__}, got {value!r}")
        return cls(**values)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _layer_param_shapes(cfg: ModelConfig) -> dict:
    d, hq, hkv, hd = cfg.d_model, cfg.num_query_heads, cfg.num_kv_heads, cfg.head_dim
    return {
        "wqkv": (d, (hq + 2 * hkv) * hd),  # [wq | wk | wv]
        "wo": (hq * hd, d),
        "qk_gain": (hq + hkv, hd),  # the query heads' gains, then the key heads'
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
    for keys in cfg._layer_keys:
        for name, key in keys.items():
            shapes[key] = per_layer[name]
    shapes["final_norm"] = (cfg.d_model,)
    if not cfg.tie_embeddings:
        shapes["lm_head"] = (cfg.d_model, cfg.vocab_size)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0, scale: float = 0.02) -> dict:
    """Gaussian init for projections and the embedding; unit gains for norms.
    wqkv draws its wq, wk and wv blocks one after another, each in one draw."""
    rng = np.random.default_rng(seed)
    params = {}
    heads = (cfg.num_query_heads, cfg.num_kv_heads, cfg.num_kv_heads)  # wqkv's column blocks
    for name, shape in param_shapes(cfg).items():
        base = name.split(".")[-1]
        if base.endswith("_norm") or base.endswith("_gain"):
            params[name] = np.ones(shape)
        elif base == "wqkv":
            params[name] = np.concatenate([
                rng.normal(0.0, scale, size=(shape[0], n * cfg.head_dim)) for n in heads], axis=1)
        else:
            params[name] = rng.normal(0.0, scale, size=shape)
    return params


def count_params(cfg: ModelConfig) -> dict:
    """Parameter counts of param_shapes(cfg), split like a spec sheet.

    embedding covers the token table; everything else (projections, gains,
    norms, untied head if any) is non_embedding.
    """
    sizes = {name: math.prod(shape) for name, shape in param_shapes(cfg).items()}
    embedding = sizes.pop("embed")
    return {"embedding": embedding, "non_embedding": sum(sizes.values())}


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def _vocab_ids(cfg: ModelConfig, tokens) -> np.ndarray:
    """tokens as 1-D int64 ids in the vocabulary; refuses a non-empty input of
    floats (65.0 too), strings or bools."""
    ids = np.asarray(tokens)  # ints and bools make ints: only the items tell
    if ids.size and (ids.dtype.kind not in "iu" or ids.ndim == 1 and not isinstance(
            tokens, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, tokens))):
        raise ValueError(f"token ids must be integers, got {tokens!r:.60}")
    if ids.ndim != 1:
        raise ShapeError(f"tokens must be 1-D, got shape {ids.shape}")
    if ids.size and (np.minimum.reduce(ids) < 0 or np.maximum.reduce(ids) >= cfg.vocab_size):
        raise ValueError(f"token ids must lie in [0, {cfg.vocab_size})")
    return ids.astype(np.int64, copy=False)


def _check_tokens(cfg: ModelConfig, tokens, cache: Optional[KvCache] = None) -> np.ndarray:
    """tokens as _vocab_ids; refuses a cache built for another config and
    tokens past max_context from its next position (0 without a cache)."""
    tokens = _vocab_ids(cfg, tokens)
    if cache is not None and cache.spec != cfg._cache_spec:
        raise ConfigError("cache was built for a different model configuration")
    pos = 0 if cache is None else cache.next_pos
    if pos + tokens.shape[0] > cfg.max_context:
        raise CapacityError(
            f"{tokens.shape[0]} tokens from position {pos} exceed max_context {cfg.max_context}"
        )
    return tokens


def _split_heads(x: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    # (T, n_heads*head_dim) -> (n_heads, T, head_dim)
    return x.reshape(x.shape[0], n_heads, head_dim).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    # (n_heads, T, head_dim) -> (T, n_heads*head_dim)
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _layer(params, cfg, i, kind, h, positions, kind_plan, cache=None, tape=None):
    """Decoder block i over rows h at consecutive `positions`: the new h.

    kind_plan is attention.plan's for the layer's kind. With a cache, the
    rows are a chunk that continues it: the chunk's keys and values are
    appended to layer i's, and the rows attend over what append returns,
    the retained rows the chunk can see followed by its own. A given tape
    gets in tape["layers"] what backward_full reads: each norm's input and
    divisor (div_*), not its output (the query and key heads' input is one
    qk), and the GELU's tanh term, not its output; neither the attention
    probabilities nor x1, which the backward rebuilds from qr and kr and
    from x0 and attn_out.
    """
    w, att, eps = cfg._layer_keys[i], cfg._attn_configs[kind], cfg.rms_eps
    n_q, n_qk = att.num_query_heads, att.num_query_heads + att.num_kv_heads
    cos, sin, band = kind_plan
    div_ln1, ln1 = _rms_norm(h, params[w["pre_attn_norm"]], eps)
    # every head from one product, copied into contiguous (heads, T, head_dim): a long
    # pass's qk-norm, rotation and attention then run on compact arrays
    qkv = np.ascontiguousarray(
        (ln1 @ params[w["wqkv"]]).reshape(h.shape[0], -1, att.head_dim).transpose(1, 0, 2))
    qk, v = qkv[:n_qk], qkv[n_qk:]
    # qk-norm and rotation of every query and key head at once
    div_qk, qkn = _rms_norm(qk, params[w["qk_gain"]][:, None], eps)
    qkr = rope_rotate(qkn, cos, sin)
    qr, kr = qkr[:n_q], qkr[n_q:]
    keys, values = kr, v
    if cache is not None:  # the retained rows the chunk can see, oldest first, then its own
        keys, values = cache.append(i, kr, v, int(positions[0]))
    merged = _merge_heads(attend(qr, keys, values, att, band))
    attn_out = merged @ params[w["wo"]]
    div_attn, attn_normed = _rms_norm(attn_out, params[w["post_attn_norm"]], eps)
    x1 = h + attn_normed

    div_ln2, ln2 = _rms_norm(x1, params[w["pre_mlp_norm"]], eps)
    gate = ln2 @ params[w["w_gate"]]
    up = ln2 @ params[w["w_up"]]
    tanh = np.tanh(GELU_C * (gate + GELU_A * gate * gate * gate))  # gelu's tanh term
    mlp_out = (gelu(gate, tanh) * up) @ params[w["w_down"]]
    div_mlp, mlp_normed = _rms_norm(mlp_out, params[w["post_mlp_norm"]], eps)
    if tape is not None:
        tape["layers"].append(dict(
            kind=kind, x0=h, div_ln1=div_ln1, qk=qk, div_qk=div_qk, v=v, qr=qr, kr=kr,
            merged=merged, attn_out=attn_out, div_attn=div_attn, div_ln2=div_ln2, gate=gate,
            up=up, tanh=tanh, mlp_out=mlp_out, div_mlp=div_mlp))
    return x1 + mlp_normed


def _run(params, cfg, tokens, cache=None, tape=None):
    """The one way into the layer stack: logits (T, vocab) of T >= 1 tokens,
    run as one chunk at the cache's next positions (0 without a cache),
    appending their keys and values; the checks come before any work.

    A given `tape` receives the tokens, the positions and each layer's
    entry. Each layer kind's attention.plan is computed once from the
    positions, before the layers run. The tape keeps no plan: backward_full
    makes its own from the tape's positions.
    """
    tokens = _check_tokens(cfg, tokens, cache)
    if tokens.shape[0] == 0:
        raise ValueError("a pass needs at least 1 token, got 0")
    start = 0 if cache is None else cache.next_pos
    positions = np.arange(start, start + tokens.shape[0])
    if tape is not None:
        tape.update(tokens=tokens, positions=positions, layers=[])
    plans = {}
    for kind in set(cfg._kinds):  # a loop, not a comprehension: no extra Python frame per step
        plans[kind] = plan(cfg._attn_configs[kind], positions)
    h = params["embed"][tokens]
    for i, kind in enumerate(cfg._kinds):
        h = _layer(params, cfg, i, kind, h, positions, plans[kind], cache, tape)
    if tape is None:
        hf = rms_norm(h, params["final_norm"], cfg.rms_eps)
    else:  # the backward reads the divisor too
        div_hf, hf = _rms_norm(h, params["final_norm"], cfg.rms_eps)
        tape["h_last"], tape["hf"], tape["div_hf"] = h, hf, div_hf
    # (vocab, d) @ (d, T), then transposed: OpenBLAS gives these logits the same bits at
    # one and two threads, which hf @ embed.T does not (tests/test_blas_threads.py)
    return ((params["embed"] if cfg.tie_embeddings else params["lm_head"].T) @ hf.T).T


def forward_full(
    params: dict,
    cfg: ModelConfig,
    tokens: Sequence[int],
    keep_tape: bool = False,
):
    """Whole-sequence forward pass over positions 0 .. len(tokens) - 1, for 1
    to max_context tokens.

    LOCAL layers over more than 2 * window tokens run banded, every other
    layer in causal tiles (attention.plan).
    Returns (logits, tape); tape holds the per-layer intermediates the
    backward pass needs and is None unless keep_tape is set.
    """
    tape = {} if keep_tape else None
    return _run(params, cfg, tokens, tape=tape), tape


def make_cache(cfg: ModelConfig) -> KvCache:
    return KvCache(*cfg._cache_spec)


def decode_step(params: dict, cfg: ModelConfig, cache: KvCache, token: int) -> np.ndarray:
    """Append one token to the cache and return its logits row (vocab,)."""
    return _run(params, cfg, [token], cache)[0]


def forward(
    params: dict,
    cfg: ModelConfig,
    tokens: Sequence[int],
    cache: Optional[KvCache] = None,
) -> np.ndarray:
    """Logits (len(tokens), vocab) for a token chunk.

    Without a cache this is a whole-sequence pass. With a cache the tokens
    continue it, one decode_step per token, after one check of the whole
    chunk, so a bad id, a foreign cache or a chunk past max_context appends
    nothing; every query sees exactly the window the cache retains.
    generate prefills a prompt as one chunk instead.
    """
    if cache is None:
        return forward_full(params, cfg, tokens)[0]
    rows = [decode_step(params, cfg, cache, int(t)) for t in _check_tokens(cfg, tokens, cache)]
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

    The prompt, checked even when max_new < 1, enters the cache as one
    chunk; each new token but the last is fed back through one decode_step,
    since the last one's logits would go unread. The stop token, when
    produced, is kept in the returned sequence.
    Deterministic for a given seed; "greedy" ignores the seed entirely.
    """
    out = list(prompt)
    if not out:
        raise ValueError("prompt must be non-empty")
    if sampler not in ("greedy", "temperature"):
        raise ValueError(f"unknown sampler {sampler!r}")
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    tokens = _check_tokens(cfg, out)
    if max_new < 1:
        return out
    cache = make_cache(cfg)
    row = _run(params, cfg, tokens, cache)[-1]
    rng = np.random.default_rng(seed)
    stop = set(int(s) for s in stop_ids)
    for step in range(max_new):
        if step:  # feed back the previous token; the last one's logits would go unread
            row = decode_step(params, cfg, cache, out[-1])
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

WEIGHTS_FORMAT = 2


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
        fmt = entries.pop("format", None)
        if not np.array_equal(fmt, WEIGHTS_FORMAT):
            raise ValueError(f"format entry {fmt} is not {WEIGHTS_FORMAT}")
        dtypes = {f.name: np.dtype(f.type) for f in fields(ModelConfig)}
        values = {k[7:]: entries.pop(k) for k in list(entries) if k.startswith("config.")}
        if set(values) != set(dtypes):
            raise ValueError(f"config field mismatch: {sorted(set(dtypes) ^ set(values))}")
        for name, arr in values.items():
            if arr.shape != () or arr.dtype != dtypes[name]:
                raise ValueError(f"config.{name} is not a 0-d {dtypes[name]}")
        cfg = ModelConfig.from_dict({name: arr.item() for name, arr in values.items()})
        shapes = param_shapes(cfg)
        if set(entries) != set(shapes):
            raise ValueError(f"tensor name mismatch: {sorted(set(shapes) ^ set(entries))}")
        for name, arr in entries.items():
            if arr.shape != shapes[name] or arr.dtype != "<f8" or not np.isfinite(arr).all():
                raise ValueError(f"tensor {name} is not finite float64 of shape {shapes[name]}")
    except (ValueError, EOFError, OSError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return {name: entries[name] for name in shapes}, cfg
