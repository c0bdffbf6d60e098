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
positions. Logits read out through the input embedding (weight tying).
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


_TAKES = {int: int, float: (int, float)}  # field type -> what from_dict takes


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
    rope_scale_global: float = 1.0

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
        local = self._rope("rope_local_base")
        glob = self._rope("rope_global_base", "rope_scale_global")
        return {
            LayerKind.LOCAL: AttentionConfig(*heads, LayerKind.LOCAL, local, self.window),
            LayerKind.GLOBAL: AttentionConfig(*heads, LayerKind.GLOBAL, glob),
        }

    def _rope(self, base: str, scale: Optional[str] = None) -> RopeParams:
        # RopeParams of the named fields (scale 1 without one); its error names the field
        try:
            return RopeParams(getattr(self, base), getattr(self, scale) if scale else 1.0,
                              self.head_dim)
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
        """The config of a config file's or a weight archive's values. Each key is
        a field: any other, a typo or a former field alike, is refused by name. An
        int field takes an int, a float field an int or a float, neither a bool."""
        names = cls.__dataclass_fields__
        unknown = sorted(k for k in d if k not in names)
        if unknown:
            raise ConfigError(f"config has unknown keys: {', '.join(map(repr, unknown))}")
        missing = [n for n, f in names.items() if f.default is MISSING and n not in d]
        if missing:
            raise ConfigError(f"config is missing required keys: {', '.join(missing)}")
        for name, value in d.items():
            want = names[name].type
            if isinstance(value, bool) or not isinstance(value, _TAKES[want]):
                raise ConfigError(f"{name} must be {want.__name__}, got {value!r}")
        return cls(**d)


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

    embedding covers the token table, which is also the readout; everything
    else (projections, gains, norms) is non_embedding.
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
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got {tokens!r:.60}")
    if ids.ndim != 1:
        raise ShapeError(f"tokens must be 1-D, got shape {ids.shape}")
    if ids.size:
        lo = np.minimum.reduce(ids)
        # a bool item became 0 or 1, so only a sequence whose smallest id is at most 1
        # can hold one: the per-item scan runs only then
        if lo <= 1 and not isinstance(tokens, np.ndarray) and not {bool, np.bool_}.isdisjoint(
                map(type, tokens)):
            raise ValueError(f"token ids must be integers, got {tokens!r:.60}")
        if lo < 0 or np.maximum.reduce(ids) >= cfg.vocab_size:
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


def _heads(params, w, att, x0, cos, sin, div_ln1=None, div_qk=None):
    """Block input x0 to its heads: (div_ln1, div_qk, qkr, v, ln1, qk), of
    which _layer reads the first four and the backward's rebuild, given the
    taped divisors, the last four. ln1 is the pre-attention norm; one product
    ln1 @ wqkv makes every head, copied into compact (heads, T, head_dim):
    the query and key heads qk, qk-normed and rotated into qkr, then v."""
    n_qk = att.num_query_heads + att.num_kv_heads
    div_ln1, ln1 = _rms_norm(x0, params[w["pre_attn_norm"]], div_ln1)
    qkv = np.ascontiguousarray(
        (ln1 @ params[w["wqkv"]]).reshape(x0.shape[0], -1, att.head_dim).transpose(1, 0, 2))
    qk, v = qkv[:n_qk], qkv[n_qk:]
    div_qk, qkn = _rms_norm(qk, params[w["qk_gain"]][:, None], div_qk)
    return div_ln1, div_qk, rope_rotate(qkn, cos, sin), v, ln1, qk


def _mlp(params, w, x0, merged, div_attn=None, div_ln2=None):
    """Block input x0 and merged attention output to the MLP's output:
    (div_attn, div_ln2, x1, mlp_out, attn_out, ln2, gate, up, t, gelu, act),
    of which _layer reads the first four and the backward's rebuild, given
    the taped divisors, the last nine. gelu = 0.5 * gate * (1 + t) is the
    tanh-approximated GELU; the derivative reads its tanh term t, one buffer."""
    attn_out = merged @ params[w["wo"]]
    div_attn, attn_normed = _rms_norm(attn_out, params[w["post_attn_norm"]], div_attn)
    x1 = x0 + attn_normed
    div_ln2, ln2 = _rms_norm(x1, params[w["pre_mlp_norm"]], div_ln2)
    gate = ln2 @ params[w["w_gate"]]
    up = ln2 @ params[w["w_up"]]
    t = np.multiply(GELU_A, gate)
    t *= gate
    t *= gate
    t += gate
    t *= GELU_C
    np.tanh(t, out=t)
    gelu = 0.5 * gate * (1.0 + t)
    act = gelu * up
    return div_attn, div_ln2, x1, act @ params[w["w_down"]], attn_out, ln2, gate, up, t, gelu, act


def _layer(params, cfg, i, kind, h, positions, kind_plan, cache=None, tape=None):
    """Decoder block i over rows h at consecutive `positions`: the new h.

    kind_plan is attention.plan's for the layer's kind. With a cache, the
    rows are a chunk that continues it: the chunk's keys and values are
    appended to layer i's, and the rows attend over what append returns,
    the retained rows the chunk can see followed by its own. A given tape
    gets in tape["layers"] only what backward_full cannot rebuild cheaply:
    the kind, the block's input x0, the merged attention output and the
    five norms' divisors (div_*). The block runs _heads before attend and
    _mlp after it; the backward rebuilds every other activation by calling
    the same two with the taped divisors.
    """
    w, att = cfg._layer_keys[i], cfg._attn_configs[kind]
    n_q = att.num_query_heads
    cos, sin, band = kind_plan
    div_ln1, div_qk, qkr, v = _heads(params, w, att, h, cos, sin)[:4]
    qr, kr = qkr[:n_q], qkr[n_q:]
    keys, values = kr, v
    if cache is not None:  # the retained rows the chunk can see, oldest first, then its own
        keys, values = cache.append(i, kr, v, int(positions[0]))
    # (heads, T, head_dim) -> (T, heads * head_dim)
    merged = attend(qr, keys, values, att, band).transpose(1, 0, 2).reshape(h.shape[0], -1)
    div_attn, div_ln2, x1, mlp_out = _mlp(params, w, h, merged)[:4]
    div_mlp, mlp_normed = _rms_norm(mlp_out, params[w["post_mlp_norm"]])
    if tape is not None:
        tape["layers"].append(dict(
            kind=kind, x0=h, merged=merged, div_ln1=div_ln1, div_qk=div_qk,
            div_attn=div_attn, div_ln2=div_ln2, div_mlp=div_mlp))
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
        hf = rms_norm(h, params["final_norm"])
    else:  # the backward reads the divisor too
        div_hf, hf = _rms_norm(h, params["final_norm"])
        tape["h_last"], tape["hf"], tape["div_hf"] = h, hf, div_hf
    # (vocab, d) @ (d, T), then transposed: OpenBLAS gives these logits the same bits at
    # one and two threads, which hf @ embed.T does not (tests/test_blas_threads.py)
    return (params["embed"] @ hf.T).T


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
    tokens = _check_tokens(cfg, tokens, cache)
    logits = np.empty((tokens.shape[0], cfg.vocab_size))
    for j, t in enumerate(tokens):
        logits[j] = decode_step(params, cfg, cache, int(t))
    return logits


def generate(
    params: dict,
    cfg: ModelConfig,
    prompt: Sequence[int],
    max_new: int,
    temperature: float = 0.0,
    seed: int = 0,
    stop_ids: Sequence[int] = (),
) -> list[int]:
    """Autoregressive decode; stops at max_new tokens or any stop id.

    The prompt, checked even when max_new < 1, enters the cache as one
    chunk; each new token but the last is fed back through one decode_step,
    since the last one's logits would go unread. So the prompt's length plus
    max_new - 1 positions must fit max_context, which is checked before the
    prefill. The stop token, when produced, is kept in the returned sequence.
    Temperature 0 (the default) is greedy, seed unused; t > 0 samples softmax(logits / t).
    """
    out = list(prompt)
    if not out:
        raise ValueError("prompt must be non-empty")
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be a finite number >= 0, got {temperature}")
    tokens = _check_tokens(cfg, out)
    if max_new < 1:
        return out
    need = len(out) + max_new - 1  # the last new token is never fed back
    if need > cfg.max_context:
        raise CapacityError(f"a {len(out)}-token prompt and {max_new} new tokens need {need} "
                            f"positions, past max_context {cfg.max_context}")
    cache = make_cache(cfg)
    row = _run(params, cfg, tokens, cache)[-1]
    rng = np.random.default_rng(seed)
    stop = set(int(s) for s in stop_ids)
    for step in range(max_new):
        if step:  # feed back the previous token; the last one's logits would go unread
            row = decode_step(params, cfg, cache, out[-1])
        if temperature == 0:
            nxt = int(np.argmax(row))
        else:
            nxt = int(rng.choice(cfg.vocab_size, p=softmax_rows(row[None, :] / temperature)[0]))
        out.append(nxt)
        if nxt in stop:
            break
    return out


# ---------------------------------------------------------------------------
# Weight files: one np.savez archive of the tensors, the config and a format
# ---------------------------------------------------------------------------

WEIGHTS_FORMAT = 3


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
