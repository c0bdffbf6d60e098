"""Banded and tiled attention against dense masked attention.

The oracle below is the dense computation the band and the causal tiles
replace: every query scores every key, the causal window is masked out, and
kv heads are replicated per query head. Swapped into the model in place of
`attention.attend` and `attention.attend_backward`, it gives reference
logits and gradients for the banded and tiled full pass and training tape;
like the model's, its backward recomputes the probabilities.
"""

import numpy as np
import pytest

from gemma_mini import attention, model, train
from gemma_mini.attention import LayerKind, plan
from gemma_mini.model import ModelConfig, forward_full, init_params
from gemma_mini.train import cross_entropy, loss_and_grads


def dense_probs(q, k, cfg):
    """(num_query_heads, T, T) probabilities of a pass over rows 0 .. T-1."""
    T = q.shape[1]
    diff = np.arange(T)[:, None] - np.arange(T)[None, :]
    allowed = diff >= 0
    if cfg.kind is LayerKind.LOCAL:
        allowed &= diff < cfg.window
    k_rep = np.repeat(k, cfg.group_size, axis=0)
    scores = np.where(allowed, q @ k_rep.transpose(0, 2, 1) / np.sqrt(cfg.head_dim), -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dense_attend(q, k, v, cfg, band):
    """Oracle for attend over rows 0 .. T-1; ignores the band it is given."""
    return dense_probs(q, k, cfg) @ np.repeat(v, cfg.group_size, axis=0)


def dense_attend_backward(q, k, v, dout, cfg, band):
    """Oracle for attend_backward: the probabilities recomputed densely; ignores
    the band it is given."""
    probs = dense_probs(q, k, cfg)
    k_rep = np.repeat(k, cfg.group_size, axis=0)
    v_rep = np.repeat(v, cfg.group_size, axis=0)
    dprobs = dout @ v_rep.transpose(0, 2, 1)
    dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(cfg.head_dim)
    group_shape = (cfg.num_kv_heads, cfg.group_size) + k.shape[1:]
    dk = (dscores.transpose(0, 2, 1) @ q * scale).reshape(group_shape).sum(axis=1)
    dv = (probs.transpose(0, 2, 1) @ dout).reshape(group_shape).sum(axis=1)
    return dscores @ k_rep * scale, dk, dv


def small_config(window, group, rope_scale_global=1.0):
    """One LOCAL layer, then one GLOBAL."""
    return ModelConfig(
        n_layers=2, d_model=16, hidden_dim=24, vocab_size=40, max_context=512,
        num_query_heads=2 * group, num_kv_heads=2, head_dim=4, window=window,
        local_per_global=1, rope_scale_global=rope_scale_global,
    )


def logits_and_grads(params, cfg, tokens):
    return forward_full(params, cfg, tokens[:-1])[0], loss_and_grads(params, cfg, tokens)[1]


CASES = [
    (T, window, group, scale)
    for window in (1, 2, 16)
    # band edges, then the tile edges: one tile up to 64 rows, more above
    for T in sorted({2 * window, 2 * window + 1, 3 * window, 3 * window + 5,
                     64, 65, 128, 129, 192, 197, 512})
    for group in (1, 2)
    for scale in (1.0, 8.0)  # the global layer's positions as given, then interpolated
]


@pytest.mark.parametrize("T, window, group, scale", CASES)
def test_matches_dense_oracle(monkeypatch, T, window, group, scale):
    cfg = small_config(window, group, scale)
    params = init_params(cfg, seed=T + window, scale=0.3)
    tokens = np.random.default_rng(T).integers(0, cfg.vocab_size, size=T + 1)
    logits, grads = logits_and_grads(params, cfg, tokens)

    monkeypatch.setattr(model, "attend", dense_attend)
    monkeypatch.setattr(train, "attend_backward", dense_attend_backward)
    want_logits, want_grads = logits_and_grads(params, cfg, tokens)
    np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-12)
    assert set(grads) == set(want_grads)
    for name, g in grads.items():
        np.testing.assert_allclose(g, want_grads[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("T, local_shape", [
    (8, None),  # T = 2 * window: causal tiles
    (9, (3, 4, 8)),  # banded, the last block padded
    (12, (3, 4, 8)),
])
def test_long_local_layers_run_banded(T, local_shape):
    """The plans of a pass over T rows: the LOCAL layer's band is
    (n_blocks, window, 2 * window) above T = 2 * window. Every other pass,
    and any chunk after position 0, runs causal tiles with no band: each
    tile builds its own mask."""
    cfg = small_config(4, 2)
    plans = [plan(cfg.attn_for(kind), np.arange(T)) for kind in cfg.kinds()]
    assert [None if band is None else band.shape for _, _, band in plans] == [local_shape, None]
    local_att = cfg.attn_for(LayerKind.LOCAL)
    assert plan(local_att, np.arange(3, 3 + T))[2] is None


@pytest.mark.parametrize("window, banded", [(62, True), (64, False)])
def test_a_local_chunk_is_banded_only_where_the_band_scores_fewer_keys(window, banded):
    """Banded, a row scores 2 * window keys; tiled, at most 64 + window - 1:
    124 against 125 at window 62, 128 against 127 at window 64."""
    att = small_config(window, 2).attn_for(LayerKind.LOCAL)
    for T in (2 * window + 1, 499, 512):
        band = plan(att, np.arange(T))[2]
        assert (band is not None) == banded, T


def test_a_window_1_chunk_after_position_0_runs_tiles():
    """The plan follows from positions alone, at window 1 too, where the
    cache returns no earlier row (window - 1 = 0): a long LOCAL chunk is
    banded from position 0 and tiled from any later one. Every row sees
    only itself, so the tiles give exactly the chunk's values."""
    att, T = small_config(1, 2).attn_for(LayerKind.LOCAL), 7
    assert plan(att, np.arange(T))[2].shape == (T, 1, 2)
    for start in (1, 40):
        assert plan(att, np.arange(start, start + T))[2] is None
    q, k, v = np.random.default_rng(1).normal(size=(3, 4, T, 4))
    out = attention.attend(q, k[:2], v[:2], att, None)
    np.testing.assert_array_equal(out, np.repeat(v[:2], 2, axis=0))


@pytest.mark.parametrize("kind, window, T", [
    (LayerKind.GLOBAL, 4, 129), (LayerKind.GLOBAL, 4, 197),
    (LayerKind.LOCAL, 80, 129),  # T <= 2 * window: the local layer runs tiles too
])
def test_tiled_probs_are_zero_outside_each_rows_keys(kind, window, T, monkeypatch):
    """The probabilities the backward recomputes for each causal tile are
    the forward's, row-stochastic, and zero wherever a row may not look:
    above its diagonal and, for LOCAL, left of its window. The tiles cover
    the rows in order, tile [b, e) over keys [lo, e), lo the first key row
    b sees (0 for GLOBAL)."""
    cfg = small_config(window, 2)
    assert plan(cfg.attn_for(kind), np.arange(T))[2] is None
    tiles = []
    for b in range(0, T, 64):
        lo = 0 if kind is LayerKind.GLOBAL else max(0, b - window + 1)
        tiles.append((b, min(b + 64, T), lo))
    recomputed = []

    def recording_probs(qb, kb, cfg, mask):
        probs = real_probs(qb, kb, cfg, mask)
        if cfg.kind is kind:
            recomputed.append(probs)
        return probs

    real_probs = attention._probs
    monkeypatch.setattr(attention, "_probs", recording_probs)
    params = init_params(cfg, seed=2, scale=0.3)
    tokens = np.arange(T + 1) % 40
    loss_and_grads(params, cfg, tokens)
    assert len(recomputed) == 2 * len(tiles)  # each tile's in the forward, then the backward
    for (b, e, lo), fwd, bwd in zip(tiles, recomputed, recomputed[len(tiles):]):
        assert bwd.shape == (2, 2, 1, e - b, e - lo)
        np.testing.assert_array_equal(bwd, fwd)  # the backward's are the forward's
        diff = np.arange(b, e)[:, None] - np.arange(lo, e)[None, :]
        unseen = (diff < 0) | (diff >= window) if kind is LayerKind.LOCAL else diff < 0
        np.testing.assert_array_equal(bwd[..., unseen], 0.0)
        np.testing.assert_allclose(bwd.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_banded_gradient_matches_central_differences():
    """Every parameter tensor through the band (T=13 > 2 * window) to 1e-6."""
    cfg = small_config(3, 2)
    rng = np.random.default_rng(11)
    params = init_params(cfg, seed=5, scale=0.3)
    tokens = rng.integers(0, cfg.vocab_size, size=14)
    assert plan(cfg.attn_for(LayerKind.LOCAL), np.arange(len(tokens) - 1))[2] is not None
    _, grads = loss_and_grads(params, cfg, tokens)

    def loss_at():
        return cross_entropy(forward_full(params, cfg, tokens[:-1])[0], tokens[1:])[0]

    h = 1e-5
    for name in params:
        flat = params[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_at()
            flat[i] = orig - h
            down = loss_at()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            analytic = grads[name].reshape(-1)[i]
            assert abs(numeric - analytic) <= 1e-6 * max(abs(analytic), 1e-3), (
                f"{name}[{i}]: numeric {numeric} vs analytic {analytic}")
