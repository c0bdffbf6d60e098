"""The training tape holds only what the backward pass cannot rebuild.

Each RMS norm's divisor is computed once in the forward pass and read back
by backward_full; of the activations, a layer's entry keeps x0 and merged,
and the backward rebuilds the rest. The formulas the backward used to
recompute the divisors, and the backward that used them, are kept here as
the reference: taped divisors must equal them bit for bit, and so must every
gradient. The reference rebuilds the activations the tape no longer keeps
(the pre-attention norm's output, the query, key and value heads, the
rotated query and key heads, attn_out, x1, gate, up and mlp_out) with its
own formulas, those the forward taped them with, and, like backward_full,
recomputes the attention probabilities through attend_backward.
"""

import numpy as np
import pytest

from gemma_mini import presets
from gemma_mini.attention import attend_backward, plan
from gemma_mini.model import GELU_A, GELU_C, ModelConfig, forward_full, init_params
from gemma_mini.tensor import RMS_EPS, rms_norm, rope_apply, rope_rotate
from gemma_mini.train import cross_entropy, loss_and_grads


def toy():
    return ModelConfig.from_dict(presets.preset_values("toy"))


def distill_teacher():
    """The teacher of test_distill.py::TestDistilledStudentBeatsHardLabels."""
    return ModelConfig(
        n_layers=4, d_model=48, hidden_dim=96, vocab_size=260, max_context=1024,
        num_query_heads=4, num_kv_heads=2, head_dim=12, window=2,
    )


def old_divisor(v, eps):
    return np.sqrt(np.mean(v * v, axis=-1, keepdims=True) + eps)


def old_tanh(x):
    return np.tanh(GELU_C * (x + GELU_A * x * x * x))


def old_rms_norm_bwd(v, gain, eps, dy):
    ms = np.mean(v * v, axis=-1, keepdims=True)
    r = 1.0 / np.sqrt(ms + eps)
    gdy = gain * dy
    dv = gdy * r - v * r**3 * np.mean(gdy * v, axis=-1, keepdims=True)
    return dv, dy * v * r


def old_gelu(x):
    return 0.5 * x * (1.0 + old_tanh(x))


def old_gelu_grad(x):
    t = old_tanh(x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x)


def rebuilt(params, cfg, i, t, positions):
    """Layer i's activations that the tape once kept and no longer does, by
    the forward's formulas of then: ln1 = rms_norm(x0, pre_attn_norm) with
    the divisor recomputed, the query and key heads qk and the value heads
    v as the head-major columns of ln1 @ wqkv, attn_out = merged @ wo, x1 =
    x0 + rms_norm(attn_out, post_attn_norm) with the divisor recomputed, the
    pre-MLP norm's output and its gate and up products, the GELU, mlp_out
    and the qk-normed query and key heads rotated by rope_apply."""
    eps, att = RMS_EPS, cfg.attn_for(t["kind"])
    p = lambda name: params[f"layer{i}.{name}"]
    ln1 = p("pre_attn_norm") * t["x0"] / old_divisor(t["x0"], eps)
    T, n_q, n_kv = ln1.shape[0], att.num_query_heads, att.num_kv_heads
    heads = (ln1 @ p("wqkv")).reshape(T, n_q + 2 * n_kv, att.head_dim).transpose(1, 0, 2).copy()
    qk, v = heads[:n_q + n_kv], heads[n_q + n_kv:]
    attn_out = t["merged"] @ p("wo")
    x1 = t["x0"] + p("post_attn_norm") * attn_out / old_divisor(attn_out, eps)
    ln2 = rms_norm(x1, p("pre_mlp_norm"))
    gate, up = ln2 @ p("w_gate"), ln2 @ p("w_up")
    act = old_gelu(gate) * up
    qkn = p("qk_gain")[:, None] * qk / old_divisor(qk, eps)
    return dict(ln1=ln1, qk=qk, v=v, attn_out=attn_out, x1=x1, ln2=ln2, gate=gate, up=up,
                act=act, mlp_out=act @ p("w_down"), qr=rope_apply(qkn[:n_q], positions, att.rope),
                kr=rope_apply(qkn[n_q:], positions, att.rope))


def recomputing_backward(params, cfg, tape, dlogits):
    """backward_full as it was before the tape kept divisors and tanh: every
    norm's divisor and the GELU are recomputed from the tape's inputs and
    the activations `rebuilt` makes, and the pre-MLP norm's output is the
    forward's rms_norm. The q, k and v projections and the
    q and k gains are the column blocks of wqkv and the rows of qk_gain;
    each block's gradient is its own product."""
    eps = RMS_EPS
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    plans = {kind: plan(cfg.attn_for(kind), tape["positions"]) for kind in set(cfg.kinds())}
    dhf = dlogits @ params["embed"]
    grads["embed"] += dlogits.T @ tape["hf"]
    dh, dg = old_rms_norm_bwd(tape["h_last"], params["final_norm"], eps, dhf)
    grads["final_norm"] += dg.sum(axis=0)
    for i in reversed(range(cfg.n_layers)):
        t = tape["layers"][i]
        t = {**t, **rebuilt(params, cfg, i, t, tape["positions"])}
        att = cfg.attn_for(t["kind"])
        p = lambda name: params[f"layer{i}.{name}"]
        g = lambda name: grads[f"layer{i}.{name}"]
        cos, sin, band = plans[t["kind"]]
        n_q, q_end = att.num_query_heads, att.num_query_heads * att.head_dim
        k_end = q_end + att.num_kv_heads * att.head_dim
        blocks = (slice(0, q_end), slice(q_end, k_end), slice(k_end, None))
        wq, wk, wv = (p("wqkv")[:, cols] for cols in blocks)
        gq, gk, gv = (g("wqkv")[:, cols] for cols in blocks)  # views: += writes the grads
        ln1, x1, ln2, act = t["ln1"], t["x1"], t["ln2"], t["act"]

        dmlp_out, dg_post = old_rms_norm_bwd(t["mlp_out"], p("post_mlp_norm"), eps, dh)
        g("post_mlp_norm")[...] += dg_post.sum(axis=0)
        dact = dmlp_out @ p("w_down").T
        g("w_down")[...] += act.T @ dmlp_out
        dgate = dact * t["up"] * old_gelu_grad(t["gate"])
        dup = dact * old_gelu(t["gate"])
        dln2 = dgate @ p("w_gate").T + dup @ p("w_up").T
        g("w_gate")[...] += ln2.T @ dgate
        g("w_up")[...] += ln2.T @ dup
        dx1_ln2, dg_pre = old_rms_norm_bwd(x1, p("pre_mlp_norm"), eps, dln2)
        g("pre_mlp_norm")[...] += dg_pre.sum(axis=0)
        dx1 = dh + dx1_ln2

        dattn_out, dg_post_a = old_rms_norm_bwd(t["attn_out"], p("post_attn_norm"), eps, dx1)
        g("post_attn_norm")[...] += dg_post_a.sum(axis=0)
        dmerged = dattn_out @ p("wo").T
        g("wo")[...] += t["merged"].T @ dattn_out
        T = dmerged.shape[0]
        dattn = dmerged.reshape(T, att.num_query_heads, att.head_dim).transpose(1, 0, 2)
        dqr, dkr, dv = attend_backward(t["qr"], t["kr"], t["v"], dattn, att, band)
        dqn = rope_rotate(dqr, cos, -sin)
        dkn = rope_rotate(dkr, cos, -sin)
        dq, dgq = old_rms_norm_bwd(t["qk"][:n_q], p("qk_gain")[:n_q, None, :], eps, dqn)
        dk, dgk = old_rms_norm_bwd(t["qk"][n_q:], p("qk_gain")[n_q:, None, :], eps, dkn)
        g("qk_gain")[:n_q] += dgq.sum(axis=1)
        g("qk_gain")[n_q:] += dgk.sum(axis=1)
        dq_flat = dq.transpose(1, 0, 2).reshape(T, -1)
        dk_flat = dk.transpose(1, 0, 2).reshape(T, -1)
        dv_flat = dv.transpose(1, 0, 2).reshape(T, -1)
        dln1 = dq_flat @ wq.T + dk_flat @ wk.T + dv_flat @ wv.T
        gq += ln1.T @ dq_flat
        gk += ln1.T @ dk_flat
        gv += ln1.T @ dv_flat
        dx0_ln1, dg_pre_a = old_rms_norm_bwd(t["x0"], p("pre_attn_norm"), eps, dln1)
        g("pre_attn_norm")[...] += dg_pre_a.sum(axis=0)
        dh = dx1 + dx0_ln1
    np.add.at(grads["embed"], tape["tokens"], dh)
    return grads


# T = 4 runs every layer in one causal tile; above 2 * window the LOCAL
# layers run banded. A GLOBAL layer runs one tile at T <= 64, two above.
CASES = [(make, T) for make in (toy, distill_teacher) for T in (4, 40, 100, 128)]
IDS = [f"{make.__name__}-T{T}" for make, T in CASES]


def taped_pass(make, T):
    cfg = make()
    params = init_params(cfg, seed=T, scale=0.3)
    tokens = np.random.default_rng(T).integers(0, cfg.vocab_size, size=T + 1)
    logits, tape = forward_full(params, cfg, tokens[:-1], keep_tape=True)
    return cfg, params, tokens, logits, tape


@pytest.mark.parametrize("make, T", CASES, ids=IDS)
def test_taped_terms_equal_the_old_recompute_formulas(make, T):
    cfg, params, _, _, tape = taped_pass(make, T)
    eps = RMS_EPS
    np.testing.assert_array_equal(tape["div_hf"], old_divisor(tape["h_last"], eps))
    for i, t in enumerate(tape["layers"]):
        acts = rebuilt(params, cfg, i, t, tape["positions"])
        inputs = {
            "div_ln1": t["x0"], "div_qk": acts["qk"],
            "div_attn": acts["attn_out"], "div_mlp": acts["mlp_out"], "div_ln2": acts["x1"],
        }
        for key, v in inputs.items():
            np.testing.assert_array_equal(t[key], old_divisor(v, eps), err_msg=key)


@pytest.mark.parametrize("make, T", CASES, ids=IDS)
def test_a_layer_entry_keeps_only_what_the_backward_cannot_rebuild(make, T):
    _, _, _, _, tape = taped_pass(make, T)
    for t in tape["layers"]:
        assert set(t) == {"kind", "x0", "merged",
                          "div_ln1", "div_qk", "div_attn", "div_ln2", "div_mlp"}


@pytest.mark.parametrize("make, T", CASES, ids=IDS)
def test_gradients_equal_the_recomputing_backward(make, T):
    cfg, params, tokens, logits, tape = taped_pass(make, T)
    grads = loss_and_grads(params, cfg, tokens)[1]
    want = recomputing_backward(params, cfg, tape, cross_entropy(logits, tokens[1:])[1])
    assert set(grads) == set(want)
    for name, g in grads.items():
        np.testing.assert_array_equal(g, want[name], err_msg=name)
