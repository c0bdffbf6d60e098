"""Reverse-mode gradients over the decoder stack and a byte-LM training loop.

The backward pass exists for the toy training and distillation paths only;
it walks the tape recorded by forward_full in reverse, layer by layer, and
hands each gradient to Adam as it is made (a fused update, as in LOMO).
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .attention import attend_backward, plan
from .model import (
    GELU_A, GELU_C, ModelConfig, _heads, _mlp, _vocab_ids, forward_full, init_params,
)
from .tensor import rope_rotate, softmax_rows

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _rms_norm_bwd(v, gain, div, dy):
    """(dv, dgain elementwise) of rms_norm(v, gain) given its taped divisor;
    the caller reduces dgain to the gain shape. Two full-size buffers hold
    every term."""
    r = 1.0 / div
    dv = np.multiply(gain, dy)
    tmp = np.multiply(dv, v)
    mean = np.add.reduce(tmp, axis=-1, keepdims=True) / v.shape[-1]  # np.mean, unwrapped
    dv *= r
    np.multiply(v, r**3, out=tmp)
    tmp *= mean
    dv -= tmp
    np.multiply(dy, v, out=tmp)
    tmp *= r
    return dv, tmp


def cross_entropy(logits: np.ndarray, targets: Sequence[int]):
    """Mean next-token CE and its gradient w.r.t. logits."""
    targets = np.asarray(targets, dtype=np.int64)
    T = logits.shape[0]
    dlogits = softmax_rows(logits)  # the probabilities, then their gradient in place
    loss = float(-np.mean(np.log(dlogits[np.arange(T), targets] + 1e-300)))
    dlogits[np.arange(T), targets] -= 1.0
    dlogits /= T
    return loss, dlogits


def _mlp_backward(params, w: dict, t: dict, dh: np.ndarray):
    """d(x1) of one layer's h = x1 + rms_norm(mlp(rms_norm(x1)), post_mlp_norm)
    given d(h); yields each (params key, grad) of the MLP half after that
    parameter's last read. w maps the layer's short parameter names to their
    keys in params. model._mlp, the body _layer runs, rebuilds attn_out, x1,
    the pre-MLP norm's output, gate, up, the GELU and its tanh term, act and
    mlp_out from the layer's tape entry t; attn_out is left in t for the
    attention half. Every other temporary is freed on return, before the
    attention half runs."""
    x1, mlp_out, t["attn_out"], ln2, gate, up, th, gelu_gate, act = _mlp(
        params, w, t["x0"], t["merged"], t["div_attn"], t["div_ln2"])[2:]
    dmlp_out, dg_post = _rms_norm_bwd(mlp_out, params[w["post_mlp_norm"]], t["div_mlp"], dh)
    yield w["post_mlp_norm"], dg_post.sum(axis=0)
    dact = dmlp_out @ params[w["w_down"]].T
    yield w["w_down"], act.T @ dmlp_out
    del mlp_out, act, dmlp_out, dg_post  # each del here lowers the T=512 step's heap peak
    # d gelu / d gate, term by term in two buffers:
    # 0.5 * (1 + th) + 0.5 * gate * (1 - th^2) * GELU_C * (1 + 3 * GELU_A * gate^2)
    dgelu = np.multiply(th, th)
    np.subtract(1.0, dgelu, out=dgelu)
    tmp = np.multiply(0.5, gate)
    dgelu *= tmp
    dgelu *= GELU_C
    np.multiply(3.0 * GELU_A, gate, out=tmp)
    tmp *= gate
    tmp += 1.0
    dgelu *= tmp
    th += 1.0  # th is read: 0.5 * (1 + th) in its buffer
    th *= 0.5
    dgelu += th
    dgate = np.multiply(np.multiply(dact, up, out=tmp), dgelu, out=dgelu)
    dup = np.multiply(dact, gelu_gate, out=dact)
    del th, tmp, gelu_gate
    dln2 = dgate @ params[w["w_gate"]].T + dup @ params[w["w_up"]].T
    yield w["w_gate"], ln2.T @ dgate
    yield w["w_up"], ln2.T @ dup
    dx1_ln2, dg_pre = _rms_norm_bwd(x1, params[w["pre_mlp_norm"]], t["div_ln2"], dln2)
    yield w["pre_mlp_norm"], dg_pre.sum(axis=0)
    return dh + dx1_ln2


def _attention_backward(params, w: dict, t: dict, att, kind_plan: tuple, dx1: np.ndarray):
    """d(x0) of one layer's x1 = x0 + rms_norm(attn(rms_norm(x0)), post_attn_norm)
    given d(x1); yields each (params key, grad) of the attention half after
    that parameter's last read. t["attn_out"], which _mlp_backward rebuilt,
    is popped and freed after the post-attention norm's backward. kind_plan
    is attention.plan's for the layer kind, as the forward made it.
    model._heads, the body _layer runs, rebuilds the pre-attention norm's
    output, every head and the rotated query and key heads; their gradients
    go through the inverse rotation and the qk-norm backward at once, as the
    forward ran them. wqkv's gradient is one product over the q, k and v
    heads' columns, and d(ln1) sums one product per column block, as three
    separate projections summed it."""
    cos, sin, band = kind_plan
    dattn_out, dg_post_a = _rms_norm_bwd(
        t.pop("attn_out"), params[w["post_attn_norm"]], t["div_attn"], dx1)
    yield w["post_attn_norm"], dg_post_a.sum(axis=0)
    dmerged = dattn_out @ params[w["wo"]].T
    yield w["wo"], t["merged"].T @ dattn_out
    del dattn_out, dg_post_a

    n_q, T, hd = att.num_query_heads, dmerged.shape[0], att.head_dim
    qkr, v, ln1, qk = _heads(params, w, att, t["x0"], cos, sin, t["div_ln1"], t["div_qk"])[2:]
    dattn = dmerged.reshape(T, n_q, hd).transpose(1, 0, 2)  # (heads, T, head_dim)
    dqr, dkr, dv = attend_backward(qkr[:n_q], qkr[n_q:], v, dattn, att, band)
    del qkr, dattn, dmerged

    # rope is an orthogonal map: its backward is the inverse rotation, by (cos, -sin)
    dqkn = rope_rotate(np.concatenate((dqr, dkr)), cos, -sin)

    # qk-norm: per-head rms norm with per-head gains (n_q + n_kv, hd)
    dqk, dg_qk = _rms_norm_bwd(qk, params[w["qk_gain"]][:, None, :], t["div_qk"], dqkn)
    yield w["qk_gain"], dg_qk.sum(axis=1)

    # the columns of ln1 @ wqkv, back to (T, heads * head_dim): d(ln1) sums the q, k and
    # v blocks' products in that order
    dqkv = np.concatenate((dqk, dv)).transpose(1, 0, 2).reshape(T, -1)
    wqkv, q_end = params[w["wqkv"]], n_q * hd
    k_end = q_end + att.num_kv_heads * hd
    dln1 = (dqkv[:, :q_end] @ wqkv[:, :q_end].T + dqkv[:, q_end:k_end] @ wqkv[:, q_end:k_end].T
            + dqkv[:, k_end:] @ wqkv[:, k_end:].T)
    yield w["wqkv"], ln1.T @ dqkv

    dx0_ln1, dg_pre_a = _rms_norm_bwd(t["x0"], params[w["pre_attn_norm"]], t["div_ln1"], dln1)
    yield w["pre_attn_norm"], dg_pre_a.sum(axis=0)
    return dx1 + dx0_ln1


def backward_full(params: dict, cfg: ModelConfig, tape: dict, dlogits: np.ndarray):
    """Every parameter's gradient given d(loss)/d(logits), yielded as a
    (name, grad) pair once made: the final norm's, then each layer's MLP
    half's and attention half's from the last layer down, the embedding's
    last. No parameter is read after its pair is yielded, so a consumer
    such as Adam.step may update each one as it arrives, bit for bit.

    Each norm's divisor is read from the tape. Every other activation the
    backward reads and the tape does not keep is rebuilt from the tape by
    the forward's own bodies, model._mlp and model._heads given the taped
    divisors, so bit for bit: attn_out once per layer for both halves, the
    norm outputs, x1, gate, up, the GELU, mlp_out, every head, the rotated
    query and key heads and, under plans made again from the tape's
    positions, the attention probabilities. This module holds only the
    derivative arithmetic.

    The tape is spent: hf and h_last are popped from it and freed after the
    final norm's backward, and each layer's entry is popped from
    tape["layers"] as the backward reaches it, so its arrays are freed once
    read, and the list is empty at the end. dlogits is freed after the
    readout's backward if the caller passed its only reference.
    """
    plans = {kind: plan(cfg.attn_for(kind), tape["positions"]) for kind in set(cfg._kinds)}
    hf = tape.pop("hf")

    # the readout is the embedding: its gradient starts here, and the tokens' rows add to it
    dhf = dlogits @ params["embed"]
    dembed = dlogits.T @ hf
    del dlogits, hf

    dh, dg = _rms_norm_bwd(tape.pop("h_last"), params["final_norm"], tape["div_hf"], dhf)
    del dhf
    dg = dg.sum(axis=0)
    yield "final_norm", dg

    layers = tape["layers"]
    for i in reversed(range(cfg.n_layers)):
        t = layers.pop()  # layer i, the last one left
        w, kind = cfg._layer_keys[i], t["kind"]
        # dh is rebound to each half's result, so no earlier gradient outlives its half
        dh = yield from _mlp_backward(params, w, t, dh)
        dh = yield from _attention_backward(params, w, t, cfg.attn_for(kind), plans[kind], dh)

    np.add.at(dembed, tape["tokens"], dh)
    yield "embed", dembed


def _loss_and_grad_stream(params, cfg, tokens, grad_fn):
    """loss_and_grads' checks, forward pass and loss, then (loss, its
    backward_full), which has not started yet."""
    tokens = _vocab_ids(cfg, tokens)
    if len(tokens) < 2:
        raise ValueError(f"need at least 2 tokens to train on, got {len(tokens)}")
    logits, tape = forward_full(params, cfg, tokens[:-1], keep_tape=True)
    step = list(cross_entropy(logits, tokens[1:]) if grad_fn is None else grad_fn(logits))
    del logits  # the backward reads dlogits only
    # popped into the call, so backward_full holds dlogits's only reference
    return step[0], backward_full(params, cfg, tape, step.pop())


def loss_and_grads(
    params: dict,
    cfg: ModelConfig,
    tokens: Sequence[int],
    grad_fn: Optional[Callable] = None,
):
    """One forward/backward pass: (loss, a dict of every gradient), which
    train_byte_lm never collects. grad_fn(logits) -> (loss, dlogits); the
    default is next-token cross-entropy over the sequence. Every id, the last
    target too, is checked before any work."""
    loss, grads = _loss_and_grad_stream(params, cfg, tokens, grad_fn)
    return loss, dict(grads)


class Adam:
    """Plain Adam with the ADAM_* constants; state is keyed by parameter name, and a
    parameter's update reads only its own gradient and moments, so their order is free."""

    def __init__(self, lr=3e-3):
        self.lr = lr
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self, params: dict, grads) -> None:
        """params -= lr * m_hat / (sqrt(v_hat) + eps) in place, in that order of operations;
        grads is (name, grad) pairs, a dict's .items() too, each applied, then dropped."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for name, grad in grads:
            if name not in self.m:  # its first step
                self.m[name], self.v[name] = np.zeros_like(grad), np.zeros_like(grad)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * grad
            tmp = np.multiply(1 - b2, grad)
            tmp *= grad
            v *= b2
            v += tmp
            denom = np.divide(v, c2)  # v_hat
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            np.divide(m, c1, out=tmp)  # m_hat
            tmp *= self.lr
            tmp /= denom
            params[name] -= tmp
            del grad, tmp, denom


@dataclass
class TrainResult:
    params: dict
    losses: list[float] = field(default_factory=list)
    checkpoints: dict = field(default_factory=dict)  # step -> params snapshot


def train_byte_lm(
    cfg: ModelConfig,
    data: Sequence[int],
    steps: int,
    lr: float = 3e-3,
    seed: int = 0,
    batch_len: Optional[int] = None,
    checkpoint_steps: Sequence[int] = (),
    grad_fn_for: Optional[Callable] = None,
    init: Optional[dict] = None,
) -> TrainResult:
    """Full-batch (or random-window) Adam training on one token sequence of
    at least 2 tokens; batch_len, when set, is at least 1.

    With batch_len set and shorter than the data, each step trains on a
    window of batch_len + 1 tokens. Its start is drawn uniformly from
    [1 - batch_len, len(data) - 1) and clamped into the data, so every target
    position, the first and last included, is trained in at least
    batch_len / (len(data) + batch_len - 2) of the steps; an unpadded draw
    would reach the last token in only 1 / (len(data) - batch_len) of them.

    The step size decays over the run on a cosine from lr to lr / 10:
    lr * (0.1 + 0.45 * (1 + cos(pi * step / steps))). Step 0 always gets the
    full lr, so a run of steps=1 is exactly one Adam(lr) step.

    checkpoint_steps snapshots parameters *before* the numbered step, so 0
    captures the initialization. grad_fn_for(window_tokens) may supply a
    custom per-window loss (used by distillation); default is hard-label CE.
    Each gradient goes to Adam as backward_full makes it, so no step holds
    more than one layer half's gradients (bit for bit as if it did).
    """
    data = _vocab_ids(cfg, data)
    if batch_len is not None and batch_len < 1:
        raise ValueError(f"batch_len must be >= 1, got {batch_len}")
    if len(data) < 2:
        raise ValueError(f"need at least 2 tokens to train on, got {len(data)}")
    rng = np.random.default_rng(seed)
    # steps mutate arrays in place; never touch a caller's dict
    params = (
        {k: v.copy() for k, v in init.items()} if init is not None
        else init_params(cfg, seed=seed)
    )
    opt = Adam(lr=lr)
    result = TrainResult(params=params)
    wanted = set(checkpoint_steps)
    for step in range(steps):
        if step in wanted:
            result.checkpoints[step] = {k: v.copy() for k, v in params.items()}
        if batch_len is not None and len(data) > batch_len:
            start = int(rng.integers(1 - batch_len, len(data) - 1))
            start = min(max(start, 0), len(data) - batch_len - 1)
            window = data[start : start + batch_len + 1]
        else:
            window = data
        grad_fn = grad_fn_for(window) if grad_fn_for is not None else None
        opt.lr = lr * (0.1 + 0.45 * (1.0 + math.cos(math.pi * step / steps)))
        loss, grads = _loss_and_grad_stream(params, cfg, window, grad_fn)
        opt.step(params, grads)
        result.losses.append(loss)
    if steps in wanted:
        result.checkpoints[steps] = {k: v.copy() for k, v in params.items()}
    return result


def mean_ce(params: dict, cfg: ModelConfig, data: Sequence[int]) -> float:
    """Held-out next-token cross-entropy of a trained model.

    Data with more than max_context targets is scored in consecutive windows
    of up to max_context targets, each weighted by its target count. Every
    id, the last target too, is checked before any window runs.
    """
    data = _vocab_ids(cfg, data)
    if len(data) < 2:
        raise ValueError(f"need at least 2 tokens to score, got {len(data)}")
    total = 0.0
    for start in range(0, len(data) - 1, cfg.max_context):
        window = data[start : start + cfg.max_context + 1]
        logits, _ = forward_full(params, cfg, window[:-1])
        total += cross_entropy(logits, window[1:])[0] * (len(window) - 1)
    return total / (len(data) - 1)
