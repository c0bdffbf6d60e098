import math
import weakref

import numpy as np
import pytest

from gemma_mini import cli, model, presets, train
from gemma_mini.model import ModelConfig, forward_full, init_params
from gemma_mini.train import (
    Adam, backward_full, cross_entropy, loss_and_grads, mean_ce, train_byte_lm,
)

from conftest import OVERFIT_STEPS, heap_peak


def tiny_config(**overrides):
    base = dict(
        n_layers=3, d_model=16, hidden_dim=32, vocab_size=32, max_context=64,
        num_query_heads=4, num_kv_heads=2, head_dim=4, window=4, local_per_global=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestBackward:
    def test_matches_central_differences(self):
        """Spot-check every parameter tensor against finite differences."""
        cfg = tiny_config()
        rng = np.random.default_rng(7)
        params = init_params(cfg, seed=3, scale=0.3)
        tokens = rng.integers(0, cfg.vocab_size, size=11)

        def loss_at():
            logits, _ = forward_full(params, cfg, tokens[:-1])
            return cross_entropy(logits, tokens[1:])[0]

        _, grads = loss_and_grads(params, cfg, tokens)
        h = 1e-6
        for name in params:
            flat = params[name].reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_at()
                flat[i] = orig - h
                down = loss_at()
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                analytic = grads[name].reshape(-1)[i]
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
                assert rel < 1e-4, f"{name}[{i}]: numeric {numeric} vs analytic {analytic}"

    def test_needs_two_tokens(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        for tokens in ([], [3]):
            with pytest.raises(ValueError, match="at least 2 tokens"):
                loss_and_grads(params, cfg, tokens)

    def test_backward_spends_the_tape(self, monkeypatch):
        """Each layer's tape entry is popped once the backward has read it."""
        tapes = []

        def recording_backward(params, cfg, tape, dlogits):
            tapes.append(tape)
            return backward_full(params, cfg, tape, dlogits)

        monkeypatch.setattr(train, "backward_full", recording_backward)
        cfg = tiny_config()
        loss_and_grads(init_params(cfg, seed=5, scale=0.3), cfg, np.arange(20) % 32)
        assert len(tapes) == 1 and tapes[0]["layers"] == []

    def test_heap_peak_of_a_long_training_step(self):
        """One step on `toy` at T=512 holds only what its backward still needs.

        tracemalloc peak, numpy's buffers included: 53.7 MB while the tape kept
        the masks, every layer and a (T, T) tiled-probs array through the
        backward; 39.7 MB with the tape spent layer by layer, packed tiles and
        the MLP half's temporaries freed before the attention half runs;
        28.7 MB with no probabilities and no x1 on the tape (the backward
        recomputes them), each layer's gradients made when the backward
        reaches it, dlogits freed after the readout's backward and the
        softmax's and the norm backward's temporaries reused in place;
        13.7 MB with a layer's tape entry cut to x0, qk, v, merged and the
        five norm divisors (the backward rebuilds the rotated heads, attn_out,
        x1, gate, up, the GELU and mlp_out), the norm backward and the GELU
        derivative in two buffers each and the attention scores normalised
        in place; 9.1 MB with the entry cut to x0, merged and the divisors
        (the backward rebuilds every head from the pre-attention norm's
        output), hf, h_last and attn_out freed once read, and an attention
        block's backward holding two block-sized buffers, not three.
        """
        cfg = ModelConfig.from_dict(presets.preset_values("toy"))
        params = init_params(cfg, seed=0)
        tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, size=513)
        peak = heap_peak(lambda: loss_and_grads(params, cfg, tokens))
        assert peak < 11e6, f"peak {peak / 1e6:.1f} MB"

    def test_the_backward_holds_the_only_reference_to_dlogits(self, monkeypatch):
        """From the first layer's backward on, nothing keeps d(logits) alive,
        through loss_and_grads or train_byte_lm. Kept to the end of the pass,
        it raises the T=512 `toy` step's heap peak from 9.06 to 10.1 MB,
        which the 11 MB bound above lets through."""
        cfg = tiny_config()
        refs, alive = [], []

        def grad_fn_for(window):
            def grad_fn(logits):
                loss, dlogits = cross_entropy(logits, window[1:])
                refs.append(weakref.ref(dlogits))
                return loss, dlogits
            return grad_fn

        mlp_backward = train._mlp_backward

        def checked(*args):
            alive.append(refs[-1]() is not None)
            return mlp_backward(*args)

        monkeypatch.setattr(train, "_mlp_backward", checked)
        tokens = np.arange(20) % cfg.vocab_size
        loss_and_grads(init_params(cfg, seed=5, scale=0.3), cfg, tokens, grad_fn_for(tokens))
        train_byte_lm(cfg, tokens, steps=2, batch_len=8, grad_fn_for=grad_fn_for)
        assert len(alive) == 3 * cfg.n_layers and not any(alive)

    def test_the_backward_rebuilds_through_the_forwards_own_body(self, monkeypatch):
        """model._heads and model._mlp are the one layer body: in one pass on
        `toy`, each runs once per layer in the forward, through model's
        binding, and once per layer in the backward's rebuild, through
        train's, so the backward restates none of the forward's arithmetic."""
        calls = {}
        for module in (model, train):
            for name in ("_heads", "_mlp"):
                def counted(*args, _key=(module.__name__, name), _real=getattr(module, name)):
                    calls[_key] = calls.get(_key, 0) + 1
                    return _real(*args)

                monkeypatch.setattr(module, name, counted)
        cfg = ModelConfig.from_dict(presets.preset_values("toy"))
        tokens = np.random.default_rng(3).integers(0, cfg.vocab_size, size=33)
        loss_and_grads(init_params(cfg, seed=0), cfg, tokens)
        assert calls == {(module.__name__, name): cfg.n_layers
                         for module in (model, train) for name in ("_heads", "_mlp")}

    def test_tape_holds_nothing_quadratic_in_T(self):
        """At T=512 on `toy` no tape array has T * T elements or more (the
        packed tile probabilities once had 589,824) and no layer entry holds
        attention probabilities."""
        cfg = ModelConfig.from_dict(presets.preset_values("toy"))
        T = 512
        tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, size=T)
        _, tape = forward_full(init_params(cfg, seed=0), cfg, tokens, keep_tape=True)
        arrays = [a for a in tape.values() if isinstance(a, np.ndarray)]
        for t in tape["layers"]:
            assert "probs" not in t
            arrays += [a for a in t.values() if isinstance(a, np.ndarray)]
        assert max(a.size for a in arrays) < T * T

    def test_gradients_cover_every_parameter(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=5, scale=0.3)
        tokens = np.arange(8)
        _, grads = loss_and_grads(params, cfg, tokens)
        assert set(grads) == set(params)
        for name, g in grads.items():
            assert g.shape == params[name].shape
            assert np.isfinite(g).all()
            assert np.any(g != 0), f"{name} got no gradient"


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((3, 8))
        loss, dlogits = cross_entropy(logits, [0, 1, 2])
        assert loss == pytest.approx(np.log(8))
        np.testing.assert_allclose(dlogits.sum(axis=-1), 0.0, atol=1e-15)

    def test_perfect_prediction(self):
        logits = np.full((2, 4), -1e3)
        logits[0, 1] = 1e3
        logits[1, 2] = 1e3
        loss, _ = cross_entropy(logits, [1, 2])
        assert loss == pytest.approx(0.0, abs=1e-12)


class TestAdam:
    def test_descends_a_quadratic(self):
        params = {"x": np.array([5.0, -3.0])}
        opt = Adam(lr=0.1)
        for _ in range(400):
            opt.step(params, {"x": 2 * params["x"]}.items())
        np.testing.assert_allclose(params["x"], 0.0, atol=1e-3)

    def test_three_steps_equal_the_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(4)
        params = {"w": rng.normal(size=(5, 3)), "g": rng.normal(size=7)}
        want = {name: p.copy() for name, p in params.items()}
        pair_params = {name: p.copy() for name, p in params.items()}
        opt, pair_opt, lr, b1, b2, eps = Adam(lr=0.05), Adam(lr=0.05), 0.05, 0.9, 0.999, 1e-8
        m = {name: np.zeros_like(p) for name, p in params.items()}
        v = {name: np.zeros_like(p) for name, p in params.items()}
        for t in range(1, 4):
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            opt.step(params, grads.items())
            for name, grad in grads.items():
                m[name] = b1 * m[name] + (1 - b1) * grad
                v[name] = b2 * v[name] + (1 - b2) * grad * grad
                m_hat = m[name] / (1 - b1**t)
                v_hat = v[name] / (1 - b2**t)
                want[name] = want[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            # the same gradients in reverse name order
            pair_opt.step(pair_params, ((name, grads[name]) for name in sorted(grads)[::-1]))
            for name in params:
                for got, o in ((params, opt), (pair_params, pair_opt)):
                    np.testing.assert_array_equal(got[name], want[name])
                    np.testing.assert_array_equal(o.m[name], m[name])
                    np.testing.assert_array_equal(o.v[name], v[name])


class TestTrainByteLm:
    def test_windows_reach_both_ends_of_the_data(self):
        """The first and last targets are trained in a large share of steps.

        A start drawn uniformly from [0, len - batch_len) reaches the last
        token in 1/16 of the steps here; the padded, clamped draw reaches each
        end in 8/30 of them.
        """
        cfg = tiny_config(n_layers=1)
        data = np.arange(24)
        batch_len = 8
        windows = []
        steps = 300
        # grad_fn_for records each window; returning None keeps the default CE
        train_byte_lm(
            cfg, data, steps=steps, lr=1e-3, seed=0, batch_len=batch_len,
            grad_fn_for=lambda window: windows.append(window.copy()),
        )
        assert len(windows) == steps
        for w in windows:  # always a full, contiguous slice of the data
            np.testing.assert_array_equal(w, np.arange(w[0], w[0] + batch_len + 1))
        first = np.mean([w[0] == data[0] for w in windows])
        last = np.mean([w[-1] == data[-1] for w in windows])
        assert first > 0.15, first
        assert last > 0.15, last

    def test_one_step_run_is_one_full_rate_adam_step(self):
        """The step-size decay leaves a resumed one-step run at the full lr."""
        cfg = tiny_config()
        data = np.random.default_rng(1).integers(0, cfg.vocab_size, size=40)
        init = init_params(cfg, seed=2, scale=0.3)
        windows = []
        result = train_byte_lm(
            cfg, data, steps=1, lr=5e-3, seed=3, batch_len=12, init=init,
            grad_fn_for=lambda window: windows.append(window.copy()),
        )
        expected = {k: v.copy() for k, v in init.items()}
        _, grads = loss_and_grads(expected, cfg, windows[0])
        Adam(lr=5e-3).step(expected, grads.items())
        assert set(result.params) == set(expected)
        for name, value in expected.items():
            np.testing.assert_array_equal(result.params[name], value, err_msg=name)

    @pytest.mark.parametrize("data, batch_len", [
        ([5], None), ([], None), ([5], 4), (np.arange(20), 0), (np.arange(20), -1),
    ])
    def test_bad_inputs_refused_before_step_zero(self, monkeypatch, data, batch_len):
        # a step calls grad_fn_for and then runs a pass; the error is the input
        # check's own, not that of a window too short to train on
        monkeypatch.setattr(train, "forward_full", lambda *a, **k: pytest.fail("ran a pass"))
        cfg = tiny_config()
        bad_batch_len = batch_len is not None and batch_len < 1
        with pytest.raises(ValueError,
                           match="batch_len must be" if bad_batch_len else "at least 2 tokens"):
            train_byte_lm(cfg, data, steps=3, batch_len=batch_len,
                          grad_fn_for=lambda window: pytest.fail("step 0 began"))

    def test_streamed_steps_equal_loss_and_grads_plus_adam_bit_for_bit(self, monkeypatch):
        """Three steps on random windows with the step size decaying are three
        rounds of loss_and_grads and one Adam.step each, on the windows the
        run drew, with opt.lr set by the documented cosine. The run's moments
        are first allocated inside its backward, the rounds' after theirs."""
        opts = []

        class RecordedAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        monkeypatch.setattr(train, "Adam", RecordedAdam)
        cfg = tiny_config()
        data = np.random.default_rng(6).integers(0, cfg.vocab_size, size=50)
        init = init_params(cfg, seed=7, scale=0.3)
        lr, steps, windows = 4e-3, 3, []
        result = train_byte_lm(
            cfg, data, steps=steps, lr=lr, seed=8, batch_len=12, init=init,
            grad_fn_for=lambda window: windows.append(window.copy()),
        )
        expected, opt, losses = {k: v.copy() for k, v in init.items()}, Adam(lr=lr), []
        for step, window in enumerate(windows):
            loss, grads = loss_and_grads(expected, cfg, window)
            losses.append(loss)
            opt.lr = lr * (0.1 + 0.45 * (1.0 + math.cos(math.pi * step / steps)))
            opt.step(expected, grads.items())
        assert len(windows) == steps and len(opts) == 1
        assert result.losses == losses
        for name, value in expected.items():
            np.testing.assert_array_equal(result.params[name], value, err_msg=name)
            np.testing.assert_array_equal(opts[0].m[name], opt.m[name], err_msg=name)
            np.testing.assert_array_equal(opts[0].v[name], opt.v[name], err_msg=name)

    def test_heap_peak_of_three_steps_holds_no_whole_set_of_gradients(self):
        """Three steps of the CLI's distillation teacher at T=128: each
        gradient goes to Adam as the backward makes it and is freed once
        applied, so no step holds more than one layer half's gradients (the
        whole set is 2.9 MB at this size). tracemalloc peak: 17.1 MB while a
        step's gradients stayed through the next step and the tape kept the
        heads, 13.4 MB with neither, 11.7 MB with the gradients streamed."""
        cfg = cli._toy_teacher_config()
        data = np.random.default_rng(1).integers(0, cfg.vocab_size, size=129)
        peak = heap_peak(lambda: train_byte_lm(cfg, data, steps=3))
        assert peak < 12.5e6, f"peak {peak / 1e6:.1f} MB"


class TestMeanCe:
    def test_data_longer_than_max_context_is_scored_in_windows(self):
        """99 targets at max_context 64: every target is scored once, in a
        window of 64 then one of 35, and the mean is over all 99."""
        cfg = tiny_config()
        params = init_params(cfg, seed=4, scale=0.3)
        data = np.random.default_rng(5).integers(0, cfg.vocab_size, size=100)
        nll = []
        for inputs, targets in ((data[:64], data[1:65]), (data[64:99], data[65:100])):
            logits, _ = forward_full(params, cfg, inputs)
            logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            nll += list(-logp[np.arange(len(targets)), targets])
        assert len(nll) == 99
        assert mean_ce(params, cfg, data) == pytest.approx(np.mean(nll), rel=1e-12)

    def test_needs_one_target(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            mean_ce(init_params(cfg, seed=0), cfg, [3])


class TestTokenIds:
    @pytest.mark.parametrize("bad", [5.5, 5.0, "5", True])
    @pytest.mark.parametrize("entry", ["loss_and_grads", "train_byte_lm", "mean_ce"])
    def test_ids_that_are_not_integers_refused(self, entry, bad):
        # the model's entries refuse these too; a cast would read 5.5 as 5
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        tokens = [3, 4, bad, 6]
        runs = {
            "loss_and_grads": lambda: loss_and_grads(params, cfg, tokens),
            "train_byte_lm": lambda: train_byte_lm(cfg, tokens, steps=1),
            "mean_ce": lambda: mean_ce(params, cfg, tokens),
        }
        with pytest.raises(ValueError, match="token ids must be integers"):
            runs[entry]()

    @pytest.mark.parametrize("bad", ["-1", "vocab_size"])
    @pytest.mark.parametrize("entry", ["loss_and_grads", "train_byte_lm", "mean_ce"])
    def test_a_last_id_outside_the_vocabulary_refused_before_any_work(
            self, monkeypatch, entry, bad):
        # the last id is only a target, which no forward pass reads
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        tokens = [3, 4, {"-1": -1, "vocab_size": cfg.vocab_size}[bad]]
        monkeypatch.setattr(train, "forward_full", lambda *a, **k: pytest.fail("ran a pass"))
        runs = {
            "loss_and_grads": lambda: loss_and_grads(params, cfg, tokens),
            "train_byte_lm": lambda: train_byte_lm(cfg, tokens, steps=1),
            "mean_ce": lambda: mean_ce(params, cfg, tokens),
        }
        with pytest.raises(ValueError, match=r"token ids must lie in \[0, 32\)"):
            runs[entry]()


class TestOverfit:
    def test_two_layer_model_memorizes_small_corpus(self, overfit_run):
        """Mean CE drops under 0.1 within the step budget (forward/backward sanity)."""
        cfg, result, corpus, elapsed = overfit_run
        assert len(result.losses) == OVERFIT_STEPS
        assert mean_ce(result.params, cfg, list(corpus)) < 0.1
        assert elapsed < 60.0

    def test_loss_collapses_from_uniform(self, overfit_run):
        _, result, _, _ = overfit_run
        assert result.losses[0] > 4.0  # ~log(260) at init
        assert result.losses[-1] < result.losses[0] / 20

    def test_window_losses_track_full_corpus_ce(self, overfit_run):
        cfg, result, corpus, _ = overfit_run
        ce = mean_ce(result.params, cfg, list(corpus))
        tail = float(np.mean(result.losses[-20:]))
        assert ce == pytest.approx(tail, abs=0.1)
