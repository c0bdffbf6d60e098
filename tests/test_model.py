import os

import numpy as np
import pytest

from gemma_mini import model
from gemma_mini.attention import LayerKind
from gemma_mini.errors import CapacityError, ConfigError
from gemma_mini.model import (
    ModelConfig,
    count_params,
    decode_step,
    forward,
    forward_full,
    generate,
    init_params,
    layer_kinds,
    load_weights,
    make_cache,
    param_shapes,
    save_weights,
)

L, G = LayerKind.LOCAL, LayerKind.GLOBAL


def toy_config(**overrides):
    base = dict(
        n_layers=6, d_model=24, hidden_dim=48, vocab_size=48, max_context=256,
        num_query_heads=4, num_kv_heads=2, head_dim=6, window=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestLayerKinds:
    def test_five_to_one(self):
        assert layer_kinds(6, 5) == [L, L, L, L, L, G]

    def test_truncated_before_first_global(self):
        assert layer_kinds(3, 5) == [L, L, L]

    def test_one_to_one(self):
        assert layer_kinds(8, 1) == [L, G, L, G, L, G, L, G]

    def test_ratio_zero_is_global_only(self):
        assert layer_kinds(4, 0) == [G, G, G, G]

    def test_global_count_and_first_layer(self):
        for n in range(1, 80):
            for r in (1, 3, 5):
                kinds = layer_kinds(n, r)
                assert kinds.count(G) == n // (r + 1)
                assert kinds[0] is L

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            layer_kinds(0, 5)
        with pytest.raises(ConfigError):
            layer_kinds(4, -1)


class TestAttnFor:
    def test_each_kind_built_once_per_config(self):
        cfg = toy_config(rope_scale_global=8.0)
        local, glob = cfg.attn_for(L), cfg.attn_for(G)
        assert cfg.attn_for(L) is local and cfg.attn_for(G) is glob
        assert (local.window, local.rope.base_freq) == (cfg.window, cfg.rope_local_base)
        assert (glob.window, glob.rope.scale) == (None, 8.0)
        fresh = toy_config(rope_scale_global=8.0)
        assert cfg == fresh and hash(cfg) == hash(fresh)
        assert fresh.attn_for(L) is not local and fresh.attn_for(L) == local


class TestKinds:
    def test_built_once_per_config(self, monkeypatch):
        calls = []

        def counting_layer_kinds(*args):
            calls.append(args)
            return layer_kinds(*args)

        monkeypatch.setattr(model, "layer_kinds", counting_layer_kinds)
        cfg = toy_config()
        params = init_params(cfg, seed=1)
        cache = make_cache(cfg)
        forward(params, cfg, [1, 2, 3, 4], cache)
        forward(params, cfg, [5], cache)
        assert calls == [(6, 5)]

    def test_returns_a_fresh_list(self):
        cfg = toy_config()
        kinds = cfg.kinds()
        assert kinds == layer_kinds(6, 5)
        kinds.reverse()
        assert cfg.kinds() == layer_kinds(6, 5)


class TestForward:
    def test_cached_matches_full(self):
        rng = np.random.default_rng(0)
        for window in (2, 4, 8):
            for ratio in (1, 3, 5):
                cfg = toy_config(window=window, local_per_global=ratio)
                params = init_params(cfg, seed=window + ratio)
                tokens = rng.integers(0, cfg.vocab_size, size=24)
                full = forward(params, cfg, tokens)
                cached = forward(params, cfg, tokens, make_cache(cfg))
                np.testing.assert_allclose(cached, full, atol=1e-9)
        for extra in (
            dict(tie_embeddings=False),
            dict(rope_scale_local=8.0, rope_scale_global=8.0),
        ):
            cfg = toy_config(window=4, local_per_global=3, **extra)
            params = init_params(cfg, seed=7)
            tokens = rng.integers(0, cfg.vocab_size, size=24)
            full = forward(params, cfg, tokens)
            cached = forward(params, cfg, tokens, make_cache(cfg))
            np.testing.assert_allclose(cached, full, atol=1e-9)

    def test_cached_matches_full_across_lengths(self):
        rng = np.random.default_rng(12)
        cfg = toy_config(window=4, local_per_global=5)
        params = init_params(cfg, seed=13)
        for length in (1, 2, 3, 7, 16, 33, 64):
            tokens = rng.integers(0, cfg.vocab_size, size=length)
            full = forward(params, cfg, tokens)
            cached = forward(params, cfg, tokens, make_cache(cfg))
            np.testing.assert_allclose(cached, full, atol=1e-9)

    def test_mismatched_cache_rejected(self):
        cfg = toy_config(window=8)
        params = init_params(cfg, seed=14)
        other = make_cache(toy_config(window=4))
        with pytest.raises(ConfigError):
            forward(params, cfg, [1, 2], other)

    def test_incremental_continuation(self):
        cfg = toy_config()
        params = init_params(cfg, seed=1)
        tokens = [5, 9, 2, 7]
        full = forward(params, cfg, tokens)
        cache = make_cache(cfg)
        forward(params, cfg, tokens[:3], cache)
        last = forward(params, cfg, tokens[3:], cache)
        np.testing.assert_allclose(last[0], full[-1], atol=1e-9)

    def test_all_zero_weights_give_uniform_logits(self):
        cfg = toy_config(n_layers=2)
        params = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
        logits = forward(params, cfg, [1, 2, 3])
        np.testing.assert_array_equal(logits, np.zeros_like(logits))

    def test_single_layer_local_equals_global_when_window_covers(self):
        # same weights, same rope base: only the mask differs and it matches
        seq = list(range(7))
        local_cfg = toy_config(
            n_layers=1, local_per_global=1, window=16, rope_local_base=10_000.0
        )
        global_cfg = toy_config(
            n_layers=1, local_per_global=0, rope_global_base=10_000.0
        )
        params = init_params(local_cfg, seed=2)
        out_local = forward(params, local_cfg, seq)
        out_global = forward(params, global_cfg, seq)
        np.testing.assert_allclose(out_local, out_global, atol=1e-12)

    def test_context_overflow(self):
        cfg = toy_config(max_context=8, window=8)
        params = init_params(cfg, seed=3)
        with pytest.raises(CapacityError):
            forward(params, cfg, list(range(9)) + [0] * 3)
        cache = make_cache(cfg)
        forward(params, cfg, [1] * 8, cache)
        with pytest.raises(CapacityError):
            forward(params, cfg, [1], cache)

    def test_rejects_out_of_range_ids(self):
        cfg = toy_config()
        params = init_params(cfg, seed=4)
        with pytest.raises(ValueError):
            forward(params, cfg, [cfg.vocab_size])


class TestGenerate:
    def test_max_new_zero_returns_prompt(self):
        cfg = toy_config()
        params = init_params(cfg, seed=5)
        assert generate(params, cfg, [1, 2, 3], max_new=0) == [1, 2, 3]

    def test_greedy_is_deterministic(self):
        cfg = toy_config()
        params = init_params(cfg, seed=6)
        a = generate(params, cfg, [1, 2], max_new=12)
        b = generate(params, cfg, [1, 2], max_new=12)
        assert a == b

    def test_temperature_is_seed_deterministic(self):
        cfg = toy_config()
        params = init_params(cfg, seed=7)
        a = generate(params, cfg, [3], max_new=10, sampler="temperature", seed=11)
        b = generate(params, cfg, [3], max_new=10, sampler="temperature", seed=11)
        c = generate(params, cfg, [3], max_new=10, sampler="temperature", seed=12)
        assert a == b
        assert a != c  # overwhelmingly likely for 10 draws over 48 ids

    def test_stop_id_halts_and_is_kept(self):
        cfg = toy_config()
        params = init_params(cfg, seed=8)
        free = generate(params, cfg, [1], max_new=16)
        stop = free[3]
        first = free.index(stop, 1)  # prompt tokens never trigger a stop
        halted = generate(params, cfg, [1], max_new=16, stop_ids=[stop])
        assert halted == free[: first + 1]

    @pytest.mark.parametrize("stop", [False, True])
    def test_decodes_each_token_but_the_last(self, monkeypatch, stop):
        # the prompt and every generated token but the last pass through the
        # cache; nothing reads the logits of the last one
        cfg = toy_config()
        params = init_params(cfg, seed=8)
        prompt, max_new = [1, 2, 3], 5
        free = generate(params, cfg, prompt, max_new=max_new)
        stop_ids = [free[len(prompt) + 1]] if stop else []
        n_out = free.index(stop_ids[0], len(prompt)) + 1 if stop else len(free)
        steps = []

        def counting_decode_step(*args):
            steps.append(args[-1])
            return decode_step(*args)

        monkeypatch.setattr(model, "decode_step", counting_decode_step)
        out = generate(params, cfg, prompt, max_new=max_new, stop_ids=stop_ids)
        assert out == free[:n_out] and (n_out < len(free)) == stop
        assert steps == out[:-1]  # len(prompt) + generated - 1 steps

    def test_windowed_decode_matches_full_recompute(self):
        # ring-buffer decoding vs recomputing attention over the whole
        # history with explicit window masks at every step
        cfg = toy_config(window=4, max_context=128)
        params = init_params(cfg, seed=9)
        prompt = [1, 2, 3]
        steps = 40
        ring = generate(params, cfg, prompt, max_new=steps)
        recomputed = list(prompt)
        for _ in range(steps):
            logits = forward(params, cfg, recomputed)
            recomputed.append(int(np.argmax(logits[-1])))
        assert ring == recomputed

    def test_empty_prompt_rejected(self):
        cfg = toy_config()
        with pytest.raises(ValueError):
            generate(init_params(cfg, seed=0), cfg, [], max_new=1)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_nonpositive_temperature_rejected(self, temperature):
        cfg = toy_config()
        with pytest.raises(ValueError, match="temperature"):
            generate(init_params(cfg, seed=0), cfg, [1], max_new=1,
                     sampler="temperature", temperature=temperature)


class TestCountParams:
    def test_matches_tensor_walk(self):
        cfg = toy_config(n_layers=6, vocab_size=256, d_model=8)
        counted = count_params(cfg)
        walked = {name: arr.size for name, arr in init_params(cfg, seed=0).items()}
        assert counted["embedding"] == walked["embed"]
        assert counted["non_embedding"] == sum(
            size for name, size in walked.items() if name != "embed"
        )

    def test_published_1b_embedding_width(self):
        cfg = toy_config(vocab_size=262144, d_model=1152)
        assert count_params(cfg)["embedding"] == 301_989_888

    def test_zero_width_degenerate(self):
        cfg = toy_config(d_model=0)
        assert count_params(cfg)["embedding"] == 0

    def test_untied_head_counts_as_non_embedding(self):
        tied = count_params(toy_config())
        untied = count_params(toy_config(tie_embeddings=False))
        cfg = toy_config()
        assert untied["embedding"] == tied["embedding"]
        assert untied["non_embedding"] == (
            tied["non_embedding"] + cfg.d_model * cfg.vocab_size
        )


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        cfg = toy_config(n_layers=2)
        params = init_params(cfg, seed=10)
        path = str(tmp_path / "model.weights")
        save_weights(params, cfg, path)
        loaded, _ = load_weights(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_loaded_weights_run(self, tmp_path):
        cfg = toy_config(n_layers=2)
        params = init_params(cfg, seed=11)
        path = str(tmp_path / "model.weights")
        save_weights(params, cfg, path)
        want = forward(params, cfg, [1, 2, 3])
        loaded, _ = load_weights(path)
        got = forward(loaded, cfg, [1, 2, 3])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("overrides", [
        {},
        {"tie_embeddings": False, "rope_scale_global": 8},
        {"window": 4, "local_per_global": 1, "rope_local_base": 500.0, "rms_eps": 1e-5},
    ])
    def test_file_carries_its_config(self, tmp_path, overrides):
        """One file at exactly the given path rebuilds an equal config and
        bit-identical tensors."""
        cfg = toy_config(n_layers=2, **overrides)
        params = init_params(cfg, seed=12)
        path = tmp_path / "model.bin"
        save_weights(params, cfg, str(path))
        assert os.listdir(tmp_path) == ["model.bin"]
        loaded, loaded_cfg = load_weights(str(path))
        assert loaded_cfg == cfg
        assert list(loaded) == list(param_shapes(cfg))
        for name in params:
            assert loaded[name].dtype == np.float64
            assert loaded[name].tobytes() == params[name].tobytes()

    @staticmethod
    def _saved(tmp_path, edit=None):
        """Save a two-layer model, apply edit to the archive's entries, and
        return the path."""
        cfg = toy_config(n_layers=2)
        path = tmp_path / "model.bin"
        save_weights(init_params(cfg, seed=13), cfg, str(path))
        if edit is not None:
            with np.load(path) as archive:
                entries = dict(archive)
            edit(entries)
            with open(path, "wb") as f:
                np.savez(f, **entries)
        return str(path)

    @staticmethod
    def _rejects(path, cause):
        with pytest.raises(ValueError, match=cause) as info:
            load_weights(path)
        message = str(info.value)
        assert message.startswith(path) and "\n" not in message

    def test_old_raw_blob_with_manifest_rejected(self, tmp_path):
        path = tmp_path / "old.bin"
        np.ones(4, dtype="<f8").tofile(path)
        (tmp_path / "old.bin.manifest").write_text("final_norm 4 0\n")
        self._rejects(str(path), "not an np.savez archive")

    def test_truncated_file_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[: len(data) // 2])
        self._rejects(path, "not a zip file")

    @pytest.mark.parametrize("edit, cause", [
        (lambda e: e.pop("layer1.wq"), r"tensor name mismatch: \['layer1.wq'\]"),
        (lambda e: e.update({"lm_head": np.zeros((24, 48))}), r"mismatch: \['lm_head'\]"),
        (lambda e: e.update({"final_norm": np.ones(23)}), "tensor final_norm is not"),
        (lambda e: e["embed"].__setitem__((3, 4), np.nan), "tensor embed is not finite"),
        (lambda e: e.update({"config.bogus": np.asarray(1)}), r"config field .*\['bogus'\]"),
        (lambda e: e.update({"config.window": np.asarray(8.0)}), "config.window is not a 0-d"),
        (lambda e: e.update({"format": np.asarray(2)}), "format entry"),
    ], ids=["missing-tensor", "extra-tensor", "wrong-shape", "nan", "unknown-config-field",
            "float-window", "format-2"])
    def test_malformed_archive_rejected(self, tmp_path, edit, cause):
        self._rejects(self._saved(tmp_path, edit), cause)
