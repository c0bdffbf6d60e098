import cProfile
import dataclasses
import os
import pstats
import re

import numpy as np
import pytest

from gemma_mini import attention, cli, model, train
from gemma_mini.attention import LayerKind
from gemma_mini.errors import CapacityError, ConfigError
from gemma_mini.kvcache import kv_bytes
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
from gemma_mini.presets import list_presets, model_config_from_file, preset_values
from gemma_mini.tensor import _rms_norm, rope_apply
from gemma_mini.train import loss_and_grads

L, G = LayerKind.LOCAL, LayerKind.GLOBAL


def toy_config(**overrides):
    base = dict(
        n_layers=6, d_model=24, hidden_dim=48, vocab_size=48, max_context=256,
        num_query_heads=4, num_kv_heads=2, head_dim=6, window=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def layer_qk_norm(qk, qk_gain, eps=1e-6):
    """The layer path's qk-norm, as _layer runs it: every query and key head
    of qk (heads, T, head_dim) at once, under per-head gains (heads, head_dim).
    test_tape_rotation_equals_the_public_kernels ties it to the tape bit for bit."""
    return _rms_norm(qk, qk_gain[:, None], eps)[1]


class TestQkNorm:
    def test_all_ones_unchanged(self):
        qk = np.ones((3, 3, 8))  # two query heads, then one key head
        np.testing.assert_allclose(layer_qk_norm(qk, np.ones((3, 8))), qk, atol=1e-6)

    def test_scale_invariance(self):
        # eps only matters for vanishing vectors; keep RMS comfortably above it
        rng = np.random.default_rng(1)
        qk = rng.normal(size=(4, 4, 8)) * 3.0
        gains = np.ones((4, 8))
        np.testing.assert_allclose(
            layer_qk_norm(qk * 100.0, gains), layer_qk_norm(qk, gains), atol=1e-6)

    def test_logits_bounded_by_sqrt_head_dim(self):
        # unit-RMS vectors have norm sqrt(d), so |q.k|/sqrt(d) <= sqrt(d)
        rng = np.random.default_rng(2)
        d = 16
        qk = np.concatenate([rng.normal(size=(1, 10, d)) * 37, rng.normal(size=(1, 10, d)) * 0.03])
        qn, kn = layer_qk_norm(qk, np.ones((2, d)))
        logits = qn @ kn.T / np.sqrt(d)
        assert np.abs(logits).max() <= np.sqrt(d) + 1e-9


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


class TestConfigChecks:
    """Every bad field fails at construction with one ConfigError, whichever
    way the config arrives: the constructor, from_dict, a config file or a
    weight archive. None of these waits for a pass to fail."""

    BAD = [
        ("rms_eps", float("nan"), "rms_eps must be finite and > 0"),
        ("rms_eps", 0.0, "rms_eps must be finite and > 0"),
        ("rope_local_base", -5.0, "base_freq must be finite and > 0"),
        ("rope_global_base", float("inf"), "base_freq must be finite and > 0"),
        ("rope_scale_global", float("nan"), "scale must be finite and >= 1"),
        ("hidden_dim", 0, "hidden_dim must be >= 1"),
        ("vocab_size", 0, "vocab_size must be >= 1"),
        ("d_model", 0, "d_model must be >= 1"),
        ("local_per_global", -1, "local_per_global must be >= 0"),
        ("head_dim", 3, "head_dim must be positive and even"),
        # each rotary field's error names the field, not only RopeParams' own argument
        ("rope_local_base", 0.0, "^rope_local_base: base_freq must be finite and > 0, got 0.0"),
        ("rope_global_base", float("inf"), "^rope_global_base: base_freq must be finite"),
        ("rope_scale_local", 0.5, "^rope_scale_local: scale must be finite and >= 1, got 0.5"),
        ("rope_scale_global", float("inf"), "^rope_scale_global: scale must be finite"),
    ]
    IDS = [f"{name}={value}" for name, value, _ in BAD]

    @pytest.mark.parametrize("name, value, cause", BAD, ids=IDS)
    def test_constructor_and_from_dict(self, name, value, cause):
        values = dataclasses.asdict(toy_config())
        values[name] = value
        with pytest.raises(ConfigError, match=cause):
            ModelConfig(**values)
        with pytest.raises(ConfigError, match=cause):
            ModelConfig.from_dict(values)

    @pytest.mark.parametrize("name, value, cause", BAD, ids=IDS)
    def test_config_file(self, tmp_path, name, value, cause):
        values = {**dataclasses.asdict(toy_config()), name: value}
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ConfigError, match=cause):
            model_config_from_file(str(path))

    @pytest.mark.parametrize("name, value, cause", BAD, ids=IDS)
    def test_weight_archive(self, tmp_path, name, value, cause):
        cfg = toy_config(n_layers=2)
        path = str(tmp_path / "model.bin")
        save_weights(init_params(cfg, seed=13), cfg, path)
        with np.load(path) as archive:
            entries = dict(archive)
        entries[f"config.{name}"] = np.asarray(value, dtype=entries[f"config.{name}"].dtype)
        with open(path, "wb") as f:
            np.savez(f, **entries)
        with pytest.raises(ValueError, match=cause.lstrip("^")) as info:  # after the path
            load_weights(path)
        assert isinstance(info.value.__cause__, ConfigError)
        assert re.search(cause, str(info.value.__cause__))


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

    def test_cache_spec_and_parameter_keys_built_once_per_config(self):
        cfg = toy_config()
        assert make_cache(cfg).spec == cfg._cache_spec
        assert cfg._cache_spec is cfg._cache_spec
        keys = cfg._layer_keys
        assert cfg._layer_keys is keys and len(keys) == cfg.n_layers
        assert [key for layer in keys for key in layer.values()] == list(param_shapes(cfg))[1:-1]

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
        for tokens in ([1, 2], []):  # even a chunk of zero tokens
            with pytest.raises(ConfigError):
                forward(params, cfg, tokens, other)
        assert other.next_pos == 0

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
        forward(params, cfg, [1] * 5, cache)
        with pytest.raises(CapacityError):  # one token too long: refused before any step
            forward(params, cfg, [1] * 4, cache)
        assert cache.next_pos == 5
        forward(params, cfg, [1] * 3, cache)
        with pytest.raises(CapacityError):
            forward(params, cfg, [1], cache)

    def test_rejects_out_of_range_ids(self):
        cfg = toy_config()
        params = init_params(cfg, seed=4)
        with pytest.raises(ValueError):
            forward(params, cfg, [cfg.vocab_size])

    def test_uncached_pass_refuses_zero_tokens(self):
        cfg = toy_config()
        params = init_params(cfg, seed=4)
        for run in (lambda: forward_full(params, cfg, []), lambda: forward(params, cfg, [])):
            with pytest.raises(ValueError, match="at least 1 token"):
                run()

    def test_cached_pass_of_zero_tokens_is_empty(self):
        cfg = toy_config()
        cache = make_cache(cfg)
        params = init_params(cfg, seed=4)
        logits = forward(params, cfg, [], cache)
        assert logits.shape == (0, cfg.vocab_size) and cache.next_pos == 0
        with pytest.raises(ValueError, match="at least 1 token"):  # a chunk is never empty
            model._run(params, cfg, [], cache)


class TestOneCheckedEntry:
    """Every entry reaches the layers through model._run, whose check refuses
    a bad id, a foreign cache or a chunk past max_context before any work:
    each refused call leaves the cache's next position where it was."""

    @pytest.fixture(scope="class")
    def toy(self):
        cfg = ModelConfig.from_dict(preset_values("toy"))
        return init_params(cfg, seed=40), cfg

    # the last three are not integers: a float, a string and a bool
    @pytest.mark.parametrize("bad", ["-1", "vocab_size", 65.5, "65", True])
    @pytest.mark.parametrize(
        "entry", ["forward_full", "forward", "forward_cached", "decode_step", "generate"])
    def test_every_entry_refuses_an_id_outside_the_vocabulary(self, toy, entry, bad):
        params, cfg = toy
        bad = {"-1": -1, "vocab_size": cfg.vocab_size}.get(bad, bad)
        tokens = [3, 4, bad, 5]
        cache = make_cache(cfg)
        model._run(params, cfg, [1, 2], cache)
        runs = {
            "forward_full": lambda: forward_full(params, cfg, tokens),
            "forward": lambda: forward(params, cfg, tokens),
            "forward_cached": lambda: forward(params, cfg, tokens, cache),
            "decode_step": lambda: decode_step(params, cfg, cache, bad),
            "generate": lambda: generate(params, cfg, tokens, max_new=3),
        }
        with pytest.raises(ValueError, match="token ids"):
            runs[entry]()
        assert cache.next_pos == 2

    def test_decode_step_refuses_a_foreign_cache(self, toy):
        # a cache built for window 8 would otherwise decode with the wrong window
        params, cfg = toy
        other = dataclasses.replace(cfg, window=8)
        foreign = make_cache(other)
        model._run(params, other, np.arange(29), foreign)
        with pytest.raises(ConfigError):
            decode_step(params, cfg, foreign, 1)
        assert foreign.next_pos == 29

    def test_decode_step_refuses_a_full_cache(self, toy):
        params, cfg = toy
        cache = make_cache(cfg)
        model._run(params, cfg, np.arange(cfg.max_context) % cfg.vocab_size, cache)
        with pytest.raises(CapacityError):
            decode_step(params, cfg, cache, 1)
        assert cache.next_pos == cfg.max_context


class TestChunk:
    """model._run: a chunk of T >= 1 tokens through the cache in one pass."""

    # 1, 2W, 2W + 1, 3W + 5, 50, and 300: the GLOBAL layer in causal tiles
    @pytest.mark.parametrize("T", [1, 8, 9, 17, 50, 300])
    def test_empty_cache_equals_forward_full(self, T):
        cfg = toy_config(window=4, max_context=512)
        params = init_params(cfg, seed=20)
        tokens = np.random.default_rng(T).integers(0, cfg.vocab_size, size=T)
        cache = make_cache(cfg)
        chunk = model._run(params, cfg, tokens, cache)
        np.testing.assert_array_equal(chunk, forward_full(params, cfg, tokens)[0])
        assert cache.next_pos == T

    @pytest.mark.parametrize("window", [1, 2, 4, 16])
    @pytest.mark.parametrize("ratio", [1, 5])
    @pytest.mark.parametrize("tied", [True, False])
    def test_chunk_continues_a_cache(self, window, ratio, tied):
        cfg = toy_config(window=window, local_per_global=ratio, tie_embeddings=tied)
        params = init_params(cfg, seed=window + ratio)
        rng = np.random.default_rng(window * 10 + ratio)
        for prefix in (1, window - 1, window, 2 * window + 3):
            for n in (1, window, 2 * window + 1):
                tokens = rng.integers(0, cfg.vocab_size, size=prefix + n)
                full, _ = forward_full(params, cfg, tokens)
                cache = make_cache(cfg)
                if prefix:
                    model._run(params, cfg, tokens[:prefix], cache)
                chunk = model._run(params, cfg, tokens[prefix:], cache)
                np.testing.assert_allclose(chunk, full[prefix:], atol=1e-9)
                assert cache.next_pos == prefix + n

    # window 80 is taller than a causal tile
    @pytest.mark.parametrize("window", [1, 4, 80])
    @pytest.mark.parametrize("tied", [True, False])
    def test_chunk_after_any_cache_matches_the_full_pass(self, window, tied):
        # the cache hands a local layer only the rows the chunk can see (none at
        # window 1), which the chunk reads in causal tiles of 64 rows (130 rows
        # are three), one row without a mask; after every chunk each layer
        # holds exactly its kv_bytes
        cfg = toy_config(window=window, tie_embeddings=tied, max_context=512)
        params = init_params(cfg, seed=23 + window)
        tokens = np.random.default_rng(window).integers(0, cfg.vocab_size, size=330)
        for prefix in (0, 1, window - 1, window, 200):
            for n in (1, 2, 37, 83, 130):
                cache = make_cache(cfg)
                for start, stop in ((0, prefix), (prefix, prefix + n)):
                    if stop > start:
                        chunk = model._run(params, cfg, tokens[start:stop], cache)
                    want = kv_bytes(cfg.kinds(), max(stop, 1), cfg.num_kv_heads,
                                    cfg.head_dim, 8, cfg.window)["per_layer"]
                    held = [cache._keys[i].nbytes + cache._values[i].nbytes
                            for i in range(cfg.n_layers)]
                    assert held == (want if stop else [0] * cfg.n_layers), (prefix, n, stop)
                full, _ = forward_full(params, cfg, tokens[:prefix + n])
                np.testing.assert_allclose(chunk, full[prefix:], rtol=0, atol=1e-12)

    def test_no_mask_is_taller_than_a_tile(self, monkeypatch):
        # a 300-row chunk after 200 cached tokens, then a fresh 130-row pass
        # whose local layers run banded: every mask is a tile's or the band's
        cfg = toy_config(window=4, max_context=512)
        params = init_params(cfg, seed=24)
        tokens = np.random.default_rng(24).integers(0, cfg.vocab_size, size=500)
        cache = make_cache(cfg)
        model._run(params, cfg, tokens[:200], cache)
        rows, real_build_mask = [], attention.build_mask

        def recording_build_mask(kind, q_positions, *args):
            rows.append(len(q_positions))
            return real_build_mask(kind, q_positions, *args)

        monkeypatch.setattr(attention, "build_mask", recording_build_mask)
        model._run(params, cfg, tokens[200:], cache)
        model._run(params, cfg, tokens[:130], make_cache(cfg))
        assert rows and max(rows) <= 64

    def test_capacity_checked_before_any_work(self, monkeypatch):
        cfg = toy_config(max_context=8, window=4)
        params = init_params(cfg, seed=21)
        cache = make_cache(cfg)
        model._run(params, cfg, np.arange(6), cache)
        monkeypatch.setattr(model, "_layer", lambda *a: pytest.fail("ran past capacity"))
        with pytest.raises(CapacityError):
            model._run(params, cfg, np.arange(3), cache)
        assert cache.next_pos == 6

    def test_greedy_generate_matches_forward_full_argmax(self):
        # forward_full is causal, so one teacher-forced pass over the output
        # recomputes every step's logits from scratch
        cfg = toy_config(window=4, max_context=512)
        params = init_params(cfg, seed=22)
        prompt = np.random.default_rng(22).integers(0, cfg.vocab_size, size=20).tolist()
        out = generate(params, cfg, prompt, max_new=300)
        logits, _ = forward_full(params, cfg, out[:-1])
        assert out[len(prompt):] == np.argmax(logits[len(prompt) - 1:], axis=1).tolist()


class TestPerKindWork:
    """A chunk computes its plan and its rotation once per layer kind, and
    the band's mask once per banded kind; a causal tile builds its own mask
    in each layer it runs in."""

    @staticmethod
    def counting(monkeypatch, names):
        """Per name, the args of each call into attention.<name> made from
        outside the counted functions (band_mask builds its mask through
        build_mask; that call is not a second mask)."""
        calls, depth = {name: [] for name in names}, []
        for name in names:
            def wrapper(*args, _name=name, _real=getattr(attention, name), **kwargs):
                if not depth:
                    calls[_name].append(args)
                depth.append(_name)
                try:
                    return _real(*args, **kwargs)
                finally:
                    depth.pop()

            monkeypatch.setattr(attention, name, wrapper)
        return calls

    def test_one_plan_and_one_rotation_per_kind_per_chunk(self, monkeypatch):
        cfg = toy_config(window=4)
        params = init_params(cfg, seed=30)
        tokens = np.random.default_rng(30).integers(0, cfg.vocab_size, size=130)
        calls = self.counting(monkeypatch, ("build_mask", "band_mask", "rope_cos_sin"))
        layouts = []  # (kind, banded) of each plan the chunk made
        real_plan = model.plan

        def recording_plan(att, *args):
            kind_plan = real_plan(att, *args)
            layouts.append((att.kind, kind_plan[2] is not None))
            return kind_plan

        monkeypatch.setattr(model, "plan", recording_plan)
        kinds = set(cfg.kinds())
        cache = make_cache(cfg)
        # T=1 on an empty cache, a chunk after it, then T=1 and a chunk after the ring
        # wrapped; last, 130 rows on a fresh cache: local layers banded, global in tiles
        chunks = [(cache, 0, 1), (cache, 1, 20), (cache, 20, 21), (cache, 21, 30),
                  (cache, 30, 40), (make_cache(cfg), 0, 130)]
        for chunk_cache, start, stop in chunks:
            for c in (*calls.values(), layouts):
                c.clear()
            model._run(params, cfg, tokens[start:stop], chunk_cache)
            # a mask per tile of 64 rows in each tiled layer; one row that
            # continues a cache sees every key it reads and builds none
            tiles = 0 if start and stop - start == 1 else -(-(stop - start) // 64)
            banded = [kind for kind, is_banded in layouts if is_banded]
            assert len(calls["band_mask"]) == len(banded) <= 1
            tiled = [kind for kind in cfg.kinds() if kind not in banded]
            assert [args[0] for args in calls["build_mask"]] == [
                kind for kind in tiled for _ in range(tiles)]
            assert len(calls["rope_cos_sin"]) == len(kinds)
            assert len(layouts) == len(kinds)
        assert cache.next_pos == 40
        assert tiles == 3 and len(calls["band_mask"]) == 1
        assert dict(layouts) == {LayerKind.LOCAL: True, LayerKind.GLOBAL: False}

    @pytest.mark.parametrize("T", [5, 20])  # local layers tiled, then banded (window 4)
    @pytest.mark.parametrize("tied", [True, False])
    def test_tape_rotation_equals_the_public_kernels(self, T, tied):
        cfg = toy_config(window=4, tie_embeddings=tied, rope_scale_global=8.0)
        params = init_params(cfg, seed=31)
        rng = np.random.default_rng(T)
        for name in params:
            if name.endswith("_gain"):  # per-head gains other than ones
                params[name] = rng.uniform(0.5, 1.5, size=params[name].shape)
        tokens = rng.integers(0, cfg.vocab_size, size=T)
        _, tape = forward_full(params, cfg, tokens, keep_tape=True)
        positions = np.arange(T)
        n_q = cfg.num_query_heads
        for i, (kind, t) in enumerate(zip(cfg.kinds(), tape["layers"])):
            gains = params[f"layer{i}.qk_gain"]  # the query heads' rows, then the key heads'
            qkn = layer_qk_norm(t["qk"], gains, cfg.rms_eps)
            rope = cfg.attn_for(kind).rope
            assert np.array_equal(t["qr"], rope_apply(qkn[:n_q], positions, rope))
            assert np.array_equal(t["kr"], rope_apply(qkn[n_q:], positions, rope))

    @pytest.mark.parametrize("T", [5, 20, 200])  # tiled; banded; banded and 4 tiles
    def test_tape_plans_keep_no_mask(self, T, monkeypatch):
        """The tape keeps no plan, so no mask: the backward plans each kind
        again from the tape's positions, banded where the forward was."""
        cfg = toy_config(window=4, max_context=512)
        tokens = np.arange(T + 1) % 48
        _, tape = forward_full(init_params(cfg, seed=5), cfg, tokens[:-1], keep_tape=True)
        assert "plans" not in tape
        np.testing.assert_array_equal(tape["positions"], np.arange(T))
        layouts = {model: {}, train: {}}  # kind -> banded, per planning module
        for module, seen in layouts.items():
            def recording_plan(att, positions, _seen=seen, _real=module.plan):
                kind_plan = _real(att, positions)
                _seen[att.kind] = kind_plan[2] is not None
                return kind_plan

            monkeypatch.setattr(module, "plan", recording_plan)
        loss_and_grads(init_params(cfg, seed=5), cfg, tokens)
        assert layouts[train] == layouts[model] == {
            LayerKind.LOCAL: T > 2 * cfg.window, LayerKind.GLOBAL: False}

    @pytest.mark.parametrize("tied", [True, False])
    def test_chunks_across_a_ring_wrap_match_one_step_per_token(self, tied):
        cfg = toy_config(window=4, tie_embeddings=tied, rope_scale_global=8.0)
        params = init_params(cfg, seed=32)
        tokens = np.random.default_rng(32).integers(0, cfg.vocab_size, size=21)
        cache = make_cache(cfg)
        first = model._run(params, cfg, tokens[:7], cache)
        second = model._run(params, cfg, tokens[7:16], cache)  # the local rings wrap
        decoded = [decode_step(params, cfg, cache, int(t)) for t in tokens[16:]]
        chunked = np.concatenate((first, second, np.stack(decoded)))
        steps = make_cache(cfg)
        stepped = np.stack([decode_step(params, cfg, steps, int(t)) for t in tokens])
        full, _ = forward_full(params, cfg, tokens)
        # the first chunk is the full pass's arithmetic; elsewhere a T-row and a
        # 1-row matmul round differently, by about 1e-15
        assert np.array_equal(first, forward_full(params, cfg, tokens[:7])[0])
        np.testing.assert_allclose(chunked, stepped, atol=1e-9)
        np.testing.assert_allclose(chunked, full, atol=1e-9)
        assert cache.next_pos == steps.next_pos == 21


class TestDecodeStepCost:
    # calls one decode_step on toy makes into the package's own functions: six
    # layers of fixed Python work, so a helper added per layer shows at once
    PACKAGE_CALLS = 98

    def test_a_decode_step_builds_no_mask_and_makes_few_calls(self):
        cfg = ModelConfig.from_dict(preset_values("toy"))
        params = init_params(cfg, seed=0)
        cache = make_cache(cfg)
        model._run(params, cfg, np.arange(40), cache)  # the local rings are full
        profile = cProfile.Profile()
        profile.runcall(decode_step, params, cfg, cache, 5)
        package = os.path.dirname(model.__file__)
        calls, wrappers = {}, []
        for (path, _, name), (_, count, *_) in pstats.Stats(profile).stats.items():
            if os.path.dirname(path) == package:
                calls[name] = calls.get(name, 0) + count
            elif os.path.basename(path) in ("enum.py", "_methods.py"):
                wrappers.append(name)  # an Enum's Python __hash__, ndarray.all/min/max
        assert "build_mask" not in calls and "band_mask" not in calls
        assert "_tile" not in calls  # one row is one block: no tile loop
        assert calls["append"] == cfg.n_layers
        # one product makes every head and each norm runs the body once: no helper per
        # projection, divisor or checked norm; rms_norm is the final norm's one call
        assert "_split_heads" not in calls and "rms_divisor" not in calls
        assert calls["rms_norm"] == 1 and calls["_rms_norm"] == 5 * cfg.n_layers + 1
        assert sum(calls.values()) <= self.PACKAGE_CALLS, calls
        assert not wrappers, wrappers


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

    def test_max_new_zero_runs_nothing(self, monkeypatch):
        cfg = toy_config()
        params = init_params(cfg, seed=5)

        def fail(*args, **kwargs):
            raise AssertionError("generate ran the model for max_new=0")

        monkeypatch.setattr(model, "make_cache", fail)
        monkeypatch.setattr(model, "_run", fail)
        assert generate(params, cfg, [1, 2, 3], max_new=0) == [1, 2, 3]
        with pytest.raises(ValueError, match="token ids"):
            generate(params, cfg, [1, cfg.vocab_size], max_new=0)

    @pytest.mark.parametrize("stop", [False, True])
    def test_prefills_in_one_chunk_then_decodes_each_token_but_the_last(
        self, monkeypatch, stop
    ):
        # the prompt enters the cache as one chunk, then every generated token
        # but the last passes through one decode_step; nothing reads the
        # logits of the last one
        cfg = toy_config()
        params = init_params(cfg, seed=8)
        prompt, max_new = [1, 2, 3], 5
        free = generate(params, cfg, prompt, max_new=max_new)
        stop_ids = [free[len(prompt) + 1]] if stop else []
        n_out = free.index(stop_ids[0], len(prompt)) + 1 if stop else len(free)
        chunks, steps = [], []

        def counting_run(*args):
            chunks.append(np.asarray(args[2]).tolist())
            return run(*args)

        def counting_decode_step(*args):
            steps.append(args[-1])
            return decode_step(*args)

        run = model._run
        monkeypatch.setattr(model, "_run", counting_run)
        monkeypatch.setattr(model, "decode_step", counting_decode_step)
        out = generate(params, cfg, prompt, max_new=max_new, stop_ids=stop_ids)
        assert out == free[:n_out] and (n_out < len(free)) == stop
        assert steps == out[len(prompt):-1]
        assert chunks == [prompt] + [[t] for t in steps]  # each step is a chunk of one

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

    @pytest.mark.parametrize("tied", [True, False])
    def test_equals_the_closed_form_for_every_shipped_config(self, tied):
        configs = [toy_config(), cli._toy_student_config(), cli._toy_teacher_config()]
        configs += [ModelConfig.from_dict(preset_values(name)) for name in list_presets()]
        for cfg in configs:
            cfg = dataclasses.replace(cfg, tie_embeddings=tied)
            d, v, hd = cfg.d_model, cfg.vocab_size, cfg.head_dim
            hq, hkv, f = cfg.num_query_heads, cfg.num_kv_heads, cfg.hidden_dim
            # wqkv, wo, qk_gain, four norms, gate/up/down
            per_layer = d * (hq + 2 * hkv) * hd + hq * hd * d + (hq + hkv) * hd + 4 * d + 3 * d * f
            head = 0 if tied else d * v
            want = {"embedding": v * d, "non_embedding": cfg.n_layers * per_layer + d + head}
            got = count_params(cfg)
            assert got == want and all(type(n) is int for n in got.values()), cfg

    def test_published_1b_embedding_width(self):
        cfg = toy_config(vocab_size=262144, d_model=1152)
        assert count_params(cfg)["embedding"] == 301_989_888

    def test_unit_width_degenerate(self):
        # a zero width is refused at construction (TestConfigChecks); one is the least
        cfg = toy_config(d_model=1)
        assert count_params(cfg)["embedding"] == cfg.vocab_size

    def test_untied_head_counts_as_non_embedding(self):
        tied = count_params(toy_config())
        untied = count_params(toy_config(tie_embeddings=False))
        cfg = toy_config()
        assert untied["embedding"] == tied["embedding"]
        assert untied["non_embedding"] == (
            tied["non_embedding"] + cfg.d_model * cfg.vocab_size
        )


class TestInitParams:
    @pytest.mark.parametrize("tied", [True, False])
    def test_fused_blocks_hold_the_separate_draws(self, tied):
        """wqkv's column blocks hold what wq, wk and wv held when each was
        stored apart and drawn in turn: embed, then per layer wq, wk, wv, wo,
        w_gate, w_up and w_down, then lm_head. qk_gain's rows are ones."""
        cfg = toy_config(n_layers=2, tie_embeddings=tied)
        d, hd, hidden = cfg.d_model, cfg.head_dim, cfg.hidden_dim
        q_width, kv_width = cfg.num_query_heads * hd, cfg.num_kv_heads * hd
        params = init_params(cfg, seed=3, scale=0.5)
        rng = np.random.default_rng(3)

        def drawn(*shape):
            return rng.normal(0.0, 0.5, size=shape)

        np.testing.assert_array_equal(params["embed"], drawn(cfg.vocab_size, d))
        for i in range(cfg.n_layers):
            layer = {name[len(f"layer{i}."):]: arr for name, arr in params.items()
                     if name.startswith(f"layer{i}.")}
            wq, wk, wv = np.split(layer["wqkv"], [q_width, q_width + kv_width], axis=1)
            np.testing.assert_array_equal(wq, drawn(d, q_width))
            np.testing.assert_array_equal(wk, drawn(d, kv_width))
            np.testing.assert_array_equal(wv, drawn(d, kv_width))
            np.testing.assert_array_equal(layer["wo"], drawn(q_width, d))
            np.testing.assert_array_equal(layer["w_gate"], drawn(d, hidden))
            np.testing.assert_array_equal(layer["w_up"], drawn(d, hidden))
            np.testing.assert_array_equal(layer["w_down"], drawn(hidden, d))
            heads = cfg.num_query_heads + cfg.num_kv_heads
            np.testing.assert_array_equal(layer["qk_gain"], np.ones((heads, hd)))
        if not tied:
            np.testing.assert_array_equal(params["lm_head"], drawn(d, cfg.vocab_size))


class TestWeightsIO:
    def test_format_1_archive_refused(self, tmp_path):
        """A format-1 archive stored wq, wk, wv and q_gain, k_gain apart; its
        format entry alone refuses it, with one ValueError naming the format."""
        cfg = toy_config(n_layers=2)
        q_width, kv_width = cfg.num_query_heads * cfg.head_dim, cfg.num_kv_heads * cfg.head_dim

        def as_format_1(entries):
            entries["format"] = np.asarray(1)
            for i in range(cfg.n_layers):
                blocks = np.split(entries.pop(f"layer{i}.wqkv"), [q_width, q_width + kv_width], 1)
                entries.update(zip((f"layer{i}.wq", f"layer{i}.wk", f"layer{i}.wv"), blocks))
                gains = entries.pop(f"layer{i}.qk_gain")
                entries[f"layer{i}.q_gain"] = gains[:cfg.num_query_heads]
                entries[f"layer{i}.k_gain"] = gains[cfg.num_query_heads:]

        self._rejects(self._saved(tmp_path, as_format_1), "^[^:]*: format entry 1 is not 2$")

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
        (lambda e: e.pop("layer1.wqkv"), r"tensor name mismatch: \['layer1.wqkv'\]"),
        (lambda e: e.update({"lm_head": np.zeros((24, 48))}), r"mismatch: \['lm_head'\]"),
        (lambda e: e.update({"final_norm": np.ones(23)}), "tensor final_norm is not"),
        (lambda e: e["embed"].__setitem__((3, 4), np.nan), "tensor embed is not finite"),
        (lambda e: e.update({"config.bogus": np.asarray(1)}), r"config field .*\['bogus'\]"),
        (lambda e: e.update({"config.window": np.asarray(8.0)}), "config.window is not a 0-d"),
        (lambda e: e.update({"format": np.asarray(1)}), "format entry 1 is not 2"),
        (lambda e: e.update({"format": np.asarray(3)}), "format entry 3 is not 2"),
        (lambda e: e.pop("format"), "format entry None is not 2"),
        (lambda e: e.update({"config.num_kv_heads": np.asarray(0)}),
         "num_kv_heads must be >= 1, got 0"),
        (lambda e: e.update({"config.d_model": np.asarray(0)}), "d_model must be >= 1, got 0"),
    ], ids=["missing-tensor", "extra-tensor", "wrong-shape", "nan", "unknown-config-field",
            "float-window", "format-1", "format-3", "no-format", "zero-kv-heads", "zero-width"])
    def test_malformed_archive_rejected(self, tmp_path, edit, cause):
        self._rejects(self._saved(tmp_path, edit), cause)
