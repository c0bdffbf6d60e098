import numpy as np
import pytest

from gemma_mini import model
from gemma_mini.attention import LayerKind, build_mask
from gemma_mini.errors import CapacityError, ConfigError, OrderingError, ShapeError
from gemma_mini.kvcache import KvCache, kv_bytes, kv_curve, kv_curve_csv
from gemma_mini.model import ModelConfig, layer_kinds
from gemma_mini.presets import preset_values

L, G = LayerKind.LOCAL, LayerKind.GLOBAL


def small_cache(kinds, window=4, max_context=16):
    return KvCache(kinds, window=window, max_context=max_context, num_kv_heads=2, head_dim=4)


def append_steps(cache, n):
    rng = np.random.default_rng(0)
    for pos in range(n):
        for layer in range(len(cache.layer_kinds)):
            cache.append(layer, rng.normal(size=(2, 1, 4)), rng.normal(size=(2, 1, 4)), pos)


class TestCache:
    def test_ring_eviction(self):
        cache = small_cache([L], window=4)
        append_steps(cache, 6)
        _, _, positions = cache.view(0)
        np.testing.assert_array_equal(positions, [2, 3, 4, 5])

    def test_global_keeps_everything(self):
        cache = small_cache([G])
        append_steps(cache, 6)
        _, _, positions = cache.view(0)
        np.testing.assert_array_equal(positions, [0, 1, 2, 3, 4, 5])

    def test_local_view_matches_window_mask(self):
        # at decode step t the ring holds exactly the keys the mask permits
        window = 4
        cache = small_cache([L], window=window)
        history = np.arange(11)
        for t in history:
            for layer in range(1):
                cache.append(layer, np.zeros((2, 1, 4)), np.zeros((2, 1, 4)), int(t))
            _, _, stored = cache.view(0)
            mask = build_mask(LayerKind.LOCAL, np.asarray([t]), history[: t + 1], window)
            visible = history[: t + 1][mask[0] == 0]
            np.testing.assert_array_equal(stored, visible)

    def test_out_of_order_append_rejected(self):
        cache = small_cache([L])
        append_steps(cache, 2)
        with pytest.raises(OrderingError):
            cache.append(0, np.zeros((2, 1, 4)), np.zeros((2, 1, 4)), 5)

    def test_global_overflow(self):
        cache = small_cache([G], max_context=3)
        append_steps(cache, 3)
        with pytest.raises(CapacityError):
            cache.append(0, np.zeros((2, 1, 4)), np.zeros((2, 1, 4)), 3)

    def test_layers_advance_in_lockstep(self):
        cache = small_cache([L, G])
        cache.append(0, np.zeros((2, 1, 4)), np.zeros((2, 1, 4)), 0)
        with pytest.raises(OrderingError):
            cache.next_pos

    def test_stored_values_round_trip(self):
        cache = small_cache([L], window=3)
        vecs = [np.full((2, 4), float(i)) for i in range(5)]
        for pos, vec in enumerate(vecs):
            cache.append(0, vec[:, None], -vec[:, None], pos)
        keys, values, positions = cache.view(0)
        np.testing.assert_array_equal(positions, [2, 3, 4])
        assert keys.shape == values.shape == (2, 3, 4)  # heads first
        np.testing.assert_array_equal(keys[:, 0], vecs[2])
        np.testing.assert_array_equal(values[:, -1], -vecs[4])

    def test_views_are_copies_across_a_ring_wrap(self):
        # views taken part-full, exactly full and wrapped, then every slot of
        # the ring is overwritten: no earlier view may change
        cache = small_cache([L], window=3)
        rng = np.random.default_rng(3)
        views, snapshots = [], []
        for pos in range(10):
            cache.append(0, rng.normal(size=(2, 1, 4)), rng.normal(size=(2, 1, 4)), pos)
            if pos < 7:
                views.append(cache.view(0))
                snapshots.append([a.copy() for a in views[-1]])
        for view, snapshot in zip(views, snapshots):
            for got, want in zip(view, snapshot):
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(cache.view(0)[2], [7, 8, 9])


def rows(first, n):
    """K/V blocks (2, n, 4), heads first, whose row for position p holds p (keys)
    and -p (values)."""
    k = np.repeat(np.arange(first, first + n, dtype=float), 8).reshape(n, 2, 4)
    return k.transpose(1, 0, 2).copy(), -k.transpose(1, 0, 2)


class TestBlockAppend:
    def test_block_wraps_the_ring(self):
        cache = small_cache([L], window=4)
        append_steps(cache, 3)
        cache.append(0, *rows(3, 3), 3)  # positions 3, 4, 5 go to slots 3, 0, 1
        keys, values, positions = cache.view(0)
        np.testing.assert_array_equal(positions, [2, 3, 4, 5])
        np.testing.assert_array_equal(keys[:, 1:], rows(3, 3)[0])
        np.testing.assert_array_equal(values[:, 1:], rows(3, 3)[1])
        assert cache.next_pos == 6

    def test_block_longer_than_the_ring_keeps_its_last_rows(self):
        cache = small_cache([L], window=4)
        append_steps(cache, 1)
        cache.append(0, *rows(1, 10), 1)
        keys, values, positions = cache.view(0)
        np.testing.assert_array_equal(positions, [7, 8, 9, 10])
        np.testing.assert_array_equal(keys, rows(7, 4)[0])
        np.testing.assert_array_equal(values, rows(7, 4)[1])

    @pytest.mark.parametrize("kind", [L, G])
    def test_block_matches_row_by_row(self, kind):
        # every split of 0..15 into a prefix of one-row blocks and one block
        for prefix in range(8):
            for n in range(1, 17 - prefix):
                block, single = small_cache([kind]), small_cache([kind])
                for pos in range(prefix):
                    block.append(0, *rows(pos, 1), pos)
                block.append(0, *rows(prefix, n), prefix)
                for pos in range(prefix + n):
                    single.append(0, *rows(pos, 1), pos)
                for got, want in zip(block.view(0), single.view(0)):
                    np.testing.assert_array_equal(got, want)

    def test_global_block_overflow_changes_nothing(self):
        cache = small_cache([G], max_context=5)
        append_steps(cache, 3)
        before = cache.view(0)
        with pytest.raises(CapacityError):
            cache.append(0, *rows(3, 3), 3)
        assert cache.next_pos == 3
        for got, want in zip(cache.view(0), before):
            np.testing.assert_array_equal(got, want)

    def test_mismatched_values_rejected_before_any_write(self):
        cache = small_cache([L])
        with pytest.raises(ShapeError):
            cache.append(0, rows(0, 3)[0], rows(0, 2)[1], 0)
        assert cache.next_pos == 0
        keys, values, positions = cache.view(0)
        assert keys.shape == values.shape == (2, 0, 4) and positions.size == 0

    # wrong head_dim, wrong head count, rows-first blocks and rows that are not blocks:
    # a (num_kv_heads, head_dim) row is a block of one row, (num_kv_heads, 1, head_dim)
    @pytest.mark.parametrize("shape", [(2, 3, 5), (1, 3, 4), (3, 8), (2, 4), (4, 2, 1),
                                       (3, 2, 4)])
    def test_rows_of_another_shape_rejected_before_any_write(self, shape):
        cache = small_cache([L, G])
        for layer in (0, 1):
            cache.append(layer, *rows(0, 2), 0)
        before = [cache.view(layer) for layer in (0, 1)]
        for layer in (0, 1):
            with pytest.raises(ShapeError, match=r"\(2, rows, 4\)"):
                cache.append(layer, np.zeros(shape), np.zeros(shape), 2)
        assert cache.next_pos == 2
        for layer in (0, 1):
            for got, want in zip(cache.view(layer), before[layer]):
                np.testing.assert_array_equal(got, want)


class TestConstruction:
    def test_spec_records_what_the_cache_was_built_for(self):
        cache = KvCache([L, G], window=4, max_context=16, num_kv_heads=2, head_dim=4)
        assert cache.spec == ((L, G), 4, 16, 2, 4)

    @pytest.mark.parametrize("name", ["window", "num_kv_heads", "head_dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_rejected(self, name, value):
        sizes = dict(window=4, max_context=16, num_kv_heads=2, head_dim=4)
        sizes[name] = value
        with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {value}"):
            KvCache([L, G], **sizes)


class TestAppendReturns:
    @pytest.mark.parametrize("kind", [L, G])
    def test_retained_rows_then_the_chunk_in_one_copy(self, kind):
        # a Local layer holds its last `window` rows but returns only its newest
        # window - 1 (none at window 1): the held row at pos - window is outside
        # the window of every row of the block; a Global layer returns all
        for window in (1, 4):
            for n in (0, 1, 3, 4, 5, 9, 12):  # empty, filling, full, past the window
                cache = small_cache([kind], window=window)
                if n:
                    cache.append(0, *rows(0, n), 0)
                held = n - min(n, window) if kind is L else 0  # first held position
                seen = n - min(n, window - 1) if kind is L else 0  # first one returned
                held_k, held_v, held_pos = cache.view(0)
                for got, want in zip((held_k, held_v, held_pos),
                                     (*rows(held, n - held), np.arange(held, n))):
                    np.testing.assert_array_equal(got, want)
                keys, values = cache.append(0, *rows(n, 2), n)
                want_k, want_v = rows(seen, n + 2 - seen)  # oldest returned row first
                np.testing.assert_array_equal(keys, want_k)
                np.testing.assert_array_equal(values, want_v)
                # the held rows returned are the ones view placed at positions [seen, n)
                returned = held_pos >= seen
                np.testing.assert_array_equal(held_pos[returned], np.arange(seen, n))
                np.testing.assert_array_equal(keys[:, :-2], held_k[:, returned])
                np.testing.assert_array_equal(values[:, :-2], held_v[:, returned])
                # one row returns the same way, in the one array per side that the
                # layer then holds; the rows returned before are copies, which
                # the next append leaves as they were
                seen = n + 2 - min(n + 2, window - 1) if kind is L else 0
                step = cache.append(0, *rows(n + 2, 1), n + 2)
                for got, want in zip(step, rows(seen, n + 3 - seen)):
                    np.testing.assert_array_equal(got, want)
                assert step[0] is cache._keys[0] and step[1] is cache._values[0]
                np.testing.assert_array_equal(keys, want_k)
                np.testing.assert_array_equal(values, want_v)


class TestHeldBytesMatchThePlanner:
    def test_every_context_on_toy(self):
        # prefills in one tile, past the window, banded and tiled, then single steps
        # up to max_context: every layer holds exactly its kv_bytes, in arrays
        # that own their data (no view pins a longer buffer)
        cfg = ModelConfig.from_dict(preset_values("toy"))
        params = model.init_params(cfg, seed=0)
        tokens = np.random.default_rng(4).integers(0, cfg.vocab_size, size=cfg.max_context)
        for prefill in (1, 20, 40, 129, 300):
            cache = model.make_cache(cfg)
            model._run(params, cfg, tokens[:prefill], cache)
            for context in range(prefill, cfg.max_context + 1):
                if context > prefill:
                    model.decode_step(params, cfg, cache, int(tokens[context - 1]))
                want = kv_bytes(cfg.kinds(), context, cfg.num_kv_heads, cfg.head_dim, 8,
                                cfg.window)["per_layer"]
                for layer, nbytes in enumerate(want):
                    held = (cache._keys[layer], cache._values[layer])
                    assert sum(a.nbytes for a in held) == nbytes, (prefill, context, layer)
                    assert all(a.base is None for a in held), (prefill, context, layer)
                    assert all(a.shape[::2] == (cfg.num_kv_heads, cfg.head_dim)
                               for a in held), (prefill, context, layer)  # heads first


class TestKvBytes:
    def test_five_to_one_ratio_at_32k(self):
        pattern = layer_kinds(6, 5)
        ours = kv_bytes(pattern, 32768, 8, 128, 1.0, window=1024)["total"]
        global_only = kv_bytes([G] * 6, 32768, 8, 128, 1.0, window=1024)["total"]
        assert abs(ours / global_only - 0.19271) < 1e-4

    def test_one_to_one_gemma2_style(self):
        pattern = layer_kinds(6, 1)
        ours = kv_bytes(pattern, 32768, 8, 128, 1.0, window=4096)["total"]
        global_only = kv_bytes([G] * 6, 32768, 8, 128, 1.0, window=4096)["total"]
        assert abs(ours / global_only - 0.5625) < 1e-4

    def test_context_within_window_matches_global(self):
        for pattern in ([L, L, G], [L] * 4, [G, G]):
            ours = kv_bytes(pattern, 512, 4, 64, 2.0, window=1024)["total"]
            glob = kv_bytes([G] * len(pattern), 512, 4, 64, 2.0, window=1024)["total"]
            assert ours == glob

    def test_per_layer_formula(self):
        out = kv_bytes([L, G], 100, 3, 5, 2.0, window=8)
        assert out["per_layer"] == [2 * 8 * 3 * 5 * 2.0, 2 * 100 * 3 * 5 * 2.0]
        assert out["total"] == sum(out["per_layer"])

    def test_savings_at_long_context(self):
        # >= 5x saving for 5:1 patterns once context >= 32 windows
        rng = np.random.default_rng(1)
        for _ in range(25):
            n_layers = int(rng.integers(1, 40))
            window = int(rng.integers(16, 2048))
            context = window * int(rng.integers(32, 128))
            pattern = layer_kinds(n_layers, 5)
            ours = kv_bytes(pattern, context, 2, 64, 1.0, window=window)["total"]
            glob = kv_bytes([G] * n_layers, context, 2, 64, 1.0, window=window)["total"]
            assert glob / ours >= 5.0

    def test_monotonicity(self):
        rng = np.random.default_rng(2)
        pattern = layer_kinds(12, 5)
        base = dict(context=4096, num_kv_heads=4, head_dim=64, window=512)
        val = lambda kw: kv_bytes(
            pattern, kw["context"], kw["num_kv_heads"], kw["head_dim"], 1.0, kw["window"]
        )["total"]
        for key in ("context", "num_kv_heads", "head_dim", "window"):
            for _ in range(10):
                kw = dict(base)
                lo = val(kw)
                kw[key] = kw[key] + int(rng.integers(1, 1000))
                assert val(kw) >= lo


class TestKvCurve:
    def test_global_only_curve_is_linear(self):
        contexts = [1024, 2048, 4096, 8192]
        points = kv_curve([G] * 4, 2, 64, 1.0, contexts, window=1024)
        per_token = points[0][1] / contexts[0]
        for c, b in points:
            assert b == pytest.approx(per_token * c)

    def test_slope_is_one_sixth_beyond_window(self):
        pattern = layer_kinds(6, 5)
        pts = dict(kv_curve(pattern, 2, 64, 1.0, [2048, 4096], window=1024))
        glob = dict(kv_curve([G] * 6, 2, 64, 1.0, [2048, 4096], window=1024))
        ours_slope = (pts[4096] - pts[2048]) / 2048
        glob_slope = (glob[4096] - glob[2048]) / 2048
        assert ours_slope == pytest.approx(glob_slope / 6)

    def test_curves_coincide_at_window(self):
        pattern = layer_kinds(6, 5)
        at_window = kv_curve(pattern, 2, 64, 1.0, [1024], window=1024)[0][1]
        glob = kv_curve([G] * 6, 2, 64, 1.0, [1024], window=1024)[0][1]
        assert at_window == glob

    def test_csv_shape(self):
        csv = kv_curve_csv([(1024, 2048.0), (2048, 4096.0)])
        assert csv.splitlines() == ["context,bytes", "1024,2048", "2048,4096"]

    def test_rejects_descending_contexts(self):
        with pytest.raises(ValueError):
            kv_curve([G], 1, 1, 1.0, [2048, 1024], window=64)
