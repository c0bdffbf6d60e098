import numpy as np
import pytest

from gemma_mini import attention
from gemma_mini.attention import AttentionConfig, LayerKind, build_mask, gqa_attend
from gemma_mini.errors import ConfigError, MaskError
from gemma_mini.tensor import NEG_INF, RopeParams, softmax_rows

from conftest import heap_peak


def cfg_for(num_q, num_kv, head_dim=8, kind=LayerKind.GLOBAL, window=None, base=10_000.0):
    rope = RopeParams(base_freq=base, scale=1.0, head_dim=head_dim)
    return AttentionConfig(num_q, num_kv, head_dim, kind, rope, window)


def mha_oracle(q, k, v, head_dim, mask):
    """Plain multi-head attention; callers replicate kv heads first."""
    out = np.zeros_like(q)
    for h in range(q.shape[0]):
        scores = q[h] @ k[h].T / np.sqrt(head_dim) + mask
        out[h] = softmax_rows(scores) @ v[h]
    return out


class TestBuildMask:
    def test_global_is_lower_triangular(self):
        pos = np.arange(4)
        mask = build_mask(LayerKind.GLOBAL, pos, pos)
        want = np.where(np.tril(np.ones((4, 4))) > 0, 0.0, NEG_INF)
        np.testing.assert_array_equal(mask, want)

    def test_window_covering_sequence_equals_global(self):
        pos = np.arange(9)
        local = build_mask(LayerKind.LOCAL, pos, pos, window=9)
        glob = build_mask(LayerKind.GLOBAL, pos, pos)
        np.testing.assert_array_equal(local, glob)

    def test_window_three_row_seven(self):
        pos = np.arange(8)
        mask = build_mask(LayerKind.LOCAL, pos, pos, window=3)
        visible = np.where(mask[7] == 0)[0]
        np.testing.assert_array_equal(visible, [5, 6, 7])

    def test_local_requires_window(self):
        with pytest.raises(ConfigError):
            build_mask(LayerKind.LOCAL, np.arange(3), np.arange(3))

    @pytest.mark.parametrize("kind", [LayerKind.LOCAL, LayerKind.GLOBAL])
    def test_decreasing_positions_rejected(self, kind):
        ok, bad = np.array([0, 1, 1, 2]), np.array([0, 2, 1, 3])
        build_mask(kind, ok, ok, window=2)  # repeated positions are allowed
        for q, k in ((bad, ok), (ok, bad)):
            with pytest.raises(ValueError, match="non-decreasing"):
                build_mask(kind, q, k, window=2)
        with pytest.raises(ValueError, match="non-decreasing"):  # checked before the window
            build_mask(LayerKind.LOCAL, bad, ok)

    def test_shrinking_window_only_masks_more(self):
        rng = np.random.default_rng(0)
        pos = np.sort(rng.integers(0, 50, size=12))
        prev = build_mask(LayerKind.GLOBAL, pos, pos)
        for window in (32, 16, 7, 3, 1):
            cur = build_mask(LayerKind.LOCAL, pos, pos, window=window)
            # entries only ever move 0 -> -inf as the window shrinks
            assert np.all(np.isneginf(cur) | (prev == 0))
            assert not np.any(np.isneginf(prev) & (cur == 0))
            prev = cur


class TestGqaAttend:
    def test_equal_heads_match_mha(self):
        rng = np.random.default_rng(3)
        cfg = cfg_for(4, 4)
        q, k, v = (rng.normal(size=(4, 6, 8)) for _ in range(3))
        mask = build_mask(LayerKind.GLOBAL, np.arange(6), np.arange(6))
        np.testing.assert_array_equal(
            gqa_attend(q, k, v, cfg, mask), mha_oracle(q, k, v, 8, mask)
        )

    def test_single_key_returns_its_value(self):
        rng = np.random.default_rng(4)
        cfg = cfg_for(2, 1)
        q = rng.normal(size=(2, 1, 8))
        k = rng.normal(size=(1, 1, 8))
        v = rng.normal(size=(1, 1, 8))
        out = gqa_attend(q, k, v, cfg, np.zeros((1, 1)))
        for h in range(2):
            np.testing.assert_allclose(out[h, 0], v[0, 0], rtol=1e-12)

    @pytest.mark.parametrize("num_q,num_kv", [(4, 1), (4, 2), (8, 8)])
    def test_matches_kv_replication_oracle(self, num_q, num_kv):
        rng = np.random.default_rng(5)
        cfg = cfg_for(num_q, num_kv)
        q = rng.normal(size=(num_q, 5, 8))
        k = rng.normal(size=(num_kv, 5, 8))
        v = rng.normal(size=(num_kv, 5, 8))
        mask = build_mask(LayerKind.GLOBAL, np.arange(5), np.arange(5))
        k_rep = np.repeat(k, num_q // num_kv, axis=0)
        v_rep = np.repeat(v, num_q // num_kv, axis=0)
        got = gqa_attend(q, k, v, cfg, mask)
        want = mha_oracle(q, k_rep, v_rep, 8, mask)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sliding_window_equivalence_when_window_covers(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(4, 7, 8))
        k = rng.normal(size=(2, 7, 8))
        v = rng.normal(size=(2, 7, 8))
        pos = np.arange(7)
        local_cfg = cfg_for(4, 2, kind=LayerKind.LOCAL, window=7)
        global_cfg = cfg_for(4, 2)
        local = gqa_attend(q, k, v, local_cfg, build_mask(LayerKind.LOCAL, pos, pos, 7))
        glob = gqa_attend(q, k, v, global_cfg, build_mask(LayerKind.GLOBAL, pos, pos))
        np.testing.assert_allclose(local, glob, atol=1e-12)

    def test_fully_masked_query_propagates(self):
        cfg = cfg_for(2, 2)
        q = np.ones((2, 2, 8))
        k = np.ones((2, 2, 8))
        v = np.ones((2, 2, 8))
        mask = np.array([[0.0, 0.0], [NEG_INF, NEG_INF]])
        with pytest.raises(MaskError):
            gqa_attend(q, k, v, cfg, mask)


class TestConfigValidation:
    def test_kv_heads_must_divide(self):
        with pytest.raises(ConfigError):
            cfg_for(4, 3)

    def test_local_needs_window(self):
        with pytest.raises(ConfigError):
            cfg_for(4, 2, kind=LayerKind.LOCAL)

    def test_global_rejects_window(self):
        with pytest.raises(ConfigError):
            cfg_for(4, 2, kind=LayerKind.GLOBAL, window=5)


class TestDecodeStep:
    @pytest.mark.parametrize("kind", [LayerKind.LOCAL, LayerKind.GLOBAL])
    @pytest.mark.parametrize("n_retained", [1, 15, 16, 40])  # 1, window - 1, window, past it
    def test_one_row_equals_the_masked_block(self, kind, n_retained):
        # a decode step skips the tile loop and the mask; it must still be the
        # one-block attention of the row under build_mask, bit for bit over
        # the keys the mask leaves it (masked keys would only add zeros, in
        # another summation order) and to rounding over all of them
        window = 16
        cfg = cfg_for(4, 2, head_dim=16, kind=kind,
                      window=window if kind is LayerKind.LOCAL else None)
        rng = np.random.default_rng(n_retained)
        q = rng.normal(size=(4, 1, 16))
        k, v = rng.normal(size=(2, 2, n_retained + 1, 16))
        keys = np.arange(n_retained + 1)
        mask = build_mask(kind, keys[-1:], keys, cfg.window)
        seen = np.flatnonzero(mask[0] == 0.0)
        assert seen.size == (n_retained + 1 if cfg.window is None else min(n_retained + 1, window))
        got = attention.attend(q, k, v, cfg, None)  # one row after earlier ones: no band
        np.testing.assert_array_equal(
            got, attention._dense(q, k[:, seen], v[:, seen], cfg, mask[:, seen]))
        np.testing.assert_allclose(got, attention._dense(q, k, v, cfg, mask), rtol=0, atol=1e-15)


class TestBlockGrads:
    """attention._block_grads, the block backward of a band and of a causal tile."""

    @staticmethod
    def tile(kind, n_keys):
        # the last 64-row causal tile of a pass over n_keys rows (4 query heads, 2 kv heads)
        cfg = cfg_for(4, 2, head_dim=16, kind=kind,
                      window=16 if kind is LayerKind.LOCAL else None)
        rng = np.random.default_rng(n_keys)
        qb, dout = rng.normal(size=(2, 2, 2, 1, 64, 16))
        kb, vb = rng.normal(size=(2, 2, 1, 1, n_keys, 16))
        mask = build_mask(kind, np.arange(n_keys - 64, n_keys), np.arange(n_keys), cfg.window)
        return cfg, qb, kb, vb, dout, mask

    @pytest.mark.parametrize("kind, n_keys", [
        (LayerKind.GLOBAL, 64), (LayerKind.GLOBAL, 512), (LayerKind.LOCAL, 130)])
    def test_equals_the_whole_block_formula(self, kind, n_keys):
        # the row sums run one head at a time; each row sums alone, so every
        # gradient is the whole block's formula bit for bit
        cfg, qb, kb, vb, dout, mask = self.tile(kind, n_keys)
        probs = attention._probs(qb, kb, cfg, mask)
        dprobs = dout @ vb.swapaxes(-1, -2)
        dscores = (dprobs - np.add.reduce(dprobs * probs, axis=-1, keepdims=True)) * probs
        scale = 1.0 / np.sqrt(16)
        want = (dscores @ kb * scale, (dscores.swapaxes(-1, -2) @ qb * scale).sum(axis=1),
                (probs.swapaxes(-1, -2) @ dout).sum(axis=1))
        for got, ref in zip(attention._block_grads(qb, kb, vb, dout, cfg, mask), want):
            assert np.array_equal(got, ref)

    def test_holds_two_block_sized_buffers(self):
        # probs and dprobs, not their product too: the heap rises about 2.4
        # blocks (3.0 while the product took a third buffer)
        cfg, qb, kb, vb, dout, mask = self.tile(LayerKind.GLOBAL, 512)
        block = 2 * 2 * 64 * 512 * 8
        rise = heap_peak(lambda: attention._block_grads(qb, kb, vb, dout, cfg, mask))
        assert rise < 2.5 * block, f"{rise / block:.2f} blocks"
