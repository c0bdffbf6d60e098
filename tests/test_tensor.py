import math

import numpy as np
import pytest

from gemma_mini.errors import ConfigError, MaskError, ShapeError
from gemma_mini.tensor import (
    NEG_INF, RopeParams, _rms_norm, rms_norm, rope_apply, rope_cos_sin, rope_rotate, softmax_rows,
)


class TestSoftmaxRows:
    def test_uniform(self):
        np.testing.assert_array_equal(softmax_rows(np.zeros((1, 4))), [[0.25] * 4])

    def test_mask_sentinel_exact_zero(self):
        out = softmax_rows(np.array([[1.7, NEG_INF]]))
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0

    def test_log_weights(self):
        out = softmax_rows(np.log(np.array([[1.0, 3.0]])))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(20, 9)) * 30
        sums = softmax_rows(m).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 5))
        np.testing.assert_allclose(softmax_rows(m), softmax_rows(m + 123.0), atol=1e-12)

    def test_fully_masked_row_raises(self):
        with pytest.raises(MaskError):
            softmax_rows(np.array([[0.0, 1.0], [NEG_INF, NEG_INF]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            softmax_rows(np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_nan_or_posinf_in_any_row(self, bad):
        m = np.zeros((3, 4))
        m[0, 1] = NEG_INF
        m[2, 3] = bad  # not the row's first entry, not the first row
        with pytest.raises(ValueError, match="finite or -inf"):
            softmax_rows(m)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_bad_entry_outranks_a_fully_masked_row(self, bad):
        # the ValueError wins whichever row comes first
        for masked, other in ((0, 1), (1, 0)):
            m = np.zeros((2, 3))
            m[masked] = NEG_INF
            m[other, 2] = bad
            with pytest.raises(ValueError, match="finite or -inf"):
                softmax_rows(m)


class TestRmsNorm:
    def test_ones_fixed_point(self):
        v = np.ones(8)
        np.testing.assert_allclose(rms_norm(v, np.ones(8)), v, atol=1e-6)

    def test_zeros(self):
        np.testing.assert_array_equal(rms_norm(np.zeros(5), np.ones(5)), np.zeros(5))

    def test_hand_case(self):
        # mean of squares of [3, 4] is 12.5
        got = rms_norm(np.array([3.0, 4.0]), np.ones(2))
        want = np.array([3.0, 4.0]) / math.sqrt(12.5 + 1e-6)
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_output_rms_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = rng.normal(size=16) * rng.uniform(0.5, 50)
            out = rms_norm(v, np.ones(16))
            assert abs(math.sqrt(np.mean(out**2)) - 1.0) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rms_norm(np.ones(4), np.ones(5))

    @pytest.mark.parametrize("shape", [(16,), (5, 16), (4, 5, 16)])
    def test_bitwise_equal_to_the_mean_formula(self, shape):
        rng = np.random.default_rng(9)
        v = rng.normal(size=shape) * 3.0
        gain = rng.normal(size=shape[-1:])
        want = gain * v / np.sqrt(np.mean(v * v, axis=-1, keepdims=True) + 1e-6)
        np.testing.assert_array_equal(rms_norm(v, gain), want)

    def test_given_divisor_is_the_divisor_step(self):
        """The layer path's body returns rms_norm's divisor and output, and
        given that divisor it returns the same bits."""
        rng = np.random.default_rng(10)
        v = rng.normal(size=(3, 5, 16)) * 3.0
        gain = rng.normal(size=16)
        div, out = _rms_norm(v, gain)
        assert div.shape == (3, 5, 1)
        np.testing.assert_array_equal(div, np.sqrt(np.mean(v * v, axis=-1, keepdims=True) + 1e-6))
        np.testing.assert_array_equal(out, rms_norm(v, gain))
        np.testing.assert_array_equal(_rms_norm(v, gain, div)[1], out)


ROPE = RopeParams(base_freq=10_000.0, scale=1.0, head_dim=8)


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 8))
        np.testing.assert_array_equal(rope_apply(x, [0], ROPE), x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 8))
        out = rope_apply(x, [3, 11, 250, 9001], ROPE)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-12
        )

    def test_rescale_by_eight_matches_unscaled(self):
        # dividing positions by 8 undoes multiplying them by 8
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 8))
        scaled = RopeParams(base_freq=10_000.0, scale=8.0, head_dim=8)
        for k in (1, 17, 4095):
            np.testing.assert_array_equal(
                rope_apply(x, [8 * k, 8 * (k + 1), 8 * (k + 2)], scaled),
                rope_apply(x, [k, k + 1, k + 2], ROPE),
            )

    def test_dot_depends_only_on_relative_offset(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(1, 8))
        k = rng.normal(size=(1, 8))
        for scale in (1.0, 8.0):
            p = RopeParams(base_freq=10_000.0, scale=scale, head_dim=8)
            base = rope_apply(q, [100], p) @ rope_apply(k, [40], p).T
            for shift in (1, 77, 1000):
                moved = rope_apply(q, [100 + shift], p) @ rope_apply(k, [40 + shift], p).T
                np.testing.assert_allclose(moved, base, rtol=1e-9)

    def test_inv_freqs_computed_once_and_read_only(self):
        p = RopeParams(base_freq=10_000.0, scale=8.0, head_dim=8)
        theta = p.inv_freqs()
        assert p.inv_freqs() is theta
        np.testing.assert_array_equal(theta, 10_000.0 ** (-2.0 * np.arange(4.0) / 8))
        with pytest.raises(ValueError, match="read-only"):
            theta[0] = 0.0
        # the cached array is kept outside the fields equality and hashing read
        fresh = RopeParams(base_freq=10_000.0, scale=8.0, head_dim=8)
        assert fresh == p and hash(fresh) == hash(p)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            RopeParams(base_freq=10_000.0, scale=1.0, head_dim=7)

    def test_apply_is_angles_then_rotation_and_negated_sin_undoes_it(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 5, 8))
        positions = np.asarray([0, 7, 300, 4095, 100_000])
        for scale in (1.0, 8.0):
            p = RopeParams(base_freq=1_000_000.0, scale=scale, head_dim=8)
            cos, sin = rope_cos_sin(positions, p)
            assert cos.shape == sin.shape == (5, 4)
            assert np.array_equal(rope_rotate(x, cos, sin), rope_apply(x, positions, p))
            # cos(-a) == cos(a) and sin(-a) == -sin(a) exactly: the inverse rotation,
            # which backward_full applies to gradients
            assert np.array_equal(rope_rotate(x, cos, -sin), rope_apply(x, -positions, p))
            np.testing.assert_allclose(rope_rotate(rope_rotate(x, cos, sin), cos, -sin), x,
                                       atol=1e-12)

    @pytest.mark.parametrize("x_shape, n, half", [
        ((3, 5, 6), 5, 4),  # head_dim 6 against angles for 8
        ((3, 4, 8), 5, 4),  # 4 rows against angles for 5
        ((5, 8), 5, 3),
    ])
    def test_rotation_rejects_angles_of_another_shape(self, x_shape, n, half):
        with pytest.raises(ShapeError):
            rope_rotate(np.zeros(x_shape), np.ones((n, half)), np.zeros((n, half)))
        with pytest.raises(ShapeError):  # sin must match cos
            rope_rotate(np.zeros((5, 8)), np.ones((5, 4)), np.zeros((4, 4)))

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            RopeParams(base_freq=-1.0, scale=1.0, head_dim=8)
        with pytest.raises(ConfigError):
            RopeParams(base_freq=10_000.0, scale=0.5, head_dim=8)
