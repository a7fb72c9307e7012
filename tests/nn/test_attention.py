"""Attention / transformer blocks and weight initialisation."""

import numpy as np
import pytest

from repro.nn import init
from repro.nn.layers.attention import (
    FeedForward,
    MultiHeadAttention,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
)
from repro.nn.tensor import Tensor


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        mha = MultiHeadAttention(32, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 7, 32)).astype(np.float32))
        assert mha(x).shape == (2, 7, 32)

    def test_cross_attention_shapes(self, rng):
        mha = MultiHeadAttention(16, 2, rng=rng)
        queries = Tensor(rng.standard_normal((1, 5, 16)).astype(np.float32))
        memory = Tensor(rng.standard_normal((1, 9, 16)).astype(np.float32))
        assert mha(queries, memory, memory).shape == (1, 5, 16)

    def test_embed_dim_must_divide(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_parameter_count(self, rng):
        mha = MultiHeadAttention(32, 4, rng=rng)
        expected = 4 * (32 * 32 + 32)
        assert mha.num_parameters() == expected

    def test_permutation_equivariance_of_self_attention(self, rng):
        """Without positional encodings, permuting tokens permutes the output."""
        mha = MultiHeadAttention(8, 2, rng=rng)
        x = rng.standard_normal((1, 4, 8)).astype(np.float32)
        out = mha(Tensor(x)).data
        perm = [2, 0, 3, 1]
        out_perm = mha(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, rtol=1e-4, atol=1e-5)


class TestTransformerLayers:
    def test_encoder_layer_shape_preserved(self, rng):
        layer = TransformerEncoderLayer(16, 4, 32, rng=rng)
        x = Tensor(rng.standard_normal((2, 6, 16)).astype(np.float32))
        assert layer(x).shape == (2, 6, 16)

    def test_decoder_layer_uses_memory(self, rng):
        layer = TransformerDecoderLayer(16, 4, 32, rng=rng)
        queries = Tensor(rng.standard_normal((1, 3, 16)).astype(np.float32))
        memory_a = Tensor(rng.standard_normal((1, 8, 16)).astype(np.float32))
        memory_b = Tensor(rng.standard_normal((1, 8, 16)).astype(np.float32))
        out_a = layer(queries, memory_a).data
        out_b = layer(queries, memory_b).data
        assert not np.allclose(out_a, out_b)

    def test_feed_forward_shape(self, rng):
        ffn = FeedForward(16, 64, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 16)).astype(np.float32))
        assert ffn(x).shape == (2, 5, 16)


class TestInit:
    def test_kaiming_std_scales_with_fan_in(self, rng):
        small_fan = init.kaiming_normal((64, 4, 3, 3), rng=np.random.default_rng(0))
        large_fan = init.kaiming_normal((64, 256, 3, 3), rng=np.random.default_rng(0))
        assert small_fan.std() > large_fan.std()

    def test_xavier_uniform_bound(self):
        w = init.xavier_uniform((100, 100), rng=np.random.default_rng(0))
        bound = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= bound + 1e-6

    def test_uniform_range(self):
        w = init.uniform((1000,), -1.0, 1.0, rng=np.random.default_rng(0))
        assert w.min() >= -1.0 and w.max() <= 1.0

    def test_constant_zeros_ones(self):
        assert init.zeros((3, 3)).sum() == 0
        assert init.ones((3, 3)).sum() == 9
        assert init.constant((2, 2), 0.5).sum() == 2.0

    def test_deterministic_given_rng(self):
        a = init.kaiming_normal((8, 8), rng=np.random.default_rng(42))
        b = init.kaiming_normal((8, 8), rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_dtype_is_float32(self):
        assert init.kaiming_normal((4, 4)).dtype == np.float32
        assert init.xavier_uniform((4, 4)).dtype == np.float32
