"""Property-based tests for the quantization primitives (hypothesis).

Storage quantization is what the pipeline ships (``QuantizeStage`` rewrites
the weights, the artifact records the bytes it saves), so these invariants are
load-bearing for every quantized artifact — not just for the size estimates:

* quantization never produces NaN/inf scales or codes, even for fully pruned
  (all-zero) channels and subnormal stragglers,
* codes saturate at the symmetric bound of the bit width (int4: +-7),
* exactly-zero weights always code to exactly zero (sparsity survives),
* 16-bit round trips are exact for exactly-representable inputs,
* sparse storage accounting agrees with the pruning mask's nnz.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.quantization import dequantize_tensor, quantize_tensor

FINITE_F32 = st.floats(min_value=-1e6, max_value=1e6, width=32,
                       allow_nan=False, allow_infinity=False)


def _weights(min_channels=1, max_channels=4, min_cols=1, max_cols=16):
    return hnp.arrays(
        dtype=np.float32,
        shape=st.tuples(st.integers(min_channels, max_channels),
                        st.integers(min_cols, max_cols)),
        elements=FINITE_F32,
    )


@settings(max_examples=60, deadline=None)
@given(weights=_weights(), bits=st.sampled_from([4, 8, 16]))
def test_codes_and_scales_always_finite_and_bounded(weights, bits):
    quantized = quantize_tensor(weights, bits=bits)
    max_code = 2 ** (bits - 1) - 1
    assert np.isfinite(quantized.scales).all()
    assert (quantized.scales > 0).all()
    assert np.abs(quantized.values).max(initial=0) <= max_code
    restored = dequantize_tensor(quantized)
    assert np.isfinite(restored).all()
    # Symmetric quantization error bound: half a scale step per element.
    step = quantized.scales[:, None] / 2.0 * (1.0 + 1e-6)
    assert np.all(np.abs(restored - weights) <= step)


@settings(max_examples=40, deadline=None)
@given(channels=st.integers(1, 6), cols=st.integers(1, 12),
       bits=st.sampled_from([4, 8, 16]))
def test_all_zero_channels_quantize_to_exact_zero(channels, cols, bits):
    """Fully pruned channels: scale 1.0 (not 0/NaN), codes and dequant exact 0."""
    weights = np.zeros((channels, cols), dtype=np.float32)
    quantized = quantize_tensor(weights, bits=bits)
    assert np.all(quantized.scales == 1.0)
    assert not quantized.values.any()
    assert not dequantize_tensor(quantized).any()


@settings(max_examples=40, deadline=None)
@given(weights=_weights(), bits=st.sampled_from([4, 8, 16]))
def test_zero_weights_code_to_zero(weights, bits):
    """Exactly-zero weights (pruned taps) always get code 0: the pruning
    pattern survives quantization bit-for-bit."""
    weights[:, ::2] = 0.0                     # carve a pruning pattern in
    quantized = quantize_tensor(weights, bits=bits)
    assert not quantized.values.reshape(weights.shape)[weights == 0.0].any()


@settings(max_examples=40, deadline=None)
@given(value=st.floats(min_value=0, max_value=1e6, width=32, exclude_min=True,
                       allow_nan=False, allow_infinity=False),
       sign=st.sampled_from([-1.0, 1.0]), bits=st.sampled_from([4, 8, 16]))
def test_single_weight_channels_round_trip(value, sign, bits):
    """A channel with one weight saturates to +-max_code and dequantizes back
    to the weight within float rounding (never 0, never inf)."""
    weights = np.array([[sign * value]], dtype=np.float32)
    quantized = quantize_tensor(weights, bits=bits)
    max_code = 2 ** (bits - 1) - 1
    if abs(weights[0, 0]) <= max_code * np.finfo(np.float32).tiny:
        assert quantized.values[0, 0] == 0     # subnormal scale -> dead channel
        return
    assert quantized.values[0, 0] == sign * max_code
    restored = dequantize_tensor(quantized)
    np.testing.assert_allclose(restored, weights, rtol=1e-5)


@settings(max_examples=40, deadline=None)
@given(weights=_weights(min_cols=2))
def test_int4_saturates_at_plus_minus_7(weights):
    quantized = quantize_tensor(weights, bits=4)
    assert quantized.values.max(initial=0) <= 7
    assert quantized.values.min(initial=0) >= -7
    # The channel maximum itself must hit the saturation code (unless dead).
    flat = np.abs(weights.reshape(weights.shape[0], -1))
    for channel in range(weights.shape[0]):
        if flat[channel].max() > 7 * np.finfo(np.float32).tiny:
            assert np.abs(quantized.values[channel]).max() == 7


@settings(max_examples=40, deadline=None)
@given(codes=hnp.arrays(dtype=np.int32,
                        shape=st.tuples(st.integers(1, 3), st.integers(1, 8)),
                        elements=st.integers(-32767, 32767)),
       scale_exp=st.integers(-10, 10))
def test_bits16_round_trip_exact_on_representable_grid(codes, scale_exp):
    """bits=16: weights that *are* code * pow2-scale points round-trip exactly
    (the grid is exactly representable in float32, so no information is lost)."""
    scale = np.float32(2.0 ** scale_exp)
    # Pin each channel's max to the saturation code so the derived scale is
    # exactly the one the grid was built with.
    codes[:, 0] = 32767
    weights = (codes.astype(np.float32) * scale).astype(np.float32)
    quantized = quantize_tensor(weights, bits=16)
    np.testing.assert_array_equal(quantized.scales,
                                  np.full(codes.shape[0], scale, np.float32))
    np.testing.assert_array_equal(quantized.values, codes)
    np.testing.assert_array_equal(dequantize_tensor(quantized), weights)


@settings(max_examples=40, deadline=None)
@given(weights=_weights(max_channels=3, max_cols=12),
       mask=hnp.arrays(dtype=np.bool_, shape=st.tuples(st.integers(1, 3),
                                                       st.integers(1, 12)),
                       elements=st.booleans()),
       bits=st.sampled_from([4, 8, 16]))
def test_sparse_storage_bytes_bounded_by_mask_nnz(weights, mask, bits):
    """storage_bytes(count_zeros=False) counts exactly the nonzero codes —
    never more than the pruning mask's nnz (rounding can only add zeros)."""
    if mask.shape != weights.shape:
        mask = np.resize(mask, weights.shape)
    masked = weights * mask
    quantized = quantize_tensor(masked, bits=bits)
    nnz_codes = int(np.count_nonzero(quantized.values))
    assert nnz_codes <= int(np.count_nonzero(masked))
    expected = nnz_codes * bits / 8.0 + quantized.scales.size * 4.0
    assert quantized.storage_bytes(count_zeros=False) == expected
    assert (quantized.storage_bytes(count_zeros=True)
            == quantized.num_values * bits / 8.0 + quantized.scales.size * 4.0)
