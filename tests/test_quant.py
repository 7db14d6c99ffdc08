import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anamac.quant import (
    INPUT_MAX,
    OUTPUT_MAX,
    OUTPUT_MIN,
    WEIGHT_MAX,
    NonFiniteInput,
    QuantSpec,
    dequantize_outputs,
    input_scale_for,
    quantize_inputs,
    quantize_weights,
    round_half_away,
    to_fixed,
    weight_scale_for,
)


def test_domain_constants():
    assert INPUT_MAX == 31
    assert WEIGHT_MAX == 63
    assert (OUTPUT_MIN, OUTPUT_MAX) == (-128, 127)


def test_round_half_away_ties():
    vals = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    assert np.array_equal(round_half_away(vals), [-3, -2, -1, 1, 2, 3])


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e4, 1e4))
def test_round_half_away_symmetry(v):
    assert round_half_away(np.array([-v]))[0] == -round_half_away(np.array([v]))[0]


def _round_half_away_reference(v):
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


_ROUNDING_EDGES = [
    0.5, 1.5, 2.5, 0.0, 0.49999999999999994, 2.0**52 - 0.5, 2.0**52 + 1, 1e300,
    np.finfo(np.float64).max, np.inf, np.nan,
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8))
def test_round_half_away_equals_the_sign_floor_formula(values):
    v = np.array(values + _ROUNDING_EDGES + [-e for e in _ROUNDING_EDGES], dtype=np.float64)
    assert np.array_equal(round_half_away(v), _round_half_away_reference(v), equal_nan=True)


_FIXED_FORMATS = [  # inputs, signed and unsigned weights, ADC outputs
    (0, INPUT_MAX, np.uint8),
    (-WEIGHT_MAX, WEIGHT_MAX, np.int8),
    (0, WEIGHT_MAX, np.int8),
    (OUTPUT_MIN, OUTPUT_MAX, np.int8),
]
_FIXED_EDGES = [0.5, 1.5, 2.5, 31.5, 63.5, 127.5, 128.5, 0.0, 0.49999999999999994, np.inf]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16),
    st.sampled_from(_FIXED_FORMATS),
)
def test_to_fixed_is_round_clamp_cast(values, fmt):
    """Ties, +-0 and +-inf included; NaN is left out because its integer cast is undefined."""
    lo, hi, dtype = fmt
    v = np.array(values + _FIXED_EDGES + [-e for e in _FIXED_EDGES], dtype=np.float64)
    before = v.copy()
    q = to_fixed(v, lo, hi, dtype)
    assert q.dtype == dtype
    assert np.array_equal(q, np.clip(round_half_away(v), lo, hi).astype(dtype))
    assert np.array_equal(v, before) and np.array_equal(np.signbit(v), np.signbit(before))


def test_quantizers_leave_their_input_unchanged():
    spec = QuantSpec(input_scale=0.3, weight_scale=0.2)
    x = np.array([-1.0, 0.15, 0.45, 2.0, 40.0])
    before = x.copy()
    quantize_inputs(x, spec)
    quantize_weights(x, spec)
    assert np.array_equal(x, before)


def test_quantizers_accept_0d_input():
    spec = QuantSpec(input_scale=0.5, weight_scale=0.5, signed_weights=True)
    for value in (3.4, np.float32(-3.4), np.array(7.25)):
        qx, qw = quantize_inputs(value, spec), quantize_weights(value, spec)
        vx, vw = quantize_inputs(np.array([value]), spec), quantize_weights(np.array([value]), spec)
        assert np.ndim(qx) == 0 and np.ndim(qw) == 0
        assert (qx.dtype, qw.dtype) == (np.uint8, np.int8)
        assert (qx, qw) == (vx[0], vw[0])


def test_quotient_overflow_clips_to_the_rail():
    """A finite operand whose quotient by a tiny scale overflows still saturates."""
    spec = QuantSpec(input_scale=1e-300, weight_scale=1e-300)
    big = np.array([1e300, -1e300, 1.0])
    with np.errstate(over="ignore"):
        assert np.array_equal(quantize_inputs(big, spec), [INPUT_MAX, 0, INPUT_MAX])
        assert np.array_equal(quantize_weights(big, spec), [WEIGHT_MAX, -WEIGHT_MAX, WEIGHT_MAX])


def test_quantize_inputs_clamps_to_u5():
    spec = QuantSpec()
    q = quantize_inputs(np.array([-5.0, 0.0, 14.5, 31.4, 99.0]), spec)
    assert q.dtype == np.uint8
    assert np.array_equal(q, [0, 0, 15, 31, 31])


def test_quantize_weights_signed_and_unsigned():
    w = np.array([-80.0, -1.5, 0.0, 1.5, 80.0])
    signed = quantize_weights(w, QuantSpec(signed_weights=True))
    unsigned = quantize_weights(w, QuantSpec(signed_weights=False))
    assert np.array_equal(signed, [-63, -2, 0, 2, 63])
    assert np.array_equal(unsigned, [0, 0, 0, 2, 63])


def test_nonfinite_rejected():
    spec = QuantSpec()
    with pytest.raises(NonFiniteInput):
        quantize_inputs(np.array([np.nan]), spec)
    with pytest.raises(NonFiniteInput):
        quantize_weights(np.array([np.inf]), spec)


def test_spec_validates_scales():
    with pytest.raises(ValueError):
        QuantSpec(input_scale=0.0)
    with pytest.raises(ValueError):
        QuantSpec(weight_scale=-1.0)
    with pytest.raises(ValueError):
        QuantSpec(output_scale=np.nan)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.5, 100.0, width=32, allow_subnormal=False), min_size=1, max_size=30),
    st.floats(0.05, 10.0),
)
def test_dequantize_inverts_scaling(values, scale):
    """dequantize(q) == q * output_scale exactly in f32."""
    spec = QuantSpec(output_scale=scale)
    q = np.clip(np.array(values), OUTPUT_MIN, OUTPUT_MAX).astype(np.int8)
    y = dequantize_outputs(q, spec)
    assert y.dtype == np.float32
    assert np.array_equal(y, q.astype(np.float32) * np.float32(scale))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50, width=32, allow_subnormal=False), min_size=1, max_size=64))
def test_calibrated_scales_use_full_range(values):
    """With calibrated scales the extreme element maps to the domain edge."""
    x = np.abs(np.array(values, dtype=np.float32))
    w = np.array(values, dtype=np.float32)
    if x.max() > 0:
        q = quantize_inputs(x, QuantSpec(input_scale=input_scale_for(x)))
        assert q.max() == INPUT_MAX
    if np.abs(w).max() > 0:
        qw = quantize_weights(w, QuantSpec(weight_scale=weight_scale_for(w)))
        assert np.abs(qw.astype(np.int32)).max() == WEIGHT_MAX


def test_zero_data_scale_defaults_to_one():
    assert input_scale_for(np.zeros(4)) == 1.0
    assert weight_scale_for(np.zeros(4)) == 1.0
