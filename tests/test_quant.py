import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anamac.quant import (
    INPUT_MAX,
    OUTPUT_MAX,
    OUTPUT_MIN,
    WEIGHT_MAX,
    _BLOCK,
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
_FIXED_EDGES = [
    0.5, 1.5, 2.5, 31.5, 63.5, 127.5, 128.5, 0.0, 0.49999999999999994, 0.4999999701976776, np.inf,
]


# None keeps the drawn values as they are; the lengths straddle the block edges
_FIXED_SHAPES = [None, (), 0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


def _argument(values, shape, dtype):
    """The drawn values tiled to ``shape`` (() takes the first) in ``dtype``."""
    v = values if shape is None else np.resize(values, shape)
    if np.dtype(dtype).kind == "i":
        return np.trunc(np.clip(v, -128, 127)).astype(dtype)
    with np.errstate(over="ignore"):  # the float32 cast takes huge values to inf
        return v.astype(dtype)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16),
    st.sampled_from(_FIXED_FORMATS),
    st.sampled_from(_FIXED_SHAPES),
    st.sampled_from([np.float64, np.float32, np.int8]),
)
def test_to_fixed_is_round_clamp_cast(values, fmt, shape, arg_dtype):
    """Ties, +-0 and +-inf included; NaN is left out because its integer cast is undefined."""
    lo, hi, dtype = fmt
    v = np.array(values + _FIXED_EDGES + [-e for e in _FIXED_EDGES], dtype=np.float64)
    v = _argument(v, shape, arg_dtype)
    before = v.copy()
    q = to_fixed(v, lo, hi, dtype)
    expected = np.clip(round_half_away(v), lo, hi).astype(dtype)
    assert q.dtype == dtype and q.shape == v.shape
    assert q.tobytes() == expected.tobytes()
    assert np.array_equal(v, before) and np.array_equal(np.signbit(v), np.signbit(before))


# every tie from -129.5 to 129.5 (among them +-62.5, +-63.5, 30.5, 31.5, 126.5,
# 127.5 and -128.5 at the rails), signed zeros, negatives below the unsigned
# domains' 0 rail, and values that overflow a float32 argument
_CHAIN_EDGES = np.array(
    [k + 0.5 for k in range(-130, 130)]
    + [0.0, -0.0, -0.25, -0.5, -0.75, -31.5, 0.49999999999999994, 0.4999999701976776, 1e300, -1e300]
)


@pytest.mark.parametrize("fmt", _FIXED_FORMATS)
@pytest.mark.parametrize("arg_dtype", [np.float64, np.float32, np.int8])
def test_to_fixed_chain_edges(fmt, arg_dtype):
    """Clip, add 0.5 away from zero, truncating cast: the bytes of round, clip, cast."""
    lo, hi, dtype = fmt
    v = _argument(np.concatenate([_CHAIN_EDGES, [np.inf, -np.inf]]), None, arg_dtype)
    expected = np.clip(round_half_away(v), lo, hi).astype(dtype)
    assert to_fixed(v, lo, hi, dtype).tobytes() == expected.tobytes()


def _reference_quantize(a, scale, lo, hi, dtype):
    """Divide in the operand's float type (float64 for float64 and integer operands), round, clip, cast."""
    quotient = np.divide(a, scale, dtype=np.result_type(a, 0.5))
    return np.clip(round_half_away(quotient), lo, hi).astype(dtype)


_rng = np.random.default_rng(7)
_QUANTIZER_INPUTS = {
    "block-crossing": (_rng.standard_normal((67, 1001)) * 40).astype(np.float32),
    "transposed": (_rng.standard_normal((300, 250)) * 40).T,
    "strided-transposed": (_rng.standard_normal((130, 777)) * 40)[:, ::3].T,
    "0-d": np.array(-7.25),
    "quotient-overflow": np.array([1e300, -1e300, 1.0, -0.0]),
}


@pytest.mark.parametrize("name", list(_QUANTIZER_INPUTS))
def test_quantizers_equal_the_reference_in_the_operands_type(name):
    a = _QUANTIZER_INPUTS[name]
    scale = 1e-300 if name == "quotient-overflow" else 0.37
    with np.errstate(over="ignore"):
        for signed in (True, False):
            spec = QuantSpec(input_scale=scale, weight_scale=scale, signed_weights=signed)
            lo = -WEIGHT_MAX if signed else 0
            cases = [
                (quantize_inputs(a, spec), _reference_quantize(a, scale, 0, INPUT_MAX, np.uint8)),
                (quantize_weights(a, spec), _reference_quantize(a, scale, lo, WEIGHT_MAX, np.int8)),
            ]
            for q, expected in cases:
                assert (q.dtype, q.shape, q.strides) == (expected.dtype, expected.shape, expected.strides)
                assert q.tobytes() == expected.tobytes()
    if a.size > 1:
        bad = a.copy()
        bad.flat[-1] = np.nan
        with pytest.raises(NonFiniteInput):
            quantize_inputs(bad, QuantSpec())
        with pytest.raises(NonFiniteInput):
            quantize_weights(bad, QuantSpec())


@pytest.mark.parametrize("arg_dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "scale",
    # 0.25 and 2**-120 give exact quotients, so ties stay ties; float32 cannot hold 1e-300 or 1e39
    [0.25, pytest.param(2.0**-120, id="2**-120"), 1e-300, 1e39],
)
def test_quantizers_at_the_chain_edges(arg_dtype, scale):
    """The largest finite operand is appended: its quotient overflows and clips to the rail."""
    with np.errstate(over="ignore", under="ignore"):
        a = (_CHAIN_EDGES * scale).astype(arg_dtype)
        a = a[np.isfinite(a)]  # +-1e300 overflow a float32 argument
        big = np.finfo(arg_dtype).max
        a = np.concatenate([a, [big, -big]]).astype(arg_dtype)
        if not 0 < arg_dtype(scale) < np.inf:
            spec = QuantSpec(input_scale=scale, weight_scale=scale)
            message = f"^scale {re.escape(repr(scale))} rounds to (0.0|inf) in float32$"
            with pytest.raises(ValueError, match=message):
                quantize_inputs(a, spec)
            with pytest.raises(ValueError, match=message):
                quantize_weights(a, spec)
            return
        for signed in (True, False):
            spec = QuantSpec(input_scale=scale, weight_scale=scale, signed_weights=signed)
            lo = -WEIGHT_MAX if signed else 0
            expected_x = _reference_quantize(a, scale, 0, INPUT_MAX, np.uint8)
            expected_w = _reference_quantize(a, scale, lo, WEIGHT_MAX, np.int8)
            assert quantize_inputs(a, spec).tobytes() == expected_x.tobytes()
            assert quantize_weights(a, spec).tobytes() == expected_w.tobytes()


def _codes_digest(conversion, arg_dtype) -> str:
    """SHA-256 prefix of the codes of the edge lists and a seeded draw, in every format."""
    v = np.concatenate([
        _CHAIN_EDGES, _FIXED_EDGES, np.negative(_FIXED_EDGES),
        np.random.default_rng(11).standard_normal(3000) * 40,
    ])
    h = hashlib.sha256()
    with np.errstate(over="ignore"):
        if conversion == "to_fixed":
            a = _argument(v, None, arg_dtype)
            for lo, hi, dtype in _FIXED_FORMATS:
                h.update(to_fixed(a, lo, hi, dtype).tobytes())
            return h.hexdigest()[:16]
        v = v[np.isfinite(v)]
        for scale, operand in ((0.25, v * 0.25), (0.37, v * 0.37), (1e-300, v)):
            a = _argument(operand, None, arg_dtype)
            for signed in (True, False):
                spec = QuantSpec(input_scale=scale, weight_scale=scale, signed_weights=signed)
                h.update(quantize_inputs(a, spec).tobytes())
                h.update(quantize_weights(a, spec).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "conversion, arg_dtype, golden",
    [
        ("to_fixed", np.float32, "729c663be1c7e289"),
        ("to_fixed", np.float64, "90f980b3afbf2441"),
        ("quantizers", np.float64, "a7e5bee4b9f0ddbc"),
        ("quantizers", np.int8, "75ac7d07e5b9f0d5"),
    ],
)
def test_conversions_outside_float32_division_keep_their_bytes(conversion, arg_dtype, golden):
    """Every conversion that divides no float32 operand keeps these golden bytes."""
    assert _codes_digest(conversion, arg_dtype) == golden


def _traced_peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quantization_builds_no_full_size_temporary():
    """1024x1024 float32 weights: a full-size float64 copy alone would be 8 MB.

    Next to the 1 MiB int8 result, the float32 work buffer and the bool mask
    take 5 bytes per block element; float64 buffers would take 9 and fail.
    """
    w = np.random.default_rng(3).standard_normal((1024, 1024)).astype(np.float32)
    spec = QuantSpec(weight_scale=weight_scale_for(w))
    assert _traced_peak_bytes(quantize_weights, w, spec) < 2**20 + 7 * _BLOCK
    assert _traced_peak_bytes(weight_scale_for, w) < 2**20


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "last"])
def test_nonfinite_found_in_the_first_and_the_last_block(bad, where):
    """The finite check runs per conversion block, the last one 3 elements long."""
    a = np.ones(2 * _BLOCK + 3, dtype=np.float32)
    a[0 if where == "first" else -1] = bad
    with pytest.raises(NonFiniteInput, match="^inputs contain NaN or infinity$"):
        quantize_inputs(a, QuantSpec())
    with pytest.raises(NonFiniteInput, match="^weights contain NaN or infinity$"):
        quantize_weights(a, QuantSpec())


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
    assert input_scale_for(np.array([np.nan, 2.0])) == 1.0
    assert weight_scale_for(np.array([1.0, np.nan])) == 1.0


@pytest.mark.parametrize(
    "data, max_abs",
    [
        (np.array([-3.0, 2.0]), 3.0),
        (np.array([0.5, -0.25], dtype=np.float32), 0.5),
        (np.array([[1, 200]], dtype=np.uint8), 200.0),
        (np.array([-128, 1], dtype=np.int8), 128.0),  # -128 has no int8 absolute value
    ],
)
def test_calibrated_scale_is_max_abs_over_the_domain_max(data, max_abs):
    assert input_scale_for(data) == max_abs / INPUT_MAX
    assert weight_scale_for(data) == max_abs / WEIGHT_MAX
