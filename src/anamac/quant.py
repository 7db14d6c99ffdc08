"""Conversion between framework-range floats and the chip's fixed-point domains.

Inputs are 5-bit unsigned (0..31), weights 6-bit plus sign (-63..63, or 0..63
when unsigned), outputs 8-bit signed (-128..127). Rounding is half away from
zero so positive and negative weights are treated symmetrically.

The conversion runs in the operand's own float type (float64 for integer
operands): float32 operands divide by the scale and round in float32. With 5-
to 8-bit codes, float32 and float64 give different codes only for values
within rounding error of a half-step. The scale is taken in the same type, and
one that rounds to 0 or infinity there raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INPUT_MAX = 31
WEIGHT_MAX = 63
OUTPUT_MIN = -128
OUTPUT_MAX = 127

# Elements per block of the float-to-fixed conversion, so that its work buffer
# (512 KiB in float32) and its bool mask (128 KiB) stay in the L2 cache. On
# 2048x2048 float32 weights (one BLAS thread, 2 MiB L2 per core, 8 alternating
# rounds) 2**17 ran fastest of 2**13 to 2**18: a median best time of 7.3 ms,
# against 8.3 ms at 2**16 and 9.3 ms at 2**15.
_BLOCK = 2**17


class NonFiniteInput(ValueError):
    pass


@dataclass(frozen=True)
class QuantSpec:
    """Per-layer scale factors: float units per least significant bit."""

    input_scale: float = 1.0
    weight_scale: float = 1.0
    output_scale: float = 1.0
    signed_weights: bool = True

    def __post_init__(self):
        for name in ("input_scale", "weight_scale", "output_scale"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be strictly positive and finite, got {v}")


def round_half_away(values: np.ndarray) -> np.ndarray:
    """Round to nearest with ties going away from zero."""
    return np.trunc(values + np.copysign(0.5, values))


def _to_fixed_blocks(values: np.ndarray, lo, hi, dtype, scale=None) -> np.ndarray:
    """``to_fixed(values / scale, lo, hi, dtype)`` one cache-sized block at a time.

    The work buffer has the operand's float type, ``np.result_type(values,
    0.5)``, and ``scale`` is taken in that type too: a scale that rounds to 0
    or infinity there raises ``ValueError``.

    The result equals ``round_half_away``, clip and cast in that type, in
    fewer passes: clip first, which is exact because rounding is monotone and
    the rails are integers; then add 0.5, subtract 1 where the value is
    negative (only when ``lo < 0``) and let the integer cast truncate the
    result, which lies in [lo - 0.5, hi + 0.5]. For r <= -0.25, ``r + 0.5`` is
    exact, so ``r + 0.5 - 1`` rounds once, as ``r - 0.5`` does; for
    -0.25 < r < 0 both lie in [-0.75, -0.5] and truncate to 0. Only
    block-sized buffers are allocated next to the result, whose memory layout
    follows ``values`` as a ufunc's would. When dividing by ``scale``, each
    block is checked to be finite before the division (a finite value whose
    quotient overflows still clips to the rail); a NaN or infinity raises a
    bare ``NonFiniteInput`` that the quantizers re-raise with their message.
    """
    out = np.empty_like(values, dtype=dtype)
    n = min(values.size, _BLOCK)
    rounded = np.empty(n, np.result_type(values, 0.5))
    mask = np.empty(n, np.bool_)
    if scale is not None:
        with np.errstate(over="ignore"):
            s = rounded.dtype.type(scale)
        if not 0 < s < np.inf:
            raise ValueError(f"scale {scale!r} rounds to {s} in {rounded.dtype}")
    with np.nditer(
        [values, out],
        flags=["external_loop", "buffered", "zerosize_ok"],
        op_flags=[["readonly"], ["writeonly"]],
        buffersize=_BLOCK,
    ) as blocks:
        for src, dst in blocks:
            k = src.shape[0]
            r = rounded[:k]
            if scale is not None:
                if not np.isfinite(src, out=mask[:k]).all():
                    raise NonFiniteInput
                np.divide(src, s, out=r)
                np.clip(r, lo, hi, out=r)
            else:
                np.clip(src, lo, hi, out=r, dtype=r.dtype)
            neg = np.less(r, 0, out=mask[:k]) if lo < 0 else None
            np.add(r, 0.5, out=r)
            if neg is not None:
                np.subtract(r, neg, out=r)
            dst[...] = r  # truncates
    return out


def to_fixed(values, lo, hi, dtype) -> np.ndarray:
    """Round half away from zero, clamp to [lo, hi], cast to ``dtype``.

    The one float-to-fixed-point conversion: inputs, weights and both ADC
    models digitise through it. It runs in the operand's float type (float64
    for integer operands), in which it equals ``round_half_away``, clip and
    cast byte for byte. ``values`` is never written to.
    """
    return _to_fixed_blocks(np.asarray(values), lo, hi, dtype)


def quantize_inputs(x, spec: QuantSpec) -> np.ndarray:
    try:
        return _to_fixed_blocks(np.asarray(x), 0, INPUT_MAX, np.uint8, spec.input_scale)
    except NonFiniteInput:
        raise NonFiniteInput("inputs contain NaN or infinity") from None


def quantize_weights(w, spec: QuantSpec) -> np.ndarray:
    lo = -WEIGHT_MAX if spec.signed_weights else 0
    try:
        return _to_fixed_blocks(np.asarray(w), lo, WEIGHT_MAX, np.int8, spec.weight_scale)
    except NonFiniteInput:
        raise NonFiniteInput("weights contain NaN or infinity") from None


def dequantize_outputs(y, spec: QuantSpec) -> np.ndarray:
    y = np.asarray(y)
    if y.dtype != np.int8 and (np.any(y < OUTPUT_MIN) or np.any(y > OUTPUT_MAX)):
        raise ValueError("outputs must lie in [-128, 127]")
    return y.astype(np.float32) * np.float32(spec.output_scale)


def _max_abs(a) -> float:
    """max(|a|) without an |a| copy; float before negating, so int8 -128 gives 128."""
    a = np.asarray(a)
    return max(float(a.max(initial=0)), -float(a.min(initial=0)))


def input_scale_for(x) -> float:
    """Convenience calibration: scale = max(|x|) / 31 (1.0 for all-zero or NaN data)."""
    m = _max_abs(x)
    return m / INPUT_MAX if m > 0 else 1.0


def weight_scale_for(w) -> float:
    """Convenience calibration: scale = max(|w|) / 63 (1.0 for all-zero or NaN data)."""
    m = _max_abs(w)
    return m / WEIGHT_MAX if m > 0 else 1.0
