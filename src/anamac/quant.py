"""Conversion between framework-range floats and the chip's fixed-point domains.

Inputs are 5-bit unsigned (0..31), weights 6-bit plus sign (-63..63, or 0..63
when unsigned), outputs 8-bit signed (-128..127). Rounding is half away from
zero so positive and negative weights are treated symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INPUT_MAX = 31
WEIGHT_MAX = 63
OUTPUT_MIN = -128
OUTPUT_MAX = 127

# Elements per block of the float-to-fixed conversion, so that its two float64
# buffers (256 KiB each) stay in the L2 cache. On 2048x2048 float32 weights
# (one BLAS thread, 2 MiB L2 per core) 2**15 ran fastest of 2**12 to 2**17.
_BLOCK = 2**15


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

    The same result as ``round_half_away``, clip and cast, computed in the same
    dtype (float64 when dividing by ``scale``) in fewer passes: clip first, which
    is exact because rounding is monotone and the rails are integers; then add
    0.5 away from zero (plain 0.5 when ``lo >= 0``, where every clipped value is
    non-negative) and let the integer cast truncate the result, which lies in
    [lo - 0.5, hi + 0.5]. Only block-sized buffers are allocated next to the
    result, whose memory layout follows ``values`` as a ufunc's would. When
    dividing by ``scale``, each block is checked to be finite before the
    division (a finite value whose quotient overflows still clips to the rail);
    a NaN or infinity raises a bare ``NonFiniteInput`` that the quantizers
    re-raise with their message.
    """
    out = np.empty_like(values, dtype=dtype)
    n = min(values.size, _BLOCK)
    rounded = np.empty(n, np.float64 if scale is not None else np.result_type(values, 0.5))
    finite = np.empty(n, np.bool_) if scale is not None else None
    half = np.empty(n, rounded.dtype) if lo < 0 else None
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
                if not np.isfinite(src, out=finite[:k]).all():
                    raise NonFiniteInput
                r[...] = src
                np.divide(r, scale, out=r)
                np.clip(r, lo, hi, out=r)
            else:
                np.clip(src, lo, hi, out=r, dtype=r.dtype)
            if half is None:
                np.add(r, 0.5, out=r)
            else:
                np.add(r, np.copysign(0.5, r, out=half[:k]), out=r)
            dst[...] = r  # truncates
    return out


def to_fixed(values, lo, hi, dtype) -> np.ndarray:
    """Round half away from zero, clamp to [lo, hi], cast to ``dtype``.

    The one float-to-fixed-point conversion: inputs, weights and both ADC
    models digitise through it. ``values`` is never written to.
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
