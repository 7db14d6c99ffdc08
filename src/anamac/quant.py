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


def to_fixed(values, lo, hi, dtype) -> np.ndarray:
    """Round half away from zero, clamp to [lo, hi], cast to ``dtype``.

    The one float-to-fixed-point conversion: inputs, weights and both ADC
    models digitise through it. ``values`` is never written to.
    """
    r = np.asarray(round_half_away(values))
    return np.clip(r, lo, hi, out=r).astype(dtype)


def quantize_inputs(x, spec: QuantSpec) -> np.ndarray:
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("inputs contain NaN or infinity")
    return to_fixed(np.divide(x, spec.input_scale, dtype=np.float64), 0, INPUT_MAX, np.uint8)


def quantize_weights(w, spec: QuantSpec) -> np.ndarray:
    w = np.asarray(w)
    if not np.all(np.isfinite(w)):
        raise NonFiniteInput("weights contain NaN or infinity")
    lo = -WEIGHT_MAX if spec.signed_weights else 0
    return to_fixed(np.divide(w, spec.weight_scale, dtype=np.float64), lo, WEIGHT_MAX, np.int8)


def dequantize_outputs(y, spec: QuantSpec) -> np.ndarray:
    y = np.asarray(y)
    if y.dtype != np.int8 and (np.any(y < OUTPUT_MIN) or np.any(y > OUTPUT_MAX)):
        raise ValueError("outputs must lie in [-128, 127]")
    return y.astype(np.float32) * np.float32(spec.output_scale)


def input_scale_for(x) -> float:
    """Convenience calibration: scale = max(|x|) / 31 (1.0 for all-zero data)."""
    m = float(np.max(np.abs(x), initial=0.0))
    return m / INPUT_MAX if m > 0 else 1.0


def weight_scale_for(w) -> float:
    """Convenience calibration: scale = max(|w|) / 63 (1.0 for all-zero data)."""
    m = float(np.max(np.abs(w), initial=0.0))
    return m / WEIGHT_MAX if m > 0 else 1.0
