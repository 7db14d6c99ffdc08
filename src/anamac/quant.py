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


@dataclass(frozen=True)
class QuantizedOperands:
    inputs: np.ndarray  # u8, values <= INPUT_MAX
    weights: np.ndarray  # i8, |values| <= WEIGHT_MAX
    spec: QuantSpec

    def __post_init__(self):
        x = np.asarray(self.inputs)
        w = np.asarray(self.weights)
        if x.dtype != np.uint8 or x.max(initial=0) > INPUT_MAX:
            raise ValueError("inputs must be u8 in [0, 31]")
        if w.dtype != np.int8 or np.abs(w.astype(np.int32)).max(initial=0) > WEIGHT_MAX:
            raise ValueError("weights must be i8 in [-63, 63]")
        if not self.spec.signed_weights and w.min(initial=0) < 0:
            raise ValueError("unsigned weights must be non-negative")


def round_half_away(values: np.ndarray) -> np.ndarray:
    """Round to nearest with ties going away from zero."""
    return np.trunc(values + np.copysign(0.5, values))


def quantize_inputs(x, spec: QuantSpec) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("inputs contain NaN or infinity")
    q = round_half_away(x / spec.input_scale)
    return np.clip(q, 0, INPUT_MAX).astype(np.uint8)


def quantize_weights(w, spec: QuantSpec) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NonFiniteInput("weights contain NaN or infinity")
    q = round_half_away(w / spec.weight_scale)
    lo = -WEIGHT_MAX if spec.signed_weights else 0
    return np.clip(q, lo, WEIGHT_MAX).astype(np.int8)


def dequantize_outputs(y, spec: QuantSpec) -> np.ndarray:
    y = np.asarray(y)
    if y.dtype == np.int8:
        pass
    elif np.any(y < OUTPUT_MIN) or np.any(y > OUTPUT_MAX):
        raise ValueError("outputs must lie in [-128, 127]")
    return (y.astype(np.float32) * np.float32(spec.output_scale)).astype(np.float32)


def input_scale_for(x) -> float:
    """Convenience calibration: scale = max(|x|) / 31 (1.0 for all-zero data)."""
    m = float(np.max(np.abs(x), initial=0.0))
    return m / INPUT_MAX if m > 0 else 1.0


def weight_scale_for(w) -> float:
    """Convenience calibration: scale = max(|w|) / 63 (1.0 for all-zero data)."""
    m = float(np.max(np.abs(w), initial=0.0))
    return m / WEIGHT_MAX if m > 0 else 1.0
