"""Behavioral model of one analog multiply-accumulate chip.

A chip carries two synapse arrays of 256 rows by 256 columns, each feeding 256
neurons. The analog path is modeled as an exact integer product distorted by

  * multiplicative fixed-pattern gain per synapse (static per chip seed),
  * an additive per-neuron offset (static per chip seed),
  * additive temporal noise per run, scaled down by sqrt(num_sends).

With all sigmas at zero and unit gain the model collapses to the exact
saturating integer matmul, which the oracle tests rely on.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .quant import INPUT_MAX, OUTPUT_MAX, OUTPUT_MIN, WEIGHT_MAX, to_fixed

ROWS = 256
COLS = 256
SIGNED_ROWS = ROWS // 2  # signed weights occupy excitatory/inhibitory row pairs
ARRAYS_PER_CHIP = 2
OWNERSHIP_LOG_LEN = 256  # even: entries come in acquire/release pairs


class WeightOutOfRange(ValueError):
    pass


class InputOutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class HwParams:
    """Hardware hyperparameters traded against analog precision.

    num_sends repeats each input; the model averages temporal noise down by
    sqrt(num_sends). wait_between_events spaces input events and only affects
    the timing model, not the numerics.
    """

    num_sends: int = 6
    wait_between_events: int = 25

    def __post_init__(self):
        if self.num_sends < 1 or self.wait_between_events < 1:
            raise ValueError("num_sends and wait_between_events must be >= 1")


@dataclass(frozen=True)
class ChipConfig:
    chip_seed: int = 0
    sigma_fixed: float = 0.02  # std of multiplicative gain around 1.0
    sigma_offset: float = 1.0  # std of per-neuron offset, output LSB
    sigma_temporal: float = 2.0  # per-run noise std at num_sends = 1, output LSB
    gain: float = 1.0 / 64.0  # global analog transfer gain
    hw_version: str = "V2"

    def __post_init__(self):
        if min(self.sigma_fixed, self.sigma_offset, self.sigma_temporal) < 0:
            raise ValueError("noise sigmas must be >= 0")
        if self.hw_version not in ("V1", "V2"):
            raise ValueError("hw_version must be V1 or V2")


def load_chip_config(path) -> ChipConfig:
    """Read a key=value config file (lines starting with # are comments)."""
    values = _read_kv(path)
    kwargs = {}
    for key, cast in (
        ("chip_seed", int),
        ("sigma_fixed", float),
        ("sigma_offset", float),
        ("sigma_temporal", float),
        ("gain", float),
        ("hw_version", str),
    ):
        if key in values:
            kwargs[key] = cast(values[key])
    return ChipConfig(**kwargs)


def _read_kv(path) -> dict:
    text = _config_text(path)
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _config_text(name_or_path) -> str:
    """Bare names (no slash) resolve to packaged configs, else file paths."""
    name = str(name_or_path)
    if "/" not in name:
        from importlib import resources as importlib_resources

        ref = importlib_resources.files("anamac") / "configs" / (
            name if name.endswith(".cfg") else name + ".cfg"
        )
        if ref.is_file():
            return ref.read_text()
    with open(name_or_path) as f:
        return f.read()


class SynapseArray:
    """One 256x256 quantized weight array plus its static noise state.

    Exclusive-access: one configure or MAC at a time (guarded by ``lock``).
    The fixed-pattern state is a deterministic function of
    (chip_seed, array_index); re-seeding reproduces it bit-exactly.
    """

    def __init__(self, config: ChipConfig, array_index: int):
        self.config = config
        self.array_index = array_index
        self.weights = np.zeros((ROWS, COLS), dtype=np.int8)
        gain_rng = np.random.default_rng([config.chip_seed, array_index, 0])
        offs_rng = np.random.default_rng([config.chip_seed, array_index, 1])
        self.fixed_gain = (
            1.0 + config.sigma_fixed * gain_rng.standard_normal((ROWS, COLS))
        ).astype(np.float64)
        self.neuron_offset = (
            config.sigma_offset * offs_rng.standard_normal(COLS)
        ).astype(np.float64)
        self.lock = threading.Lock()
        # the latest (event, holder) entries, for tests; bounded for long runs
        self.ownership_log: deque = deque(maxlen=OWNERSHIP_LOG_LEN)

    def configure(self, weights: np.ndarray) -> None:
        """Write the full physical array; unused regions must be passed as 0."""
        weights = np.asarray(weights)
        if weights.shape != (ROWS, COLS):
            raise WeightOutOfRange(f"expected full {ROWS}x{COLS} weight array, got {weights.shape}")
        if np.abs(weights.astype(np.int32)).max(initial=0) > WEIGHT_MAX:
            raise WeightOutOfRange(f"weights must lie in [-{WEIGHT_MAX}, {WEIGHT_MAX}]")
        self.weights = weights.astype(np.int8)

    def mac(
        self, x: np.ndarray, params: HwParams, rng: np.random.Generator, cols: int = COLS
    ) -> np.ndarray:
        """Analog multiply-accumulate of one input vector or a (batch, 256) block.

        y = clamp(round(g * x @ (W * fixed_gain) + offset + noise), -128, 127)

        Only the first ``cols`` neurons are digitised: the simulator computes
        and draws temporal noise for the columns a tile uses, and returns 0 for
        columns >= ``cols``. The result keeps the full 256-column width.
        """
        x = np.asarray(x)
        single = x.ndim == 1
        x2 = np.atleast_2d(x)
        if x2.shape[1] != ROWS:
            raise InputOutOfRange(f"input width {x2.shape[1]}, expected {ROWS}")
        if x2.dtype != np.uint8 or x2.max(initial=0) > INPUT_MAX:
            raise InputOutOfRange(f"inputs must be u8 in [0, {INPUT_MAX}]")
        if not 1 <= cols <= COLS:
            raise ValueError(f"cols must lie in [1, {COLS}], got {cols}")

        effective = self.weights[:, :cols] * self.fixed_gain[:, :cols]
        acc = x2.astype(np.float64) @ effective
        sigma = self.config.sigma_temporal / math.sqrt(params.num_sends)
        noise = sigma * rng.standard_normal(acc.shape) if sigma > 0 else 0.0
        analog = self.config.gain * acc + self.neuron_offset[:cols] + noise
        out = np.zeros((x2.shape[0], COLS), dtype=np.int8)
        out[:, :cols] = to_fixed(analog, OUTPUT_MIN, OUTPUT_MAX, np.int8)
        return out[0] if single else out

    def acquire(self, holder) -> None:
        self.lock.acquire()
        self.ownership_log.append(("acquire", holder))

    def release(self, holder) -> None:
        self.ownership_log.append(("release", holder))
        self.lock.release()


def signed_row_pairs(weights_signed: np.ndarray) -> np.ndarray:
    """Map 128 signed logical rows onto 256 physical excitatory/inhibitory rows.

    Physical row 2r carries max(w_r, 0), row 2r+1 carries min(w_r, 0), so a MAC
    over the pair with the input duplicated equals the signed product.
    """
    w = np.asarray(weights_signed)
    if w.ndim != 2 or w.shape[0] > SIGNED_ROWS or w.shape[1] > COLS:
        raise WeightOutOfRange(
            f"signed block must be at most {SIGNED_ROWS}x{COLS}, got {w.shape}"
        )
    if np.abs(w.astype(np.int32)).max(initial=0) > WEIGHT_MAX:
        raise WeightOutOfRange(f"weights must lie in [-{WEIGHT_MAX}, {WEIGHT_MAX}]")
    paired = np.zeros((2 * w.shape[0], w.shape[1]), dtype=np.int8)
    paired[0::2] = np.maximum(w, 0)
    paired[1::2] = np.minimum(w, 0)
    return paired


def duplicate_signed_inputs(x: np.ndarray) -> np.ndarray:
    """Repeat each input entry across its excitatory/inhibitory row pair."""
    return np.repeat(np.asarray(x), 2, axis=-1)


@dataclass
class Chip:
    """One chip: two independently calibrated synapse arrays."""

    index: int
    config: ChipConfig
    arrays: list = field(default_factory=list)

    def __post_init__(self):
        if not self.arrays:
            self.arrays = [
                SynapseArray(self.config, self.index * ARRAYS_PER_CHIP + a)
                for a in range(ARRAYS_PER_CHIP)
            ]
