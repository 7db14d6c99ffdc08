"""Behavioral model of one analog multiply-accumulate chip.

A chip carries two synapse arrays of 256 rows by 256 columns, each feeding 256
neurons. The analog path is modeled as an exact integer product distorted by

  * multiplicative fixed-pattern gain per synapse (static per chip seed),
  * an additive per-neuron offset (static per chip seed),
  * additive temporal noise per run, scaled down by sqrt(num_sends).

Signed weights occupy excitatory/inhibitory row pairs; the array maps a signed
block onto its pairs itself. With all sigmas at zero and unit gain the model
collapses to the exact saturating integer matmul, which the oracle tests rely on.
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
        self.rows, self.cols, self.signed = ROWS, COLS, False
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

    def configure(self, block: np.ndarray, signed: bool = False) -> None:
        """Write an integer block of logical weights into the zeroed array.

        Unsigned: up to 256x256 weights in [0, 63]. Signed: up to 128x256
        weights in [-63, 63], logical row r on the physical pair 2r, 2r+1.
        The block's shape sets the live rows and columns for the next ``mac``;
        ``weights`` keeps the block in its top-left corner.
        """
        block = np.asarray(block)
        max_rows = SIGNED_ROWS if signed else ROWS
        if block.ndim != 2 or not (1 <= block.shape[0] <= max_rows and 1 <= block.shape[1] <= COLS):
            raise WeightOutOfRange(f"block must be 1x1 up to {max_rows}x{COLS}, got {block.shape}")
        if block.dtype.kind not in "iu" or block.min() < -WEIGHT_MAX or block.max() > WEIGHT_MAX:
            raise WeightOutOfRange(f"weights must lie in [-{WEIGHT_MAX}, {WEIGHT_MAX}]")
        if not signed and block.min() < 0:
            raise WeightOutOfRange(f"unsigned weights must lie in [0, {WEIGHT_MAX}]")
        self.rows, self.cols = block.shape
        self.signed = signed
        self.weights.fill(0)
        self.weights[: self.rows, : self.cols] = block

    @property
    def physical_rows(self) -> int:
        """Synapse rows the configured block occupies: two per signed row."""
        return 2 * self.rows if self.signed else self.rows

    def mac(self, x: np.ndarray, params: HwParams, rng: np.random.Generator) -> np.ndarray:
        """Analog multiply-accumulate of one input vector or a (batch, rows) block.

        y = clamp(round(g * x @ W_eff + offset + noise), -128, 127)

        ``x`` holds integers in [0, 31], one per configured row. W_eff is the
        block times the fixed-pattern gain G of its synapses; a signed block
        folds each row pair into max(w, 0) * G[2r] + min(w, 0) * G[2r + 1],
        the pair's MAC with the input sent to both rows (one term is 0). Only
        the configured columns are digitised and draw temporal noise; the
        result keeps the full 256-column width with 0 in the other columns.
        """
        x = np.asarray(x)
        single = x.ndim == 1
        x2 = np.atleast_2d(x)
        if x2.shape[1] != self.rows:
            raise InputOutOfRange(f"input width {x2.shape[1]}, expected {self.rows}")
        if x2.dtype.kind not in "iu" or x2.min(initial=0) < 0 or x2.max(initial=0) > INPUT_MAX:
            raise InputOutOfRange(f"inputs must be u8 in [0, {INPUT_MAX}]")

        rows, cols = self.rows, self.cols
        w = self.weights[:rows, :cols].astype(np.float64)
        gain = self.fixed_gain[:, :cols]
        if self.signed:  # in place on float64: the fewest temporaries and no int8 casts
            effective = np.maximum(w, 0.0)
            effective *= gain[0 : 2 * rows : 2]
            np.minimum(w, 0.0, out=w)
            w *= gain[1 : 2 * rows : 2]
            effective += w
        else:
            effective = w * gain[:rows]
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
