import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anamac.chip import (
    ARRAYS_PER_CHIP,
    COLS,
    ROWS,
    SIGNED_ROWS,
    Chip,
    ChipConfig,
    HwParams,
    InputOutOfRange,
    SynapseArray,
    WeightOutOfRange,
    duplicate_signed_inputs,
    load_chip_config,
    signed_row_pairs,
)

NOISELESS = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=0.0, gain=1.0)


def test_geometry_constants():
    assert (ROWS, COLS) == (256, 256)
    assert SIGNED_ROWS == 128
    assert ARRAYS_PER_CHIP == 2


def test_noiseless_mac_is_exact_integer_matmul():
    rng = np.random.default_rng(3)
    array = SynapseArray(NOISELESS, 0)
    w = rng.integers(-3, 4, size=(ROWS, COLS)).astype(np.int8)
    x = rng.integers(0, 4, size=(5, ROWS)).astype(np.uint8)
    array.configure(w)
    y = array.mac(x, HwParams(), np.random.default_rng(0))
    ref = np.clip(x.astype(np.int64) @ w.astype(np.int64), -128, 127)
    assert y.dtype == np.int8
    assert np.array_equal(y, ref)


def test_output_saturates_at_i8():
    array = SynapseArray(NOISELESS, 0)
    array.configure(np.full((10, 2), 63, dtype=np.int8))
    x = np.full((1, 10), 31, dtype=np.uint8)
    y = array.mac(x, HwParams(), np.random.default_rng(0))
    assert y[0, 0] == 127
    array.configure(np.full((10, 2), -63, dtype=np.int8))
    y = array.mac(x, HwParams(), np.random.default_rng(0))
    assert y[0, 0] == -128


def test_configure_rejects_bad_weights():
    array = SynapseArray(NOISELESS, 0)
    array.configure(np.ones((ROWS, COLS), dtype=np.int8))
    array.configure(np.full((10, 10), 5, dtype=np.int8))  # a narrow block is zero-padded
    assert (array.rows, array.cols) == (10, 10)
    assert array.weights.shape == (ROWS, COLS) and array.weights.dtype == np.int8
    assert array.weights[:10, :10].all() and array.weights.sum() == 500
    bad = np.zeros((ROWS, COLS), dtype=np.int16)
    bad[0, 0] = 64
    with pytest.raises(WeightOutOfRange):
        array.configure(bad)


@pytest.mark.parametrize(
    "block",
    [
        pytest.param(np.zeros((ROWS, 0), dtype=np.int8), id="empty"),
        pytest.param(np.zeros((ROWS, COLS + 1), dtype=np.int8), id="wider"),
        pytest.param(np.zeros((ROWS + 1, 4), dtype=np.int8), id="taller"),
        pytest.param(np.zeros(4, dtype=np.int8), id="1d"),
        pytest.param(np.ones((4, 4)), id="float"),  # float weights are not truncated
    ],
)
def test_configure_rejects_a_block_the_array_cannot_hold(block):
    array = SynapseArray(NOISELESS, 0)
    with pytest.raises(WeightOutOfRange):
        array.configure(block)


def test_mac_rejects_bad_inputs():
    array = SynapseArray(NOISELESS, 0)
    array.configure(np.zeros((ROWS, COLS), dtype=np.int8))
    with pytest.raises(InputOutOfRange):
        array.mac(np.zeros((1, 100), dtype=np.uint8), HwParams(), np.random.default_rng(0))
    with pytest.raises(InputOutOfRange):
        array.mac(np.full((1, ROWS), 32, dtype=np.uint8), HwParams(), np.random.default_rng(0))


def test_mac_input_width_follows_the_configured_rows():
    array = SynapseArray(NOISELESS, 0)
    array.configure(np.ones((64, 16), dtype=np.int8))
    for width in (ROWS, 63, 65):
        with pytest.raises(InputOutOfRange, match="expected 64"):
            array.mac(np.zeros((1, width), dtype=np.uint8), HwParams(), np.random.default_rng(0))
    y = array.mac(np.ones(64, dtype=np.uint8), HwParams(), np.random.default_rng(0))
    assert y.shape == (COLS,) and (y[:16] == 64).all() and not y[16:].any()


def test_mac_takes_integer_inputs_in_range_only():
    array = SynapseArray(NOISELESS, 0)
    array.configure(np.ones((8, 2), dtype=np.int8))
    y = array.mac(np.full((1, 8), 31, dtype=np.int16), HwParams(), np.random.default_rng(0))
    assert np.array_equal(y[:, :2], [[127, 127]])  # 8 * 31 saturates
    y = array.mac(np.full((1, 8), 2, dtype=np.int64), HwParams(), np.random.default_rng(0))
    assert np.array_equal(y[:, :2], [[16, 16]])
    for bad in (np.full((1, 8), 1.0), np.full((1, 8), -1, dtype=np.int16), np.full((1, 8), 32, np.int16)):
        with pytest.raises(InputOutOfRange, match=r"inputs must be u8 in \[0, 31\]"):
            array.mac(bad, HwParams(), np.random.default_rng(0))


@pytest.mark.parametrize("cols", [1, 16, 255, 256])
def test_live_column_mac_matches_full_width_when_noise_free(cols):
    rng = np.random.default_rng(cols)
    array = SynapseArray(NOISELESS, 0)
    w = np.zeros((ROWS, COLS), dtype=np.int8)
    w[:, :cols] = rng.integers(-3, 4, size=(ROWS, cols))
    x = rng.integers(0, 4, size=(5, ROWS)).astype(np.uint8)
    array.configure(w[:, :cols])
    live = array.mac(x, HwParams(), np.random.default_rng(0))
    array.configure(w)
    full = array.mac(x, HwParams(), np.random.default_rng(0))
    exact = np.clip(x.astype(np.int64) @ w[:, :cols].astype(np.int64), -128, 127)
    assert live.shape == (5, COLS) and live.dtype == np.int8
    assert np.array_equal(live[:, :cols], full[:, :cols])
    assert np.array_equal(live[:, :cols], exact)
    assert not live[:, cols:].any()


def _written_out_mac(array, x, params, rng, cols):
    """The analog model spelled out, temporal noise drawn for ``cols`` columns."""
    cfg = array.config
    acc = x.astype(np.float64) @ (array.weights.astype(np.float64) * array.fixed_gain)[:, :cols]
    noise = cfg.sigma_temporal / np.sqrt(params.num_sends) * rng.standard_normal((x.shape[0], cols))
    v = cfg.gain * acc + array.neuron_offset[:cols] + noise
    return np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5), -128, 127).astype(np.int8)


def test_default_width_mac_keeps_the_noise_stream():
    rng = np.random.default_rng(4)
    array = SynapseArray(ChipConfig(chip_seed=9), 1)
    array.configure(rng.integers(-63, 64, size=(ROWS, COLS)).astype(np.int8))
    x = rng.integers(0, 32, size=(7, ROWS)).astype(np.uint8)
    params = HwParams(num_sends=2)
    y = array.mac(x, params, np.random.default_rng(11))
    assert np.array_equal(y, _written_out_mac(array, x, params, np.random.default_rng(11), COLS))


def test_live_column_mac_draws_noise_for_live_columns_only():
    rng = np.random.default_rng(5)
    array = SynapseArray(ChipConfig(chip_seed=9), 0)
    array.configure(rng.integers(-63, 64, size=(ROWS, 16)).astype(np.int8))
    x = rng.integers(0, 32, size=(7, ROWS)).astype(np.uint8)
    y = array.mac(x, HwParams(), np.random.default_rng(11))
    assert np.array_equal(y[:, :16], _written_out_mac(array, x, HwParams(), np.random.default_rng(11), 16))
    assert not y[:, 16:].any()


def test_short_block_mac_is_the_256_row_product_of_the_padded_input():
    """A noisy 64x16 block runs the same float product as its zero-padded full-array form."""
    rng = np.random.default_rng(6)
    array = SynapseArray(ChipConfig(chip_seed=9), 1)
    array.configure(rng.integers(-63, 64, size=(64, 16)).astype(np.int8))
    x = rng.integers(0, 32, size=(7, 64)).astype(np.uint8)
    padded = np.zeros((7, ROWS), dtype=np.uint8)
    padded[:, :64] = x
    params = HwParams(num_sends=3)
    y = array.mac(x, params, np.random.default_rng(12))
    want = _written_out_mac(array, padded, params, np.random.default_rng(12), 16)
    assert y[:, :16].tobytes() == want.tobytes()
    assert not y[:, 16:].any()


def test_fixed_pattern_noise_is_reproducible_per_seed():
    cfg = ChipConfig(chip_seed=42)
    a1 = SynapseArray(cfg, 0)
    a2 = SynapseArray(cfg, 0)
    b = SynapseArray(cfg, 1)
    other = SynapseArray(ChipConfig(chip_seed=43), 0)
    assert np.array_equal(a1.fixed_gain, a2.fixed_gain)
    assert np.array_equal(a1.neuron_offset, a2.neuron_offset)
    assert not np.array_equal(a1.fixed_gain, b.fixed_gain)
    assert not np.array_equal(a1.fixed_gain, other.fixed_gain)


def test_temporal_noise_varies_per_run_but_follows_the_rng():
    cfg = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=2.0, gain=1.0)
    array = SynapseArray(cfg, 0)
    array.configure(np.zeros((ROWS, COLS), dtype=np.int8))
    x = np.zeros((1, ROWS), dtype=np.uint8)
    y1 = array.mac(x, HwParams(), np.random.default_rng(7))
    y2 = array.mac(x, HwParams(), np.random.default_rng(7))
    y3 = array.mac(x, HwParams(), np.random.default_rng(8))
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)


def test_num_sends_reduces_temporal_noise():
    cfg = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=8.0, gain=1.0)
    array = SynapseArray(cfg, 0)
    array.configure(np.zeros((ROWS, COLS), dtype=np.int8))
    x = np.zeros((4000, ROWS), dtype=np.uint8)
    y1 = array.mac(x, HwParams(num_sends=1), np.random.default_rng(0)).astype(np.float64)
    y6 = array.mac(x, HwParams(num_sends=6), np.random.default_rng(0)).astype(np.float64)
    assert y1.std() > 2.2 * y6.std()  # expect ~sqrt(6) ~ 2.45


def test_signed_row_pairs_layout():
    w = np.array([[3, -2], [-5, 4]], dtype=np.int8)
    paired = signed_row_pairs(w)
    assert paired.shape == (4, 2)
    assert np.array_equal(paired[0], [3, 0])  # excitatory half of row 0
    assert np.array_equal(paired[1], [0, -2])  # inhibitory half of row 0
    assert np.array_equal(paired[2], [0, 4])
    assert np.array_equal(paired[3], [-5, 0])


def test_signed_row_pairs_rejects_oversize():
    with pytest.raises(WeightOutOfRange):
        signed_row_pairs(np.zeros((SIGNED_ROWS + 1, 4), dtype=np.int8))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, SIGNED_ROWS),
    m=st.integers(1, 16),
    seed=st.integers(0, 2**16),
)
def test_signed_pairing_preserves_the_product(n, m, seed):
    """MAC over paired rows with duplicated inputs == signed integer matmul."""
    rng = np.random.default_rng(seed)
    w = rng.integers(-3, 4, size=(n, m)).astype(np.int8)
    x = rng.integers(0, 3, size=(2, n)).astype(np.uint8)
    paired = signed_row_pairs(w)
    dup = duplicate_signed_inputs(x)
    direct = x.astype(np.int64) @ w.astype(np.int64)
    via_pairs = dup.astype(np.int64) @ paired.astype(np.int64)
    assert np.array_equal(direct, via_pairs)


def test_chip_has_independent_arrays():
    chip = Chip(0, ChipConfig())
    assert len(chip.arrays) == ARRAYS_PER_CHIP
    assert not np.array_equal(chip.arrays[0].fixed_gain, chip.arrays[1].fixed_gain)


def test_hw_params_validation():
    with pytest.raises(ValueError):
        HwParams(num_sends=0)
    with pytest.raises(ValueError):
        HwParams(wait_between_events=0)


def test_load_chip_config_packaged_and_file(tmp_path):
    cfg = load_chip_config("chip_default")
    assert cfg == ChipConfig()
    path = tmp_path / "custom.cfg"
    path.write_text("# custom\nchip_seed = 5\nsigma_temporal = 0.5\ngain = 0.5\n")
    custom = load_chip_config(str(path))
    assert custom.chip_seed == 5
    assert custom.sigma_temporal == 0.5
    assert custom.gain == 0.5
    assert custom.sigma_fixed == ChipConfig().sigma_fixed  # defaults kept
