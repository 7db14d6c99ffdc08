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
    load_chip_config,
)

NOISELESS = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=0.0, gain=1.0)


def _block(rng, signed, cols=COLS, high=3):
    """A random block as tall as the array takes it: 128 signed rows or 256 unsigned."""
    rows = SIGNED_ROWS if signed else ROWS
    return rng.integers(-high if signed else 0, high + 1, size=(rows, cols)).astype(np.int8)


def test_geometry_constants():
    assert (ROWS, COLS) == (256, 256)
    assert SIGNED_ROWS == 128
    assert ARRAYS_PER_CHIP == 2


def test_noiseless_mac_is_exact_integer_matmul():
    rng = np.random.default_rng(3)
    array = SynapseArray(NOISELESS, 0)
    for signed in (False, True):
        w = _block(rng, signed)
        x = rng.integers(0, 4, size=(5, w.shape[0])).astype(np.uint8)
        array.configure(w, signed=signed)
        y = array.mac(x, HwParams(), np.random.default_rng(0))
        ref = np.clip(x.astype(np.int64) @ w.astype(np.int64), -128, 127)
        assert y.dtype == np.int8
        assert np.array_equal(y, ref), f"signed={signed}"


def test_output_saturates_at_i8():
    array = SynapseArray(NOISELESS, 0)
    x = np.full((1, 10), 31, dtype=np.uint8)
    for weight, signed, rail in ((63, False, 127), (63, True, 127), (-63, True, -128)):
        array.configure(np.full((10, 2), weight, dtype=np.int8), signed=signed)
        y = array.mac(x, HwParams(), np.random.default_rng(0))
        assert y[0, 0] == rail, (weight, signed)


def test_configure_rejects_bad_weights():
    array = SynapseArray(NOISELESS, 0)
    array.configure(np.ones((ROWS, COLS), dtype=np.int8))
    array.configure(np.full((10, 10), 5, dtype=np.int8))  # a narrow block is zero-padded
    assert (array.rows, array.cols) == (10, 10)
    assert array.weights.shape == (ROWS, COLS) and array.weights.dtype == np.int8
    assert array.weights[:10, :10].all() and array.weights.sum() == 500
    bad = np.zeros((ROWS, COLS), dtype=np.int16)
    bad[0, 0] = 64
    with pytest.raises(WeightOutOfRange, match=r"weights must lie in \[-63, 63\]"):
        array.configure(bad)
    negative = np.full((4, 4), 5, dtype=np.int8)
    negative[2, 1] = -1
    array.configure(negative, signed=True)
    assert array.weights[2, 1] == -1 and array.weights.sum() == 74  # the logical block, unpaired
    with pytest.raises(WeightOutOfRange, match=r"unsigned weights must lie in \[0, 63\]"):
        array.configure(negative)


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
    for signed in (False, True):  # a signed block takes one input per logical row
        array.configure(np.ones((64, 16), dtype=np.int8), signed=signed)
        assert array.physical_rows == (128 if signed else 64)
        for width in (ROWS, 128, 63, 65):
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
    for signed in (False, True):
        w = _block(rng, signed)
        w[:, cols:] = 0
        x = rng.integers(0, 4, size=(5, w.shape[0])).astype(np.uint8)
        array.configure(w[:, :cols], signed=signed)
        live = array.mac(x, HwParams(), np.random.default_rng(0))
        array.configure(w, signed=signed)
        full = array.mac(x, HwParams(), np.random.default_rng(0))
        exact = np.clip(x.astype(np.int64) @ w[:, :cols].astype(np.int64), -128, 127)
        assert live.shape == (5, COLS) and live.dtype == np.int8
        assert np.array_equal(live[:, :cols], full[:, :cols]), f"signed={signed}"
        assert np.array_equal(live[:, :cols], exact), f"signed={signed}"
        assert not live[:, cols:].any()


def _written_out_mac(array, x, params, rng):
    """The analog model spelled out for the configured block.

    Each weight takes the fixed-pattern gain of the synapse it sits on: row r
    of an unsigned block is physical row r; a signed weight sits on row 2r if
    it is positive and on row 2r+1 if it is negative, with the input sent to
    both rows of the pair. Temporal noise is drawn for the configured columns.
    """
    cfg = array.config
    rows, cols = array.rows, array.cols
    w = array.weights[:rows, :cols].astype(np.float64)
    if array.signed:
        physical = 2 * np.arange(rows)[:, None] + (w < 0)
    else:
        physical = np.broadcast_to(np.arange(rows)[:, None], w.shape)
    effective = w * array.fixed_gain[physical, np.arange(cols)]
    acc = x.astype(np.float64) @ effective
    noise = cfg.sigma_temporal / np.sqrt(params.num_sends) * rng.standard_normal((x.shape[0], cols))
    v = cfg.gain * acc + array.neuron_offset[:cols] + noise
    return np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5), -128, 127).astype(np.int8)


def test_default_width_mac_keeps_the_noise_stream():
    rng = np.random.default_rng(4)
    array = SynapseArray(ChipConfig(chip_seed=9), 1)
    params = HwParams(num_sends=2)
    for signed in (False, True):
        array.configure(_block(rng, signed, high=63), signed=signed)
        x = rng.integers(0, 32, size=(7, array.rows)).astype(np.uint8)
        y = array.mac(x, params, np.random.default_rng(11))
        want = _written_out_mac(array, x, params, np.random.default_rng(11))
        assert y.tobytes() == want.tobytes(), f"signed={signed}"


def test_live_column_mac_draws_noise_for_live_columns_only():
    rng = np.random.default_rng(5)
    array = SynapseArray(ChipConfig(chip_seed=9), 0)
    for signed in (False, True):
        array.configure(_block(rng, signed, cols=16, high=63), signed=signed)
        x = rng.integers(0, 32, size=(7, array.rows)).astype(np.uint8)
        y = array.mac(x, HwParams(), np.random.default_rng(11))
        want = _written_out_mac(array, x, HwParams(), np.random.default_rng(11))
        assert np.array_equal(y[:, :16], want), f"signed={signed}"
        assert not y[:, 16:].any()


def test_short_signed_block_mac_is_the_folded_product():
    """A noisy signed 64x16 block equals the written-out folded formula, byte for byte."""
    rng = np.random.default_rng(6)
    array = SynapseArray(ChipConfig(chip_seed=9), 1)
    array.configure(rng.integers(-63, 64, size=(64, 16)).astype(np.int8), signed=True)
    x = rng.integers(0, 32, size=(7, 64)).astype(np.uint8)
    params = HwParams(num_sends=3)
    y = array.mac(x, params, np.random.default_rng(12))
    want = _written_out_mac(array, x, params, np.random.default_rng(12))
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
    """A signed weight takes the gain of physical row 2r if positive, 2r+1 if negative."""
    cfg = ChipConfig(sigma_fixed=0.05, sigma_offset=0.0, sigma_temporal=0.0, gain=1.0)
    array = SynapseArray(cfg, 0)
    r, row = 2, np.array([3, -2, 0, -20, 20, -9, 14], dtype=np.int8)
    w = np.zeros((5, row.size), dtype=np.int8)
    w[r] = row
    x = np.array([[7, 1, 5, 31, 0]], dtype=np.uint8)  # only x[r] meets a nonzero weight
    array.configure(w, signed=True)
    y = array.mac(x, HwParams(), np.random.default_rng(0))[0, : row.size]

    def rounded(v):
        return np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5), -128, 127).astype(np.int8)

    cols = np.arange(row.size)
    g = array.fixed_gain
    assert np.array_equal(y, rounded(5.0 * row * g[2 * r + (row < 0), cols]))
    swapped = rounded(5.0 * row * g[2 * r + (row >= 0), cols])
    assert not np.array_equal(y, swapped)  # the other row of the pair gives another result


def test_signed_row_pairs_rejects_oversize():
    """128 signed rows fill the 256 physical rows; an unsigned block may use all 256."""
    array = SynapseArray(NOISELESS, 0)
    array.configure(np.zeros((SIGNED_ROWS, 4), dtype=np.int8), signed=True)
    array.configure(np.zeros((SIGNED_ROWS + 1, 4), dtype=np.int8))
    with pytest.raises(WeightOutOfRange, match="up to 128x256"):
        array.configure(np.zeros((SIGNED_ROWS + 1, 4), dtype=np.int8), signed=True)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, SIGNED_ROWS),
    m=st.integers(1, 16),
    seed=st.integers(0, 2**16),
)
def test_signed_pairing_preserves_the_product(n, m, seed):
    """A noise-free MAC of a signed block over its row pairs == signed integer matmul."""
    rng = np.random.default_rng(seed)
    w = rng.integers(-3, 4, size=(n, m)).astype(np.int8)
    x = rng.integers(0, 3, size=(2, n)).astype(np.uint8)
    array = SynapseArray(NOISELESS, 0)
    array.configure(w, signed=True)
    y = array.mac(x, HwParams(), np.random.default_rng(0))
    direct = np.clip(x.astype(np.int64) @ w.astype(np.int64), -128, 127)
    assert np.array_equal(y[:, :m], direct)


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
