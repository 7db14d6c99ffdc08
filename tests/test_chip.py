import math
import re
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    gaussian_noise,
    load_chip_config,
    noise_table,
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


def _round_shift_oracle(acc, k):
    """clamp(round_half_away(acc * 2**-k)) in int64 arithmetic."""
    return np.clip(np.sign(acc) * ((np.abs(acc) + (1 << k >> 1)) >> k), -128, 127)


@settings(max_examples=80, deadline=None)
@given(
    signed=st.booleans(),
    full_scale=st.booleans(),
    rows=st.integers(1, ROWS),
    cols=st.integers(1, 32),
    wmax=st.sampled_from([1, 3, 63]),
    xmax=st.sampled_from([1, 31]),
    k=st.integers(0, 12),
    seed=st.integers(0, 2**16),
)
@example(signed=False, full_scale=True, rows=ROWS, cols=COLS, wmax=63, xmax=31, k=12, seed=0)
@example(signed=True, full_scale=True, rows=SIGNED_ROWS, cols=COLS, wmax=63, xmax=31, k=12, seed=0)
def test_noise_free_mac_equals_the_int64_rounding_oracle(signed, full_scale, rows, cols, wmax, xmax, k, seed):
    """Noise-free with gain 2**-k, the float32 chain is exact: every partial sum is < 2**24.

    A full-scale block holds only +-63 weights (the sign drawn per weight) and
    meets inputs that are all 31; unsigned, each column sums to 256 * 31 * 63
    = 499,968, which 2**-12 scales to 122.06.
    """
    rng = np.random.default_rng(seed)
    rows = min(rows, SIGNED_ROWS) if signed else rows
    if full_scale:
        w = np.full((rows, cols), 63, dtype=np.int8)
        if signed:
            w[rng.random((rows, cols)) < 0.5] = -63
        x = np.full((3, rows), 31, dtype=np.uint8)
    else:
        w = rng.integers(-wmax if signed else 0, wmax + 1, size=(rows, cols)).astype(np.int8)
        x = rng.integers(0, xmax + 1, size=(3, rows)).astype(np.uint8)
    cfg = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=0.0, gain=2.0**-k)
    array = SynapseArray(cfg, 0)
    array.configure(w, signed=signed)
    y = array.mac(x, HwParams(), np.random.default_rng(0))
    want = _round_shift_oracle(x.astype(np.int64) @ w.astype(np.int64), k)
    assert np.array_equal(y[:, :cols], want)
    assert not y[:, cols:].any()


def test_analog_state_is_float32_from_the_float64_draws():
    cfg = ChipConfig(chip_seed=17)
    array = SynapseArray(cfg, 3)
    assert array.fixed_gain.dtype == np.float32 and array.neuron_offset.dtype == np.float32
    gain64 = 1.0 + cfg.sigma_fixed * np.random.default_rng([17, 3, 0]).standard_normal((ROWS, COLS))
    offset64 = cfg.sigma_offset * np.random.default_rng([17, 3, 1]).standard_normal(COLS)
    assert np.array_equal(array.fixed_gain, gain64.astype(np.float32))
    assert np.array_equal(array.neuron_offset, offset64.astype(np.float32))


def test_fixed_gain_is_read_only_and_its_row_planes_equal_it():
    array = SynapseArray(ChipConfig(chip_seed=5), 1)
    with pytest.raises(ValueError, match="read-only"):
        array.fixed_gain[0, 0] = 2.0
    for plane, rows in ((array.gain_even, array.fixed_gain[0::2]), (array.gain_odd, array.fixed_gain[1::2])):
        assert plane.flags.c_contiguous and plane.dtype == np.float32
        assert plane.tobytes() == np.ascontiguousarray(rows).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            plane[0, 0] = 2.0


def test_signed_mac_peak_allocation():
    """One noisy (256, 128) x (128, 256) signed MAC after a warm-up.

    1.38 MiB in float32; the float64 chain allocated 2.63 MiB.
    """
    rng = np.random.default_rng(21)
    array = SynapseArray(ChipConfig(chip_seed=3), 0)
    array.configure(rng.integers(-63, 64, size=(SIGNED_ROWS, COLS)).astype(np.int8), signed=True)
    x = rng.integers(0, 32, size=(256, SIGNED_ROWS)).astype(np.uint8)
    array.mac(x, HwParams(), np.random.default_rng(22))
    tracemalloc.start()
    try:
        array.mac(x, HwParams(), np.random.default_rng(22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2**20


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


def test_weights_render_the_configured_block_as_int8():
    array = SynapseArray(NOISELESS, 0)
    assert (array.weights.shape, array.weights.dtype) == ((ROWS, COLS), np.int8)
    assert not array.weights.any()
    block = np.random.default_rng(8).integers(-63, 64, size=(5, 7)).astype(np.int16)
    array.configure(block, signed=True)
    w = array.weights
    assert (w.shape, w.dtype) == ((ROWS, COLS), np.int8)
    assert np.array_equal(w[:5, :7], block) and not w[5:].any() and not w[:, 7:].any()
    w[:] = 1  # a rendered copy: writing to it configures nothing
    assert np.array_equal(array.weights[:5, :7], block)
    y = array.mac(np.ones((1, 5), dtype=np.uint8), HwParams(), np.random.default_rng(0))
    assert np.array_equal(y[0, :7], np.clip(block.sum(axis=0), -128, 127))


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
    both rows of the pair. Temporal noise is drawn for the configured columns:
    sigma times the table level at a uniform uint16 index. Every step is float32.
    """
    cfg = array.config
    rows, cols = array.rows, array.cols
    w = array.weights[:rows, :cols].astype(np.float32)
    if array.signed:
        physical = 2 * np.arange(rows)[:, None] + (w < 0)
    else:
        physical = np.broadcast_to(np.arange(rows)[:, None], w.shape)
    effective = w * array.fixed_gain[physical, np.arange(cols)]
    acc = x.astype(np.float32) @ effective
    sigma = np.float32(cfg.sigma_temporal / np.sqrt(params.num_sends))
    noise = sigma * noise_table()[rng.integers(0, 2**16, (x.shape[0], cols), dtype=np.uint16)]
    v = np.float32(cfg.gain) * acc + array.neuron_offset[:cols] + noise
    assert v.dtype == np.float32
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


def test_noise_table_holds_the_standard_normal_quantiles():
    levels = noise_table()
    assert (levels.dtype, levels.shape) == (np.float32, (2**16,))
    assert (np.diff(levels) > 0).all()
    assert np.array_equal(levels, -levels[::-1])
    end = np.float32(statistics.NormalDist().inv_cdf(1 - 2**-17))
    assert levels[-1] == end and abs(end - 4.3249) < 1e-4
    assert abs(levels.astype(np.float64).std() - 1.0) < 2e-5


def test_table_noise_is_standard_normal_by_kolmogorov_smirnov():
    values = gaussian_noise(np.random.default_rng(0), 10**6, 1.0)
    assert values.dtype == np.float32
    levels, counts = np.unique(values, return_counts=True)
    cdf = np.array([statistics.NormalDist().cdf(v) for v in levels.tolist()])
    above = np.cumsum(counts) / values.size  # the empirical cdf at each level
    below = above - counts / values.size  # and just below it
    assert max(np.abs(above - cdf).max(), np.abs(below - cdf).max()) < 2e-3


@pytest.mark.parametrize("shape", [16, 17, 18, 19, (7, 12), (5, 13), (3, 2, 3), (1, 7), 0, (0, 4)], ids=str)
def test_noise_indices_equal_the_uint16_draw_of_a_fresh_generator(shape):
    """One 64-bit word per four indices repeats numpy's uint16 draw, for every size mod 4."""
    noise = gaussian_noise(np.random.default_rng(31), shape, 1.0)
    index = np.random.default_rng(31).integers(0, 2**16, shape, dtype=np.uint16)
    assert noise.shape == index.shape and noise.dtype == np.float32
    assert noise.tobytes() == noise_table()[index].tobytes()


@pytest.mark.parametrize("first", range(8))
def test_noise_indices_on_a_reused_generator(first):
    """After an earlier uint16 draw of size 1 or 2 (mod 4), numpy keeps half a
    word buffered for its next uint16 draw, while the word draw skips it; after
    any other size the two stay equal."""
    words, halves = np.random.default_rng(32), np.random.default_rng(32)
    for rng in (words, halves):
        rng.integers(0, 2**16, first, dtype=np.uint16)
    noise = gaussian_noise(words, 64, 1.0)
    same = noise.tobytes() == noise_table()[halves.integers(0, 2**16, 64, dtype=np.uint16)].tobytes()
    assert same == (first % 4 in (0, 3))


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


@pytest.mark.parametrize("field", ["sigma_fixed", "sigma_offset", "sigma_temporal"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_chip_config_rejects_a_bad_sigma(field, value):
    with pytest.raises(ValueError, match="sigmas must be finite and >= 0"):
        ChipConfig(**{field: value})


@pytest.mark.parametrize(
    "gain",
    [math.nan, math.inf, -math.inf, 0.0, -1 / 64, 1e-39, 1e39],
    ids=["nan", "inf", "-inf", "zero", "negative", "float32-subnormal", "float32-overflow"],
)
def test_chip_config_rejects_a_gain_that_is_not_a_positive_normal_float32(gain):
    with pytest.raises(ValueError, match="gain must be a positive normal float32"):
        ChipConfig(gain=gain)


def test_chip_config_accepts_the_float32_gain_range():
    for gain in (float(np.finfo(np.float32).tiny), 2.0**-12, 1.0, float(np.finfo(np.float32).max)):
        assert ChipConfig(gain=gain).gain == gain


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


@pytest.mark.parametrize("text, message", [
    ("sigma_temporl = 0\n", "unknown key 'sigma_temporl'; ChipConfig has chip_seed, sigma_fixed, "),
    ("chip_seed = 1.5\n", "chip_seed = '1.5' is not of type int"),
    ("gain\n", "gain = '' is not of type float"),
])
def test_load_chip_config_rejects_a_bad_line(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_chip_config(str(path))


def test_load_chip_config_rejects_a_link_config():
    with pytest.raises(ValueError, match="link_8g: unknown key 'bandwidth_bps'"):
        load_chip_config("link_8g")


_EARLIER_DRAWS = {  # the uint16 draws of size 1 or 2 (mod 4) and the uint32 one leave half a word buffered
    "fresh": lambda rng: None,
    "uint16x5": lambda rng: rng.integers(0, 2**16, 5, dtype=np.uint16),
    "uint16x6": lambda rng: rng.integers(0, 2**16, 6, dtype=np.uint16),
    "uint32x3": lambda rng: rng.integers(0, 2**32, 3, dtype=np.uint32),
    "bool7": lambda rng: rng.integers(0, 2, 7, dtype=np.bool_),
    "permutation17": lambda rng: rng.permutation(17),
}


@pytest.mark.parametrize("before", list(_EARLIER_DRAWS))
def test_raw_words_equal_the_full_range_uint64_draw(before):
    """``random_raw``, the noise's word source, repeats ``integers(0, 2**64, k,
    uint64)`` word for word and leaves the same state, on fresh and reused generators."""
    raw, drawn = np.random.default_rng(33), np.random.default_rng(33)
    for rng in (raw, drawn):
        _EARLIER_DRAWS[before](rng)
    for k in (1, 11, 1024):
        words = raw.bit_generator.random_raw(k)
        assert words.dtype == np.uint64
        assert words.tobytes() == drawn.integers(0, 2**64, k, dtype=np.uint64).tobytes()
        assert raw.bit_generator.state == drawn.bit_generator.state
