import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anamac import lowering
from anamac.chip import ROWS, SIGNED_ROWS


def _random_case(rng, dims):
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 5))
    if dims == 1:
        k = (int(rng.integers(1, 6)),)
        s = (int(rng.integers(1, 4)),)
        ext = (int(k[0] + rng.integers(0, 12)),)
    else:
        k = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        s = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        ext = (int(k[0] + rng.integers(0, 6)), int(k[1] + rng.integers(0, 6)))
    spec = lowering.ConvSpec(dims, c_in, c_out, k, s, ext)
    kernel = rng.integers(-2, 3, size=(c_out, c_in) + k).astype(np.int64)
    x = rng.integers(0, 3, size=(2, c_in) + ext).astype(np.int64)
    return spec, kernel, x


@pytest.mark.parametrize("dims", [1, 2])
def test_lowered_matmul_equals_direct_conv(dims):
    rng = np.random.default_rng(5 + dims)
    for _ in range(40):
        spec, kernel, x = _random_case(rng, dims)
        matrix, vectors, desc = lowering.lower_conv(spec, kernel, x)
        y = desc.fold(vectors @ matrix)
        assert np.array_equal(y, lowering.direct_conv(spec, kernel, x))


def test_unroll_row_order_is_tap_major_channel_minor():
    spec = lowering.conv1d_spec(in_channels=2, out_channels=1, k=3, stride=1, extent=3)
    kernel = np.arange(6).reshape(1, 2, 3)  # kernel[0, c, t] = 3 c + t
    matrix = lowering.unroll_kernel(spec, kernel)
    # row index = t * C_in + c
    expected = [kernel[0, r % 2, r // 2] for r in range(6)]
    assert matrix.shape == (6, 1)
    assert np.array_equal(matrix[:, 0], expected)


def test_spec_validation():
    with pytest.raises(lowering.ShapeMismatch):
        lowering.ConvSpec(3, 1, 1, (1, 1, 1), (1, 1, 1), (4, 4, 4))
    with pytest.raises(lowering.EmptyOutput):
        lowering.conv1d_spec(1, 1, k=5, stride=1, extent=4)
    with pytest.raises(lowering.ShapeMismatch):
        lowering.conv1d_spec(1, 1, k=2, stride=0, extent=4)


@pytest.mark.parametrize(
    "c_in, c_out, kernel",
    [(0, 4, (4,)), (2, 0, (4,)), (-1, 4, (4,)), (2, 4, (0,)), (2, 4, (-2,)), (2, 4, (3, 0))],
)
def test_spec_rejects_shapes_that_make_no_conv(c_in, c_out, kernel):
    dims = len(kernel)
    with pytest.raises(lowering.ShapeMismatch):
        lowering.ConvSpec(dims, c_in, c_out, kernel, (1,) * dims, (10,) * dims)


def _gather_loop(spec, x):
    """One window copy per output position: the reference for the strided gather."""
    x = np.asarray(x)
    if x.ndim == spec.dims + 1:
        x = x[None]
    batch = x.shape[0]
    vectors = np.empty((batch, spec.positions, spec.matrix_rows), dtype=x.dtype)
    if spec.dims == 1:
        (k,), (s,) = spec.kernel, spec.stride
        for p in range(spec.positions):
            window = x[:, :, p * s : p * s + k]
            vectors[:, p] = window.transpose(0, 2, 1).reshape(batch, -1)
    else:
        (k1, k2), (s1, s2) = spec.kernel, spec.stride
        p1, p2 = spec.out_extent
        for i in range(p1):
            for j in range(p2):
                window = x[:, :, i * s1 : i * s1 + k1, j * s2 : j * s2 + k2]
                vectors[:, i * p2 + j] = window.transpose(0, 2, 3, 1).reshape(batch, -1)
    return vectors.reshape(batch * spec.positions, spec.matrix_rows)


def _gather_case(name, dtype):
    rng = np.random.default_rng(11)

    def signal(shape):
        return (rng.random(shape) * 200).astype(dtype)

    if name == "har":
        spec = lowering.conv1d_spec(9, 16, k=32, stride=6, extent=128)
        return spec, signal((4, 9, 128))
    if name == "stride-over-kernel":
        spec = lowering.conv1d_spec(3, 2, k=2, stride=5, extent=23)
        return spec, signal((2, 3, 23))
    if name == "stride-1":
        spec = lowering.conv1d_spec(2, 3, k=4, stride=1, extent=10)
        return spec, signal((3, 2, 10))
    if name == "unbatched":  # one channel, windows abutting: the windows alone tile x
        spec = lowering.conv1d_spec(1, 1, k=3, stride=3, extent=12)
        return spec, signal((1, 12))
    if name == "non-contiguous":
        spec = lowering.conv1d_spec(3, 2, k=3, stride=2, extent=11)
        return spec, signal((2, 22, 3)).transpose(0, 2, 1)[:, :, ::2]
    spec = lowering.conv2d_spec(2, 3, kernel=(3, 2), stride=(1, 3), extent=(7, 9))
    return spec, signal((2, 2, 7, 9))


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
@pytest.mark.parametrize(
    "name", ["har", "stride-over-kernel", "stride-1", "unbatched", "non-contiguous", "conv2d"]
)
def test_gather_equals_the_per_position_loop(name, dtype):
    spec, x = _gather_case(name, dtype)
    before = x.copy()
    vectors = lowering.gather_input_vectors(spec, x)
    expected = _gather_loop(spec, x)
    assert (vectors.dtype, vectors.shape) == (expected.dtype, expected.shape)
    assert vectors.flags.c_contiguous
    assert vectors.tobytes() == expected.tobytes()
    assert np.array_equal(x, before)
    assert not np.shares_memory(vectors, x)


def test_gather_rejects_wrong_input_shape():
    spec = lowering.conv1d_spec(2, 1, k=3, stride=1, extent=8)
    with pytest.raises(lowering.ShapeMismatch):
        lowering.gather_input_vectors(spec, np.zeros((1, 3, 8)))


@st.composite
def _spec_and_extra_samples(draw):
    dims = draw(st.sampled_from([1, 2]))
    kernel = tuple(draw(st.integers(1, 4)) for _ in range(dims))
    stride = tuple(draw(st.integers(1, 5)) for _ in range(dims))
    extent = tuple(k + draw(st.integers(0, 8)) for k in kernel)
    spec = lowering.ConvSpec(dims, draw(st.integers(1, 3)), 1, kernel, stride, extent)
    lead = (2,) if draw(st.booleans()) else ()
    return spec, lead + (spec.in_channels,), tuple(draw(st.integers(0, 5)) for _ in range(dims))


@settings(max_examples=100, deadline=None)
@given(_spec_and_extra_samples(), st.data())
def test_a_longer_input_is_read_as_its_leading_extent(case, data):
    """Samples past ``spec.extent`` are ignored; a shorter input raises on either reader."""
    spec, lead, extra = case
    assume(any(extra))
    shape = lead + tuple(e + d for e, d in zip(spec.extent, extra))
    x = np.arange(math.prod(shape), dtype=np.float32).reshape(shape)  # every sample distinct
    head = x[(Ellipsis,) + tuple(slice(None, e) for e in spec.extent)]
    readers = (lowering.gather_input_vectors, lowering._read_samples)
    for read in readers:
        got, want = read(spec, x), read(spec, head)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert np.array_equal(got, want)
    axis = data.draw(st.integers(0, spec.dims - 1))
    short = list(shape)
    short[len(lead) + axis] = data.draw(st.integers(0, spec.extent[axis] - 1))
    for read in readers:
        with pytest.raises(lowering.ShapeMismatch):
            read(spec, np.zeros(short, np.float32))


def test_expansion_plan_formula():
    # k=32, C_in=1, s=6, C_out=16 on a 256-row array
    spec = lowering.conv1d_spec(1, 16, k=32, stride=6, extent=128)
    plan = lowering.plan_expansion(spec, cap_rows=ROWS)
    assert plan.copies == 16  # min((256-32)//6 + 1, 256//16) = min(38, 16)
    assert plan.row_offset_per_copy == 6
    assert plan.col_offset_per_copy == 16
    assert plan.packed_rows == 15 * 6 + 32
    assert plan.packed_cols == 256


def test_expansion_column_bound_applies():
    spec = lowering.conv1d_spec(1, 2, k=3, stride=2, extent=11)
    plan = lowering.plan_expansion(spec, cap_rows=9, cap_cols=6)
    assert plan.copies == 3  # min((9-3)//2 + 1, 6//2) = min(4, 3)


def test_expansion_row_bound_applies():
    spec = lowering.conv1d_spec(2, 2, k=10, stride=2, extent=300)
    plan = lowering.plan_expansion(spec, cap_rows=SIGNED_ROWS)
    # rows limit: (128 - 20)//4 + 1 = 28; cols limit: 256//2 = 128
    assert plan.copies == 28
    assert plan.packed_rows <= SIGNED_ROWS


def test_expansion_rejects_oversized_kernel():
    spec = lowering.conv1d_spec(8, 1, k=40, stride=1, extent=64)
    with pytest.raises(lowering.KernelTooLarge):
        lowering.plan_expansion(spec, cap_rows=SIGNED_ROWS)


def test_layout_to_json_reports_expansion():
    spec = lowering.conv1d_spec(1, 16, k=32, stride=6, extent=128)
    doc = lowering.layout_to_json(spec)
    assert doc["matrix_rows"] == 32 and doc["matrix_cols"] == 16
    assert doc["expansion"]["copies"] == 16


def test_layout_to_json_sizes_the_plan_for_signed_weights():
    """Every layer forward runs signed weights, 128 rows per array: 25 copies fit, not 32."""
    spec = lowering.conv1d_spec(4, 8, k=8, stride=1, extent=128)
    doc = lowering.layout_to_json(spec)
    assert doc["expansion"]["copies"] == 25  # min((128 - 32) // 4 + 1, 256 // 8)
    assert doc["expansion"]["packed_rows"] == 24 * 4 + 32 == SIGNED_ROWS
    assert doc["expansion"]["packed_cols"] == 25 * 8
