import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anamac.tensor import (
    DTYPES,
    BadMagic,
    ShapeMismatch,
    Tensor,
    TruncatedPayload,
    UnsupportedVersion,
    read_csv,
    read_tensor,
    reshape,
    tensor,
    write_csv,
    write_tensor,
)


def test_dtype_coercion_defaults():
    assert tensor([1.0, 2.0]).dtype == "f32"
    assert tensor([1, 2]).dtype == "i32"
    assert tensor([1, 2], dtype="u8").dtype == "u8"
    assert tensor([[-1, 2]], dtype="i8").dtype == "i8"


def test_rejects_unsupported_dtype():
    with pytest.raises(TypeError):
        tensor(np.array([1 + 2j]))


def test_immutability():
    t = tensor([1, 2, 3], dtype="i32")
    with pytest.raises(ValueError):
        t.array[0] = 9


def test_reshape_is_metadata_only():
    t = tensor(np.arange(12), dtype="i32")
    r = reshape(t, (3, 4))
    assert r.shape == (3, 4)
    assert np.array_equal(r.data, t.data)
    with pytest.raises(ShapeMismatch):
        reshape(t, (5, 3))


def test_equality_is_bitexact():
    a = tensor([np.nan, 1.0])
    b = tensor([np.nan, 1.0])
    c = tensor([0.0, 1.0])
    assert a == b  # same NaN payload
    assert a != c
    assert tensor([1], dtype="i8") != tensor([1], dtype="u8")


@settings(max_examples=50, deadline=None)
@given(
    dtype=st.sampled_from(sorted(DTYPES)),
    shape=st.lists(st.integers(1, 5), min_size=0, max_size=4),
    data=st.data(),
)
def test_roundtrip_property(tmp_path_factory, dtype, shape, data):
    """write -> read is the identity for every dtype and rank."""
    n = int(np.prod(shape)) if shape else 1
    if dtype == "f32":
        values = data.draw(st.lists(st.floats(-1e6, 1e6, width=32, allow_subnormal=False), min_size=n, max_size=n))
    elif dtype == "i32":
        values = data.draw(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=n, max_size=n))
    elif dtype == "u8":
        values = data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
    else:
        values = data.draw(st.lists(st.integers(-128, 127), min_size=n, max_size=n))
    t = tensor(np.array(values, dtype=DTYPES[dtype][1]).reshape(shape), dtype=dtype)
    path = tmp_path_factory.mktemp("rt") / "t.tns"
    write_tensor(t, path)
    assert read_tensor(path) == t


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(BadMagic):
        read_tensor(path)


def test_unsupported_version(tmp_path):
    t = tensor([1, 2], dtype="i32")
    path = tmp_path / "v.tns"
    write_tensor(t, path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersion):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    t = tensor(np.arange(100), dtype="i32")
    path = tmp_path / "t.tns"
    write_tensor(t, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(TruncatedPayload):
        read_tensor(path)


def test_trailing_payload_bytes(tmp_path):
    """A longer file, such as two tensors written back to back, is not read as its first tensor."""
    t = tensor(np.arange(100), dtype="i32")
    path = tmp_path / "t.tns"
    write_tensor(t, path)
    path.write_bytes(path.read_bytes() * 2)
    with pytest.raises(TruncatedPayload, match="^payload holds 812 bytes, expected 400$"):
        read_tensor(path)


def test_rank_limit():
    with pytest.raises(ShapeMismatch):
        Tensor(np.zeros((1,) * 9, dtype=np.float32))


def test_csv_roundtrip(tmp_path):
    t = tensor(np.arange(6, dtype=np.float32).reshape(2, 3) / 3.0)
    path = tmp_path / "t.csv"
    write_csv(t, path)
    assert read_csv(path) == t


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ShapeMismatch):
        read_csv(path)
