"""Minimal dense tensor container and a portable on-disk format.

All pipeline stages exchange data as plain row-major numpy arrays wrapped in a
``Tensor``. Only the four dtypes the hardware path needs are supported.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"ATNS"
FORMAT_VERSION = 1
MAX_RANK = 8

# dtype name -> (on-disk code, numpy dtype); payload is little-endian on disk
DTYPES = {
    "f32": (0, np.dtype("<f4")),
    "i32": (1, np.dtype("<i4")),
    "u8": (2, np.dtype("u1")),
    "i8": (3, np.dtype("i1")),
}
_CODE_TO_NAME = {code: name for name, (code, _) in DTYPES.items()}


class ShapeMismatch(ValueError):
    pass


class BadMagic(ValueError):
    pass


class UnsupportedVersion(ValueError):
    pass


class TruncatedPayload(ValueError):
    """The payload is shorter or longer than the header's shape and dtype say."""


def _dtype_name(np_dtype) -> str:
    for name, (_, dt) in DTYPES.items():
        if np.dtype(np_dtype) == dt:
            return name
    raise TypeError(f"unsupported dtype {np_dtype!r}; expected one of {list(DTYPES)}")


@dataclass(frozen=True)
class Tensor:
    """Rank-N row-major array with dtype restricted to f32/i32/u8/i8.

    Immutable after construction; safe to share across concurrent tasks.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.array)
        _dtype_name(arr.dtype)
        if arr.ndim > MAX_RANK:
            raise ShapeMismatch(f"rank {arr.ndim} exceeds maximum {MAX_RANK}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def dtype(self) -> str:
        return _dtype_name(self.array.dtype)

    @property
    def shape(self) -> tuple:
        return self.array.shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the buffer."""
        return self.array.reshape(-1)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        # bit-exact comparison, NaN payloads included
        return (
            self.dtype == other.dtype
            and self.shape == other.shape
            and self.array.tobytes() == other.array.tobytes()
        )

    def __hash__(self):
        return hash((self.dtype, self.shape, self.array.tobytes()))


def tensor(values, dtype: str | None = None) -> Tensor:
    """Build a Tensor from array-like values, optionally coercing the dtype."""
    if dtype is not None:
        arr = np.asarray(values, dtype=DTYPES[dtype][1])
    else:
        arr = np.asarray(values)
        if arr.dtype == np.float64:
            arr = arr.astype(np.float32)
        elif arr.dtype == np.int64:
            arr = arr.astype(np.int32)
    return Tensor(arr)


def reshape(t: Tensor, new_shape) -> Tensor:
    """Metadata-only reshape; the flat buffer order is unchanged."""
    new_shape = tuple(int(s) for s in new_shape)
    old_n = int(np.prod(t.shape, dtype=np.int64)) if t.shape else 1
    new_n = int(np.prod(new_shape, dtype=np.int64)) if new_shape else 1
    if old_n != new_n:
        raise ShapeMismatch(f"cannot reshape {t.shape} ({old_n} elements) to {new_shape} ({new_n})")
    if len(new_shape) > MAX_RANK:
        raise ShapeMismatch(f"rank {len(new_shape)} exceeds maximum {MAX_RANK}")
    return Tensor(t.array.reshape(new_shape))


def write_tensor(t: Tensor, path) -> None:
    code, np_dtype = DTYPES[t.dtype]
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", FORMAT_VERSION))
        f.write(struct.pack("<BB", code, len(t.shape)))
        for dim in t.shape:
            f.write(struct.pack("<I", dim))
        f.write(np.ascontiguousarray(t.array, dtype=np_dtype).tobytes())


def read_tensor(path) -> Tensor:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise BadMagic(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    offset = 8  # magic, version, dtype code, rank
    if len(raw) < offset:
        raise TruncatedPayload("header truncated")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"file version {version}, supported: {FORMAT_VERSION}")
    code, rank = struct.unpack_from("<BB", raw, 6)
    if code not in _CODE_TO_NAME:
        raise BadMagic(f"unknown dtype code {code}")
    if len(raw) < offset + 4 * rank:
        raise TruncatedPayload("header truncated")
    dims = struct.unpack_from(f"<{rank}I", raw, offset) if rank else ()
    offset += 4 * rank
    name = _CODE_TO_NAME[code]
    np_dtype = DTYPES[name][1]
    count = int(np.prod(dims, dtype=np.int64)) if dims else 1
    expected = count * np_dtype.itemsize
    payload = raw[offset:]
    if len(payload) != expected:
        raise TruncatedPayload(f"payload holds {len(payload)} bytes, expected {expected}")
    arr = np.frombuffer(payload, dtype=np_dtype).reshape(dims)
    return Tensor(arr)


def write_csv(t: Tensor, path) -> None:
    """Human-readable fixture export: one row per line, comma-separated."""
    arr = t.array
    if arr.ndim > 2:
        raise ShapeMismatch("CSV export supports rank <= 2 tensors")
    arr2 = np.atleast_2d(arr)
    with open(path, "w") as f:
        for row in arr2:
            f.write(",".join(repr(v.item()) if t.dtype == "f32" else str(v.item()) for v in row))
            f.write("\n")


def read_csv(path, dtype: str = "f32") -> Tensor:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rows.append([float(v) for v in line.split(",")])
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ShapeMismatch(f"ragged CSV rows, widths {sorted(widths)}")
    return tensor(rows, dtype=dtype)
