"""Convolutions expressed as matrix multiplications.

The kernel is unrolled into the vertical (row) dimension with all output
channels placed horizontally aside each other; traversing the input yields one
overlapping input vector per output position, multiplied by a weight matrix
that is constant across positions. For a small 1-d kernel, ``plan_expansion``
reports how many copies would fit diagonally into one array, shifted by
stride * C_in rows per copy, so that several output positions could compute in
a single run; ``anamac lower-conv --explain`` shows that packing plan for
signed weights. A conv reads the leading ``extent`` samples of a longer input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chip import COLS, SIGNED_ROWS


class ShapeMismatch(ValueError):
    pass


class EmptyOutput(ValueError):
    pass


class KernelTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class ConvSpec:
    """Plain strided valid convolution; no padding, dilation or bias."""

    dims: int
    in_channels: int
    out_channels: int
    kernel: tuple  # (k,) or (k1, k2)
    stride: tuple  # per spatial dim, >= 1
    extent: tuple  # input spatial extent(s)

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ShapeMismatch("only conv1d and conv2d are supported")
        if len(self.kernel) != self.dims or len(self.stride) != self.dims or len(self.extent) != self.dims:
            raise ShapeMismatch("kernel/stride/extent must have one entry per spatial dim")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ShapeMismatch(f"channel counts must be >= 1, got {self.in_channels} -> {self.out_channels}")
        if any(k < 1 for k in self.kernel):
            raise ShapeMismatch("kernel must be >= 1")
        if any(s < 1 for s in self.stride):
            raise ShapeMismatch("stride must be >= 1")
        if any(o < 1 for o in self.out_extent):
            raise EmptyOutput(f"output extent {self.out_extent} < 1")

    @property
    def out_extent(self) -> tuple:
        return tuple((l - k) // s + 1 for l, k, s in zip(self.extent, self.kernel, self.stride))

    @property
    def taps(self) -> int:
        return math.prod(self.kernel)

    @property
    def matrix_rows(self) -> int:
        return self.taps * self.in_channels

    @property
    def positions(self) -> int:
        return math.prod(self.out_extent)


def conv1d_spec(in_channels, out_channels, k, stride, extent) -> ConvSpec:
    return ConvSpec(1, in_channels, out_channels, (k,), (stride,), (extent,))


def conv2d_spec(in_channels, out_channels, kernel, stride, extent) -> ConvSpec:
    return ConvSpec(2, in_channels, out_channels, tuple(kernel), tuple(stride), tuple(extent))


def unroll_kernel(spec: ConvSpec, kernel: np.ndarray) -> np.ndarray:
    """(C_out, C_in, *k) kernel -> (taps * C_in, C_out) weight matrix.

    Row index = flattened tap index major, input channel minor, so shifting a
    packed copy by stride positions moves it by stride * C_in rows.
    """
    kernel = np.asarray(kernel)
    expected = (spec.out_channels, spec.in_channels) + spec.kernel
    if kernel.shape != expected:
        raise ShapeMismatch(f"kernel shape {kernel.shape}, expected {expected}")
    # -> (taps, C_in, C_out) -> (taps * C_in, C_out)
    flat = kernel.reshape(spec.out_channels, spec.in_channels, spec.taps)
    return np.ascontiguousarray(flat.transpose(2, 1, 0).reshape(spec.matrix_rows, spec.out_channels))


def _leading_extent(spec: ConvSpec, x: np.ndarray) -> np.ndarray:
    """A view of the leading ``spec.extent`` samples of ``x`` on each spatial axis.

    ``x`` is (C_in, *L) or (B, C_in, *L) with every L at least its extent;
    samples past the extent fall in no window and are not read.
    """
    x = np.asarray(x)
    lead = x.ndim - spec.dims
    short = any(l < e for l, e in zip(x.shape[lead:], spec.extent))
    if lead not in (1, 2) or x.shape[lead - 1] != spec.in_channels or short:
        raise ShapeMismatch(
            f"input shape {x.shape}, expected ([B,] {spec.in_channels}, *L) with L >= {spec.extent}"
        )
    return x[(Ellipsis,) + tuple(slice(None, e) for e in spec.extent)]


def gather_input_vectors(spec: ConvSpec, x: np.ndarray) -> np.ndarray:
    """(B, C_in, *L) input -> (B * positions, taps * C_in) matmul inputs.

    Reads the leading ``spec.extent`` samples of a longer input. Rows are
    ordered batch-major, then by output position (row-major over the spatial
    dims); each row is its window tap-major, channel-minor. The result is a
    new C-contiguous array of ``x``'s dtype.
    """
    x = _leading_extent(spec, x).reshape((-1, spec.in_channels) + spec.extent)  # a view
    batch = x.shape[0]
    # channel-last, so that every window is one contiguous run of taps * C_in values
    channel_last = np.ascontiguousarray(np.moveaxis(x, 1, -1))
    spatial = tuple(range(1, spec.dims + 1))
    windows = np.lib.stride_tricks.sliding_window_view(
        channel_last, spec.kernel + (spec.in_channels,), axis=spatial + (spec.dims + 1,)
    )
    # (B, *L - k + 1, 1, *k, C_in) -> (B, *out_extent, *k, C_in)
    windows = windows[(slice(None),) + tuple(slice(None, None, s) for s in spec.stride) + (0,)]
    return np.array(windows, order="C").reshape(batch * spec.positions, spec.matrix_rows)


def _read_samples(spec: ConvSpec, x: np.ndarray) -> np.ndarray:
    """A view of exactly the samples of ``x`` that some window reads; no copy.

    Along an axis with stride <= k the windows cover the leading (P - 1) * s + k
    samples; with stride > k they are runs of k samples between unread gaps.
    The view holds the values of ``gather_input_vectors(spec, x)``, so any
    order-free reduction (a max) gives the same result on both.
    """
    x = _leading_extent(spec, x)
    lead = x.ndim - spec.dims
    for axis, (k, s, p) in enumerate(zip(spec.kernel, spec.stride, spec.out_extent), start=lead):
        head = (slice(None),) * axis
        if s <= k:
            x = x[head + (slice(None, (p - 1) * s + k),)]
        else:
            # the window axis is appended last, so the spatial axes keep their places
            x = np.lib.stride_tricks.sliding_window_view(x, k, axis=axis)[head + (slice(None, None, s),)]
    return x


@dataclass(frozen=True)
class OutputDescriptor:
    """Maps flat matmul outputs back to (batch, C_out, *spatial)."""

    batch: int
    out_channels: int
    out_extent: tuple

    def fold(self, y_flat: np.ndarray) -> np.ndarray:
        y = np.asarray(y_flat).reshape(self.batch, *self.out_extent, self.out_channels)
        axes = (0, self.ndim + 1) + tuple(range(1, self.ndim + 1))
        return np.ascontiguousarray(y.transpose(axes))

    @property
    def ndim(self) -> int:
        return len(self.out_extent)


def lower_conv(spec: ConvSpec, kernel, x):
    """(weight_matrix, input_vectors, output_descriptor) for one conv."""
    vectors = gather_input_vectors(spec, x)
    desc = OutputDescriptor(len(vectors) // spec.positions, spec.out_channels, spec.out_extent)
    return unroll_kernel(spec, kernel), vectors, desc


@dataclass(frozen=True)
class ExpansionPlan:
    """Diagonal packing of P shifted kernel copies into one array."""

    spec: ConvSpec
    copies: int
    row_offset_per_copy: int  # stride * C_in
    col_offset_per_copy: int  # C_out
    packed_rows: int
    packed_cols: int


def plan_expansion(spec: ConvSpec, cap_rows: int, cap_cols: int = COLS) -> ExpansionPlan:
    if spec.dims != 1:
        raise ShapeMismatch("expansion is defined for conv1d only")
    (k,), (s,) = spec.kernel, spec.stride
    rows_one = k * spec.in_channels
    if rows_one > cap_rows or spec.out_channels > cap_cols:
        raise KernelTooLarge(
            f"unrolled kernel needs {rows_one} rows x {spec.out_channels} cols, "
            f"array caps are {cap_rows} x {cap_cols} (partition first)"
        )
    row_step = s * spec.in_channels
    copies = min(
        (cap_rows - rows_one) // row_step + 1,
        cap_cols // spec.out_channels,
    )
    return ExpansionPlan(
        spec=spec,
        copies=copies,
        row_offset_per_copy=row_step,
        col_offset_per_copy=spec.out_channels,
        packed_rows=(copies - 1) * row_step + rows_one,
        packed_cols=copies * spec.out_channels,
    )


def direct_conv(spec: ConvSpec, kernel, x) -> np.ndarray:
    """Reference convolution by explicit summation (integer-exact)."""
    kernel = np.asarray(kernel, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    single = x.ndim == spec.dims + 1
    if single:
        x = x[None]
    out = np.zeros((x.shape[0], spec.out_channels) + spec.out_extent, dtype=np.int64)
    for pos in np.ndindex(*spec.out_extent):
        taps = tuple(slice(p * s, p * s + k) for p, s, k in zip(pos, spec.stride, spec.kernel))
        window = x[(Ellipsis,) + taps]
        out[(Ellipsis,) + pos] = window.reshape(len(x), -1) @ kernel.reshape(spec.out_channels, -1).T
    return out[0] if single else out


def layout_to_json(spec: ConvSpec) -> dict:
    """CLI --explain payload: the unrolled matrix layout."""
    doc = {
        "matrix_rows": spec.matrix_rows,
        "matrix_cols": spec.out_channels,
        "positions": spec.positions,
        "out_extent": list(spec.out_extent),
        "row_layout": "tap-major, input-channel-minor",
    }
    if spec.dims == 1:
        try:
            plan = plan_expansion(spec, SIGNED_ROWS)  # the cap of every layer forward's signed weights
            doc["expansion"] = {
                "copies": plan.copies,
                "row_offset_per_copy": plan.row_offset_per_copy,
                "col_offset_per_copy": plan.col_offset_per_copy,
                "packed_rows": plan.packed_rows,
                "packed_cols": plan.packed_cols,
            }
        except KernelTooLarge as e:
            doc["expansion"] = {"error": str(e)}
    return doc
