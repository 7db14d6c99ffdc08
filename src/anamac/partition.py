"""Tiling of an arbitrary N x M quantized matmul onto fixed-size synapse arrays.

The row dimension is cut into maximal ranges of at most 256 (128 for signed
weights, which occupy excitatory/inhibitory row pairs), the column dimension
into ranges of at most 256. Tiles are enumerated row-major over
(row_range, col_range) and bound round-robin to the available arrays. Results
of a column stripe's row tiles are summed digitally, saturating at the int8
output range; column stripes are concatenated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import graph as g
from .chip import COLS, ROWS, SIGNED_ROWS, HwParams


class NoArrays(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TileSpec:
    row_range: tuple  # [r0, r1) into the input dimension N
    col_range: tuple  # [c0, c1) into the output dimension M
    array_binding: tuple  # (chip, array)
    sequence_index: int  # count of earlier tiles placed on the same array

    @property
    def rows(self) -> int:
        return self.row_range[1] - self.row_range[0]

    @property
    def cols(self) -> int:
        return self.col_range[1] - self.col_range[0]


@dataclass(frozen=True)
class PartitionPlan:
    n: int
    m: int
    signed: bool
    tiles: tuple
    row_groups: tuple  # per column stripe: indices into tiles, to be summed
    col_order: tuple  # column ranges in concatenation order

    @property
    def cap_rows(self) -> int:
        return SIGNED_ROWS if self.signed else ROWS


def _ranges(extent: int, cap: int) -> list:
    """Maximal-first split; only the last range may be short."""
    return [(lo, min(lo + cap, extent)) for lo in range(0, extent, cap)]


def partition_matmul(n: int, m: int, signed: bool, arrays) -> PartitionPlan:
    if n < 1 or m < 1:
        raise ShapeMismatch(f"matrix dimensions must be >= 1, got {n}x{m}")
    arrays = [tuple(a) for a in arrays]
    if not arrays:
        raise NoArrays("at least one synapse array is required")
    cap_rows = SIGNED_ROWS if signed else ROWS
    row_ranges = _ranges(n, cap_rows)
    col_ranges = _ranges(m, COLS)

    tiles = []
    per_array_count = {a: 0 for a in arrays}
    idx = 0
    for rr in row_ranges:
        for cr in col_ranges:
            binding = arrays[idx % len(arrays)]
            tiles.append(TileSpec(rr, cr, binding, per_array_count[binding]))
            per_array_count[binding] += 1
            idx += 1

    n_cols = len(col_ranges)
    row_groups = tuple(
        tuple(r * n_cols + c for r in range(len(row_ranges))) for c in range(n_cols)
    )
    return PartitionPlan(n, m, signed, tuple(tiles), row_groups, tuple(col_ranges))


def allocation_counts(plan: PartitionPlan) -> tuple:
    """(full_tiles, partial_tiles): tiles that exactly fill an array vs. not."""
    full = sum(1 for t in plan.tiles if t.rows == plan.cap_rows and t.cols == COLS)
    return full, len(plan.tiles) - full


def build_graph(
    plan: PartitionPlan,
    weights_q: np.ndarray,
    inputs_q: np.ndarray,
    hw_params: HwParams | None = None,
) -> g.DependencyGraph:
    """Emit the dependency graph whose digital recombination reproduces x @ W.

    weights_q: (N, M) i8; inputs_q: (batch, N) u8. Each tile becomes one
    execution instance holding its weight block and input slice; row groups
    are summed by an ADD vertex, whose saturating sum the executor re-clamps
    to the int8 output range; column stripes are concatenated.
    """
    weights_q = np.asarray(weights_q)
    inputs_q = np.atleast_2d(np.asarray(inputs_q))
    if weights_q.shape != (plan.n, plan.m):
        raise ShapeMismatch(f"weights {weights_q.shape} do not match plan {plan.n}x{plan.m}")
    if inputs_q.shape[1] != plan.n:
        raise ShapeMismatch(f"inputs width {inputs_q.shape[1]} does not match N={plan.n}")
    hw_params = hw_params or HwParams()

    builder = g.GraphBuilder()
    store_of_tile = {}
    for idx, tile in enumerate(plan.tiles):
        r0, r1 = tile.row_range
        c0, c1 = tile.col_range
        load = builder.add_vertex(
            g.VertexKind.EXTERNAL_LOAD, payload={"data": inputs_q[:, r0:r1]}
        )
        matrix = builder.add_vertex(
            g.VertexKind.SYNAPSE_MATRIX,
            payload={
                "weights": weights_q[r0:r1, c0:c1],
                "signed": plan.signed,
                "hw_params": hw_params,
            },
            inputs=(load,),
        )
        neurons = builder.add_vertex(g.VertexKind.NEURONS, inputs=(matrix,))
        digitize = builder.add_vertex(g.VertexKind.DIGITIZE, inputs=(neurons,))
        store = builder.add_vertex(g.VertexKind.STORE, inputs=(digitize,))
        builder.add_instance(
            (load, matrix, neurons, digitize, store), array_binding=tile.array_binding
        )
        store_of_tile[idx] = store

    stripe_results = []
    for group in plan.row_groups:
        if len(group) == 1:
            stripe_results.append(store_of_tile[group[0]])
        else:
            stripe_results.append(
                builder.add_vertex(g.VertexKind.ADD, inputs=tuple(store_of_tile[t] for t in group))
            )
    if len(stripe_results) == 1:
        final = stripe_results[0]
    else:
        final = builder.add_vertex(
            g.VertexKind.CONCAT, payload={"axis": 1}, inputs=tuple(stripe_results)
        )
    builder.add_vertex(g.VertexKind.EXTERNAL_STORE, inputs=(final,))
    return builder.build()


def plan_to_json(plan: PartitionPlan) -> str:
    full, partial = allocation_counts(plan)
    doc = {
        "n": plan.n,
        "m": plan.m,
        "signed": plan.signed,
        "cap_rows": plan.cap_rows,
        "tiles": [
            {
                "rows": list(t.row_range),
                "cols": list(t.col_range),
                "array": list(t.array_binding),
                "sequence_index": t.sequence_index,
            }
            for t in plan.tiles
        ],
        "row_groups": [list(grp) for grp in plan.row_groups],
        "col_order": [list(c) for c in plan.col_order],
        "full_tiles": full,
        "partial_tiles": partial,
    }
    return json.dumps(doc, indent=2)
