"""Behavioral simulator of an analog multiply-accumulate accelerator.

Quantized matmuls run on simulated 256x256 synapse arrays with a calibrated
noise model; oversized operations are partitioned into a dataflow graph and
executed by a pipelined just-in-time scheduler. Convolutions lower to matmuls,
an analytical link model predicts throughput, and a small training stack
supports hardware-in-the-loop learning.
"""

from .chip import (
    ARRAYS_PER_CHIP,
    COLS,
    ROWS,
    SIGNED_ROWS,
    Chip,
    ChipConfig,
    HwParams,
    SynapseArray,
    duplicate_signed_inputs,
    load_chip_config,
    signed_row_pairs,
)
from .executor import (
    Executor,
    RunTrace,
    SimulatedChips,
    acquire_chips,
    configure_resources,
    global_resources,
    reset_resources,
    run,
    schedule_pipeline,
)
from .graph import DependencyGraph, GraphBuilder, VertexKind, topo_schedule, validate
from .lowering import (
    ConvSpec,
    conv1d_spec,
    conv2d_spec,
    execute_expanded,
    lower_conv,
    pack_expanded_matrix,
    plan_expansion,
    unroll_kernel,
)
from .partition import PartitionPlan, TileSpec, build_graph, partition_matmul
from .perf import (
    CostModel,
    LinkBudget,
    load_link_config,
    mac_rate,
    mac_rate_curve,
    time_per_run,
    wire_time,
)
from .quant import (
    QuantSpec,
    dequantize_outputs,
    quantize_inputs,
    quantize_weights,
    round_half_away,
)
from .tensor import Tensor, read_tensor, reshape, tensor, write_tensor

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
