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
    load_chip_config,
)
from .executor import Executor, SimulatedChips
from .graph import DependencyGraph, GraphBuilder, VertexKind, topo_schedule, validate
from .lowering import (
    ConvSpec,
    conv1d_spec,
    conv2d_spec,
    lower_conv,
    plan_expansion,
    unroll_kernel,
)
from .partition import PartitionPlan, TileSpec, build_graph, partition_matmul
from .perf import (
    CostModel,
    LinkBudget,
    RunTrace,
    load_link_config,
    mac_rate,
    mac_rate_curve,
    schedule_pipeline,
)
from .quant import QuantSpec, dequantize_outputs, quantize_inputs, quantize_weights
from .tensor import Tensor, read_tensor, reshape, tensor, write_tensor

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
