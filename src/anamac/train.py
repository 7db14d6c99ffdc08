"""Hardware-in-the-loop training and the activity-recognition demo.

The forward pass of a layer runs either through a clean software model
(clamped quantized matmul, optionally with additive Gaussian output noise for
robust pre-training) or through the full chip pipeline (quantize -> partition
-> graph -> jit execute -> dequantize). The backward pass always goes through
the conventional float matmul on the master weights; quantization is treated
as identity (straight-through), and scaling mismatches between the software
model and the hardware execution are absorbed by the learning rate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import lowering
from .chip import ChipConfig, HwParams
from .executor import Executor, SimulatedChips, global_resources
from .partition import build_graph, partition_matmul
from .quant import (
    OUTPUT_MAX,
    OUTPUT_MIN,
    QuantSpec,
    dequantize_outputs,
    input_scale_for,
    quantize_inputs,
    quantize_weights,
    to_fixed,
    weight_scale_for,
)
from .tensor import read_tensor, tensor, write_tensor


class MissingState(RuntimeError):
    pass


class MissingFile(FileNotFoundError):
    pass


class RaggedRow(ValueError):
    pass


class LabelOutOfRange(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


@dataclass
class ForwardContext:
    """Per-step execution settings shared by all layers of one forward pass."""

    backend: str = "software"  # software | chip
    resources: SimulatedChips | None = None  # None: the chip backend uses global_resources()
    noise_lsb: float = 0.0  # software-model Gaussian output noise, output LSB
    rng: np.random.Generator | None = None
    seed_salt: int = 0  # decorrelates chip temporal noise across steps


def quant_spec(x, w, gain: float) -> QuantSpec:
    """Max calibration of a signed-weight matmul whose chip outputs scale by ``gain``."""
    input_scale, weight_scale = input_scale_for(x), weight_scale_for(w)
    return QuantSpec(input_scale, weight_scale, input_scale * weight_scale / gain, signed_weights=True)


def quantized_matmul(
    x,
    w,
    resources: SimulatedChips,
    hw_params: HwParams | None = None,
    mode: str = "simulated_time",
    seed_salt: int = 0,
):
    """x @ w through the chip pipeline: quantize -> partition -> graph -> execute -> dequantize.

    Returns (y_float, RunTrace).
    """
    spec = quant_spec(x, w, resources.config.gain)
    xq = quantize_inputs(x, spec)
    wq = quantize_weights(w, spec)
    plan = partition_matmul(w.shape[0], w.shape[1], signed=True, arrays=resources.array_bindings())
    graph = build_graph(plan, wq, xq, hw_params=hw_params)
    outputs, trace = Executor(resources, seed_salt=seed_salt).run(graph, mode=mode)
    (y8,) = outputs.values()
    return dequantize_outputs(y8, spec), trace


def matmul_forward(x: np.ndarray, layer, ctx: ForwardContext):
    """Quantized matmul through the software model or the chip pipeline.

    Returns (y_float, saved_state); saved_state carries the float inputs and
    the dequantized outputs for the backward pass.
    """
    w = layer.weights
    if ctx.backend == "chip":
        # None: one global pool, so the fixed pattern persists across calls
        resources = ctx.resources if ctx.resources is not None else global_resources()
        y, _ = quantized_matmul(x, w, resources, getattr(layer, "hw_params", None), seed_salt=ctx.seed_salt)
    elif ctx.backend == "software":
        gain = ctx.resources.config.gain if ctx.resources is not None else ChipConfig().gain
        spec = quant_spec(x, w, gain)
        xq = quantize_inputs(x, spec)
        wq = quantize_weights(w, spec)
        # float64 BLAS is exact here: |acc| <= 31 * 63 * N stays far below 2**53
        acc = xq.astype(np.float64) @ wq.astype(np.float64)
        analog = gain * acc
        if ctx.noise_lsb > 0:
            rng = ctx.rng or np.random.default_rng()
            analog = analog + rng.normal(0.0, ctx.noise_lsb, size=analog.shape)
        y8 = to_fixed(analog, OUTPUT_MIN, OUTPUT_MAX, np.int8)
        y = dequantize_outputs(y8, spec)
    else:
        raise ValueError(f"unknown backend {ctx.backend!r}")

    state = {"x": np.asarray(x, dtype=np.float32), "y": y}
    return y, state


def matmul_backward(grad_y: np.ndarray, state, layer):
    """Gradients of the conventional matmul on the float master weights."""
    if state is None or "x" not in state:
        raise MissingState("backward called without a saved forward state")
    x = state["x"]
    grad_y = np.asarray(grad_y, dtype=np.float32)
    grad_x = grad_y @ layer.weights.T
    grad_w = x.T @ grad_y
    return grad_x, grad_w


class DenseLayer:
    """Linear layer without bias; float master weights, quantized on the way in."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, hw_params: HwParams | None = None):
        scale = 1.0 / np.sqrt(n_in)
        self.weights = (rng.uniform(-scale, scale, size=(n_in, n_out))).astype(np.float32)
        self.hw_params = hw_params or HwParams()
        self._state = None

    def forward(self, x, ctx: ForwardContext):
        y, self._state = matmul_forward(x, self, ctx)
        return y

    def backward(self, grad_y):
        grad_x, self.grad_w = matmul_backward(grad_y, self._state, self)
        return grad_x

    def step(self, lr: float):
        self.weights = (self.weights - lr * self.grad_w).astype(np.float32)


class Conv1dLayer:
    """1-d convolution lowered to a matmul; optional truncation of trailing positions."""

    def __init__(
        self,
        spec: lowering.ConvSpec,
        rng: np.random.Generator,
        hw_params: HwParams | None = None,
        truncate_positions: int | None = None,
    ):
        self.spec = spec
        scale = 1.0 / np.sqrt(spec.matrix_rows)
        self.kernel = rng.uniform(
            -scale, scale, size=(spec.out_channels, spec.in_channels) + spec.kernel
        ).astype(np.float32)
        self.hw_params = hw_params or HwParams()
        self.truncate_positions = truncate_positions
        self._state = None

    @property
    def weights(self):
        return lowering.unroll_kernel(self.spec, self.kernel)

    def forward(self, x, ctx: ForwardContext):
        x = np.asarray(x, dtype=np.float32)
        vectors = lowering.gather_input_vectors(self.spec, x)
        y_flat, state = matmul_forward(vectors, self, ctx)
        desc = lowering.OutputDescriptor(x.shape[0], self.spec.out_channels, self.spec.out_extent)
        y = desc.fold(y_flat)
        if self.truncate_positions is not None:
            y = y[..., : self.truncate_positions]
        self._state = {"x": state["x"], "batch": x.shape[0]}
        return y

    def backward(self, grad_y):
        if self._state is None:
            raise MissingState("backward called without a saved forward state")
        spec = self.spec
        batch = self._state["batch"]
        positions = spec.positions
        grad_full = np.zeros((batch, spec.out_channels) + spec.out_extent, dtype=np.float32)
        grad_full[..., : grad_y.shape[-1]] = grad_y
        # (B, C_out, P) -> (B * P, C_out), matching gather_input_vectors order
        grad_flat = grad_full.reshape(batch, spec.out_channels, positions)
        grad_flat = np.ascontiguousarray(grad_flat.transpose(0, 2, 1)).reshape(-1, spec.out_channels)
        grad_matrix = self._state["x"].T @ grad_flat
        self.grad_kernel = self._fold_matrix_grad(grad_matrix)
        return None  # first-layer use only; input gradient not propagated

    def _fold_matrix_grad(self, grad_matrix):
        spec = self.spec
        g = grad_matrix.reshape(spec.taps, spec.in_channels, spec.out_channels)
        return np.ascontiguousarray(g.transpose(2, 1, 0)).reshape(
            (spec.out_channels, spec.in_channels) + spec.kernel
        )

    def step(self, lr: float):
        self.kernel = (self.kernel - lr * self.grad_kernel).astype(np.float32)


class ReLU:
    def forward(self, x, ctx):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        return grad * self._mask

    def step(self, lr):
        pass


class Flatten:
    def forward(self, x, ctx):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)

    def step(self, lr):
        pass


class Sequential:
    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, ctx: ForwardContext):
        for layer in self.layers:
            x = layer.forward(x, ctx)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
            if grad is None:
                break

    def step(self, lr):
        for layer in self.layers:
            layer.step(lr)


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_grad(logits, labels0):
    """Mean cross-entropy gradient w.r.t. logits; labels0 are 0-based."""
    p = softmax(logits)
    p[np.arange(len(labels0)), labels0] -= 1.0
    return p / len(labels0)


def confusion_matrix(preds, labels, n_classes: int):
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise LengthMismatch(f"{len(preds)} predictions vs {len(labels)} labels")
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, t in zip(preds, labels):
        matrix[t, p] += 1
    row_sums = matrix.sum(axis=1)
    recall = np.divide(
        np.diag(matrix), row_sums, out=np.zeros(n_classes, dtype=np.float64), where=row_sums > 0
    )
    return matrix, recall


@dataclass
class HarDataset:
    train_x: np.ndarray  # (n, 9, 128) f32
    train_y: np.ndarray  # (n,) labels in 1..6
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int = 6


HAR_SIGNALS = [
    "body_acc_x",
    "body_acc_y",
    "body_acc_z",
    "body_gyro_x",
    "body_gyro_y",
    "body_gyro_z",
    "total_acc_x",
    "total_acc_y",
    "total_acc_z",
]
HAR_TIMESTEPS = 128


def _read_signal_file(path, width):
    if not os.path.isfile(path):
        raise MissingFile(path)
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            vals = line.split()
            if not vals:
                continue
            if len(vals) != width:
                raise RaggedRow(f"{path}:{lineno}: {len(vals)} columns, expected {width}")
            rows.append([float(v) for v in vals])
    return np.asarray(rows, dtype=np.float32)


def _load_split(root, split):
    channels = []
    for sig in HAR_SIGNALS:
        path = os.path.join(root, split, "Inertial Signals", f"{sig}_{split}.txt")
        channels.append(_read_signal_file(path, HAR_TIMESTEPS))
    x = np.stack(channels, axis=1)  # (n, 9, 128)
    y_path = os.path.join(root, split, f"y_{split}.txt")
    if not os.path.isfile(y_path):
        raise MissingFile(y_path)
    labels = np.loadtxt(y_path, dtype=np.int64).reshape(-1)
    if labels.min(initial=1) < 1 or labels.max(initial=1) > 6:
        raise LabelOutOfRange(f"labels must be in 1..6, got range {labels.min()}..{labels.max()}")
    if len(labels) != len(x):
        raise LengthMismatch(f"{len(x)} samples vs {len(labels)} labels in split {split}")
    return x, labels


def load_har(directory) -> HarDataset:
    """Load the inertial-signals activity dataset (9 channels x 128 steps)."""
    train_x, train_y = _load_split(directory, "train")
    test_x, test_y = _load_split(directory, "test")
    return HarDataset(train_x, train_y, test_x, test_y)


def har_model(rng: np.random.Generator, hw_params: HwParams | None = None) -> Sequential:
    """Conv1d 9->16 (k=32, s=6) + ReLU, Linear 256->125 + ReLU, Linear 125->6.

    The conv output is truncated to 16 positions so the flattened feature
    vector is exactly 256 wide.
    """
    conv_spec = lowering.conv1d_spec(9, 16, k=32, stride=6, extent=HAR_TIMESTEPS)
    return Sequential(
        [
            Conv1dLayer(conv_spec, rng, hw_params, truncate_positions=16),
            ReLU(),
            Flatten(),
            DenseLayer(256, 125, rng, hw_params),
            ReLU(),
            DenseLayer(125, 6, rng, hw_params),
        ]
    )


def stride_shift_augment(x, y, stride: int):
    """Append copies of the data shifted by +-stride timesteps (zero-filled)."""
    shifted = []
    for s in (stride, -stride):
        xs = np.zeros_like(x)
        if s > 0:
            xs[..., s:] = x[..., :-s]
        else:
            xs[..., :s] = x[..., -s:]
        shifted.append(xs)
    return np.concatenate([x] + shifted), np.concatenate([y] * 3)


def evaluate(model, x, labels0, ctx: ForwardContext, batch_size: int = 256):
    preds = []
    n_classes = 0
    for lo in range(0, len(x), batch_size):
        logits = model.forward(x[lo : lo + batch_size], ctx)
        n_classes = logits.shape[1]
        preds.append(np.argmax(logits, axis=1))
    preds = np.concatenate(preds)
    acc = float(np.mean(preds == labels0))
    matrix, recall = confusion_matrix(preds, labels0, n_classes)
    return acc, matrix, recall


def save_checkpoint(model: Sequential, directory) -> None:
    """Persist all learnable parameters plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for idx, layer in enumerate(model.layers):
        if isinstance(layer, Conv1dLayer):
            name = f"layer{idx:02d}_kernel.tns"
            write_tensor(tensor(layer.kernel, dtype="f32"), os.path.join(directory, name))
            manifest.append({"layer": idx, "kind": "conv1d", "file": name})
        elif isinstance(layer, DenseLayer):
            name = f"layer{idx:02d}_weights.tns"
            write_tensor(tensor(layer.weights, dtype="f32"), os.path.join(directory, name))
            manifest.append({"layer": idx, "kind": "dense", "file": name})
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump({"format": 1, "parameters": manifest}, f, indent=2)


def load_checkpoint(model: Sequential, directory) -> None:
    """Restore parameters saved by save_checkpoint into a matching model."""
    path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(path):
        raise MissingFile(path)
    with open(path) as f:
        manifest = json.load(f)
    for entry in manifest["parameters"]:
        layer = model.layers[entry["layer"]]
        values = read_tensor(os.path.join(directory, entry["file"])).array
        if entry["kind"] == "conv1d":
            if values.shape != layer.kernel.shape:
                raise LengthMismatch(f"kernel shape {values.shape} vs model {layer.kernel.shape}")
            layer.kernel = values.astype(np.float32)
        elif entry["kind"] == "dense":
            if values.shape != layer.weights.shape:
                raise LengthMismatch(f"weight shape {values.shape} vs model {layer.weights.shape}")
            layer.weights = values.astype(np.float32)
        else:
            raise ValueError(f"unknown parameter kind {entry['kind']!r}")


def metrics_to_csv(metrics) -> str:
    """epoch,split,accuracy rows for both splits of every epoch."""
    lines = ["epoch,split,accuracy"]
    for m in metrics:
        lines.append(f"{m['epoch']},train,{m['train_accuracy']!r}")
        lines.append(f"{m['epoch']},test,{m['test_accuracy']!r}")
    return "\n".join(lines) + "\n"


def train_model(
    model: Sequential,
    train_x,
    train_y0,
    test_x,
    test_y0,
    backend: str = "software",
    epochs: int = 1,
    lr: float = 0.05,
    batch_size: int = 64,
    seed: int = 0,
    noise_lsb: float = 0.0,
    resources: SimulatedChips | None = None,
    augment_stride_shift: bool = False,
):
    """Minibatch SGD with cross-entropy; labels are 0-based here.

    Returns one metrics dict per epoch (accuracy + confusion matrix for both
    splits). The chip backend runs the noisy forward pipeline while gradients
    flow through the clean software model of each layer.
    """
    rng = np.random.default_rng(seed)
    if augment_stride_shift:
        conv = next((l for l in model.layers if isinstance(l, Conv1dLayer)), None)
        if conv is not None:
            train_x, train_y0 = stride_shift_augment(train_x, train_y0, conv.spec.stride[0])

    metrics = []
    salt = 1
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_x))
        for lo in range(0, len(order), batch_size):
            batch = order[lo : lo + batch_size]
            ctx = ForwardContext(
                backend=backend,
                resources=resources,
                noise_lsb=noise_lsb,
                rng=rng,
                seed_salt=salt,
            )
            salt += 1
            logits = model.forward(train_x[batch], ctx)
            grad = cross_entropy_grad(logits, train_y0[batch])
            model.backward(grad)
            model.step(lr)
        eval_ctx = ForwardContext(backend=backend, resources=resources, seed_salt=salt)
        salt += 1
        train_acc, _, _ = evaluate(model, train_x, train_y0, eval_ctx)
        test_acc, conf, recall = evaluate(model, test_x, test_y0, eval_ctx)
        metrics.append(
            {
                "epoch": epoch,
                "train_accuracy": train_acc,
                "test_accuracy": test_acc,
                "confusion": conf,
                "recall": recall,
            }
        )
    return metrics
