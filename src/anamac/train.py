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
from dataclasses import dataclass, field

import numpy as np

from . import lowering
from .chip import ChipConfig, HwParams, gaussian_noise
from .executor import Executor, SimulatedChips
from .partition import build_graph, partition_matmul
from .quant import (
    INPUT_MAX,
    WEIGHT_MAX,
    QuantSpec,
    dequantize_outputs,
    digitise,
    input_scale_for,
    quantize_inputs,
    quantize_weights,
    weight_scale_for,
)
from .tensor import read_tensor, tensor, write_tensor


# Rows of an integer product that float32 sums exactly: every partial sum of up
# to this many products of |x| <= 31 and |w| <= 63 stays below 2**24.
_EXACT_F32_ROWS = 2**24 // (INPUT_MAX * WEIGHT_MAX)


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
    # the chip backend's pool, required there; one pool keeps its fixed pattern across calls
    resources: SimulatedChips | None = None
    noise_lsb: float = 0.0  # software-model Gaussian output noise, output LSB, drawn by chip.gaussian_noise
    rng: np.random.Generator | None = None  # required when noise_lsb > 0
    seed_salt: int = 0  # decorrelates chip temporal noise across steps
    # chip matmuls run so far; each keys its noise by (seed_salt, its number)
    chip_runs: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.noise_lsb < np.inf:
            raise ValueError(f"noise_lsb must be finite and >= 0, got {self.noise_lsb!r}")
        if self.backend == "chip" and self.resources is None:
            raise ValueError("the chip backend needs an explicit SimulatedChips pool (resources=...)")


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
    xq, wq = quantize_inputs(x, spec), quantize_weights(w, spec)
    return _chip_matmul(xq, wq, spec, resources, hw_params, mode, seed_salt)


def _chip_matmul(xq, wq, spec: QuantSpec, resources: SimulatedChips, hw_params, mode, seed_salt):
    plan = partition_matmul(wq.shape[0], wq.shape[1], signed=True, arrays=resources.array_bindings())
    graph = build_graph(plan, wq, xq, hw_params=hw_params)
    outputs, trace = Executor(resources, seed_salt=seed_salt).run(graph, mode=mode)
    (y8,) = outputs.values()
    return dequantize_outputs(y8, spec), trace


def _gain(ctx: ForwardContext) -> float:
    """The output gain of ``ctx``'s chips, or of the default chip when it has no pool."""
    return ctx.resources.config.gain if ctx.resources is not None else ChipConfig().gain


def _forward_quantized(xq, wq, spec: QuantSpec, layer, ctx: ForwardContext):
    """Dequantized ``xq @ wq`` through ``ctx``'s backend, calibrated by ``spec``."""
    if ctx.backend == "chip":
        hw_params = getattr(layer, "hw_params", None)
        salt = (ctx.seed_salt, ctx.chip_runs)  # no two runs of one context share a noise key
        ctx.chip_runs += 1
        y, _ = _chip_matmul(xq, wq, spec, ctx.resources, hw_params, "simulated_time", salt)
        return y
    if ctx.backend != "software":
        raise ValueError(f"unknown backend {ctx.backend!r}")
    analog = _gain(ctx) * _integer_product(xq, wq)
    if ctx.noise_lsb > 0:
        if ctx.rng is None:
            raise ValueError("software noise (noise_lsb > 0) needs a seeded ForwardContext.rng")
        analog += gaussian_noise(ctx.rng, analog.shape, ctx.noise_lsb)
    return dequantize_outputs(digitise(analog, np.empty(analog.shape, np.int8)), spec)


def _integer_product(xq, wq) -> np.ndarray:
    """The exact float64 ``xq @ wq`` of input and weight codes, by float32 BLAS.

    Each chunk of ``_EXACT_F32_ROWS`` rows is exact in float32, and the chunk
    results are summed in float64, which is exact too.
    """
    acc = np.zeros(xq.shape[:-1] + wq.shape[1:], np.float64)
    for lo in range(0, wq.shape[0], _EXACT_F32_ROWS):
        hi = lo + _EXACT_F32_ROWS
        acc += xq[..., lo:hi].astype(np.float32) @ wq[lo:hi].astype(np.float32)
    return acc


def matmul_forward(x: np.ndarray, layer, ctx: ForwardContext):
    """Quantized matmul through the software model or the chip pipeline.

    Returns (y_float, saved_state); saved_state carries the float inputs for
    the backward pass.
    """
    w = layer.weights
    spec = quant_spec(x, w, _gain(ctx))
    y = _forward_quantized(quantize_inputs(x, spec), quantize_weights(w, spec), spec, layer, ctx)
    return y, {"x": np.asarray(x, dtype=np.float32)}


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
    """1-d convolution lowered to a matmul; reads the leading ``spec.extent`` samples."""

    def __init__(self, spec: lowering.ConvSpec, rng: np.random.Generator, hw_params: HwParams | None = None):
        self.spec = spec
        scale = 1.0 / np.sqrt(spec.matrix_rows)
        self.kernel = rng.uniform(
            -scale, scale, size=(spec.out_channels, spec.in_channels) + spec.kernel
        ).astype(np.float32)
        self.hw_params = hw_params or HwParams()
        self._state = None

    @property
    def weights(self):
        return lowering.unroll_kernel(self.spec, self.kernel)

    def forward(self, x, ctx: ForwardContext):
        """``matmul_forward`` on the gathered input vectors, folded to (B, C_out, *P).

        An input longer than ``spec.extent`` is read as its leading extent, a
        view, so samples past it set no scale and get no gradient. The input
        scale is calibrated on a view of the samples that some window reads:
        the values of the vectors, so the same scale, with no copy. Each input
        sample is then quantized once, not once per window it falls in, and
        the integer windows are gathered from the quantized signal: the same
        operands as quantizing the vectors. The forward gathers no float
        windows; the backward pass keeps the float view and gathers them.
        """
        x = lowering._leading_extent(self.spec, np.asarray(x, dtype=np.float32))
        w = self.weights
        spec = quant_spec(lowering._read_samples(self.spec, x), w, _gain(ctx))
        xq = lowering.gather_input_vectors(self.spec, quantize_inputs(x, spec))
        y_flat = _forward_quantized(xq, quantize_weights(w, spec), spec, self, ctx)
        self._state = {"x": x}
        desc = lowering.OutputDescriptor(x.shape[0], self.spec.out_channels, self.spec.out_extent)
        return desc.fold(y_flat)

    def backward(self, grad_y):
        if self._state is None:
            raise MissingState("backward called without a saved forward state")
        # (B, C_out, *P) -> (B * P, C_out), matching gather_input_vectors order
        grad_y = np.moveaxis(np.asarray(grad_y, np.float32), 1, -1)
        grad_flat = np.ascontiguousarray(grad_y).reshape(-1, self.spec.out_channels)
        grad_matrix = lowering.gather_input_vectors(self.spec, self._state["x"]).T @ grad_flat
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

    The conv computes 16 positions, so the flattened feature vector is
    exactly 256 wide. They read the leading (16 - 1) * 6 + 32 = 122 samples
    of the dataset's 128-sample windows; samples 122-127 are not read.
    """
    conv_spec = lowering.conv1d_spec(9, 16, k=32, stride=6, extent=(16 - 1) * 6 + 32)
    return Sequential(
        [
            Conv1dLayer(conv_spec, rng, hw_params),
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
