"""The benchmark's workloads: seeded inputs, the op, and its correctness checks.

Each workload drives the package only through its public Python API. One op
is the unit of closed-loop work (a matmul, or one SGD step); ops cycle through
``cycle`` seeded input sets, so the op with index ``i`` must repeat, byte for
byte, the reference op ``i % cycle`` computed before the timed loop.

Every workload exercises the same modules but puts its weight on a different
one, so that an optimisation of one module shows on one workload and predicts
"no change" on another (see README.md).
"""

from __future__ import annotations

import numpy as np

from anamac import lowering, partition, quant, train
from anamac.chip import SIGNED_ROWS, ChipConfig, HwParams
from anamac.executor import Executor, SimulatedChips

HAR_LR = 0.05  # the train-har default


def oracle_y8(xq, wq, gain, tile_rows):
    """Noise-free chip output of ``xq @ wq`` in plain int64 arithmetic.

    The partitioned semantics: every row tile of at most ``tile_rows`` rows is
    digitised on its own (round half away from zero of ``gain * acc``, then
    clamp to the 8-bit ADC range); the tiles of a column are then summed by
    the digital ADD, whose result is clamped to the same range again.
    """
    div = round(1.0 / gain)
    if div < 2 or div % 2 or div * gain != 1.0:
        raise ValueError(f"oracle needs gain 1/(2k), got {gain}")
    x = np.asarray(xq, dtype=np.int64)
    w = np.asarray(wq, dtype=np.int64)
    total = np.zeros((x.shape[0], w.shape[1]), dtype=np.int64)
    for r0 in range(0, w.shape[0], tile_rows):
        acc = x[:, r0 : r0 + tile_rows] @ w[r0 : r0 + tile_rows]
        tile = np.sign(acc) * ((np.abs(acc) + div // 2) // div)
        total += np.clip(tile, quant.OUTPUT_MIN, quant.OUTPUT_MAX)
    return np.clip(total, quant.OUTPUT_MIN, quant.OUTPUT_MAX)


def noise_free(config: ChipConfig) -> ChipConfig:
    """The same chip with every noise source off and the same global gain."""
    return ChipConfig(
        chip_seed=config.chip_seed,
        sigma_fixed=0.0,
        sigma_offset=0.0,
        sigma_temporal=0.0,
        gain=config.gain,
        hw_version=config.hw_version,
    )


def rms(a, b) -> float:
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.mean(d * d)))


def matmul_spec(x, w, gain) -> quant.QuantSpec:
    """Max calibration, as ``anamac matmul`` does."""
    return quant.QuantSpec(
        input_scale=quant.input_scale_for(x),
        weight_scale=quant.weight_scale_for(w),
        output_scale=quant.input_scale_for(x) * quant.weight_scale_for(w) / gain,
        signed_weights=True,
    )


class MatmulWorkload:
    """``anamac matmul`` with its defaults, minus the tensor file I/O.

    One op: quantize, partition, build graph, execute, dequantize. Inputs are
    non-negative activations and zero-mean weights.
    """

    cycle = 2

    def __init__(self, seed, n, m, batch, chips, mode, workers=None):
        self.seed, self.n, self.m, self.batch, self.chips, self.mode = seed, n, m, batch, chips, mode
        self.workers = workers
        self.logical_macs = batch * n * m
        self.simulated = mode == "simulated_time"

    def make_inputs(self):
        rng = np.random.default_rng(self.seed)
        self.inputs = [
            (
                rng.random((self.batch, self.n), dtype=np.float32),
                rng.standard_normal((self.n, self.m), dtype=np.float32),
            )
            for _ in range(self.cycle)
        ]

    def setup(self):
        self.config = ChipConfig()
        self.resources = SimulatedChips(self.chips, self.config)
        self.resources.initialize()

    def _matmul(self, resources, x, w, mode):
        spec = matmul_spec(x, w, resources.config.gain)
        plan = partition.partition_matmul(
            w.shape[0], w.shape[1], signed=True, arrays=resources.array_bindings()
        )
        graph = partition.build_graph(
            plan,
            quant.quantize_weights(w, spec),
            quant.quantize_inputs(x, spec),
            hw_params=HwParams(),
        )
        outputs, trace = Executor(resources, workers=self.workers).run(graph, mode=mode)
        (y8,) = outputs.values()
        return y8, quant.dequantize_outputs(y8, spec), trace

    def traced_layers(self):
        return {}

    def prepare(self, i):
        pass

    def run(self, i):
        x, w = self.inputs[i % self.cycle]
        return self._matmul(self.resources, x, w, self.mode)

    def reference(self, k):
        """The reference for measured_time ops is the simulated_time run of the same graph."""
        x, w = self.inputs[k]
        return self._matmul(self.resources, x, w, "simulated_time")

    def outputs(self, result):
        y8, y, trace = result
        if self.simulated:
            return y8, y, np.float64(trace.makespan)
        return y8, y

    def check(self):
        """(noise-free op bit-exact against the oracle, output RMSE in LSB)."""
        pure = SimulatedChips(self.chips, noise_free(self.config))
        ok, errors = True, []
        for x, w in self.inputs:
            spec = matmul_spec(x, w, self.config.gain)
            ideal = oracle_y8(
                quant.quantize_inputs(x, spec),
                quant.quantize_weights(w, spec),
                self.config.gain,
                SIGNED_ROWS,
            )
            y8_pure, _, _ = self._matmul(pure, x, w, "simulated_time")
            ok &= np.array_equal(y8_pure, ideal)
            y8_noisy, _, _ = self._matmul(self.resources, x, w, "simulated_time")
            errors.append(rms(y8_noisy, ideal))
        return bool(ok), float(np.mean(errors))


class HarStepWorkload:
    """One SGD step of ``train.har_model``: forward, backward, update.

    Ops run in cycles of ``cycle`` steps that start from the initial weights,
    with the step's noise salt fixed by its place in the cycle, so that every
    step repeats a reference step exactly. Signals are synthetic (B, 9, 128)
    normal draws with labels in 0..5; the HAR dataset is not needed.
    """

    cycle = 4
    batch = 64  # the train-har default

    def __init__(self, seed, backend):
        self.seed, self.backend = seed, backend
        self.simulated = backend == "chip"

    def make_inputs(self):
        rng = np.random.default_rng([self.seed, 1])
        self.inputs = [
            (
                rng.standard_normal((self.batch, 9, train.HAR_TIMESTEPS), dtype=np.float32),
                rng.integers(0, 6, size=self.batch),
            )
            for _ in range(self.cycle)
        ]

    def setup(self):
        self.resources = None
        if self.backend == "chip":
            self.resources = SimulatedChips(1)
            self.resources.initialize()
        self.model = train.har_model(np.random.default_rng(self.seed))
        self.conv, _, _, self.dense1, _, self.dense2 = self.model.layers
        self.initial = self._params()
        spec = self.conv.spec
        self.logical_macs = (
            self.batch * spec.positions * spec.matrix_rows * spec.out_channels
            + sum(self.batch * l.weights.size for l in (self.dense1, self.dense2))
        )

    def _params(self):
        return self.conv.kernel.copy(), self.dense1.weights.copy(), self.dense2.weights.copy()

    def traced_layers(self):
        return {"conv": self.conv, "dense1": self.dense1, "dense2": self.dense2}

    def prepare(self, i):
        if i % self.cycle == 0:
            kernel, w1, w2 = self.initial
            self.conv.kernel, self.dense1.weights, self.dense2.weights = kernel.copy(), w1.copy(), w2.copy()

    def run(self, i):
        k = i % self.cycle
        x, labels = self.inputs[k]
        ctx = train.ForwardContext(backend=self.backend, resources=self.resources, seed_salt=k + 1)
        logits = self.model.forward(x, ctx)
        self.model.backward(train.cross_entropy_grad(logits, labels))
        self.model.step(HAR_LR)
        return logits

    def reference(self, k):
        self.prepare(k)
        return self.run(k)

    def outputs(self, logits):
        return (logits,) + self._params()

    def check(self):
        """The first (conv) layer's matmul, whose input carries no upstream noise.

        Returns (noise-free result bit-exact against the oracle, RMS error in
        output LSB of the workload's backend against it).
        """
        kernel, _, _ = self.initial
        vectors = lowering.gather_input_vectors(self.conv.spec, self.inputs[0][0])
        w = lowering.unroll_kernel(self.conv.spec, kernel)
        gain = ChipConfig().gain
        spec = matmul_spec(vectors, w, gain)
        xq, wq = quant.quantize_inputs(vectors, spec), quant.quantize_weights(w, spec)
        if self.backend == "software":  # one digitisation of the whole matmul
            self.prepare(0)
            y, _ = train.matmul_forward(vectors, self.conv, train.ForwardContext())
            ideal = quant.dequantize_outputs(oracle_y8(xq, wq, gain, w.shape[0]), spec)
            return bool(np.array_equal(y, ideal)), rms(y, ideal) / spec.output_scale

        ideal = oracle_y8(xq, wq, gain, SIGNED_ROWS)
        results = []
        for resources in (SimulatedChips(1, noise_free(self.resources.config)), self.resources):
            plan = partition.partition_matmul(
                *w.shape, signed=True, arrays=resources.array_bindings()
            )
            graph = partition.build_graph(plan, wq, xq, hw_params=self.conv.hw_params)
            outputs, _ = Executor(resources).run(graph)
            (y8,) = outputs.values()
            results.append(y8)
        return bool(np.array_equal(results[0], ideal)), rms(results[1], ideal)


WORKLOADS = {
    "matmul_tiled": lambda seed: MatmulWorkload(seed, 2048, 2048, 16, 1, "simulated_time"),
    # Two pool threads, not the CLI's one per instance (32): more runnable
    # threads than the machine's two cores make the op time the scheduler's.
    "matmul_threaded": lambda seed: MatmulWorkload(seed, 1000, 1000, 256, 2, "measured_time", workers=2),
    "har_step_chip": lambda seed: HarStepWorkload(seed, "chip"),
    "har_step_software": lambda seed: HarStepWorkload(seed, "software"),
}
