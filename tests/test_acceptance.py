"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion. Oracles are computed
independently of the implementation under test (plain int64 numpy arithmetic)
and operands are constructed so that intermediate results never saturate
unless saturation itself is the property being checked.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from anamac import graph as g
from anamac import lowering, perf
from anamac.chip import ChipConfig, HwParams
from anamac.executor import Executor, SimulatedChips, instance_rng
from anamac.partition import allocation_counts, build_graph, partition_matmul
from anamac.tensor import tensor, write_csv

NOISELESS = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=0.0, gain=1.0)


@contextlib.contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} ({label}): FAIL")
        raise
    print(f"CRITERION {number} ({label}): PASS")


def _ceil(a, b):
    return -(-a // b)


def _sparse_operands(rng, n, m, batch, signed):
    """Random operands whose absolute accumulation never exceeds the i8 range.

    Per batch row at most 30 nonzero inputs of value <= 3 meet weights of
    magnitude <= 1, so every partial and total sum lies within +-90.
    """
    w = np.zeros((n, m), dtype=np.int8)
    nz = rng.random((n, m)) < min(1.0, 50.0 / n)
    w[nz] = rng.integers(-1, 2, size=nz.sum()) if signed else rng.integers(0, 2, size=nz.sum())
    x = np.zeros((batch, n), dtype=np.uint8)
    for b in range(batch):
        k = int(rng.integers(1, 31))
        cols = rng.choice(n, size=min(k, n), replace=False)
        x[b, cols] = rng.integers(1, 4, size=len(cols))
    return w, x


def test_criterion_1_oracle_equivalence():
    """Full pipeline == clamped integer matmul, bit-exact, 1000 random cases."""
    with verdict(1, "oracle equivalence"):
        rng = np.random.default_rng(2024)
        resources = SimulatedChips(2, NOISELESS)
        start = time.monotonic()
        for _ in range(1000):
            n = int(rng.integers(1, 601))
            m = int(rng.integers(1, 601))
            batch = int(rng.integers(1, 4))
            signed = bool(rng.integers(0, 2))
            w, x = _sparse_operands(rng, n, m, batch, signed)
            plan = partition_matmul(n, m, signed=signed, arrays=resources.array_bindings())
            graph = build_graph(plan, w, x)
            outputs, _ = Executor(resources).run(graph)
            (y,) = outputs.values()
            oracle = np.clip(x.astype(np.int64) @ w.astype(np.int64), -128, 127)
            assert np.array_equal(y, oracle), (n, m, batch, signed)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _random_conv_spec(rng):
    dims = int(rng.integers(1, 3))
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 5))
    if dims == 1:
        k = (int(rng.integers(1, 5)),)
        s = (int(rng.integers(1, 4)),)
        ext = (k[0] + int(rng.integers(0, 10)),)
    else:
        k = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        s = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        ext = (k[0] + int(rng.integers(0, 5)), k[1] + int(rng.integers(0, 5)))
    return lowering.ConvSpec(dims, c_in, c_out, k, s, ext)


def test_criterion_2_conv_lowering_equivalence():
    """Lowered conv through the noiseless pipeline == direct convolution."""
    with verdict(2, "conv lowering equivalence"):
        rng = np.random.default_rng(7)
        resources = SimulatedChips(2, NOISELESS)
        for _ in range(500):
            spec = _random_conv_spec(rng)
            # |sum| <= taps * C_in * 2 <= 48 * 2 = 96: saturation-free
            kernel = np.where(
                rng.random((spec.out_channels, spec.in_channels) + spec.kernel) < 0.4,
                rng.integers(-1, 2, (spec.out_channels, spec.in_channels) + spec.kernel),
                0,
            ).astype(np.int64)
            x = rng.integers(0, 3, size=(2, spec.in_channels) + spec.extent).astype(np.int64)
            matrix, vectors, desc = lowering.lower_conv(spec, kernel, x)
            plan = partition_matmul(
                spec.matrix_rows, spec.out_channels, signed=True, arrays=resources.array_bindings()
            )
            graph = build_graph(plan, matrix.astype(np.int8), vectors.astype(np.uint8))
            outputs, _ = Executor(resources).run(graph)
            (flat,) = outputs.values()
            y = desc.fold(flat)
            assert np.array_equal(y, lowering.direct_conv(spec, kernel, x)), spec


def test_criterion_3_partition_accounting():
    """Tile counts are exactly ceil-division; partial tiles grow O(N + M)."""
    with verdict(3, "partition accounting"):
        arrays = [(0, 0), (0, 1)]
        for size in (256, 300, 512, 1000, 4096):
            for signed, cap in ((True, 128), (False, 256)):
                plan = partition_matmul(size, size, signed=signed, arrays=arrays)
                assert len(plan.tiles) == _ceil(size, cap) * _ceil(size, 256)
        for n in np.linspace(1, 3000, 20).astype(int):
            for m in np.linspace(1, 3000, 20).astype(int):
                for signed, cap in ((True, 128), (False, 256)):
                    plan = partition_matmul(int(n), int(m), signed=signed, arrays=arrays)
                    _, partial = allocation_counts(plan)
                    assert partial <= _ceil(int(n), cap) + _ceil(int(m), 256)


def _four_instance_graph():
    """Dependencies 2 <- {1, 3} (via a digital sum) and 4 <- {1}."""
    b = g.GraphBuilder()

    def chain(data=None, source=None, weights=None, iid=None, binding=(0, 0)):
        payload = {"data": data} if data is not None else {"source": source}
        load = b.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload=payload)
        matrix = b.add_vertex(
            g.VertexKind.SYNAPSE_MATRIX,
            payload={"weights": weights, "signed": False},
            inputs=(load,),
        )
        neurons = b.add_vertex(g.VertexKind.NEURONS, inputs=(matrix,))
        digitize = b.add_vertex(g.VertexKind.DIGITIZE, inputs=(neurons,))
        store = b.add_vertex(g.VertexKind.STORE, inputs=(digitize,))
        b.add_instance((load, matrix, neurons, digitize, store), binding, instance_id=iid)
        return store

    w = (np.eye(4) * 2).astype(np.int8)
    s1 = chain(data=np.array([[1, 2, 3, 4]], dtype=np.uint8), weights=w, iid=1)
    s3 = chain(data=np.array([[4, 3, 2, 1]], dtype=np.uint8), weights=w, iid=3, binding=(0, 1))
    add = b.add_vertex(g.VertexKind.ADD, inputs=(s1, s3))
    s2 = chain(source=add, weights=np.eye(4, dtype=np.int8), iid=2, binding=(0, 1))
    s4 = chain(source=s1, weights=np.eye(4, dtype=np.int8), iid=4)
    out2 = b.add_vertex(g.VertexKind.EXTERNAL_STORE, inputs=(s2,))
    out4 = b.add_vertex(g.VertexKind.EXTERNAL_STORE, inputs=(s4,))
    return b.build(), out2, out4


def test_criterion_4_pipelined_schedule():
    """The four-instance graph pipelines, keeps outputs, orders as [1,3,2,4]."""
    with verdict(4, "pipelined schedule"):
        graph, out2, out4 = _four_instance_graph()
        assert g.topo_schedule(graph) == [1, 3, 2, 4]
        resources = SimulatedChips(1, NOISELESS)
        pipelined, trace_p = Executor(resources).run(graph)
        serial, trace_s = Executor(resources).run(graph, force_serial=True)
        assert trace_p.makespan < trace_s.makespan
        for vid in (out2, out4):
            assert np.array_equal(pipelined[vid], serial[vid])
        # (1,2,3,4)*2 + (4,3,2,1)*2 = (10,10,10,10); identity keeps it
        assert np.array_equal(pipelined[out2], [[10, 10, 10, 10]])
        assert np.array_equal(pipelined[out4], [[2, 4, 6, 8]])


def test_criterion_5_throughput_anchors():
    """Frozen-calibration link model reproduces the published anchors."""
    with verdict(5, "throughput anchors"):
        # (a) 256 x 256, batch 2000, 8 Gbit/s: 14.7 GOP/s +- 10%
        rate = perf.mac_rate(256, 256, 2000, "sim_8g")
        assert 14.7e9 * 0.9 <= rate <= 14.7e9 * 1.1, rate
        # (b) batch where the 1 GbE second-version setup reaches half its asymptote
        b50 = perf.half_rate_batch("v2_1gbe")
        assert 150 <= b50 <= 250, b50
        # (c) full-bandwidth vs 1 GbE asymptote ratio ~ 5
        ratio = perf.asymptotic_rate("sim_8g") / perf.asymptotic_rate("v2_1gbe")
        assert 4.0 <= ratio <= 6.0, ratio
        # (d) rate monotone in batch; near-quadratic growth below one array size
        batches = [1, 5, 25, 125, 625, 3125]
        for scenario in perf.SCENARIOS:
            rates = [perf.mac_rate(256, 256, b, scenario) for b in batches]
            assert all(r2 > r1 for r1, r2 in zip(rates, rates[1:])), scenario
        sizes = [1, 2, 4, 8, 16, 32, 64, 128, 256]
        srates = [perf.mac_rate(s, s, 2000, "sim_8g") for s in sizes]
        assert all(r2 > r1 for r1, r2 in zip(srates, srates[1:]))
        # each size doubling quadruples the work; the rate should track the
        # operand area (ratio ~4) while overheads are negligible and must stay
        # clearly super-linear (ratio > 2) all the way up to one array
        for s, (r1, r2) in zip(sizes, zip(srates, srates[1:])):
            assert r2 / r1 > 2.0, (s, r1, r2)
            if s <= 8:
                assert r2 / r1 >= 3.0, (s, r1, r2)


def test_criterion_6_noise_model():
    """Temporal noise std == sigma/sqrt(num_sends) within 5% over 1e4 runs."""
    with verdict(6, "noise model"):
        sigma = 8.0
        cfg = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=sigma, gain=1.0)
        resources = SimulatedChips(1, cfg)
        array = resources.array((0, 0))
        array.configure(np.zeros((256, 256), dtype=np.int8))
        x = np.zeros((10_000, 256), dtype=np.uint8)
        stds = {}
        for ns in (1, 6):
            y = array.mac(x, HwParams(num_sends=ns), np.random.default_rng(99))
            stds[ns] = y[:, 0].astype(np.float64).std()
            assert abs(stds[ns] - sigma / np.sqrt(ns)) <= 0.05 * sigma / np.sqrt(ns), (ns, stds[ns])
        assert abs(stds[1] / stds[6] - np.sqrt(6)) <= 0.05 * np.sqrt(6)


def test_criterion_7_gradient_check():
    """Analytic matmul gradients match central finite differences."""
    from anamac.train import matmul_backward

    class Bare:
        def __init__(self, weights):
            self.weights = weights

    with verdict(7, "gradient check"):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n_in = int(rng.integers(2, 6))
            n_out = int(rng.integers(2, 5))
            batch = int(rng.integers(1, 5))
            x = rng.normal(size=(batch, n_in)).astype(np.float32)
            w = rng.normal(size=(n_in, n_out)).astype(np.float32)
            t = rng.normal(size=(batch, n_out)).astype(np.float32)

            def loss(weights):
                r = x.astype(np.float64) @ weights.astype(np.float64) - t
                return 0.5 * float((r * r).sum())

            grad_y = (x @ w - t).astype(np.float32)
            _, grad_w = matmul_backward(grad_y, {"x": x}, Bare(w))
            h = 1e-3
            for i in range(n_in):
                for j in range(n_out):
                    wp, wm = w.astype(np.float64).copy(), w.astype(np.float64).copy()
                    wp[i, j] += h
                    wm[i, j] -= h
                    fd = (loss(wp) - loss(wm)) / (2 * h)
                    denom = max(abs(fd), abs(float(grad_w[i, j])), 1.0)
                    assert abs(fd - float(grad_w[i, j])) / denom < 1e-3


def _find_har_dataset():
    candidates = [
        os.environ.get("HAR_DATASET", ""),
        os.path.join(os.path.dirname(__file__), "..", "data", "UCI HAR Dataset"),
        "/root/data/UCI HAR Dataset",
    ]
    for c in candidates:
        if c and os.path.isfile(os.path.join(c, "train", "y_train.txt")):
            return c
    return None


def test_criterion_8_activity_recognition():
    """Software-trained accuracy, noisy-chip drop, in-the-loop recovery."""
    from anamac.train import ForwardContext, evaluate, har_model, load_har, train_model

    root = _find_har_dataset()
    if root is None:
        print("CRITERION 8 (activity recognition): SKIPPED - dataset not found; "
              "set HAR_DATASET or place it under data/UCI HAR Dataset")
        pytest.skip("activity-recognition dataset not available")
    with verdict(8, "activity recognition"):
        ds = load_har(root)
        train_y0, test_y0 = ds.train_y - 1, ds.test_y - 1
        model = har_model(np.random.default_rng(0))
        metrics = train_model(
            model, ds.train_x, train_y0, ds.test_x, test_y0,
            epochs=50, lr=0.05, seed=0, noise_lsb=2.0, augment_stride_shift=True,
        )
        software_acc = metrics[-1]["test_accuracy"]
        assert software_acc >= 0.88, software_acc

        resources = SimulatedChips(1)
        chip_ctx = ForwardContext(backend="chip", resources=resources)
        raw_chip_acc, _, _ = evaluate(model, ds.test_x, test_y0, chip_ctx)
        assert software_acc - raw_chip_acc >= 0.03, (software_acc, raw_chip_acc)

        retrain = train_model(
            model, ds.train_x, train_y0, ds.test_x, test_y0,
            backend="chip", epochs=1, lr=0.05, seed=1, resources=resources,
        )
        retrained_acc = retrain[-1]["test_accuracy"]
        assert retrained_acc > raw_chip_acc
        assert software_acc - retrained_acc <= 0.10, (software_acc, retrained_acc)


def test_criterion_9_determinism(tmp_path):
    """Same seeds produce byte-identical result CSVs for any worker count."""
    with verdict(9, "determinism"):
        cfg = ChipConfig(chip_seed=5)

        def run_once(workers, mode):
            resources = SimulatedChips(2, cfg)
            rng = np.random.default_rng(0)
            w = rng.integers(-4, 5, size=(300, 400)).astype(np.int8)
            x = rng.integers(0, 5, size=(8, 300)).astype(np.uint8)
            plan = partition_matmul(300, 400, signed=True, arrays=resources.array_bindings())
            graph = build_graph(plan, w, x)
            outputs, _ = Executor(resources, workers=workers).run(graph, mode=mode)
            (y,) = outputs.values()
            path = tmp_path / f"out_{mode}_{workers}.csv"
            write_csv(tensor(y, dtype="i8"), path)
            return path.read_bytes()

        reference = run_once(1, "simulated_time")
        for workers in (1, 2, 4):
            assert run_once(workers, "measured_time") == reference
        assert run_once(4, "simulated_time") == reference
        # repeatability with a fresh identical setup
        assert run_once(1, "simulated_time") == reference
