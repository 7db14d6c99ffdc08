import copy
import os
import tracemalloc

import numpy as np
import pytest

from anamac import executor, partition
from anamac.chip import ChipConfig, noise_table
from anamac.executor import SimulatedChips
from anamac.lowering import OutputDescriptor, conv1d_spec, gather_input_vectors
from anamac.quant import INPUT_MAX, WEIGHT_MAX, input_scale_for, quantize_inputs
from anamac.train import (
    HAR_SIGNALS,
    _EXACT_F32_ROWS,
    Conv1dLayer,
    DenseLayer,
    Flatten,
    ForwardContext,
    LabelOutOfRange,
    LengthMismatch,
    MissingFile,
    MissingState,
    RaggedRow,
    ReLU,
    Sequential,
    _integer_product,
    confusion_matrix,
    cross_entropy_grad,
    evaluate,
    har_model,
    load_checkpoint,
    load_har,
    matmul_backward,
    matmul_forward,
    metrics_to_csv,
    save_checkpoint,
    softmax,
    stride_shift_augment,
    train_model,
)
from test_quant import round_half_away

EXACT = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=0.0, gain=1.0)


def _toy_problem(rng, n=400, features=8):
    """Direction-coded two-class blobs with non-negative features."""
    x = np.abs(rng.normal(0.3, 0.2, (n, features))).astype(np.float32)
    y = rng.integers(0, 2, n)
    x[y == 0, : features // 2] += 1.0
    x[y == 1, features // 2 :] += 1.0
    return x, y


class _Bare:
    def __init__(self, weights):
        self.weights = weights


# -- forward/backward core ---------------------------------------------------


def test_software_forward_is_clamped_quantized_matmul():
    rng = np.random.default_rng(0)
    # a small case, and the HAR conv's 288 rows at the full input and weight range
    for n, m, w_max, x_max in ((6, 4, 10, 4), (288, 16, 63, 31)):
        w = rng.integers(-w_max, w_max + 1, size=(n, m)).astype(np.float32)
        w[0, 0] = 63.0  # pins weight_scale to 1
        x = rng.integers(0, x_max + 1, size=(3, n)).astype(np.float32)
        x[0, 0] = 31.0  # pins input_scale to 1
        ctx = ForwardContext(resources=SimulatedChips(1, EXACT))
        y, state = matmul_forward(x, _Bare(w), ctx)
        ref = np.clip(x.astype(np.int64) @ w.astype(np.int64), -128, 127).astype(np.float32)
        assert np.array_equal(y, ref)
        assert list(state) == ["x"] and np.array_equal(state["x"], x)


def test_chip_forward_matches_software_when_noiseless():
    rng = np.random.default_rng(1)
    res = SimulatedChips(1, EXACT)
    # sparse small operands so no tile saturates; scale-pinning entries are
    # isolated in their own row/column and batch entry
    w = np.where(rng.random((200, 40)) < 0.05, rng.integers(-1, 2, (200, 40)), 0).astype(np.float32)
    w[0, :] = 0.0
    w[:, 0] = 0.0
    w[0, 0] = 63.0  # pins weight_scale to 1
    x = (rng.random((5, 200)) < 0.1).astype(np.float32)
    x[0, :] = 0.0
    x[0, 0] = 31.0  # pins input_scale to 1
    y_sw, _ = matmul_forward(x, _Bare(w), ForwardContext(backend="software", resources=res))
    y_hw, _ = matmul_forward(x, _Bare(w), ForwardContext(backend="chip", resources=res))
    assert np.array_equal(y_sw, y_hw)


def test_chip_context_without_resources_raises():
    with pytest.raises(ValueError, match="SimulatedChips"):
        ForwardContext(backend="chip")


def test_one_pool_keeps_its_fixed_pattern_across_chip_forwards():
    res = SimulatedChips(1)
    rng = np.random.default_rng(3)
    layer = _Bare(rng.standard_normal((40, 8)).astype(np.float32))
    x = rng.random((2, 40)).astype(np.float32)
    y1, _ = matmul_forward(x, layer, ForwardContext(backend="chip", resources=res))
    y2, _ = matmul_forward(x, layer, ForwardContext(backend="chip", resources=res))
    assert res.init_count == 1
    assert np.array_equal(y1, y2)  # same fixed pattern, same noise salt


def test_forward_rejects_unknown_backend():
    with pytest.raises(ValueError):
        matmul_forward(np.ones((1, 2), dtype=np.float32), _Bare(np.ones((2, 2))), ForwardContext(backend="fpga"))


def test_backward_needs_forward_state():
    layer = DenseLayer(4, 3, np.random.default_rng(0))
    with pytest.raises(MissingState):
        layer.backward(np.ones((1, 3)))
    with pytest.raises(MissingState):
        matmul_backward(np.ones((1, 3)), None, layer)


def test_backward_gradients_are_float_matmul_grads():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 4)).astype(np.float32)
    w = rng.normal(size=(4, 3)).astype(np.float32)
    grad_y = rng.normal(size=(5, 3)).astype(np.float32)
    grad_x, grad_w = matmul_backward(grad_y, {"x": x}, _Bare(w))
    assert np.allclose(grad_x, grad_y @ w.T)
    assert np.allclose(grad_w, x.T @ grad_y)


def test_software_noise_injection_perturbs_outputs():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(8, 4)).astype(np.float32)
    x = np.abs(rng.normal(size=(4, 8))).astype(np.float32)
    clean, _ = matmul_forward(x, _Bare(w), ForwardContext())
    noisy, _ = matmul_forward(
        x, _Bare(w), ForwardContext(noise_lsb=5.0, rng=np.random.default_rng(0))
    )
    assert not np.array_equal(clean, noisy)


def test_software_noise_without_a_generator_raises():
    """Unseeded noise would make the run irreproducible, so no generator is made up."""
    w = np.ones((8, 4), np.float32)
    with pytest.raises(ValueError, match="rng"):
        matmul_forward(np.ones((2, 8), np.float32), _Bare(w), ForwardContext(noise_lsb=1.0))


@pytest.mark.parametrize("noise_lsb", [-1.0, -1e-9, np.inf, np.nan])
def test_forward_context_rejects_a_negative_or_non_finite_noise(noise_lsb):
    with pytest.raises(ValueError, match="noise_lsb"):
        ForwardContext(noise_lsb=noise_lsb, rng=np.random.default_rng(0))


def test_software_noise_is_added_before_the_one_digitisation():
    """y8 = clip(round_half_away(gain * acc + noise_lsb * level[index]), -128, 127).

    The noise is the chip's: a table level at a uniform uint16 index, in float32.
    """
    rng = np.random.default_rng(8)
    w = rng.integers(-63, 64, size=(288, 16)).astype(np.float32)
    w[0, 0] = 63.0  # pins weight_scale to 1
    x = rng.integers(0, 32, size=(6, 288)).astype(np.float32)
    x[:, rng.random(288) < 0.9] = 0.0  # most outputs inside the ADC range, some on its rails
    x[0, 0] = 31.0  # pins input_scale to 1
    gain = 1 / 64
    res = SimulatedChips(1, ChipConfig(gain=gain))
    ctx = ForwardContext(resources=res, noise_lsb=2.0, rng=np.random.default_rng(9))
    y, _ = matmul_forward(x, _Bare(w), ctx)
    acc = x.astype(np.int64) @ w.astype(np.int64)
    index = np.random.default_rng(9).integers(0, 2**16, acc.shape, dtype=np.uint16)
    analog = gain * acc + np.float32(2.0) * noise_table()[index]
    y8 = np.clip(round_half_away(analog), -128, 127)
    assert 0 < np.count_nonzero((y8 == -128) | (y8 == 127)) < y8.size
    assert np.array_equal(y, y8.astype(np.float32) * np.float32(64.0))


# -- the software model's integer product -------------------------------------


def _int64_product(xq, wq):
    return xq.astype(np.int64) @ wq.astype(np.int64)


@pytest.mark.parametrize("rows", [_EXACT_F32_ROWS, _EXACT_F32_ROWS + 1])
def test_integer_product_is_exact_at_the_rails(rows):
    """All 31 against all +-63, the largest partial sums: in one chunk, then in two."""
    assert _EXACT_F32_ROWS == 8590
    xq = np.full((2, rows), INPUT_MAX, np.uint8)
    wq = np.empty((rows, 2), np.int8)
    wq[:, 0], wq[:, 1] = WEIGHT_MAX, -WEIGHT_MAX
    acc = _integer_product(xq, wq)
    assert acc.dtype == np.float64
    assert np.array_equal(acc, _int64_product(xq, wq))
    # one more row and a single float32 product cannot hold the sum: 31 * 63 * 8591 > 2**24
    single = xq.astype(np.float32) @ wq.astype(np.float32)
    assert np.array_equal(single, _int64_product(xq, wq)) == (rows <= _EXACT_F32_ROWS)


@pytest.mark.parametrize(
    "lead, n, m",
    [((1,), 1, 1), ((3,), 0, 2), ((1088,), 288, 16), ((2, 3), 256, 5), ((3,), 2 * _EXACT_F32_ROWS + 17, 4)],
)
def test_integer_product_equals_the_int64_product(lead, n, m):
    rng = np.random.default_rng(n)
    xq = rng.integers(0, INPUT_MAX + 1, size=lead + (n,), dtype=np.uint8)
    wq = rng.integers(-WEIGHT_MAX, WEIGHT_MAX + 1, size=(n, m), dtype=np.int8)
    acc = _integer_product(xq, wq)
    assert (acc.dtype, acc.shape) == (np.float64, lead + (m,))
    assert np.array_equal(acc, _int64_product(xq, wq))


def _float64_product(xq, wq):
    return xq.astype(np.float64) @ wq.astype(np.float64)


@pytest.mark.parametrize("noise_lsb", [0.0, 2.0])
def test_software_forward_bytes_equal_the_float64_product(monkeypatch, noise_lsb):
    """The HAR layers' software forwards give the bytes of a float64 integer product."""
    rng = np.random.default_rng(16)
    conv, _, _, dense1, _, dense2 = har_model(np.random.default_rng(17)).layers
    x = rng.standard_normal((64, 9, 128)).astype(np.float32)
    h1 = np.maximum(rng.standard_normal((64, 256)), 0).astype(np.float32)
    h2 = np.maximum(rng.standard_normal((64, 125)), 0).astype(np.float32)

    def outputs():
        def ctx():
            return ForwardContext(noise_lsb=noise_lsb, rng=np.random.default_rng(18))

        return [
            conv.forward(x, ctx()),
            matmul_forward(h1, dense1, ctx())[0],
            matmul_forward(h2, dense2, ctx())[0],
        ]

    got = outputs()
    monkeypatch.setattr("anamac.train._integer_product", _float64_product)
    for y, ref in zip(got, outputs()):
        assert len(np.unique(ref)) > 5  # neither all zero nor all on a rail
        assert (y.dtype, y.shape) == (ref.dtype, ref.shape)
        assert y.tobytes() == ref.tobytes()


def test_software_conv_forward_peak_allocation():
    """The HAR conv's software forward after a warm-up.

    4.08 MiB with a float64 product, 2.93 MiB with the float window matrix.
    """
    layer = har_model(np.random.default_rng(19)).layers[0]
    x = np.random.default_rng(20).standard_normal((64, 9, 128)).astype(np.float32)
    layer.forward(x, ForwardContext())
    tracemalloc.start()
    try:
        layer.forward(x, ForwardContext())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
    assert peak < 2.25 * 2**20  # no float windows: 1.74 MiB


# -- layers -------------------------------------------------------------------


def test_conv1d_layer_matches_direct_conv():
    from anamac.lowering import conv1d_spec, direct_conv

    rng = np.random.default_rng(4)
    spec = conv1d_spec(2, 3, k=4, stride=2, extent=16)
    layer = Conv1dLayer(spec, rng)
    kernel = rng.integers(-2, 3, size=(3, 2, 4)).astype(np.float32)
    kernel[0, 0, 0] = 63.0
    layer.kernel = kernel
    x = (rng.random((2, 2, 16)) < 0.2).astype(np.float32) * 31.0
    y = layer.forward(x, ForwardContext(resources=SimulatedChips(1, EXACT)))
    ref = np.clip(direct_conv(spec, kernel.astype(np.int64), x.astype(np.int64)), -128, 127)
    assert np.array_equal(y, ref)


def test_har_conv_computes_the_16_positions_it_keeps():
    """The HAR conv's spec is the one it computes: 16 positions over the leading 122 samples."""
    layer = har_model(np.random.default_rng(5)).layers[0]
    assert layer.spec.extent == (122,) and layer.spec.out_extent == (16,)
    x = np.abs(np.random.default_rng(6).normal(size=(3, 9, 128))).astype(np.float32)
    y = layer.forward(x, ForwardContext())
    assert y.shape == (3, 16, 16)
    layer.backward(np.ones_like(y))
    assert layer.grad_kernel.shape == layer.kernel.shape


@pytest.mark.parametrize("backend", ["software", "chip"])
def test_har_forward_at_b64_feeds_1024_conv_vectors(monkeypatch, backend):
    """64 samples x 16 positions: no input vector for a dropped position reaches the backend."""
    fed = []
    if backend == "chip":

        def build_graph(plan, wq, xq, **kwargs):
            fed.append(xq.shape)
            return partition.build_graph(plan, wq, xq, **kwargs)

        monkeypatch.setattr("anamac.train.build_graph", build_graph)
    else:

        def integer_product(xq, wq):
            fed.append(xq.shape)
            return _integer_product(xq, wq)

        monkeypatch.setattr("anamac.train._integer_product", integer_product)
    model = har_model(np.random.default_rng(7))
    x = np.random.default_rng(8).standard_normal((64, 9, 128)).astype(np.float32)
    model.forward(x, ForwardContext(backend=backend, resources=SimulatedChips(1)))
    assert fed == [(1024, 288), (64, 256), (64, 125)]


@pytest.mark.parametrize("backend", ["software", "chip"])
def test_har_samples_past_the_conv_extent_change_nothing(monkeypatch, backend):
    """A spike in samples 122-127 moves no logit, no gradient and not the conv's input scale."""
    conv_scales = []

    def recording(a):
        scale = input_scale_for(a)
        if np.ndim(a) == 3:  # the conv's signal view; the dense layers pass matrices
            conv_scales.append(scale)
        return scale

    monkeypatch.setattr("anamac.train.input_scale_for", recording)
    x = np.random.default_rng(9).standard_normal((8, 9, 128)).astype(np.float32)
    spiked = x.copy()
    spiked[:, :, 122:] = 1e3
    labels = np.arange(8) % 6
    res = SimulatedChips(1)
    runs = []
    for signal in (x, spiked):
        model = har_model(np.random.default_rng(10))
        logits = model.forward(signal, ForwardContext(backend=backend, resources=res, seed_salt=4))
        model.backward(cross_entropy_grad(logits, labels))
        conv, dense1, dense2 = model.layers[0], model.layers[3], model.layers[5]
        runs.append([logits, conv.grad_kernel, dense1.grad_w, dense2.grad_w])
    for clean, spike in zip(*runs):
        assert clean.tobytes() == spike.tobytes()
    assert conv_scales[0] == conv_scales[1] < input_scale_for(spiked)


def _conv_cases():
    rng = np.random.default_rng(12)
    # the HAR conv on an input 6 samples longer than its extent of 122
    har = conv1d_spec(9, 16, k=32, stride=6, extent=122)
    x_har = rng.standard_normal((4, 9, 128)).astype(np.float32)
    x_har[3, 5, 125] = 100.0  # the largest |x| sits past the extent
    # stride 5 > k 3: samples 3, 4, 8, 9, ..., 28, 29 fall in no window
    gappy = conv1d_spec(3, 4, k=3, stride=5, extent=30)
    x_gap = rng.standard_normal((2, 3, 30)).astype(np.float32)
    x_gap[1, 2, 4] = 100.0  # the largest |x| sits in a skipped sample
    # stride 3 <= k 4, but the windows end at sample 9: samples 10 and 11 fall in none
    trailing = conv1d_spec(2, 3, k=4, stride=3, extent=12)
    x_tail = rng.standard_normal((3, 2, 12)).astype(np.float32)
    x_tail[2, 1, 11] = -50.0  # the largest |x| sits in an unread trailing sample
    return [(har, x_har), (gappy, x_gap), (trailing, x_tail)]


@pytest.mark.parametrize("backend", ["software", "software-noisy", "chip"])
def test_conv1d_forward_equals_matmul_forward_on_the_gathered_vectors(backend):
    res = SimulatedChips(1)

    def ctx():
        if backend == "chip":
            return ForwardContext(backend="chip", resources=res, seed_salt=3)
        if backend == "software-noisy":
            return ForwardContext(noise_lsb=2.0, rng=np.random.default_rng(9))
        return ForwardContext()

    for spec, x in _conv_cases():
        layer = Conv1dLayer(spec, np.random.default_rng(13))
        y = layer.forward(x, ctx())
        vectors = gather_input_vectors(spec, x)
        y_flat, _ = matmul_forward(vectors, layer, ctx())
        ref = OutputDescriptor(len(x), spec.out_channels, spec.out_extent).fold(y_flat)
        assert (y.dtype, y.shape) == (ref.dtype, ref.shape)
        assert y.tobytes() == ref.tobytes()
        # the kernel gradient is the conventional matmul's on the float vectors
        g = np.random.default_rng(10).standard_normal(y.shape).astype(np.float32)
        layer.backward(g)
        grad_flat = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(-1, spec.out_channels)
        ref_grad = layer._fold_matrix_grad(vectors.T @ grad_flat)
        assert (layer.grad_kernel.dtype, layer.grad_kernel.shape) == (ref_grad.dtype, ref_grad.shape)
        assert layer.grad_kernel.tobytes() == ref_grad.tobytes()


def test_conv1d_calibrates_on_a_view_of_the_samples_its_windows_read(monkeypatch):
    """The forward's input scale is the vectors' scale, taken on a view of ``x`` itself."""
    calls = []

    def recording(a):
        calls.append((a, input_scale_for(a)))
        return calls[-1][1]

    monkeypatch.setattr("anamac.train.input_scale_for", recording)
    for spec, x in _conv_cases():
        calls.clear()
        layer = Conv1dLayer(spec, np.random.default_rng(13))
        layer.forward(x, ForwardContext())
        ((view, scale),) = calls
        assert np.shares_memory(view, x)
        assert scale == input_scale_for(gather_input_vectors(spec, x))
        assert scale < input_scale_for(x)  # each case's largest |x| falls in no window


@pytest.mark.parametrize("backend", ["software", "chip"])
def test_conv1d_forward_gathers_no_float_windows(monkeypatch, backend):
    """The forward gathers the uint8 windows once; only the backward pass gathers floats."""
    dtypes = []

    def recording(spec, x):
        vectors = gather_input_vectors(spec, x)
        dtypes.append(vectors.dtype)
        return vectors

    monkeypatch.setattr("anamac.lowering.gather_input_vectors", recording)
    layer = har_model(np.random.default_rng(14)).layers[0]
    x = np.random.default_rng(15).standard_normal((4, 9, 128)).astype(np.float32)
    y = layer.forward(x, ForwardContext(backend=backend, resources=SimulatedChips(1)))
    assert dtypes == [np.uint8]
    layer.backward(np.ones_like(y))
    assert dtypes == [np.uint8, np.float32]


def test_conv1d_quantizes_each_input_sample_once(monkeypatch):
    """The conv quantizes its (B, C_in, extent) signal, not its (B * P, k * C_in) vectors."""
    sizes = []

    def recording(a, spec):
        sizes.append(np.size(a))
        return quantize_inputs(a, spec)

    monkeypatch.setattr("anamac.train.quantize_inputs", recording)
    layer = har_model(np.random.default_rng(14)).layers[0]
    x = np.random.default_rng(15).standard_normal((4, 9, 128)).astype(np.float32)
    for backend in ("software", "chip"):
        layer.forward(x, ForwardContext(backend=backend, resources=SimulatedChips(1)))
    assert sizes == [4 * 9 * 122] * 2  # not 4 * 16 * 32 * 9 vector entries


def test_dense_layer_step_descends_gradient():
    rng = np.random.default_rng(6)
    layer = DenseLayer(4, 2, rng)
    before = layer.weights.copy()
    x = np.abs(rng.normal(size=(8, 4))).astype(np.float32)
    layer.forward(x, ForwardContext())
    layer.backward(np.ones((8, 2), dtype=np.float32))
    layer.step(0.1)
    assert np.allclose(before - 0.1 * layer.grad_w, layer.weights)


# -- loss and metrics ----------------------------------------------------------


def test_softmax_rows_sum_to_one():
    z = np.random.default_rng(7).normal(size=(5, 3)) * 10
    p = softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p > 0)


def test_cross_entropy_grad_direction():
    logits = np.array([[2.0, 0.0]])
    grad = cross_entropy_grad(logits, np.array([0]))
    assert grad[0, 0] < 0 < grad[0, 1]  # push the true logit up, the other down


def test_confusion_matrix_and_recall():
    preds = np.array([0, 0, 1, 2, 2, 2])
    labels = np.array([0, 1, 1, 2, 2, 0])
    matrix, recall = confusion_matrix(preds, labels, 3)
    assert matrix.sum() == 6
    assert matrix[1, 0] == 1 and matrix[1, 1] == 1
    assert recall[2] == 1.0
    assert recall[0] == 0.5
    with pytest.raises(LengthMismatch):
        confusion_matrix(preds, labels[:-1], 3)


def test_metrics_csv_layout():
    metrics = [{"epoch": 1, "train_accuracy": 0.5, "test_accuracy": 0.25}]
    text = metrics_to_csv(metrics)
    assert text.splitlines() == ["epoch,split,accuracy", "1,train,0.5", "1,test,0.25"]


def test_layers_of_one_chip_forward_draw_different_noise_streams(monkeypatch):
    """The first tiles of the conv, dense1 and dense2 (all instance 0) read different index streams."""
    real_rng = executor.instance_rng
    first_tiles = []

    def recording_rng(config, instance_id, salt=0):
        rng = real_rng(config, instance_id, salt)
        if instance_id == 0:
            probe = copy.deepcopy(rng).integers(0, 2**16, 64, dtype=np.uint16)
            first_tiles.append((salt, probe.tobytes()))
        return rng

    monkeypatch.setattr(executor, "instance_rng", recording_rng)
    model = har_model(np.random.default_rng(3))
    x = np.random.default_rng(5).standard_normal((4, 9, 128)).astype(np.float32)
    model.forward(x, ForwardContext(backend="chip", resources=SimulatedChips(1), seed_salt=7))
    assert [salt for salt, _ in first_tiles] == [(7, 0), (7, 1), (7, 2)]
    assert len({stream for _, stream in first_tiles}) == 3


def test_evaluate_draws_fresh_temporal_noise_for_a_repeated_batch():
    """A batch given twice through one context: only temporal noise tells the two copies apart."""
    rng = np.random.default_rng(4)
    model = Sequential([DenseLayer(8, 16, rng), ReLU(), DenseLayer(16, 4, rng)])
    batch = np.abs(rng.standard_normal((32, 8))).astype(np.float32)
    x, labels = np.concatenate([batch, batch]), np.zeros(64, dtype=np.int64)
    logits = []
    real_forward = model.forward

    def recording_forward(xb, ctx):
        logits.append(real_forward(xb, ctx))
        return logits[-1]

    model.forward = recording_forward
    for sigma_temporal in (2.0, 0.0):
        config = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=sigma_temporal)
        ctx = ForwardContext(backend="chip", resources=SimulatedChips(1, config), seed_salt=1)
        logits.clear()
        evaluate(model, x, labels, ctx, batch_size=32)
        assert len(logits) == 2
        assert np.array_equal(logits[0], logits[1]) == (sigma_temporal == 0.0)


# -- training loop --------------------------------------------------------------


def test_training_learns_separable_problem_software():
    rng = np.random.default_rng(8)
    x, y = _toy_problem(rng)
    model = Sequential([DenseLayer(8, 16, rng), ReLU(), DenseLayer(16, 2, rng)])
    metrics = train_model(model, x[:300], y[:300], x[300:], y[300:], epochs=4, lr=0.2, seed=0)
    assert metrics[-1]["test_accuracy"] >= 0.95


def test_training_learns_separable_problem_on_chip():
    rng = np.random.default_rng(9)
    x, y = _toy_problem(rng)
    model = Sequential([DenseLayer(8, 16, rng), ReLU(), DenseLayer(16, 2, rng)])
    metrics = train_model(
        model, x[:300], y[:300], x[300:], y[300:],
        backend="chip", epochs=3, lr=0.2, seed=0, resources=SimulatedChips(1),
    )
    assert metrics[-1]["test_accuracy"] >= 0.9
    assert "confusion" in metrics[-1]


def test_training_is_deterministic_given_seeds():
    rng_data = np.random.default_rng(10)
    x, y = _toy_problem(rng_data, n=200)

    def run():
        model = Sequential([DenseLayer(8, 8, np.random.default_rng(1)), ReLU(), DenseLayer(8, 2, np.random.default_rng(2))])
        train_model(model, x[:150], y[:150], x[150:], y[150:], epochs=2, lr=0.2, seed=3)
        return [l.weights.copy() for l in model.layers if hasattr(l, "weights")]

    w1, w2 = run(), run()
    for a, b in zip(w1, w2):
        assert np.array_equal(a, b)


def test_stride_shift_augment_triples_the_data():
    x = np.arange(24, dtype=np.float32).reshape(2, 1, 12)
    y = np.array([0, 1])
    xa, ya = stride_shift_augment(x, y, stride=3)
    assert xa.shape == (6, 1, 12)
    assert np.array_equal(ya, [0, 1, 0, 1, 0, 1])
    assert np.array_equal(xa[2, 0, 3:], x[0, 0, :-3])  # shifted right by the stride
    assert np.all(xa[2, 0, :3] == 0)
    assert np.array_equal(xa[4, 0, :-3], x[0, 0, 3:])  # shifted left


# -- activity-recognition helpers ----------------------------------------------


def _write_har_fixture(root, n_train=4, n_test=2, timesteps=128):
    rng = np.random.default_rng(0)
    for split, n in (("train", n_train), ("test", n_test)):
        sig_dir = os.path.join(root, split, "Inertial Signals")
        os.makedirs(sig_dir, exist_ok=True)
        for sig in HAR_SIGNALS:
            rows = rng.normal(size=(n, timesteps))
            with open(os.path.join(sig_dir, f"{sig}_{split}.txt"), "w") as f:
                for row in rows:
                    f.write(" ".join(f"{v: .7e}" for v in row) + "\n")
        labels = rng.integers(1, 7, size=n)
        with open(os.path.join(root, split, f"y_{split}.txt"), "w") as f:
            f.write("\n".join(str(v) for v in labels) + "\n")


def test_load_har_shapes(tmp_path):
    _write_har_fixture(tmp_path)
    ds = load_har(tmp_path)
    assert ds.train_x.shape == (4, 9, 128)
    assert ds.test_x.shape == (2, 9, 128)
    assert ds.train_y.min() >= 1 and ds.train_y.max() <= 6


def test_load_har_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_har(tmp_path)


def test_load_har_ragged_row(tmp_path):
    _write_har_fixture(tmp_path)
    path = tmp_path / "train" / "Inertial Signals" / "body_acc_x_train.txt"
    lines = path.read_text().splitlines()
    lines[1] = "1.0 2.0 3.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RaggedRow):
        load_har(tmp_path)


def test_load_har_label_out_of_range(tmp_path):
    _write_har_fixture(tmp_path)
    (tmp_path / "train" / "y_train.txt").write_text("1\n2\n9\n4\n")
    with pytest.raises(LabelOutOfRange):
        load_har(tmp_path)


def test_har_model_shapes():
    model = har_model(np.random.default_rng(0))
    x = np.abs(np.random.default_rng(1).normal(size=(2, 9, 128))).astype(np.float32)
    logits = model.forward(x, ForwardContext())
    assert logits.shape == (2, 6)
    # conv 9->16 k32 s6 (16 positions over 122 samples), dense 256->125, dense 125->6
    conv, dense1, dense2 = model.layers[0], model.layers[3], model.layers[5]
    assert conv.kernel.shape == (16, 9, 32)
    assert dense1.weights.shape == (256, 125)
    assert dense2.weights.shape == (125, 6)


def test_checkpoint_roundtrip(tmp_path):
    model = har_model(np.random.default_rng(2))
    save_checkpoint(model, tmp_path / "ckpt")
    other = har_model(np.random.default_rng(3))
    assert not np.array_equal(other.layers[0].kernel, model.layers[0].kernel)
    load_checkpoint(other, tmp_path / "ckpt")
    assert np.array_equal(other.layers[0].kernel, model.layers[0].kernel)
    assert np.array_equal(other.layers[3].weights, model.layers[3].weights)
    with pytest.raises(MissingFile):
        load_checkpoint(other, tmp_path / "nowhere")
