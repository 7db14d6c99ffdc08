import os

import numpy as np
import pytest

from anamac.chip import ChipConfig
from anamac.executor import SimulatedChips, global_resources, reset_resources
from anamac.quant import round_half_away
from anamac.train import (
    HAR_SIGNALS,
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
    confusion_matrix,
    cross_entropy_grad,
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
        assert np.array_equal(state["x"], x)


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


def test_chip_forward_without_resources_reuses_the_global_pool():
    reset_resources()
    try:
        rng = np.random.default_rng(3)
        layer = _Bare(rng.standard_normal((40, 8)).astype(np.float32))
        x = rng.random((2, 40)).astype(np.float32)
        y1, _ = matmul_forward(x, layer, ForwardContext(backend="chip"))
        y2, _ = matmul_forward(x, layer, ForwardContext(backend="chip"))
        assert global_resources().init_count == 1
        assert np.array_equal(y1, y2)  # same fixed pattern, same noise salt
    finally:
        reset_resources()


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


def test_software_noise_is_added_before_the_one_digitisation():
    """y8 = clip(round_half_away(gain * acc + rng.normal(0, noise_lsb)), -128, 127)."""
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
    analog = gain * acc + np.random.default_rng(9).normal(0.0, 2.0, size=acc.shape)
    y8 = np.clip(round_half_away(analog), -128, 127)
    assert 0 < np.count_nonzero((y8 == -128) | (y8 == 127)) < y8.size
    assert np.array_equal(y, y8.astype(np.float32) * np.float32(64.0))


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


def test_conv1d_truncation_and_backward_shapes():
    from anamac.lowering import conv1d_spec

    rng = np.random.default_rng(5)
    spec = conv1d_spec(9, 16, k=32, stride=6, extent=128)
    layer = Conv1dLayer(spec, rng, truncate_positions=16)
    x = np.abs(rng.normal(size=(3, 9, 128))).astype(np.float32)
    y = layer.forward(x, ForwardContext())
    assert y.shape == (3, 16, 16)  # 17 positions truncated to 16
    layer.backward(np.ones_like(y))
    assert layer.grad_kernel.shape == layer.kernel.shape


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
    # conv 9->16 k32 s6 (17 positions, truncated to 16), dense 256->125, dense 125->6
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
