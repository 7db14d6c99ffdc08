import json

import numpy as np
from click.testing import CliRunner

from anamac.cli import main
from anamac.executor import SimulatedChips
from anamac.train import ForwardContext, matmul_forward
from anamac.tensor import read_tensor, tensor, write_tensor


def test_matmul_command(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(4, 20)).astype(np.float32)
    w = rng.uniform(-1, 1, size=(20, 8)).astype(np.float32)
    write_tensor(tensor(x), tmp_path / "x.tns")
    write_tensor(tensor(w), tmp_path / "w.tns")
    result = CliRunner().invoke(
        main,
        [
            "matmul",
            "--inputs", str(tmp_path / "x.tns"),
            "--weights", str(tmp_path / "w.tns"),
            "--out", str(tmp_path / "y.tns"),
            "--trace", str(tmp_path / "trace.csv"),
        ],
    )
    assert result.exit_code == 0, result.output
    y = read_tensor(tmp_path / "y.tns")
    assert y.shape == (4, 8)
    assert (tmp_path / "trace.csv").read_text().startswith("instance,stage,")
    assert "makespan" in result.output


def test_matmul_command_equals_chip_forward(tmp_path):
    """The CLI and the chip backend of a layer run the same quantized pipeline."""
    from test_train import _Bare

    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=(5, 300)).astype(np.float32)
    w = rng.uniform(-1, 1, size=(300, 40)).astype(np.float32)
    write_tensor(tensor(x), tmp_path / "x.tns")
    write_tensor(tensor(w), tmp_path / "w.tns")
    result = CliRunner().invoke(
        main,
        ["matmul", "--inputs", str(tmp_path / "x.tns"), "--weights", str(tmp_path / "w.tns"),
         "--out", str(tmp_path / "y.tns")],
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("ran 3 tile(s) on 1 chip(s)")
    y_cli = read_tensor(tmp_path / "y.tns").array
    y_layer, _ = matmul_forward(x, _Bare(w), ForwardContext(backend="chip", resources=SimulatedChips(1)))
    assert y_cli.dtype == y_layer.dtype == np.float32
    assert y_cli.tobytes() == y_layer.tobytes()


def test_matmul_shape_mismatch(tmp_path):
    write_tensor(tensor(np.zeros((2, 3), dtype=np.float32)), tmp_path / "x.tns")
    write_tensor(tensor(np.zeros((4, 2), dtype=np.float32)), tmp_path / "w.tns")
    result = CliRunner().invoke(
        main,
        ["matmul", "--inputs", str(tmp_path / "x.tns"), "--weights", str(tmp_path / "w.tns"), "--out", str(tmp_path / "y.tns")],
    )
    assert result.exit_code != 0
    assert "shape mismatch" in result.output


def test_partition_explain():
    result = CliRunner().invoke(main, ["partition", "--rows", "300", "--cols", "600", "--explain"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert len(doc["tiles"]) == 9
    assert doc["cap_rows"] == 128


def test_lower_conv_explain():
    result = CliRunner().invoke(
        main,
        ["lower-conv", "--in-channels", "1", "--out-channels", "16",
         "--kernel", "32", "--stride", "6", "--extent", "128", "--explain"],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["matrix_rows"] == 32
    assert doc["expansion"]["copies"] == 16


def test_bench_writes_csv(tmp_path):
    result = CliRunner().invoke(
        main,
        ["bench", "--scenario", "sim_8g", "--scenario", "v2_1gbe",
         "--values", "64,256", "--out", str(tmp_path / "rates.csv"),
         "--utilization", str(tmp_path / "util.csv")],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[0] == "x,rate_mac_per_s,scenario"
    assert len(lines) == 5  # 2 scenarios x 2 sizes
    util = (tmp_path / "util.csv").read_text().splitlines()
    assert util[0] == "size,t_pre,t_exec,t_post"


def test_bench_rejects_unknown_scenario():
    result = CliRunner().invoke(main, ["bench", "--scenario", "warp9"])
    assert result.exit_code != 0
    assert "unknown scenario" in result.output


def test_train_har_on_synthetic_fixture(tmp_path):
    from test_train import _write_har_fixture

    _write_har_fixture(tmp_path / "data", n_train=8, n_test=4)
    result = CliRunner().invoke(
        main,
        ["train-har", "--data", str(tmp_path / "data"), "--epochs", "1",
         "--metrics", str(tmp_path / "metrics.csv"), "--out", str(tmp_path / "ckpt")],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "metrics.csv").read_text().startswith("epoch,split,accuracy")
    assert (tmp_path / "ckpt" / "manifest.json").exists()
