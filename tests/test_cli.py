import hashlib
import importlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from anamac.chip import HwParams, load_chip_config
from anamac import cli
from anamac.cli import main
from anamac.executor import SimulatedChips
from anamac.train import ForwardContext, matmul_forward
from anamac.tensor import read_tensor, tensor, write_csv, write_tensor


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
    """The CLI and the chip backend of a layer run the same quantized pipeline.

    Temporal noise is off: a layer's chip run keys it by its forward context's
    run number as well, so the two draw different streams. The fixed pattern
    and the neuron offsets stay on."""
    from test_train import _Bare

    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=(5, 300)).astype(np.float32)
    w = rng.uniform(-1, 1, size=(300, 40)).astype(np.float32)
    write_tensor(tensor(x), tmp_path / "x.tns")
    write_tensor(tensor(w), tmp_path / "w.tns")
    (tmp_path / "chip.cfg").write_text("sigma_temporal = 0\n")
    result = CliRunner().invoke(
        main,
        ["matmul", "--inputs", str(tmp_path / "x.tns"), "--weights", str(tmp_path / "w.tns"),
         "--out", str(tmp_path / "y.tns"), "--chip-config", str(tmp_path / "chip.cfg")],
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("ran 3 tile(s) on 1 chip(s)")
    y_cli = read_tensor(tmp_path / "y.tns").array
    resources = SimulatedChips(1, load_chip_config(tmp_path / "chip.cfg"))
    assert resources.config.sigma_temporal == 0 and resources.config.sigma_fixed > 0
    y_layer, _ = matmul_forward(x, _Bare(w), ForwardContext(backend="chip", resources=resources))
    assert y_cli.dtype == y_layer.dtype == np.float32
    assert y_cli.tobytes() == y_layer.tobytes()


@pytest.mark.parametrize(
    "source, message",
    [("nope", "No such file"), ("link_8g", "unknown key 'bandwidth_bps'"), ("typo", "unknown key 'sigma_temporl'")],
)
def test_matmul_reports_a_bad_chip_config_as_a_usage_error(tmp_path, source, message):
    write_tensor(tensor(np.ones((2, 3), dtype=np.float32)), tmp_path / "x.tns")
    write_tensor(tensor(np.ones((3, 2), dtype=np.float32)), tmp_path / "w.tns")
    if source == "typo":
        source = str(tmp_path / "typo.cfg")
        (tmp_path / "typo.cfg").write_text("sigma_temporl = 0\n")
    result = CliRunner().invoke(
        main,
        ["matmul", "--inputs", str(tmp_path / "x.tns"), "--weights", str(tmp_path / "w.tns"),
         "--out", str(tmp_path / "y.tns"), "--chip-config", source],
    )
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--chip-config'" in result.output
    assert message in result.output and "chip_default" in result.output
    assert not (tmp_path / "y.tns").exists()


def test_matmul_packaged_chip_config_is_the_default(tmp_path):
    write_csv(tensor(np.array([[0.25, 0.5], [1.0, 0.0]], dtype=np.float32)), tmp_path / "x.csv")
    write_csv(tensor(np.array([[0.5, -1.0], [1.0, 0.25]], dtype=np.float32)), tmp_path / "w.csv")
    outputs = []
    for extra in ([], ["--chip-config", "chip_default"]):
        out = tmp_path / f"y{len(extra)}.tns"
        args = ["matmul", "--inputs", str(tmp_path / "x.csv"), "--weights", str(tmp_path / "w.csv"), "--out", str(out)]
        result = CliRunner().invoke(main, args + extra)
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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


def test_partition_explain_on_two_chips_keeps_its_bytes():
    """The plan binds tiles round-robin over ``SimulatedChips.array_bindings()``, chip-major."""
    result = CliRunner().invoke(
        main, ["partition", "--rows", "300", "--cols", "600", "--chips", "2", "--explain"]
    )
    assert result.exit_code == 0, result.output
    assert [t["array"] for t in json.loads(result.output)["tiles"][:5]] == [[0, 0], [0, 1], [1, 0], [1, 1], [0, 0]]
    assert hashlib.sha256(result.output.encode()).hexdigest()[:16] == "fc967eec2a2b9c3d"


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("train-har", "--epochs", "0"),
        ("train-har", "--batch-size", "0"),
        ("train-har", "--chips", "0"),
        ("train-har", "--noise-lsb", "-1"),
        ("train-har", "--noise-lsb", "nan"),
        ("train-har", "--noise-lsb", "inf"),
        ("matmul", "--chips", "0"),
        ("matmul", "--num-sends", "0"),
        ("matmul", "--wait-between-events", "0"),
        ("partition", "--chips", "0"),
        ("partition", "--rows", "0"),
        ("partition", "--cols", "0"),
        ("bench", "--values", "0"),
        ("bench", "--values", "8,-8"),
        ("bench", "--values", "a"),
        ("lower-conv", "--kernel", "0"),
        ("lower-conv", "--stride", "x"),
    ],
)
def test_bad_option_values_are_usage_errors(tmp_path, command, option, value):
    from test_train import _write_har_fixture

    _write_har_fixture(tmp_path / "data", n_train=8, n_test=4)
    write_tensor(tensor(np.ones((2, 3), dtype=np.float32)), tmp_path / "x.tns")
    write_tensor(tensor(np.ones((3, 2), dtype=np.float32)), tmp_path / "w.tns")
    required = {
        "train-har": ["--data", str(tmp_path / "data"), "--out", str(tmp_path / "ckpt")],
        "matmul": ["--inputs", str(tmp_path / "x.tns"), "--weights", str(tmp_path / "w.tns"),
                   "--out", str(tmp_path / "y.tns")],
        "partition": ["--rows", "4", "--cols", "4"],
        "bench": [],
        "lower-conv": ["--in-channels", "2", "--out-channels", "4", "--kernel", "4", "--extent", "10"],
    }[command]
    result = CliRunner().invoke(main, [command, *required, option, value])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert not (tmp_path / "ckpt").exists() and not (tmp_path / "y.tns").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--in-channels", "0", "--out-channels", "4", "--kernel", "4"], "channel counts"),
        (["--in-channels", "2", "--out-channels", "0", "--kernel", "4"], "channel counts"),
        (["--in-channels", "2", "--out-channels", "4", "--kernel", "40"], "output extent"),
        (["--in-channels", "2", "--out-channels", "4", "--kernel", "4,4"], "one entry per spatial dim"),
    ],
)
def test_lower_conv_rejects_a_conv_it_cannot_build(args, message):
    result = CliRunner().invoke(main, ["lower-conv", *args, "--extent", "10", "--explain"])
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_matmul_hardware_defaults_are_hw_params(monkeypatch):
    """`matmul` repeats no hardware default: a new HwParams default reaches its options."""

    def defaults():
        params = {p.name: p.default for p in cli.main.commands["matmul"].params}
        return params["num_sends"], params["wait_between_events"]

    hw = HwParams()
    assert defaults() == (hw.num_sends, hw.wait_between_events)
    moved = (hw.num_sends + 1, hw.wait_between_events + 1)
    monkeypatch.setattr(HwParams.__init__, "__defaults__", moved)
    try:
        importlib.reload(cli)
        assert defaults() == moved
    finally:
        monkeypatch.undo()
        importlib.reload(cli)


def test_lower_conv_default_stride_is_one_on_every_dim():
    args = ["lower-conv", "--dims", "2", "--in-channels", "1", "--out-channels", "2", "--kernel", "3,3",
            "--extent", "10,10"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.output == "matrix 9x2, 64 output position(s)\n"
    result = CliRunner().invoke(main, [*args, "--stride", "2"])
    assert result.exit_code == 2, result.output
    assert "one entry per spatial dim" in result.output


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


def test_bench_utilization_needs_the_size_sweep(tmp_path):
    result = CliRunner().invoke(
        main, ["bench", "--sweep", "batch", "--values", "8", "--utilization", str(tmp_path / "util.csv")]
    )
    assert result.exit_code == 2, result.output
    assert "--utilization" in result.output
    assert not (tmp_path / "util.csv").exists()


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
