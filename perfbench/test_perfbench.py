"""Tests of the benchmark itself: its correctness checks, oracle and tracer.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

from anamac import quant  # noqa: E402
from anamac.chip import SIGNED_ROWS, ChipConfig  # noqa: E402
from anamac.executor import Executor, SimulatedChips  # noqa: E402
from anamac.partition import build_graph, partition_matmul  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, HarStepWorkload, MatmulWorkload, noise_free, oracle_y8  # noqa: E402


def small_matmul(mode="simulated_time"):
    workload = MatmulWorkload(seed=5, n=300, m=300, batch=4, chips=1, mode=mode)
    workload.make_inputs()
    workload.setup()
    return workload


def test_corrupted_or_raising_op_counts_as_failed():
    workload = small_matmul()
    refs, _ = run.references(workload)
    honest_run = workload.run

    def faulty_run(i):
        if i == 2:
            raise RuntimeError("injected")
        y8, y, trace = honest_run(i)
        if i == 1:
            y8 = y8.copy()
            y8.flat[0] ^= 1
        return y8, y, trace

    workload.run = faulty_run
    latencies, failed, attempted = run.measure(workload, refs, seconds=0.5)
    assert attempted > 3
    assert failed == 2
    assert len(latencies) == attempted - 2


def test_partition_semantics_clamp_each_tile_then_add():
    """Tile 1 saturates at +127 on its own; tile 2 then adds -101."""
    gain = 1.0 / 64
    x = np.full((1, 2 * SIGNED_ROWS), 31, dtype=np.uint8)
    w = np.zeros((2 * SIGNED_ROWS, 1), dtype=np.int8)
    w[:SIGNED_ROWS] = 63  # acc 249984 -> 3906 LSB, clamped to 127
    w[SIGNED_ROWS : SIGNED_ROWS + 13] = -16  # acc -6448 -> -100.75, rounds to -101
    ideal = oracle_y8(x, w, gain, SIGNED_ROWS)
    assert ideal.tolist() == [[127 - 101]]

    resources = SimulatedChips(1, noise_free(ChipConfig(gain=gain)))
    plan = partition_matmul(*w.shape, signed=True, arrays=resources.array_bindings())
    outputs, _ = Executor(resources).run(build_graph(plan, w, x))
    assert np.array_equal(next(iter(outputs.values())), ideal)


@pytest.mark.parametrize("mode", ["simulated_time", "measured_time"])
def test_noise_free_matmul_is_bit_exact(mode):
    ok, rmse = small_matmul(mode).check()
    assert ok
    assert rmse > 0  # the default chip is noisy


def test_tracer_reports_every_layer_and_restores_the_package():
    workload = HarStepWorkload(seed=3, backend="chip")
    workload.make_inputs()
    workload.setup()
    refs, ref_stats = run.references(workload)
    original = quant.quantize_inputs

    tracer = Tracer(workload.traced_layers())
    with tracer:
        latencies, failed, _ = run.measure(workload, refs, 0.3, 0, tracer, ref_stats)
    assert failed == 0 and latencies

    assert quant.quantize_inputs is original
    assert "forward" not in vars(workload.conv)
    layers = tracer.layer_metrics()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    added_by_run = {"trace.overhead_frac", "output_rmse_lsb", "sim_makespan_ms"}
    assert set(layers) == {m["name"] for m in declared} - added_by_run
    assert layers["chip.mac_calls"] == layers["partition.tiles"] == layers["executor.instances"] == 6
    assert 0 < layers["partition.live_frac"] < 0.1
    assert layers["train.forward_ms.conv"] > layers["chip.mac_ms"] / 3 > 0
    assert layers["executor.self_ms"] < layers["executor.run_ms"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, section, capsys):
    args = ["--workload", "har_step_software", "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
    }


def test_workload_names_agree():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS) == [w["name"] for w in declared]


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "har_step_software", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
