"""Command-line frontend for the simulator: matmul runs, lowering/partition
inspection, throughput sweeps and the activity-recognition training demo."""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import lowering, perf, train as training
from .chip import ChipConfig, HwParams, load_chip_config
from .executor import SimulatedChips
from .partition import partition_matmul, plan_to_json
from .tensor import read_csv, read_tensor, tensor, write_tensor


_POSITIVE = click.IntRange(min=1)
_HW = HwParams()


def _finite(ctx, param, value):
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


def _positive_ints(ctx, param, value):
    """A comma-separated option value as a tuple of positive ints; None stays None."""
    if value is None:
        return None
    try:
        ints = tuple(int(v) for v in str(value).split(","))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of integers") from None
    if any(v < 1 for v in ints):
        raise click.BadParameter(f"{value!r} holds an entry below 1")
    return ints


def _chip_config(ctx, param, value):
    if value is None:
        return ChipConfig()
    try:
        return load_chip_config(value)
    except (OSError, ValueError) as e:
        raise click.BadParameter(f"{e} (the packaged chip config is chip_default)") from None


def _read_array(path):
    if str(path).endswith(".csv"):
        return read_csv(path).array
    return read_tensor(path).array


@click.group()
def main():
    """Analog multiply-accumulate simulator."""


@main.command()
@click.option("--inputs", "inputs_path", required=True, type=click.Path(exists=True))
@click.option("--weights", "weights_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--chips", default=1, type=_POSITIVE, show_default=True, help="Number of simulated chips.")
@click.option("--chip-config", "config", default=None, callback=_chip_config,
              help="Chip config file or packaged name (chip_default).")
@click.option("--mode", default="simulated_time", type=click.Choice(["simulated_time", "measured_time"]))
@click.option("--trace", "trace_path", default=None, type=click.Path(), help="Write the schedule trace CSV here.")
@click.option("--num-sends", default=_HW.num_sends, type=_POSITIVE, show_default=True)
@click.option("--wait-between-events", default=_HW.wait_between_events, type=_POSITIVE, show_default=True)
def matmul(inputs_path, weights_path, out_path, chips, config, mode, trace_path, num_sends, wait_between_events):
    """Quantize float operands, run x @ W through the chip pipeline, dequantize."""
    x = _read_array(inputs_path).astype(np.float32)
    w = _read_array(weights_path).astype(np.float32)
    if x.ndim == 1:
        x = x[None]
    if w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise click.ClickException(f"shape mismatch: inputs {x.shape} vs weights {w.shape}")

    y, trace = training.quantized_matmul(
        x, w, SimulatedChips(chips, config), HwParams(num_sends, wait_between_events), mode=mode
    )
    write_tensor(tensor(y, dtype="f32"), out_path)
    if trace_path:
        with open(trace_path, "w") as f:
            f.write(trace.to_csv())
    click.echo(
        f"ran {len(trace.rows)} tile(s) on {chips} chip(s); "
        f"makespan {trace.makespan:.6g} s, utilization {trace.utilization:.3f}"
    )


@main.command("lower-conv")
@click.option("--dims", default="1", type=click.Choice(["1", "2"]), show_default=True)
@click.option("--in-channels", required=True, type=int)
@click.option("--out-channels", required=True, type=int)
@click.option("--kernel", required=True, callback=_positive_ints,
              help="Comma-separated, one entry per spatial dim.")
@click.option("--stride", default=None, callback=_positive_ints, show_default="1 on each spatial dim")
@click.option("--extent", required=True, callback=_positive_ints,
              help="Input spatial extent(s), comma-separated.")
@click.option("--explain", is_flag=True, help="Print the matrix layout and packing as JSON.")
def lower_conv(dims, in_channels, out_channels, kernel, stride, extent, explain):
    """Show how a convolution lowers onto the synapse array."""
    stride = stride or (1,) * int(dims)
    try:
        spec = lowering.ConvSpec(int(dims), in_channels, out_channels, kernel, stride, extent)
        doc = lowering.layout_to_json(spec)
    except (lowering.ShapeMismatch, lowering.EmptyOutput) as e:  # layout_to_json reports KernelTooLarge
        raise click.UsageError(str(e)) from e
    if explain:
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(
            f"matrix {doc['matrix_rows']}x{doc['matrix_cols']}, "
            f"{doc['positions']} output position(s)"
        )


@main.command()
@click.option("--rows", required=True, type=_POSITIVE, help="Input dimension N.")
@click.option("--cols", required=True, type=_POSITIVE, help="Output dimension M.")
@click.option("--signed/--unsigned", default=True, show_default=True)
@click.option("--chips", default=1, type=_POSITIVE, show_default=True)
@click.option("--explain", is_flag=True, help="Print the full tile plan as JSON.")
def partition(rows, cols, signed, chips, explain):
    """Tile an N x M matmul onto the available synapse arrays."""
    plan = partition_matmul(rows, cols, signed=signed, arrays=SimulatedChips(chips).array_bindings())
    if explain:
        click.echo(plan_to_json(plan))
    else:
        click.echo(f"{len(plan.tiles)} tile(s), {len(plan.row_groups)} column stripe(s)")


@main.command()
@click.option("--scenario", "scenarios", multiple=True, default=("sim_8g",), show_default=True)
@click.option("--sweep", default="size", type=click.Choice(["size", "batch"]), show_default=True)
@click.option("--values", "xs", default="8,16,32,64,128,256,512,1024", callback=_positive_ints,
              show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--utilization", "util_path", default=None, type=click.Path(),
              help="Also write a per-stage time breakdown (size sweep only).")
def bench(scenarios, sweep, xs, out_path, util_path):
    """Throughput sweeps of the analytical link model (CSV: x,rate_mac_per_s,scenario)."""
    if util_path and sweep != "size":
        raise click.UsageError("--utilization needs --sweep size")
    rows = []
    for scenario in scenarios:
        if scenario not in perf.SCENARIOS:
            raise click.ClickException(f"unknown scenario {scenario!r}; options: {sorted(perf.SCENARIOS)}")
        rows.extend(perf.mac_rate_curve(xs, scenario, sweep=sweep))
    csv_text = perf.rows_to_csv(rows, ["x", "rate_mac_per_s", "scenario"])
    if out_path:
        with open(out_path, "w") as f:
            f.write(csv_text)
        click.echo(f"wrote {len(rows)} rows to {out_path}")
    else:
        sys.stdout.write(csv_text)
    if util_path:
        breakdown = []
        for scenario in scenarios:
            breakdown.extend(perf.utilization_breakdown(xs, scenario))
        with open(util_path, "w") as f:
            f.write(perf.rows_to_csv(breakdown, ["size", "t_pre", "t_exec", "t_post"]))


@main.command("train-har")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--backend", default="software", type=click.Choice(["software", "chip"]), show_default=True)
@click.option("--epochs", default=10, type=_POSITIVE, show_default=True)
@click.option("--lr", default=0.05, show_default=True)
@click.option("--batch-size", default=64, type=_POSITIVE, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--noise-lsb", default=0.0, type=click.FloatRange(min=0), callback=_finite, show_default=True,
              help="Gaussian output noise (LSB) for robust software pre-training.")
@click.option("--augment/--no-augment", default=False, show_default=True,
              help="Add stride-shifted copies of the training data.")
@click.option("--pretrained", default=None, type=click.Path(exists=True),
              help="Checkpoint directory to start from.")
@click.option("--out", "out_dir", default=None, type=click.Path(), help="Checkpoint directory to save to.")
@click.option("--metrics", "metrics_path", default=None, type=click.Path(), help="Write epoch,split,accuracy CSV.")
@click.option("--chips", default=1, type=_POSITIVE, show_default=True)
def train_har(data_dir, backend, epochs, lr, batch_size, seed, noise_lsb, augment,
              pretrained, out_dir, metrics_path, chips):
    """Train the activity-recognition model, in software or hardware-in-the-loop."""
    dataset = training.load_har(data_dir)
    rng = np.random.default_rng(seed)
    model = training.har_model(rng)
    if pretrained:
        training.load_checkpoint(model, pretrained)
    resources = SimulatedChips(chips) if backend == "chip" else None
    metrics = training.train_model(
        model,
        dataset.train_x,
        dataset.train_y - 1,
        dataset.test_x,
        dataset.test_y - 1,
        backend=backend,
        epochs=epochs,
        lr=lr,
        batch_size=batch_size,
        seed=seed,
        noise_lsb=noise_lsb,
        resources=resources,
        augment_stride_shift=augment,
    )
    for m in metrics:
        click.echo(
            f"epoch {m['epoch']:3d}  train {m['train_accuracy']:.4f}  test {m['test_accuracy']:.4f}"
        )
    final = metrics[-1]
    click.echo("per-class recall: " + ", ".join(f"{r:.3f}" for r in final["recall"]))
    if metrics_path:
        with open(metrics_path, "w") as f:
            f.write(training.metrics_to_csv(metrics))
    if out_dir:
        training.save_checkpoint(model, out_dir)
        click.echo(f"checkpoint saved to {out_dir}")


if __name__ == "__main__":
    main()
