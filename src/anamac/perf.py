"""Analytical timing and throughput model of the host<->chip channel.

Per execution, the run time is a fixed overhead plus the maximum of the wire
time (configuration, input and output traffic over the link) and the on-chip
event time (inputs are injected as events spaced by wait_between_events clock
cycles, repeated num_sends times). The first chip version (V1) must rewrite
the synapse array for every sent input, which multiplies the configuration
traffic by the batch size.

Per-event encoding sizes and the calibration constants (per-run overhead,
protocol efficiency, clock period) are not hardware truth; they were fitted
once against published throughput anchors and frozen into link_1g.cfg /
link_8g.cfg. Tests use the frozen files and never refit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .chip import HwParams, _read_kv
from .executor import InstanceCost, schedule_pipeline
from .partition import TileSpec, partition_matmul


@dataclass(frozen=True)
class LinkBudget:
    bandwidth_bps: float
    per_run_overhead_s: float
    protocol_efficiency: float
    clock_period_s: float
    host_byte_time_s: float

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not (0 < self.protocol_efficiency <= 1):
            raise ValueError("protocol efficiency must be in (0, 1]")


@dataclass(frozen=True)
class CostModel:
    """Data-volume formulas; the postprocessing of response data is content-agnostic."""

    config_bytes_per_weight: int = 5
    input_event_bytes: int = 6
    output_event_bytes: int = 4
    hw_version: str = "V2"

    def config_rep(self, batch: int) -> int:
        # V1 rewrites the synapse array for each sent input
        return max(batch, 1) if self.hw_version == "V1" else 1

    def bytes_config(self, rows: int, cols: int) -> int:
        return self.config_bytes_per_weight * rows * cols

    def bytes_in(self, rows: int, batch: int, num_sends: int) -> int:
        return self.input_event_bytes * rows * batch * num_sends

    def bytes_out(self, cols: int, batch: int) -> int:
        return self.output_event_bytes * cols * batch

    def event_time(self, rows: int, batch: int, params: HwParams, link: LinkBudget) -> float:
        return batch * params.num_sends * rows * params.wait_between_events * link.clock_period_s


def load_link_config(name_or_path) -> LinkBudget:
    """Read a key=value link budget file; bare names resolve to packaged configs."""
    values = _read_kv(name_or_path)
    return LinkBudget(
        bandwidth_bps=float(values["bandwidth_bps"]),
        per_run_overhead_s=float(values["per_run_overhead_s"]),
        protocol_efficiency=float(values["protocol_efficiency"]),
        clock_period_s=float(values["clock_period_s"]),
        host_byte_time_s=float(values["host_byte_time_s"]),
    )


def wire_time(rows, cols, batch, params: HwParams, link: LinkBudget, cost: CostModel) -> float:
    total_bytes = (
        cost.bytes_config(rows, cols) * cost.config_rep(batch)
        + cost.bytes_in(rows, batch, params.num_sends)
        + cost.bytes_out(cols, batch)
    )
    return total_bytes * 8.0 / (link.bandwidth_bps * link.protocol_efficiency)


def time_per_run(tile, batch: int, params: HwParams, link: LinkBudget, cost: CostModel) -> float:
    """Seconds for one chip run of a tile over a whole batch."""
    rows, cols = (tile.rows, tile.cols) if isinstance(tile, TileSpec) else tile
    wire = wire_time(rows, cols, batch, params, link, cost)
    event = cost.event_time(rows, batch, params, link)
    return link.per_run_overhead_s + max(wire, event)


class CostTiming:
    """Three-stage durations for the executor's simulated clock.

    Preprocessing carries the per-run overhead plus host handling of the
    outbound bytes; execution is the link/on-chip maximum; postprocessing is
    host handling of the response bytes.
    """

    def __init__(self, link: LinkBudget, cost: CostModel | None = None):
        self.link = link
        self.cost = cost or CostModel()

    def durations(self, c: InstanceCost) -> tuple:
        rep = self.cost.config_rep(c.batch)
        out_bytes = self.cost.bytes_out(c.cols, c.batch)
        pre = self.link.per_run_overhead_s + self.link.host_byte_time_s * (
            self.cost.bytes_config(c.rows, c.cols) * rep
            + self.cost.bytes_in(c.rows, c.batch, c.hw_params.num_sends)
        )
        exec_ = max(
            wire_time(c.rows, c.cols, c.batch, c.hw_params, self.link, self.cost),
            self.cost.event_time(c.rows, c.batch, c.hw_params, self.link),
        )
        post = self.link.host_byte_time_s * out_bytes
        return pre, exec_, post


def default_timing() -> CostTiming:
    return CostTiming(load_link_config("link_8g"))


# scenario -> (link config, hardware version, hardware hyperparameters);
# V2 estimates disable the V1 precision workarounds (single send, minimal wait)
SCENARIOS = {
    "v1_1gbe": ("link_1g", "V1", HwParams(num_sends=6, wait_between_events=25)),
    "v2_1gbe": ("link_1g", "V2", HwParams(num_sends=1, wait_between_events=1)),
    "sim_8g": ("link_8g", "V2", HwParams(num_sends=1, wait_between_events=1)),
}

SWEEP_BATCH = 2000  # fixed batch for the size sweep
SWEEP_SIZE = 256  # fixed square size for the batch sweep


def scenario_parts(scenario: str) -> tuple:
    link_name, hw_version, params = SCENARIOS[scenario]
    return load_link_config(link_name), CostModel(hw_version=hw_version), params


def _tile_schedule(n: int, m: int, batch: int, scenario: str, arrays=None):
    """Pipelined schedule of all tiles of an n x m matmul (unsigned weights).

    Tile executions serialize per chip (the link is shared per chip); pre and
    postprocessing of independent tiles overlap freely.
    """
    link, cost, params = scenario_parts(scenario)
    arrays = arrays or [(0, 0), (0, 1)]
    plan = partition_matmul(n, m, signed=False, arrays=arrays)
    timing = CostTiming(link, cost)
    durations = {}
    resource_of = {}
    for idx, tile in enumerate(plan.tiles):
        durations[idx] = timing.durations(InstanceCost(tile.rows, tile.cols, batch, params))
        resource_of[idx] = tile.array_binding[0]  # serialize per chip link
    deps = {idx: () for idx in durations}
    return schedule_pipeline(durations, resource_of, deps), durations


def _makespan(schedule: dict) -> float:
    return max(t.post_end for t in schedule.values())


def mac_rate(n: int, m: int, batch: int, scenario: str) -> float:
    schedule, _ = _tile_schedule(n, m, batch, scenario)
    return batch * n * m / _makespan(schedule)


def mac_rate_curve(values, scenario: str, sweep: str = "size") -> list:
    """Rows of (x, rate_mac_per_s, scenario) over sizes or batch sizes."""
    rows = []
    for x in values:
        if sweep == "size":
            rate = mac_rate(int(x), int(x), SWEEP_BATCH, scenario)
        elif sweep == "batch":
            rate = mac_rate(SWEEP_SIZE, SWEEP_SIZE, int(x), scenario)
        else:
            raise ValueError(f"unknown sweep {sweep!r}")
        rows.append((int(x), rate, scenario))
    return rows


def asymptotic_rate(scenario: str, size: int = SWEEP_SIZE, batch: int = 1_000_000) -> float:
    """Large-batch rate limit for a single square tile."""
    return mac_rate(size, size, batch, scenario)


def half_rate_batch(scenario: str, size: int = SWEEP_SIZE, max_batch: int = 4096) -> int:
    """Smallest batch reaching 50% of the asymptotic rate."""
    target = 0.5 * asymptotic_rate(scenario, size)
    for b in range(1, max_batch + 1):
        if mac_rate(size, size, b, scenario) >= target:
            return b
    raise ValueError(f"50% point above max_batch={max_batch}")


def utilization_breakdown(sizes, scenario: str, batch: int = SWEEP_BATCH) -> list:
    """Rows of (size, t_pre, t_exec, t_post): per-stage totals over all tiles."""
    rows = []
    for s in sizes:
        _, durations = _tile_schedule(int(s), int(s), batch, scenario)
        pre = sum(d[0] for d in durations.values())
        exe = sum(d[1] for d in durations.values())
        post = sum(d[2] for d in durations.values())
        rows.append((int(s), pre, exe, post))
    return rows


def chip_utilization(size: int, scenario: str, batch: int = SWEEP_BATCH) -> float:
    """Total execution time over pipelined makespan."""
    schedule, durations = _tile_schedule(size, size, batch, scenario)
    return sum(d[1] for d in durations.values()) / _makespan(schedule)


def rows_to_csv(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()
