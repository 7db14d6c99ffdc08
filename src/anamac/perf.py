"""The link model of a chip run: its bytes, its stage durations, its schedule.

``CostModel`` counts every byte of a run from its ``InstanceCost``: the
configuration, input events and output events over the host<->chip link. The
first chip version (V1) must rewrite the synapse array for every sent input,
which multiplies the configuration traffic by the batch size.

``CostTiming`` turns those bytes into the three stage durations: preprocessing
is a fixed per-run overhead plus host handling of the outbound bytes;
execution is the maximum of the wire time (all traffic over the link) and the
on-chip event time (inputs are injected as events spaced by
wait_between_events clock cycles, repeated num_sends times); postprocessing
is host handling of the response bytes. ``schedule_pipeline`` lays those
durations out as a pipelined list schedule in which every ready run has its
own host worker. ``simulate`` is the one simulated clock, of the executor and
the throughput sweeps below alike: a chip's arrays share its one link, so
executions serialize per chip.

The encoding sizes and the calibration constants (per-run overhead, protocol
efficiency, clock period) are not hardware truth; they were fitted once
against published throughput anchors and frozen into the encoding constants
and link_1g.cfg / link_8g.cfg. Tests use the frozen files and never refit.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

from .chip import HwParams, _read_config
from .partition import partition_matmul


@dataclass(frozen=True)
class InstanceCost:
    """Stage-duration inputs for one instance; bytes use the physical extents."""

    rows: int  # active physical rows (pairs counted twice for signed)
    cols: int  # active columns
    batch: int
    hw_params: HwParams


# link encoding sizes in bytes, frozen with the link configs
CONFIG_BYTES_PER_WEIGHT = 5
INPUT_EVENT_BYTES = 6
OUTPUT_EVENT_BYTES = 4


@dataclass(frozen=True)
class CostModel:
    """The link's data volumes, the only byte count of a chip run."""

    hw_version: str = "V2"

    def config_rep(self, batch: int) -> int:
        # V1 rewrites the synapse array for each sent input
        return max(batch, 1) if self.hw_version == "V1" else 1

    def bytes_config(self, rows: int, cols: int) -> int:
        return CONFIG_BYTES_PER_WEIGHT * rows * cols

    def bytes_in(self, rows: int, batch: int, num_sends: int) -> int:
        return INPUT_EVENT_BYTES * rows * batch * num_sends

    def bytes_out(self, cols: int, batch: int) -> int:
        return OUTPUT_EVENT_BYTES * cols * batch

    def stage_bytes(self, c: InstanceCost) -> tuple:
        """(outbound, wire, response) bytes of one run: configuration plus
        input events, all traffic over the link, output events."""
        outbound = self.bytes_config(c.rows, c.cols) * self.config_rep(c.batch) + self.bytes_in(
            c.rows, c.batch, c.hw_params.num_sends
        )
        response = self.bytes_out(c.cols, c.batch)
        return outbound, outbound + response, response


@dataclass
class StageTimes:
    pre_start: float
    pre_end: float
    exec_start: float
    exec_end: float
    post_start: float
    post_end: float


def schedule_pipeline(durations: dict, resource_of: dict, deps: dict, force_serial: bool = False) -> dict:
    """Deterministic list schedule of the three-stage pipeline.

    durations: id -> (t_pre, t_exec, t_post), listed in a topological order,
    which is the order of scheduling; resource_of: id -> hashable
    exclusive-execution key; deps: id -> iterable of ids whose results must be
    stored first. Every ready instance gets its own host worker for its pre-
    and postprocessing; ``force_serial`` starts each instance only after the
    one listed before it has ended. An instance listed before one of its
    dependencies raises ``ValueError``.
    """
    resource_free: dict = {}
    schedule: dict[int, StageTimes] = {}
    prev_end = 0.0
    for iid, (t_pre, t_exec, t_post) in durations.items():
        ready = 0.0
        for d in deps.get(iid, ()):
            if d not in schedule:
                raise ValueError(f"instance {iid} is listed before its dependency {d}")
            ready = max(ready, schedule[d].post_end)
        if force_serial:
            ready = max(ready, prev_end)
        pre_e = ready + t_pre
        key = resource_of[iid]
        exec_s = max(pre_e, resource_free.get(key, 0.0))
        exec_e = exec_s + t_exec
        resource_free[key] = exec_e
        post_e = exec_e + t_post
        schedule[iid] = StageTimes(ready, pre_e, exec_s, exec_e, exec_e, post_e)
        prev_end = post_e
    return schedule


@dataclass
class TraceRow:
    instance: int
    times: StageTimes
    bytes: tuple  # (pre, exec, post): CostModel.stage_bytes


@dataclass
class RunTrace:
    rows: list = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max((r.times.post_end for r in self.rows), default=0.0)

    @property
    def utilization(self) -> float:
        total_exec = sum(r.times.exec_end - r.times.exec_start for r in self.rows)
        span = self.makespan
        return total_exec / span if span > 0 else 0.0

    def to_csv(self) -> str:
        rows = []
        for r in sorted(self.rows, key=lambda r: r.instance):
            t, (pre, exec_, post) = r.times, r.bytes
            rows.append((r.instance, "pre", t.pre_start, t.pre_end, pre))
            rows.append((r.instance, "exec", t.exec_start, t.exec_end, exec_))
            rows.append((r.instance, "post", t.post_start, t.post_end, post))
        return rows_to_csv(rows, ["instance", "stage", "t_start", "t_end", "bytes"])


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

    def seconds_on_wire(self, n_bytes: int) -> float:
        return n_bytes * 8.0 / (self.bandwidth_bps * self.protocol_efficiency)


def load_link_config(name_or_path) -> LinkBudget:
    """Read a key=value link budget file; bare names resolve to packaged configs."""
    return _read_config(LinkBudget, name_or_path)


class CostTiming:
    """Three-stage durations of one run under a link budget.

    Preprocessing carries the per-run overhead plus host handling of the
    outbound bytes; execution is the link/on-chip maximum; postprocessing is
    host handling of the response bytes.
    """

    def __init__(self, link: LinkBudget, cost: CostModel | None = None):
        self.link = link
        self.cost = cost or CostModel()

    def event_time(self, c: InstanceCost) -> float:
        """On-chip event time: every input event of every send, spaced by the wait."""
        p = c.hw_params
        return c.batch * p.num_sends * c.rows * p.wait_between_events * self.link.clock_period_s

    def durations(self, c: InstanceCost) -> tuple:
        outbound, wire_bytes, response = self.cost.stage_bytes(c)
        link = self.link
        pre = link.per_run_overhead_s + link.host_byte_time_s * outbound
        exec_ = max(link.seconds_on_wire(wire_bytes), self.event_time(c))
        return pre, exec_, link.host_byte_time_s * response


def simulate(costs: dict, bindings: dict, deps: dict, timing: CostTiming, force_serial: bool = False) -> RunTrace:
    """The simulated clock: chip runs timed by ``timing`` and scheduled, executions serialized per chip.

    costs: id -> InstanceCost, listed in a topological order; bindings: id ->
    (chip, array); deps and force_serial as in ``schedule_pipeline``.
    """
    durations = {iid: timing.durations(c) for iid, c in costs.items()}
    chip_of = {iid: bindings[iid][0] for iid in costs}  # the chip's one link
    schedule = schedule_pipeline(durations, chip_of, deps, force_serial)
    return RunTrace([TraceRow(iid, schedule[iid], timing.cost.stage_bytes(c)) for iid, c in costs.items()])


@functools.cache
def default_timing(hw_version: str) -> CostTiming:
    """The frozen link_8g model for a chip version, read and parsed once per process and version."""
    return CostTiming(load_link_config("link_8g"), CostModel(hw_version))


# scenario -> (link config, hardware version, hardware hyperparameters);
# V2 estimates disable the V1 precision workarounds (single send, minimal wait)
SCENARIOS = {
    "v1_1gbe": ("link_1g", "V1", HwParams(num_sends=6, wait_between_events=25)),
    "v2_1gbe": ("link_1g", "V2", HwParams(num_sends=1, wait_between_events=1)),
    "sim_8g": ("link_8g", "V2", HwParams(num_sends=1, wait_between_events=1)),
}

SWEEP_BATCH = 2000  # fixed batch for the size sweep
SWEEP_SIZE = 256  # fixed square size for the batch sweep


def _sweep_tiles(n: int, m: int, batch: int, scenario: str) -> tuple:
    """(timing, costs, bindings) of the tiles of an n x m matmul (unsigned weights) on one chip."""
    link_name, hw_version, params = SCENARIOS[scenario]
    timing = CostTiming(load_link_config(link_name), CostModel(hw_version))
    tiles = partition_matmul(n, m, signed=False, arrays=[(0, 0), (0, 1)]).tiles
    costs = {idx: InstanceCost(t.rows, t.cols, batch, params) for idx, t in enumerate(tiles)}
    return timing, costs, {idx: t.array_binding for idx, t in enumerate(tiles)}


def _sweep_trace(n: int, m: int, batch: int, scenario: str) -> RunTrace:
    timing, costs, bindings = _sweep_tiles(n, m, batch, scenario)
    return simulate(costs, bindings, {}, timing)


def mac_rate(n: int, m: int, batch: int, scenario: str) -> float:
    return batch * n * m / _sweep_trace(n, m, batch, scenario).makespan


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
        timing, costs, _ = _sweep_tiles(int(s), int(s), batch, scenario)
        durations = [timing.durations(c) for c in costs.values()]
        rows.append((int(s), *(sum(d[k] for d in durations) for k in range(3))))
    return rows


def chip_utilization(size: int, scenario: str, batch: int = SWEEP_BATCH) -> float:
    """Total execution time over pipelined makespan."""
    return _sweep_trace(size, size, batch, scenario).utilization


def rows_to_csv(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()
