"""Just-in-time execution of a dependency graph.

Every execution instance passes through three stages: preprocessing (slice,
pad, pair), execution on a synapse array (exclusive per array), and
postprocessing of the digitized results. Stages of instances without mutual
dependencies may overlap; numerics are independent of the schedule because
each instance owns an RNG stream keyed by (chip_seed, instance id).

``simulated_time`` mode advances a virtual clock from per-stage cost
durations; ``measured_time`` runs the stages on a thread pool (by default
min(instances, os.cpu_count()) threads) and records wall-clock times.
Outputs are bit-identical between modes and worker counts.
"""

from __future__ import annotations

import csv
import io
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import graph as g
from .chip import (
    COLS,
    ROWS,
    Chip,
    ChipConfig,
    HwParams,
    InputOutOfRange,
    WeightOutOfRange,
    duplicate_signed_inputs,
    signed_row_pairs,
)
from .quant import INPUT_MAX, WEIGHT_MAX


class Unavailable(RuntimeError):
    pass


class DeadlockDetected(RuntimeError):
    pass


class SimulatedChips:
    """Registry of simulated chips; initialization happens exactly once."""

    def __init__(self, num_chips: int = 1, config: ChipConfig | None = None):
        self.config = config or ChipConfig()
        self.num_chips = num_chips
        self._chips: list[Chip] | None = None
        self.init_count = 0
        self._lock = threading.Lock()

    def initialize(self) -> None:
        with self._lock:
            if self._chips is None:
                self._chips = [Chip(i, self.config) for i in range(self.num_chips)]
                self.init_count += 1

    @property
    def chips(self) -> list:
        self.initialize()
        return self._chips

    def array(self, binding):
        chip_idx, array_idx = binding
        if chip_idx >= self.num_chips:
            raise Unavailable(f"binding {binding} exceeds {self.num_chips} configured chips")
        return self.chips[chip_idx].arrays[array_idx]

    def array_bindings(self) -> list:
        return [(c, a) for c in range(self.num_chips) for a in range(len(self.chips[c].arrays))]


_GLOBAL: SimulatedChips | None = None
_GLOBAL_LOCK = threading.Lock()


def configure_resources(num_chips: int = 1, config: ChipConfig | None = None) -> None:
    """Declare the simulated hardware pool; must precede the first acquire."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is not None and _GLOBAL._chips is not None:
            raise Unavailable("resources already initialized; reconfiguration requires reset_resources()")
        _GLOBAL = SimulatedChips(num_chips, config)


def reset_resources() -> None:
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = None


def acquire_chips(n: int) -> list:
    """Idempotent initialization plus handles to n exclusive chips."""
    if n < 1:
        raise ValueError("n must be >= 1")
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = SimulatedChips(max(n, 1))
    if n > _GLOBAL.num_chips:
        raise Unavailable(f"requested {n} chips, only {_GLOBAL.num_chips} configured")
    _GLOBAL.initialize()
    return _GLOBAL.chips[:n]


def global_resources() -> SimulatedChips:
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = SimulatedChips(1)
    return _GLOBAL


def instance_rng(config: ChipConfig, instance_id: int, salt: int = 0) -> np.random.Generator:
    """Temporal-noise stream for one instance; independent of arrival order.

    The salt decorrelates repeated runs of structurally identical graphs
    (e.g. successive training steps) without touching the chip seed.
    """
    return np.random.default_rng([config.chip_seed, 7, salt, instance_id])


@dataclass(frozen=True)
class InstanceCost:
    """Stage-duration inputs for one instance; bytes use the physical extents."""

    rows: int  # active physical rows (pairs counted twice for signed)
    cols: int  # active columns
    batch: int
    hw_params: HwParams

    @property
    def bytes_config(self) -> int:
        return self.rows * self.cols

    @property
    def bytes_in(self) -> int:
        return self.rows * self.batch

    @property
    def bytes_out(self) -> int:
        return self.cols * self.batch


class DefaultTiming:
    """Byte-proportional stage costs, independent of any link model."""

    per_run_overhead = 1e-4
    byte_time = 1e-9

    def durations(self, cost: InstanceCost):
        pre = self.per_run_overhead + self.byte_time * (cost.bytes_config + cost.bytes_in)
        exec_ = self.byte_time * (cost.bytes_config + cost.bytes_in + cost.bytes_out)
        post = self.byte_time * cost.bytes_out
        return pre, exec_, post


@dataclass
class StageTimes:
    pre_start: float
    pre_end: float
    exec_start: float
    exec_end: float
    post_start: float
    post_end: float


@dataclass
class TraceRow:
    instance: int
    times: StageTimes
    bytes_config: int
    bytes_in: int
    bytes_out: int


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["instance", "stage", "t_start", "t_end", "bytes"])
        for r in sorted(self.rows, key=lambda r: r.instance):
            t = r.times
            writer.writerow([r.instance, "pre", repr(t.pre_start), repr(t.pre_end), r.bytes_config + r.bytes_in])
            writer.writerow([r.instance, "exec", repr(t.exec_start), repr(t.exec_end), r.bytes_in + r.bytes_out])
            writer.writerow([r.instance, "post", repr(t.post_start), repr(t.post_end), r.bytes_out])
        return buf.getvalue()


def schedule_pipeline(
    durations: dict,
    resource_of: dict,
    deps: dict,
    workers: int | None = None,
    force_serial: bool = False,
) -> dict:
    """Deterministic list schedule of the three-stage pipeline.

    durations: id -> (t_pre, t_exec, t_post); resource_of: id -> hashable
    exclusive-execution key; deps: id -> iterable of ids whose results must be
    stored first. Host workers (shared by pre and post) are limited by
    ``workers``; None means one worker per ready instance.
    """
    order = g._toposort({i: tuple(deps.get(i, ())) for i in durations})
    resource_free: dict = {}
    worker_free = [0.0] * workers if workers else None
    schedule: dict[int, StageTimes] = {}
    prev_end = 0.0

    def take_worker(ready: float, duration: float) -> tuple:
        if worker_free is None:
            return ready, ready + duration
        idx = min(range(len(worker_free)), key=lambda w: (worker_free[w], w))
        start = max(ready, worker_free[idx])
        worker_free[idx] = start + duration
        return start, start + duration

    for iid in order:
        t_pre, t_exec, t_post = durations[iid]
        ready = max((schedule[d].post_end for d in deps.get(iid, ())), default=0.0)
        if force_serial:
            ready = max(ready, prev_end)
        pre_s, pre_e = take_worker(ready, t_pre)
        key = resource_of[iid]
        exec_s = max(pre_e, resource_free.get(key, 0.0))
        exec_e = exec_s + t_exec
        resource_free[key] = exec_e
        post_s, post_e = take_worker(exec_e, t_post)
        schedule[iid] = StageTimes(pre_s, pre_e, exec_s, exec_e, post_s, post_e)
        prev_end = post_e
    return schedule


def _instance_parts(graph: g.DependencyGraph, inst: g.ExecutionInstance):
    load = matrix = None
    for vid in inst.vertex_ids:
        v = graph.vertices[vid]
        if v.kind is g.VertexKind.EXTERNAL_LOAD:
            load = v
        elif v.kind is g.VertexKind.SYNAPSE_MATRIX:
            matrix = v
    store = graph.vertices[inst.vertex_ids[-1]]
    if load is None or matrix is None:
        raise g.MalformedInstance(f"instance {inst.id} lacks a load or synapse matrix")
    return load, matrix, store


def _vertex_value(graph: g.DependencyGraph, vid: int, values: dict) -> np.ndarray:
    """Value of a vertex, computing host-side digital nodes on demand."""
    if vid in values:
        return values[vid]
    v = graph.vertices[vid]
    if v.kind in g.DIGITAL_KINDS:
        for src in v.inputs:
            _vertex_value(graph, src, values)
        values[vid] = _digital_value(v, values)
        return values[vid]
    raise KeyError(f"vertex {vid} has no stored value yet")


def _resolve_load(graph: g.DependencyGraph, load: g.Vertex, values: dict) -> np.ndarray:
    payload = load.payload or {}
    if "data" in payload:
        x = np.atleast_2d(np.asarray(payload["data"]))
        if _would_wrap(x, 0, INPUT_MAX):
            raise InputOutOfRange(f"inputs must be u8 in [0, {INPUT_MAX}]")
    elif "source" in payload:
        # host-side range adaptation of stored i8 activations to the u5 domain
        src = np.atleast_2d(np.asarray(_vertex_value(graph, payload["source"], values)))
        x = np.clip(src, 0, INPUT_MAX)
    else:
        raise g.MalformedInstance(f"external load {load.id} carries neither data nor source")
    return x.astype(np.uint8)


def _would_wrap(a: np.ndarray, lo: int, hi: int) -> bool:
    """True for an integer array wider than 8 bits with values outside [lo, hi].

    The cast to the chip's u8/i8 operands would wrap these values silently;
    8-bit arrays (the quantizers' output) are range-checked by the array itself.
    """
    wide = a.dtype.kind in "iu" and a.dtype.itemsize > 1
    return wide and (a.min(initial=0) < lo or a.max(initial=0) > hi)


def _prepare(x: np.ndarray, block: np.ndarray, signed: bool) -> tuple:
    """Pad operands to the physical array, applying signed row pairing."""
    if signed:
        phys_w = signed_row_pairs(block)
        phys_x = duplicate_signed_inputs(x)
    else:
        phys_w = np.asarray(block)
        if _would_wrap(phys_w, -WEIGHT_MAX, WEIGHT_MAX):
            raise WeightOutOfRange(f"weights must lie in [-{WEIGHT_MAX}, {WEIGHT_MAX}]")
        phys_x = x
    rows, cols = phys_w.shape
    padded_w = np.zeros((ROWS, COLS), dtype=np.int8)
    padded_w[:rows, :cols] = phys_w
    padded_x = np.zeros((phys_x.shape[0], ROWS), dtype=np.uint8)
    padded_x[:, :rows] = phys_x
    return padded_x, padded_w, rows, cols


def _digital_value(v: g.Vertex, values: dict) -> np.ndarray:
    if v.kind is g.VertexKind.ADD:
        lo, hi = (v.payload or {}).get("clamp", (-128, 127))
        acc = np.zeros_like(np.asarray(values[v.inputs[0]], dtype=np.int32))
        for src in v.inputs:
            acc = acc + np.asarray(values[src], dtype=np.int32)
        out = np.clip(acc, lo, hi)
        return out.astype(np.int8) if lo >= -128 and hi <= 127 else out
    if v.kind is g.VertexKind.CONCAT:
        axis = (v.payload or {}).get("axis", 1)
        return np.concatenate([np.asarray(values[src]) for src in v.inputs], axis=axis)
    if v.kind is g.VertexKind.EXTERNAL_STORE:
        return np.asarray(values[v.inputs[0]])
    raise g.KindMismatch(f"unexpected digital vertex kind {v.kind}")


def _finish(graph, values: dict, costs: dict, times: dict) -> tuple:
    """Digital vertices, outputs and trace once every instance has stored."""
    for vid in g.vertex_order(graph):
        v = graph.vertices[vid]
        if v.kind in g.DIGITAL_KINDS and vid not in values:
            values[vid] = _digital_value(v, values)
    outputs = {vid: values[vid] for vid in graph.outputs()}
    trace = RunTrace(
        [TraceRow(iid, times[iid], c.bytes_config, c.bytes_in, c.bytes_out) for iid, c in costs.items()]
    )
    return outputs, trace


class Executor:
    def __init__(
        self,
        resources: SimulatedChips | None = None,
        timing=None,
        workers: int | None = None,
        seed_salt: int = 0,
    ):
        self.resources = resources if resources is not None else global_resources()
        self.timing = timing
        self.workers = workers
        self.seed_salt = seed_salt

    def _timing(self):
        if self.timing is not None:
            return self.timing
        from .perf import default_timing  # looked up per call: perf imports this module

        return default_timing()

    def run(self, graph: g.DependencyGraph, mode: str = "simulated_time", force_serial: bool = False):
        """Execute the graph; returns ({external_store id: ndarray}, RunTrace)."""
        problems = g.validate(graph)
        if problems:
            raise g.MalformedInstance("; ".join(problems))
        if mode == "simulated_time":
            return self._run_simulated(graph, force_serial)
        if mode == "measured_time":
            return self._run_measured(graph)
        raise ValueError(f"unknown mode {mode!r}")

    def _exec_instance(self, graph, inst, values, lock, clock):
        """Run one instance; ``lock`` guards ``values``, ``clock`` stamps the stages.

        Returns (InstanceCost, (pre_start, exec_start, exec_end, post_end)).
        """
        pre_s = clock()
        load, matrix, store = _instance_parts(graph, inst)
        with lock:
            x = _resolve_load(graph, load, values)
        payload = matrix.payload
        padded_x, padded_w, rows, cols = _prepare(
            x, np.asarray(payload["weights"]), bool(payload.get("signed"))
        )
        hw_params = payload.get("hw_params") or HwParams()
        exec_s = clock()
        array = self.resources.array(inst.array_binding)
        rng = instance_rng(array.config, inst.id, self.seed_salt)
        array.acquire(inst.id)
        try:
            array.configure(padded_w)
            y = array.mac(padded_x, hw_params, rng, cols)
        finally:
            array.release(inst.id)
        exec_e = clock()
        with lock:
            values[store.id] = y[:, :cols]
        cost = InstanceCost(rows, cols, padded_x.shape[0], hw_params)
        return cost, (pre_s, exec_s, exec_e, clock())

    def _run_simulated(self, graph, force_serial):
        """Sequential numerics in topological order, then a virtual-clock schedule."""
        values: dict = {}
        costs: dict = {}
        lock = threading.Lock()
        for iid in g.topo_schedule(graph):
            costs[iid], _ = self._exec_instance(graph, graph.instances[iid], values, lock, time.perf_counter)
        timing = self._timing()
        durations = {iid: timing.durations(c) for iid, c in costs.items()}
        resource_of = {iid: graph.instances[iid].array_binding for iid in costs}
        deps = graph.instance_dependencies()
        schedule = schedule_pipeline(durations, resource_of, deps, self.workers, force_serial)
        return _finish(graph, values, costs, schedule)

    def _run_measured(self, graph):
        """Instances on a thread pool; the trace holds wall-clock stage times."""
        deps = graph.instance_dependencies()
        done = {iid: threading.Event() for iid in graph.instances}
        values: dict = {}
        costs: dict = {}
        times: dict = {}
        lock = threading.Lock()
        t0 = time.perf_counter()

        def clock():
            return time.perf_counter() - t0

        def worker(iid):
            for d in deps[iid]:
                if not done[d].wait(timeout=60.0):
                    raise DeadlockDetected(f"instance {iid} starved waiting for {d}")
            costs[iid], (pre_s, exec_s, exec_e, post_e) = self._exec_instance(
                graph, graph.instances[iid], values, lock, clock
            )
            times[iid] = StageTimes(pre_s, exec_s, exec_s, exec_e, exec_e, post_e)
            done[iid].set()

        # instances are submitted in topological order to a FIFO pool, so every
        # dependency of a running instance has started: a capped pool cannot starve
        n_workers = self.workers or min(max(len(graph.instances), 1), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(worker, iid) for iid in g.topo_schedule(graph)]
            for f in futures:
                f.result()
        return _finish(graph, values, costs, times)


def run(graph, mode="simulated_time", resources=None, timing=None, workers=None, force_serial=False):
    return Executor(resources, timing, workers).run(graph, mode, force_serial)
