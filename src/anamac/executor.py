"""Just-in-time execution of a dependency graph.

Every execution instance passes through three stages: preprocessing (resolve
the load), execution on a synapse array (exclusive per array; the array takes
the block and its ``signed`` flag and maps signed rows onto its row pairs
itself), and postprocessing of the digitized results. Stages of instances
without mutual dependencies may overlap; numerics are independent of the
schedule because each instance owns an RNG stream keyed by (chip_seed,
salt, instance id).

One driver runs the instances of both modes, taking them in topological
order: on the caller's thread in ``simulated_time``, which starts no thread,
and on ``workers`` threads (by default min(instances, os.cpu_count())) in
``measured_time``. Once an instance fails no further one is taken, a dependent
of a failed instance is skipped, and the failure earliest in topological order
is raised. ``simulated_time`` hands the costs and bindings to ``perf.simulate``
with ``perf.default_timing`` of the pool's hardware version: the one simulated
clock, which the throughput sweeps use too, which gives every ready run its own
host worker and serializes executions per chip, whose arrays share one link;
its trace does not depend on ``workers``. ``measured_time`` records wall-clock
stage times. Outputs are bit-identical between modes and worker counts; in
both, a trace row's bytes are ``perf.CostModel``'s.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from . import graph as g, perf
from .chip import ARRAYS_PER_CHIP, Chip, ChipConfig, HwParams
from .quant import INPUT_MAX, OUTPUT_MAX, OUTPUT_MIN


class Unavailable(RuntimeError):
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
        if not (0 <= chip_idx < self.num_chips and 0 <= array_idx < ARRAYS_PER_CHIP):
            raise Unavailable(f"binding {binding} outside {self.num_chips} chips x {ARRAYS_PER_CHIP} arrays")
        return self.chips[chip_idx].arrays[array_idx]

    def array_bindings(self) -> list:
        """The pool's (chip, array) bindings, chip-major; initializes nothing."""
        return [(c, a) for c in range(self.num_chips) for a in range(ARRAYS_PER_CHIP)]


def instance_rng(config: ChipConfig, instance_id: int, salt: int | tuple = 0) -> np.random.Generator:
    """Temporal-noise stream for one instance; independent of arrival order.

    The salt, an int or a tuple of ints, decorrelates repeated runs of
    structurally identical graphs (e.g. successive training steps, or the
    layers of one forward pass) without touching the chip seed. An int salt
    ``s`` keys the same stream as the tuple ``(s,)``.
    """
    salt = salt if isinstance(salt, tuple) else (salt,)
    return np.random.default_rng([config.chip_seed, 7, *salt, instance_id])


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
    if "data" in load.payload:
        return np.atleast_2d(np.asarray(load.payload["data"]))
    # host-side range adaptation of stored i8 activations to the u5 domain
    src = np.atleast_2d(np.asarray(_vertex_value(graph, load.payload["source"], values)))
    return np.clip(src, 0, INPUT_MAX)


def _digital_value(v: g.Vertex, values: dict) -> np.ndarray:
    if v.kind is g.VertexKind.ADD:  # saturating sum, re-clamped to the int8 output range
        acc = np.asarray(values[v.inputs[0]]).astype(np.int32)  # the one copy
        for src in v.inputs[1:]:
            acc += values[src]
        return np.clip(acc, OUTPUT_MIN, OUTPUT_MAX, out=acc).astype(np.int8)
    if v.kind is g.VertexKind.CONCAT:
        axis = (v.payload or {}).get("axis", 1)
        return np.concatenate([np.asarray(values[src]) for src in v.inputs], axis=axis)
    if v.kind is g.VertexKind.EXTERNAL_STORE:
        return np.asarray(values[v.inputs[0]])
    raise g.KindMismatch(f"unexpected digital vertex kind {v.kind}")


class Executor:
    """Runs dependency graphs on ``resources``, the one explicit pool of chips.

    Every chip path takes its ``SimulatedChips`` from the caller; there is no
    default pool. One pool object draws its fixed pattern once, so runs that
    share it see the same chips. ``workers``, None or an int >= 1, sizes
    ``measured_time``'s thread pool only; the simulated clock ignores it. Both
    modes run the instances through one driver with one failure rule.
    """

    def __init__(self, resources: SimulatedChips, workers: int | None = None, seed_salt: int | tuple = 0):
        if workers is not None and not (isinstance(workers, int) and workers >= 1):
            raise ValueError(f"workers must be None or an int >= 1, not {workers!r}")
        self.resources = resources
        self.workers = workers
        self.seed_salt = seed_salt

    def run(self, graph: g.DependencyGraph, mode: str = "simulated_time", force_serial: bool = False):
        """Execute the graph; returns ({external_store id: ndarray}, RunTrace).

        ``force_serial`` is a setting of the simulated clock: each instance
        starts after the one before it has ended. ``measured_time`` rejects it.
        """
        problems = g.validate(graph)
        if problems:
            raise g.MalformedInstance("; ".join(problems))
        if mode not in ("simulated_time", "measured_time"):
            raise ValueError(f"unknown mode {mode!r}")
        if force_serial and mode != "simulated_time":
            raise ValueError("force_serial sets the simulated clock; measured_time has none")
        deps = graph.instance_dependencies()
        order = g._toposort(deps)  # the one instance analysis of this run
        values, done = self._drive(graph, deps, order, threaded=mode == "measured_time")
        for vid, v in graph.vertices.items():
            if v.kind in g.DIGITAL_KINDS:  # every one, so an unused vertex's error surfaces too
                _vertex_value(graph, vid, values)
        costs = {iid: done[iid][0] for iid in order}
        hw_version = self.resources.config.hw_version
        if mode == "simulated_time":
            bindings = {iid: graph.instances[iid].array_binding for iid in order}
            trace = perf.simulate(costs, bindings, deps, perf.default_timing(hw_version), force_serial)
        else:
            model = perf.CostModel(hw_version)
            rows = [perf.TraceRow(iid, done[iid][1], model.stage_bytes(costs[iid])) for iid in order]
            trace = perf.RunTrace(rows)
        return {vid: values[vid] for vid in graph.outputs()}, trace

    def _drive(self, graph, deps, order, threaded):
        """Run the instances, taken in topological order, on the caller's thread
        or, if ``threaded``, on ``workers`` threads (by default min(instances,
        os.cpu_count())). Returns (values, {instance id: (InstanceCost, StageTimes)}).

        Once an instance fails no further one is taken; those already taken
        finish, and a dependent of a failed instance is skipped. The failure
        earliest in topological order is raised. Every dependency of a taken
        instance was taken before it, so a wait cannot starve.
        """
        values: dict = {}
        done: dict = {}
        errors: dict = {}  # topological position -> exception
        finished = {iid: threading.Event() for iid in order}
        jobs = enumerate(order)
        lock = threading.Lock()  # guards jobs, values and errors
        t0 = time.perf_counter()

        def clock():
            return time.perf_counter() - t0

        def drain():
            while True:
                with lock:
                    pos, iid = (None, None) if errors else next(jobs, (None, None))
                if iid is None:
                    return
                try:
                    for d in deps[iid]:
                        finished[d].wait()
                    if all(d in done for d in deps[iid]):  # else a dependency failed or was skipped
                        done[iid] = self._exec_instance(graph, graph.instances[iid], values, lock, clock)
                except BaseException as e:
                    with lock:
                        errors[pos] = e
                finally:
                    finished[iid].set()

        if threaded:
            n_workers = self.workers or min(max(len(order), 1), os.cpu_count() or 1)
            threads = [threading.Thread(target=drain, name=f"anamac-worker-{i}") for i in range(n_workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        else:
            drain()  # simulated_time starts no thread
        if errors:
            raise errors[min(errors)]
        return values, done

    def _exec_instance(self, graph, inst, values, lock, clock):
        """Run one instance; ``lock`` guards ``values``, ``clock`` stamps the stages.

        Returns (InstanceCost, StageTimes).
        """
        pre_s = clock()
        # graph.validate found exactly one load and one matrix in the instance
        parts = {graph.vertices[vid].kind: graph.vertices[vid] for vid in inst.vertex_ids}
        load, matrix = parts[g.VertexKind.EXTERNAL_LOAD], parts[g.VertexKind.SYNAPSE_MATRIX]
        store = graph.vertices[inst.vertex_ids[-1]]
        with lock:
            x = _resolve_load(graph, load, values)
        payload = matrix.payload
        hw_params = payload.get("hw_params") or HwParams()
        exec_s = clock()
        array = self.resources.array(inst.array_binding)
        rng = instance_rng(array.config, inst.id, self.seed_salt)
        array.acquire(inst.id)
        try:
            array.configure(payload["weights"], signed=bool(payload.get("signed")))
            y = array.mac(x, hw_params, rng)
            rows, cols = array.physical_rows, array.cols
        finally:
            array.release(inst.id)
        exec_e = clock()
        with lock:
            values[store.id] = y[:, :cols]
        cost = perf.InstanceCost(rows, cols, x.shape[0], hw_params)
        return cost, perf.StageTimes(pre_s, exec_s, exec_s, exec_e, exec_e, clock())
