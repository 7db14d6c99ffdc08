"""Spans around the package's public functions, patched in from outside.

Inside ``with Tracer(...)`` every function listed in ``Tracer._patches`` is
replaced where its caller looks it up, and one span per call is kept in
memory: (id, name, start, end, parent, op). The parent of a span opened on an
executor worker thread is the innermost open span of the load-generating
thread, which is blocked in ``Executor.run`` at the time. Every original is
restored on exit.

Hooks that count work (clipped inputs, ADC rails, live array area) run after
the wrapped call has returned. Each is recorded as a ``trace.count`` child
span, so no layer's time includes it; it shows only in the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

from anamac import chip, executor, graph, lowering, partition, perf, quant, train

# per-layer time metric -> the spans whose time it sums (self-nested spans once)
TIME_METRICS = {
    "quant.quantize_ms": (
        "quant.input_scale_for",
        "quant.weight_scale_for",
        "quant.quantize_inputs",
        "quant.quantize_weights",
    ),
    "quant.dequantize_ms": ("quant.dequantize_outputs",),
    "lowering.gather_ms": ("lowering.gather_input_vectors",),
    "lowering.unroll_ms": ("lowering.unroll_kernel",),
    "lowering.fold_ms": ("lowering.fold",),
    "partition.plan_ms": ("partition.partition_matmul",),
    "partition.build_graph_ms": ("partition.build_graph",),
    "graph.validate_ms": ("graph.validate",),
    "graph.schedule_ms": ("graph.topo_schedule", "graph.vertex_order", "graph.instance_dependencies"),
    "perf.timing_ms": ("perf.default_timing", "perf.durations"),
    "chip.mac_ms": ("chip.mac",),
    "chip.configure_ms": ("chip.configure",),
    "chip.acquire_wait_ms": ("chip.acquire",),
    "executor.run_ms": ("executor.run",),
    "train.forward_ms.conv": ("train.forward.conv",),
    "train.forward_ms.dense1": ("train.forward.dense1",),
    "train.forward_ms.dense2": ("train.forward.dense2",),
    "train.backward_ms": ("train.backward",),
    "train.step_ms": ("train.step",),
}
HOOK_SPAN = "trace.count"
OP_SPAN = "op"
_MISSING = object()


def _input_clip(args, kwargs, result):
    x, spec = args[0], args[1]
    v = np.asarray(x, dtype=np.float64) / spec.input_scale
    clipped = np.count_nonzero((v <= -0.5) | (v >= quant.INPUT_MAX + 0.5))
    return [("inputs", v.size), ("inputs_clipped", clipped)]


def _tiles(args, kwargs, result):
    return [("tiles", len(result.tiles))]


def _live_cells(args, kwargs, result):
    plan, inputs_q = args[0], args[2]
    batch = np.atleast_2d(inputs_q).shape[0]
    rows_per_logical = 2 if plan.signed else 1
    live = sum(t.rows * rows_per_logical * t.cols for t in plan.tiles)
    return [("live_cells", live * batch), ("array_cells", len(plan.tiles) * chip.ROWS * chip.COLS * batch)]


def _adc_rails(args, kwargs, result):
    array = args[0]
    live = np.any(array.weights != 0, axis=0)  # the lock is still held here
    y = np.atleast_2d(result)[:, live]
    rails = np.count_nonzero((y == quant.OUTPUT_MIN) | (y == quant.OUTPUT_MAX))
    return [("mac_calls", 1), ("adc_outputs", y.size), ("adc_clamped", rails)]


def _threads(args, kwargs, result):
    return [("threads", threading.active_count())]


def _executor_run(args, kwargs, result):
    g, mode = args[1], kwargs.get("mode", args[2] if len(args) > 2 else "simulated_time")
    counts = [("instances", len(g.instances))]
    if mode == "simulated_time":
        trace = result[1]
        counts += [("sim_makespan_s", trace.makespan), ("sim_busy_s", trace.utilization * trace.makespan)]
    return counts


class Tracer:
    def __init__(self, layers=None):
        """``layers`` maps a label to a model layer whose ``forward`` gets a span."""
        self.layers = dict(layers or {})
        self.spans: list = []
        self.counts = defaultdict(list)  # op -> [(key, value)]
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._load_stack: list = []
        self._saved: list = []

    def _patches(self):
        for module in (quant, train):  # train imports the quant functions by name
            yield module, "input_scale_for", "quant.input_scale_for", None
            yield module, "weight_scale_for", "quant.weight_scale_for", None
            yield module, "quantize_inputs", "quant.quantize_inputs", _input_clip
            yield module, "quantize_weights", "quant.quantize_weights", None
            yield module, "dequantize_outputs", "quant.dequantize_outputs", None
        yield lowering, "gather_input_vectors", "lowering.gather_input_vectors", None
        yield lowering, "unroll_kernel", "lowering.unroll_kernel", None
        yield lowering.OutputDescriptor, "fold", "lowering.fold", None
        for module in (partition, train):
            yield module, "partition_matmul", "partition.partition_matmul", _tiles
            yield module, "build_graph", "partition.build_graph", _live_cells
        yield graph, "validate", "graph.validate", None
        yield graph, "topo_schedule", "graph.topo_schedule", None
        yield graph, "vertex_order", "graph.vertex_order", None
        yield graph.DependencyGraph, "instance_dependencies", "graph.instance_dependencies", None
        yield perf, "default_timing", "perf.default_timing", None  # imported lazily by executor
        yield perf.CostTiming, "durations", "perf.durations", None
        yield chip.SynapseArray, "mac", "chip.mac", _adc_rails
        yield chip.SynapseArray, "configure", "chip.configure", None
        yield chip.SynapseArray, "acquire", "chip.acquire", _threads
        yield executor.Executor, "run", "executor.run", _executor_run
        yield train.Sequential, "backward", "train.backward", None
        yield train.Sequential, "step", "train.step", None
        for label, layer in self.layers.items():
            yield layer, "forward", f"train.forward.{label}", None

    def __enter__(self):
        self._local.stack = self._load_stack
        for owner, attr, name, hook in self._patches():
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, start, end, parent, sid=None):
        sid = next(self._ids) if sid is None else sid
        self.spans.append((sid, name, start, end, parent, self.op))

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # an executor worker: its caller is the load thread's open span
                parent = self._load_stack[-1] if self._load_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._record(name, start, end, parent, sid)
            if hook is not None:
                self.counts[self.op].extend(hook(args, kwargs, result))
                self._record(HOOK_SPAN, end, perf_counter(), parent)
            return result

        return traced

    def begin_op(self, op):
        self.op = op
        self.counts[op].append(("threads", threading.active_count()))
        self._op_id = next(self._ids)
        self._load_stack.append(self._op_id)
        self._op_start = perf_counter()

    def end_op(self):
        end = perf_counter()
        self._load_stack.pop()
        self._record(OP_SPAN, self._op_start, end, None, self._op_id)
        self.op = None

    def op_stats(self, op) -> dict:
        """Simulated statistics of one op; these must repeat exactly."""
        stats = defaultdict(int)
        for key, value in self.counts[op]:
            if key in ("tiles", "instances", "mac_calls", "sim_makespan_s"):
                stats[key] += value
        return dict(stats)

    def self_times(self) -> dict:
        """Span id -> duration minus the part of it that its child spans cover."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = end - start - covered
        return out

    def layer_metrics(self) -> dict:
        """Per-op averages of every per-layer metric over the traced ops."""
        ops = {s[5] for s in self.spans if s[1] == OP_SPAN}
        n_ops = max(len(ops), 1)
        by_id = {s[0]: s for s in self.spans}
        metric_of = {name: m for m, names in TIME_METRICS.items() for name in names}

        def ancestors(sid):
            parent = by_id[sid][4]
            while parent is not None:
                yield by_id[parent]
                parent = by_id[parent][4]

        hook_time = defaultdict(float)  # span id -> hook time nested inside it
        for span in self.spans:
            if span[1] == HOOK_SPAN and span[4] is not None:
                hook_time[span[4]] += span[3] - span[2]
                for anc in ancestors(span[4]):
                    hook_time[anc[0]] += span[3] - span[2]

        totals = dict.fromkeys(TIME_METRICS, 0.0)
        for sid, name, start, end, _, op in self.spans:
            metric = metric_of.get(name)
            if metric is None or op not in ops:
                continue
            if any(metric_of.get(a[1]) == metric for a in ancestors(sid)):
                continue  # counted with its outermost span of the same metric
            totals[metric] += end - start - hook_time[sid]
        out = {m: 1e3 * t / n_ops for m, t in totals.items()}

        self_time = self.self_times()
        run_self = sum(self_time[s[0]] for s in self.spans if s[1] == "executor.run" and s[5] in ops)
        out["executor.self_ms"] = 1e3 * run_self / n_ops

        sums, peak_threads = defaultdict(float), 0
        for op in ops:
            for key, value in self.counts[op]:
                if key == "threads":
                    peak_threads = max(peak_threads, value)
                else:
                    sums[key] += value

        def ratio(a, b):
            return sums[a] / sums[b] if sums[b] else 0.0

        out.update(
            {
                "quant.input_clip_frac": ratio("inputs_clipped", "inputs"),
                "partition.tiles": sums["tiles"] / n_ops,
                "partition.live_frac": ratio("live_cells", "array_cells"),
                "chip.mac_calls": sums["mac_calls"] / n_ops,
                "chip.adc_clamp_frac": ratio("adc_clamped", "adc_outputs"),
                "executor.peak_threads": peak_threads,
                "executor.instances": sums["instances"] / n_ops,
                "executor.sim_utilization": ratio("sim_busy_s", "sim_makespan_s"),
            }
        )
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, times in ms from the first span."""
        self_time = self.self_times()
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for sid, name, start, end, parent, op in sorted(self.spans, key=lambda s: s[2]):
                f.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ms": 1e3 * (start - t0),
                            "end_ms": 1e3 * (end - t0),
                            "self_ms": 1e3 * self_time[sid],
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )

