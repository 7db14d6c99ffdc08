"""Hardware-centric dataflow graph.

Vertices describe the on-chip stages of one execution instance
(external load -> synapse matrix -> neurons -> digitize -> store) and the
host-side digital recombination (add, concat, external store). Execution
instances are linked into a dependency graph through loads of stored
activations and through the digital nodes.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .chip import COLS, ROWS, SIGNED_ROWS, HwParams


class VertexKind(str, Enum):
    EXTERNAL_LOAD = "external_load"
    SYNAPSE_MATRIX = "synapse_matrix"
    NEURONS = "neurons"
    DIGITIZE = "digitize"
    STORE = "store"
    EXTERNAL_STORE = "external_store"
    ADD = "add"
    CONCAT = "concat"


# admissible input kinds per vertex kind
_ALLOWED_INPUTS = {
    VertexKind.EXTERNAL_LOAD: frozenset(),
    VertexKind.SYNAPSE_MATRIX: frozenset({VertexKind.EXTERNAL_LOAD}),
    VertexKind.NEURONS: frozenset({VertexKind.SYNAPSE_MATRIX}),
    VertexKind.DIGITIZE: frozenset({VertexKind.NEURONS}),
    VertexKind.STORE: frozenset({VertexKind.DIGITIZE}),
    VertexKind.EXTERNAL_STORE: frozenset(
        {VertexKind.STORE, VertexKind.DIGITIZE, VertexKind.ADD, VertexKind.CONCAT}
    ),
    VertexKind.ADD: frozenset({VertexKind.STORE, VertexKind.ADD, VertexKind.CONCAT}),
    VertexKind.CONCAT: frozenset({VertexKind.STORE, VertexKind.ADD, VertexKind.CONCAT}),
}

_PAYLOAD_REQUIRED = {VertexKind.EXTERNAL_LOAD, VertexKind.SYNAPSE_MATRIX, VertexKind.CONCAT}

DIGITAL_KINDS = frozenset({VertexKind.ADD, VertexKind.CONCAT, VertexKind.EXTERNAL_STORE})


class UseBeforeDef(ValueError):
    pass


class DoubleAssignment(ValueError):
    pass


class KindMismatch(ValueError):
    pass


class CycleDetected(ValueError):
    pass


class MalformedInstance(ValueError):
    pass


@dataclass
class Vertex:
    id: int
    kind: VertexKind
    payload: dict | None
    inputs: tuple


@dataclass
class ExecutionInstance:
    """One statically configured chip run: load -> matrix -> neurons -> digitize -> store."""

    id: int
    vertex_ids: tuple
    array_binding: tuple  # (chip, array)


@dataclass
class DependencyGraph:
    vertices: dict = field(default_factory=dict)  # vertex id -> Vertex
    instances: dict = field(default_factory=dict)  # instance id -> ExecutionInstance

    def outputs(self):
        return [v.id for v in self.vertices.values() if v.kind is VertexKind.EXTERNAL_STORE]

    def instance_dependencies(self) -> dict:
        """Instance -> set of instances whose stored results it consumes.

        A dependency exists when an external load sources another instance's
        store, possibly through host-side digital nodes.
        """
        owner = {}
        for inst in self.instances.values():
            for vid in inst.vertex_ids:
                owner[vid] = inst.id

        def producing_instances(vid, seen):
            if vid in seen:
                return set()
            seen.add(vid)
            if vid in owner:
                return {owner[vid]}
            v = self.vertices[vid]
            found = set()
            for src in v.inputs:
                found |= producing_instances(src, seen)
            return found

        deps = {iid: set() for iid in self.instances}
        for inst in self.instances.values():
            for vid in inst.vertex_ids:
                v = self.vertices[vid]
                if v.kind is VertexKind.EXTERNAL_LOAD and v.payload and "source" in v.payload:
                    deps[inst.id] |= producing_instances(v.payload["source"], set())
        return deps


class GraphBuilder:
    """Static-single-assignment builder: every vertex id is assigned once."""

    def __init__(self):
        self._vertices: dict[int, Vertex] = {}
        self._instances: dict[int, ExecutionInstance] = {}
        self._next_id = 0

    def add_vertex(self, kind, payload=None, inputs=(), vertex_id=None) -> int:
        kind = VertexKind(kind)
        if vertex_id is None:
            vertex_id = self._next_id
        if vertex_id in self._vertices:
            raise DoubleAssignment(f"vertex id {vertex_id} already assigned")
        for src in inputs:
            if src not in self._vertices:
                raise UseBeforeDef(f"input vertex {src} is not defined yet")
            src_kind = self._vertices[src].kind
            if src_kind not in _ALLOWED_INPUTS[kind]:
                raise KindMismatch(f"{kind.value} cannot be fed by {src_kind.value}")
        if kind in _PAYLOAD_REQUIRED and payload is None:
            raise KindMismatch(f"{kind.value} requires a payload")
        self._vertices[vertex_id] = Vertex(vertex_id, kind, payload, tuple(inputs))
        self._next_id = max(self._next_id, vertex_id) + 1
        return vertex_id

    def add_instance(self, vertex_ids, array_binding=(0, 0), instance_id=None) -> int:
        if instance_id is None:
            instance_id = len(self._instances)
        if instance_id in self._instances:
            raise DoubleAssignment(f"instance id {instance_id} already assigned")
        for vid in vertex_ids:
            if vid not in self._vertices:
                raise UseBeforeDef(f"instance references undefined vertex {vid}")
        self._instances[instance_id] = ExecutionInstance(
            instance_id, tuple(vertex_ids), tuple(array_binding)
        )
        return instance_id

    def build(self) -> DependencyGraph:
        return DependencyGraph(dict(self._vertices), dict(self._instances))


def validate(graph: DependencyGraph) -> list:
    """Return the full list of violations (empty list = valid graph)."""
    problems = []

    # acyclicity on the vertex level
    try:
        _toposort({v.id: v.inputs for v in graph.vertices.values()})
    except CycleDetected as e:
        problems.append(f"CycleDetected: {e}")

    # every edge: defined, and of a kind the consumer admits
    for v in graph.vertices.values():
        for src in v.inputs:
            if src not in graph.vertices:
                problems.append(f"UseBeforeDef: vertex {v.id} references missing {src}")
            elif (src_kind := graph.vertices[src].kind) not in _ALLOWED_INPUTS[v.kind]:
                problems.append(f"KindMismatch: {v.kind.value} {v.id} cannot be fed by {src_kind.value} {src}")
        if v.kind is VertexKind.EXTERNAL_LOAD:  # data, or a stored or digital value to read
            payload = v.payload or {}
            source = graph.vertices.get(payload.get("source"))
            if "data" not in payload and getattr(source, "kind", None) not in _ALLOWED_INPUTS[VertexKind.ADD]:
                problems.append(f"KindMismatch: external_load {v.id} carries neither data nor a stored source")

    # per-instance shape
    for inst in graph.instances.values():
        missing = [vid for vid in inst.vertex_ids if vid not in graph.vertices]
        if missing:
            problems.append(f"UseBeforeDef: instance {inst.id} references missing {missing}")
        kinds = [graph.vertices[vid].kind for vid in inst.vertex_ids if vid in graph.vertices]
        one_each = (VertexKind.EXTERNAL_LOAD, VertexKind.SYNAPSE_MATRIX, VertexKind.DIGITIZE)
        counts = [kinds.count(k) for k in one_each]
        if counts != [1, 1, 1]:
            problems.append(
                f"MalformedInstance: instance {inst.id} holds {counts[0]} external loads, {counts[1]} synapse "
                f"matrices and {counts[2]} digitize vertices (expected exactly one of each)"
            )
        if kinds and kinds[-1] not in (VertexKind.STORE, VertexKind.EXTERNAL_STORE):
            problems.append(f"MalformedInstance: instance {inst.id} does not end in a store")

    # width compatibility: synapse block fits the physical array
    for v in graph.vertices.values():
        if v.kind is VertexKind.SYNAPSE_MATRIX and v.payload is not None:
            block = np.asarray(v.payload.get("weights"))
            signed = bool(v.payload.get("signed"))
            max_rows = SIGNED_ROWS if signed else ROWS  # signed rows take a physical pair each
            if block.ndim != 2 or block.shape[0] > max_rows or block.shape[1] > COLS:
                problems.append(
                    f"KindMismatch: {'signed' if signed else 'unsigned'} synapse matrix {v.id} "
                    f"block {block.shape} exceeds {max_rows}x{COLS}"
                )
    return problems


def _toposort(inputs_of: dict) -> list:
    """Kahn's algorithm; ties broken by ascending id for reproducible schedules."""
    indeg = {vid: 0 for vid in inputs_of}
    consumers: dict[int, list] = {vid: [] for vid in inputs_of}
    for vid, inputs in inputs_of.items():
        for src in inputs:
            if src in indeg:
                indeg[vid] += 1
                consumers[src].append(vid)
    ready = [vid for vid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        vid = heapq.heappop(ready)
        order.append(vid)
        for nxt in consumers[vid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(inputs_of):
        stuck = sorted(set(inputs_of) - set(order))
        raise CycleDetected(f"cycle through vertices {stuck}")
    return order


def topo_schedule(graph: DependencyGraph) -> list:
    """Topological order of instance ids, ties broken by ascending id."""
    deps = graph.instance_dependencies()
    return _toposort(deps)


def vertex_order(graph: DependencyGraph) -> list:
    return _toposort({v.id: v.inputs for v in graph.vertices.values()})


def _payload_to_json(payload):
    if payload is None:
        return None
    out = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            out[key] = {"__ndarray__": value.dtype.str, "values": value.tolist()}
        elif isinstance(value, HwParams):
            out[key] = {"__hw_params__": asdict(value)}
        else:
            out[key] = value
    return out


def _payload_from_json(payload):
    if payload is None:
        return None
    out = {}
    for key, value in payload.items():
        if isinstance(value, dict) and "__ndarray__" in value:
            out[key] = np.array(value["values"], dtype=np.dtype(value["__ndarray__"]))
        elif isinstance(value, dict) and "__hw_params__" in value:
            out[key] = HwParams(**value["__hw_params__"])
        else:
            out[key] = value
    return out


def to_json(graph: DependencyGraph) -> str:
    """Debug dump; not a stability-guaranteed format."""
    doc = {
        "vertices": [
            {
                "id": v.id,
                "kind": v.kind.value,
                "inputs": list(v.inputs),
                "payload": _payload_to_json(v.payload),
            }
            for v in graph.vertices.values()
        ],
        "instances": [
            {"id": i.id, "vertices": list(i.vertex_ids), "array_binding": list(i.array_binding)}
            for i in graph.instances.values()
        ],
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> DependencyGraph:
    doc = json.loads(text)
    vertices = {
        v["id"]: Vertex(v["id"], VertexKind(v["kind"]), _payload_from_json(v["payload"]), tuple(v["inputs"]))
        for v in doc["vertices"]
    }
    instances = {
        i["id"]: ExecutionInstance(i["id"], tuple(i["vertices"]), tuple(i["array_binding"]))
        for i in doc["instances"]
    }
    return DependencyGraph(vertices, instances)
