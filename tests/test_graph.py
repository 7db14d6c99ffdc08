import numpy as np
import pytest

from anamac import graph as g
from anamac.chip import ChipConfig, HwParams
from anamac.executor import Executor, SimulatedChips
from anamac.partition import build_graph, partition_matmul


def _chain(builder, data=None, source=None, binding=(0, 0), instance_id=None):
    """One load -> matrix -> neurons -> digitize -> store instance."""
    payload = {"data": data} if data is not None else {"source": source}
    load = builder.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload=payload)
    matrix = builder.add_vertex(
        g.VertexKind.SYNAPSE_MATRIX,
        payload={"weights": np.ones((2, 2), dtype=np.int8), "signed": False},
        inputs=(load,),
    )
    neurons = builder.add_vertex(g.VertexKind.NEURONS, inputs=(matrix,))
    digitize = builder.add_vertex(g.VertexKind.DIGITIZE, inputs=(neurons,))
    store = builder.add_vertex(g.VertexKind.STORE, inputs=(digitize,))
    builder.add_instance((load, matrix, neurons, digitize, store), binding, instance_id=instance_id)
    return store


def test_ssa_double_assignment():
    b = g.GraphBuilder()
    b.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload={"data": [1]}, vertex_id=0)
    with pytest.raises(g.DoubleAssignment):
        b.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload={"data": [2]}, vertex_id=0)


def test_use_before_def():
    b = g.GraphBuilder()
    with pytest.raises(g.UseBeforeDef):
        b.add_vertex(g.VertexKind.NEURONS, inputs=(99,))


def test_kind_rules_enforced():
    b = g.GraphBuilder()
    load = b.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload={"data": [1]})
    with pytest.raises(g.KindMismatch):
        b.add_vertex(g.VertexKind.NEURONS, inputs=(load,))  # neurons need a matrix
    with pytest.raises(g.KindMismatch):
        b.add_vertex(g.VertexKind.ADD, inputs=(load,))  # digital nodes eat stores
    with pytest.raises(g.KindMismatch):
        b.add_vertex(g.VertexKind.SYNAPSE_MATRIX, inputs=(load,))  # payload required


def test_validate_catches_malformed_instance():
    b = g.GraphBuilder()
    load = b.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload={"data": [1]})
    b.add_instance((load,))
    problems = g.validate(b.build())
    assert any("MalformedInstance" in p for p in problems)


def test_validate_catches_oversize_block():
    b = g.GraphBuilder()
    store = _chain(b, data=np.zeros((1, 2), dtype=np.uint8))
    graph = b.build()
    graph.vertices[1].payload["weights"] = np.zeros((300, 10), dtype=np.int8)
    problems = g.validate(graph)
    assert any("exceeds" in p for p in problems)


def test_validate_detects_cycle():
    graph = g.DependencyGraph(
        vertices={
            0: g.Vertex(0, g.VertexKind.ADD, None, (1,)),
            1: g.Vertex(1, g.VertexKind.ADD, None, (0,)),
        }
    )
    problems = g.validate(graph)
    assert any("CycleDetected" in p for p in problems)


def test_toposort_tie_break_is_min_id():
    # dependencies: 2 <- {1, 3}, 4 <- {1}
    deps = {1: (), 2: (1, 3), 3: (), 4: (1,)}
    assert g._toposort(deps) == [1, 3, 2, 4]


def test_toposort_raises_on_cycle():
    with pytest.raises(g.CycleDetected):
        g._toposort({0: (1,), 1: (0,)})


def test_instance_dependencies_through_digital_nodes():
    b = g.GraphBuilder()
    s1 = _chain(b, data=np.zeros((1, 2), dtype=np.uint8), instance_id=1)
    s3 = _chain(b, data=np.zeros((1, 2), dtype=np.uint8), instance_id=3)
    add = b.add_vertex(g.VertexKind.ADD, inputs=(s1, s3))
    _chain(b, source=add, instance_id=2)  # consumes both via the add
    _chain(b, source=s1, instance_id=4)  # consumes instance 1 directly
    graph = b.build()
    deps = graph.instance_dependencies()
    assert deps[2] == {1, 3}
    assert deps[4] == {1}
    assert deps[1] == set() and deps[3] == set()
    assert g.topo_schedule(graph) == [1, 3, 2, 4]


def test_json_roundtrip_preserves_payload_arrays():
    b = g.GraphBuilder()
    _chain(b, data=np.array([[1, 2]], dtype=np.uint8))
    graph = b.build()
    restored = g.from_json(g.to_json(graph))
    assert set(restored.vertices) == set(graph.vertices)
    assert restored.instances[0].vertex_ids == graph.instances[0].vertex_ids
    w0 = graph.vertices[1].payload["weights"]
    w1 = restored.vertices[1].payload["weights"]
    assert w1.dtype == w0.dtype and np.array_equal(w0, w1)


def test_json_roundtrip_of_a_partitioner_graph_executes_the_same():
    rng = np.random.default_rng(4)
    w = rng.integers(-63, 64, size=(300, 270)).astype(np.int8)
    x = rng.integers(0, 32, size=(3, 300)).astype(np.uint8)
    res = SimulatedChips(2, ChipConfig(chip_seed=1))
    plan = partition_matmul(300, 270, signed=True, arrays=res.array_bindings())
    graph = build_graph(plan, w, x, hw_params=HwParams(num_sends=3))
    restored = g.from_json(g.to_json(graph))
    matrix = next(v for v in restored.vertices.values() if v.kind is g.VertexKind.SYNAPSE_MATRIX)
    assert matrix.payload["hw_params"] == HwParams(num_sends=3)
    (y,) = Executor(res).run(graph)[0].values()
    (y_restored,) = Executor(res).run(restored)[0].values()
    assert np.array_equal(y, y_restored)


def test_external_load_takes_no_inputs():
    b = g.GraphBuilder()
    store = _chain(b, data=np.zeros((1, 2), dtype=np.uint8))
    with pytest.raises(g.KindMismatch):
        b.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload={"data": [1]}, inputs=(store,))
