import numpy as np
import pytest

from anamac import graph as g
from anamac.chip import SIGNED_ROWS, ChipConfig
from anamac.executor import (
    Executor,
    InstanceCost,
    SimulatedChips,
    Unavailable,
    acquire_chips,
    configure_resources,
    global_resources,
    instance_rng,
    reset_resources,
    schedule_pipeline,
)
from anamac.partition import build_graph, partition_matmul

NOISELESS = ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=0.0, gain=1.0)
NOISY = ChipConfig(chip_seed=3)


@pytest.fixture(autouse=True)
def _clean_global_pool():
    reset_resources()
    yield
    reset_resources()


def _simple_graph(rng, n=60, m=40, batch=3, arrays=((0, 0), (0, 1))):
    w = rng.integers(-2, 3, size=(n, m)).astype(np.int8)
    x = (rng.random((batch, n)) < 0.3).astype(np.uint8)
    plan = partition_matmul(n, m, signed=True, arrays=arrays)
    return build_graph(plan, w, x), w, x


# -- resource management ---------------------------------------------------


def test_initialization_happens_once():
    res = SimulatedChips(2)
    assert res.init_count == 0
    res.initialize()
    res.initialize()
    _ = res.chips
    assert res.init_count == 1


def test_acquire_more_than_configured_raises():
    configure_resources(1)
    with pytest.raises(Unavailable):
        acquire_chips(2)


def test_reconfigure_after_init_raises():
    configure_resources(1)
    acquire_chips(1)
    with pytest.raises(Unavailable):
        configure_resources(2)
    reset_resources()
    configure_resources(2)  # fine after a reset
    assert len(acquire_chips(2)) == 2


def test_unavailable_binding():
    res = SimulatedChips(1)
    with pytest.raises(Unavailable):
        res.array((1, 0))


def test_global_pool_defaults_to_one_chip():
    res = global_resources()
    assert res.num_chips == 1


# -- schedule --------------------------------------------------------------


def test_exec_is_exclusive_per_resource():
    durations = {0: (1.0, 10.0, 1.0), 1: (1.0, 10.0, 1.0)}
    deps = {0: (), 1: ()}
    same = schedule_pipeline(durations, {0: "a", 1: "a"}, deps)
    diff = schedule_pipeline(durations, {0: "a", 1: "b"}, deps)
    # same array: executions serialize; different arrays: they overlap
    assert same[1].exec_start >= same[0].exec_end
    assert diff[1].exec_start < diff[0].exec_end


def test_pre_and_post_overlap_with_exec():
    durations = {0: (1.0, 5.0, 1.0), 1: (1.0, 5.0, 1.0)}
    sched = schedule_pipeline(durations, {0: "a", 1: "a"}, {0: (), 1: ()})
    # instance 1 preprocesses while instance 0 executes
    assert sched[1].pre_end <= sched[0].exec_end


def test_dependencies_delay_preprocessing():
    durations = {0: (1.0, 5.0, 1.0), 1: (1.0, 5.0, 1.0)}
    sched = schedule_pipeline(durations, {0: "a", 1: "b"}, {0: (), 1: (0,)})
    assert sched[1].pre_start >= sched[0].post_end


def test_limited_workers_serialize_host_stages():
    durations = {i: (2.0, 0.5, 0.5) for i in range(4)}
    resource_of = {i: i for i in range(4)}
    deps = {i: () for i in range(4)}
    unlimited = schedule_pipeline(durations, resource_of, deps)
    one = schedule_pipeline(durations, resource_of, deps, workers=1)
    assert max(t.post_end for t in one.values()) > max(t.post_end for t in unlimited.values())


def test_force_serial_is_slower():
    durations = {i: (1.0, 2.0, 1.0) for i in range(3)}
    resource_of = {i: i % 2 for i in range(3)}
    deps = {i: () for i in range(3)}
    pipelined = schedule_pipeline(durations, resource_of, deps)
    serial = schedule_pipeline(durations, resource_of, deps, force_serial=True)
    assert max(t.post_end for t in serial.values()) == 12.0
    assert max(t.post_end for t in pipelined.values()) < 12.0


# -- execution modes -------------------------------------------------------


def test_simulated_and_measured_outputs_are_bit_identical():
    rng = np.random.default_rng(0)
    res = SimulatedChips(1, NOISY)
    graph, _, _ = _simple_graph(rng)
    out_sim, trace_sim = Executor(res).run(graph, mode="simulated_time")
    out_meas, trace_meas = Executor(res).run(graph, mode="measured_time")
    for vid in out_sim:
        assert np.array_equal(out_sim[vid], out_meas[vid])
    assert trace_sim.makespan > 0
    assert trace_meas.makespan > 0


def test_outputs_independent_of_worker_count():
    rng = np.random.default_rng(1)
    res = SimulatedChips(2, NOISY)
    graph, _, _ = _simple_graph(rng, n=300, m=300, arrays=res.array_bindings())
    results = []
    for workers in (1, 2, 4):
        out, _ = Executor(res, workers=workers).run(graph, mode="measured_time")
        results.append(next(iter(out.values())))
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


def _tiled_oracle(x, w, div):
    """Per-tile digitisation (round half away of acc / div, clamp), then clamped ADD."""
    total = np.zeros((x.shape[0], w.shape[1]), dtype=np.int64)
    for r0 in range(0, w.shape[0], SIGNED_ROWS):
        acc = x[:, r0 : r0 + SIGNED_ROWS].astype(np.int64) @ w[r0 : r0 + SIGNED_ROWS].astype(np.int64)
        total += np.clip(np.sign(acc) * ((np.abs(acc) + div // 2) // div), -128, 127)
    return np.clip(total, -128, 127)


@pytest.mark.parametrize("mode", ["simulated_time", "measured_time"])
def test_narrow_signed_tile_is_bit_exact(mode):
    """The HAR conv shape (288 x 16, signed) uses 16 of 256 columns per tile."""
    rng = np.random.default_rng(6)
    res = SimulatedChips(2, ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=0.0, gain=1 / 64))
    w = rng.integers(-63, 64, size=(288, 16)).astype(np.int8)
    x = rng.integers(0, 32, size=(9, 288)).astype(np.uint8)
    x[:, rng.random(288) < 0.7] = 0  # some unsaturated tiles beside saturated ones
    plan = partition_matmul(288, 16, signed=True, arrays=res.array_bindings())
    (y,) = Executor(res).run(build_graph(plan, w, x), mode=mode)[0].values()
    assert len(plan.tiles) == 3
    assert np.array_equal(y, _tiled_oracle(x, w, 64))


def test_noise_depends_on_instance_not_schedule():
    r1 = instance_rng(NOISY, 0).standard_normal(4)
    r2 = instance_rng(NOISY, 0).standard_normal(4)
    r3 = instance_rng(NOISY, 1).standard_normal(4)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, r3)


def test_seed_salt_decorrelates_repeated_runs():
    rng = np.random.default_rng(2)
    res = SimulatedChips(1, NOISY)
    graph, _, _ = _simple_graph(rng)
    (a,) = Executor(res, seed_salt=0).run(graph)[0].values()
    (b,) = Executor(res, seed_salt=0).run(graph)[0].values()
    (c,) = Executor(res, seed_salt=1).run(graph)[0].values()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_validates_graph_first():
    b = g.GraphBuilder()
    load = b.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload={"data": [[1]]})
    b.add_instance((load,))
    with pytest.raises(g.MalformedInstance):
        Executor(SimulatedChips(1)).run(b.build())


def test_array_lock_is_held_during_each_run():
    rng = np.random.default_rng(3)
    res = SimulatedChips(1, NOISELESS)
    graph, _, _ = _simple_graph(rng, n=500, m=500, arrays=[(0, 0)])
    Executor(res, workers=4).run(graph, mode="measured_time")
    log = res.array((0, 0)).ownership_log
    # acquire/release must strictly alternate: no overlapping ownership
    for i in range(0, len(log), 2):
        assert log[i][0] == "acquire"
        assert log[i + 1][0] == "release"
        assert log[i][1] == log[i + 1][1]


def test_load_can_source_a_digital_sum():
    """An instance may consume the clamped sum of two other instances."""
    b = g.GraphBuilder()

    def chain(data=None, source=None, weights=None, iid=None):
        payload = {"data": data} if data is not None else {"source": source}
        load = b.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload=payload)
        matrix = b.add_vertex(
            g.VertexKind.SYNAPSE_MATRIX,
            payload={"weights": weights, "signed": False},
            inputs=(load,),
        )
        neurons = b.add_vertex(g.VertexKind.NEURONS, inputs=(matrix,))
        digitize = b.add_vertex(g.VertexKind.DIGITIZE, inputs=(neurons,))
        store = b.add_vertex(g.VertexKind.STORE, inputs=(digitize,))
        b.add_instance((load, matrix, neurons, digitize, store), (0, 0), instance_id=iid)
        return store

    w = np.eye(2, dtype=np.int8) * 3
    s1 = chain(data=np.array([[1, 2]], dtype=np.uint8), weights=w, iid=1)
    s3 = chain(data=np.array([[2, 1]], dtype=np.uint8), weights=w, iid=3)
    add = b.add_vertex(g.VertexKind.ADD, inputs=(s1, s3))
    s2 = chain(source=add, weights=np.eye(2, dtype=np.int8), iid=2)
    final = b.add_vertex(g.VertexKind.EXTERNAL_STORE, inputs=(s2,))
    res = SimulatedChips(1, NOISELESS)
    outputs, _ = Executor(res).run(b.build())
    # (1,2)*3 + (2,1)*3 = (9,9); identity pass-through keeps (9,9)
    assert np.array_equal(outputs[final], [[9, 9]])


def test_trace_csv_format():
    rng = np.random.default_rng(4)
    res = SimulatedChips(1, NOISELESS)
    graph, _, _ = _simple_graph(rng)
    _, trace = Executor(res).run(graph)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "instance,stage,t_start,t_end,bytes"
    assert len(lines) == 1 + 3 * len(graph.instances)
    assert 0.0 < trace.utilization <= 1.0


def test_instance_cost_byte_accounting():
    from anamac.chip import HwParams

    c = InstanceCost(rows=100, cols=50, batch=4, hw_params=HwParams())
    assert c.bytes_config == 5000
    assert c.bytes_in == 400
    assert c.bytes_out == 200
