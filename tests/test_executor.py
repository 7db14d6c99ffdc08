import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anamac import chip, executor, graph as g, perf
from anamac.chip import OWNERSHIP_LOG_LEN, SIGNED_ROWS, ChipConfig, HwParams, InputOutOfRange, WeightOutOfRange
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


def _tiled_oracle(x, w, div, cap=SIGNED_ROWS):
    """Per-tile digitisation (round half away of acc / div, clamp), then clamped ADD.

    ``cap`` is the tile's row cap: 128 logical rows signed, 256 unsigned.
    """
    total = np.zeros((x.shape[0], w.shape[1]), dtype=np.int64)
    for r0 in range(0, w.shape[0], cap):
        acc = x[:, r0 : r0 + cap].astype(np.int64) @ w[r0 : r0 + cap].astype(np.int64)
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


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 600),
    m=st.integers(1, 600),
    batch=st.integers(1, 4),
    signed=st.booleans(),
    chips=st.integers(1, 3),
    mode=st.sampled_from(["simulated_time", "measured_time"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_partition_and_executor_equal_the_saturating_oracle(n, m, batch, signed, chips, mode, seed):
    """Full-range operands at gain 1/64: tile partials saturate before the clamped ADD."""
    rng = np.random.default_rng(seed)
    res = SimulatedChips(chips, ChipConfig(sigma_fixed=0.0, sigma_offset=0.0, sigma_temporal=0.0, gain=1 / 64))
    w = rng.integers(-63 if signed else 0, 64, size=(n, m)).astype(np.int8)
    x = rng.integers(0, 32, size=(batch, n)).astype(np.uint8)
    plan = partition_matmul(n, m, signed=signed, arrays=res.array_bindings())
    (y,) = Executor(res).run(build_graph(plan, w, x), mode=mode)[0].values()
    assert np.array_equal(y, _tiled_oracle(x, w, 64, plan.cap_rows))


def _chain(b, weights, data=None, source=None, signed=False, iid=None, binding=(0, 0)):
    """Add one load -> matrix -> neurons -> digitize -> store instance; returns the store."""
    payload = {"data": data} if data is not None else {"source": source}
    load = b.add_vertex(g.VertexKind.EXTERNAL_LOAD, payload=payload)
    matrix = b.add_vertex(
        g.VertexKind.SYNAPSE_MATRIX, payload={"weights": weights, "signed": signed}, inputs=(load,)
    )
    neurons = b.add_vertex(g.VertexKind.NEURONS, inputs=(matrix,))
    digitize = b.add_vertex(g.VertexKind.DIGITIZE, inputs=(neurons,))
    store = b.add_vertex(g.VertexKind.STORE, inputs=(digitize,))
    b.add_instance((load, matrix, neurons, digitize, store), binding, instance_id=iid)
    return store


def _one_instance_graph(data, weights, binding=(0, 0)):
    b = g.GraphBuilder()
    b.add_vertex(g.VertexKind.EXTERNAL_STORE, inputs=(_chain(b, weights, data=data, binding=binding),))
    return b.build()


@pytest.mark.parametrize("binding", [(-1, 0), (0, -1), (0, 2), (-3, 0), (2, 0)], ids=str)
def test_binding_outside_the_pool_is_unavailable(binding):
    """(-1, 0) and (0, -1) used to run on chip 1 or array 1; (0, 2) and (-3, 0) raised IndexError."""
    one = np.array([[1]], dtype=np.uint8)
    res = SimulatedChips(2, NOISELESS)
    with pytest.raises(Unavailable, match=r"outside 2 chips x 2 arrays"):
        Executor(res).run(_one_instance_graph(one, one.astype(np.int8), binding))
    assert not any(a.ownership_log for c in res.chips for a in c.arrays)


@pytest.mark.parametrize("mode", ["simulated_time", "measured_time"])
def test_wide_integer_operands_are_range_checked_not_wrapped(mode):
    """int16 weight 200 used to run as -56 and int16 input 257 as 1."""
    run = Executor(SimulatedChips(1, NOISELESS)).run
    one, two = np.array([[1]], dtype=np.int16), np.array([[2]], dtype=np.int16)
    (y,) = run(_one_instance_graph(one, two), mode=mode)[0].values()
    assert np.array_equal(y, [[2]])  # in-range wide operands still run
    with pytest.raises(WeightOutOfRange, match=r"weights must lie in \[-63, 63\]"):
        run(_one_instance_graph(one, np.array([[200]], dtype=np.int16)), mode=mode)
    with pytest.raises(InputOutOfRange, match=r"inputs must be u8 in \[0, 31\]"):
        run(_one_instance_graph(np.array([[257]], dtype=np.int16), two), mode=mode)


@pytest.mark.parametrize("mode", ["simulated_time", "measured_time"])
def test_unsigned_block_rejects_negative_weights(mode):
    """An unsigned block with weight -5 and input 3 used to return -15."""
    graph = _one_instance_graph(np.array([[3]], dtype=np.uint8), np.array([[-5]], dtype=np.int8))
    with pytest.raises(WeightOutOfRange, match=r"unsigned weights must lie in \[0, 63\]"):
        Executor(SimulatedChips(1, NOISELESS)).run(graph, mode=mode)


def test_failing_instance_does_not_stall_its_dependents():
    """Dependents of a failed instance return at once instead of timing out after 60 s."""
    b = g.GraphBuilder()
    one = np.array([[1]], dtype=np.int8)
    failed = _chain(b, np.array([[200]], dtype=np.int16), data=np.array([[1]], dtype=np.uint8))
    stores = [_chain(b, one, data=np.array([[1]], dtype=np.uint8))]  # independent, runs fine
    for _ in range(3):  # a fan-out of the failed instance, each with a dependent of its own
        stores.append(_chain(b, one, source=failed, binding=(0, 1)))
        stores.append(_chain(b, one, source=stores[-1], binding=(0, 1)))
    for s in stores:
        b.add_vertex(g.VertexKind.EXTERNAL_STORE, inputs=(s,))
    res = SimulatedChips(1, NOISELESS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = time.perf_counter()
        with pytest.raises(WeightOutOfRange, match=r"weights must lie in \[-63, 63\]"):
            Executor(res, workers=4).run(b.build(), mode="measured_time")
        assert time.perf_counter() - start < 5.0
    finally:
        sys.setswitchinterval(interval)
    assert not res.array((0, 1)).ownership_log  # no dependent touched its array


def test_validate_rejects_a_signed_block_over_the_row_pair_cap():
    """A 129-row signed block fails validation before any instance runs."""
    b = g.GraphBuilder()
    ok = _chain(b, np.ones((4, 4), dtype=np.int8), data=np.ones((1, 4), dtype=np.uint8), signed=True)
    tall = np.ones((SIGNED_ROWS + 1, 4), dtype=np.int8)
    big = _chain(b, tall, data=np.ones((1, SIGNED_ROWS + 1), dtype=np.uint8), signed=True)
    b.add_vertex(g.VertexKind.EXTERNAL_STORE, inputs=(ok,))
    b.add_vertex(g.VertexKind.EXTERNAL_STORE, inputs=(big,))
    res = SimulatedChips(1, NOISELESS)
    with pytest.raises(g.MalformedInstance, match="signed synapse matrix"):
        Executor(res).run(b.build())
    assert not res.array((0, 0)).ownership_log


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


def test_ownership_log_is_bounded_and_keeps_pairs():
    rng = np.random.default_rng(5)
    res = SimulatedChips(1, NOISELESS)
    n_instances = OWNERSHIP_LOG_LEN + 20
    graph, _, _ = _simple_graph(rng, n=SIGNED_ROWS * n_instances, m=1, batch=1, arrays=[(0, 0)])
    assert len(graph.instances) > OWNERSHIP_LOG_LEN
    Executor(res, workers=2).run(graph, mode="measured_time")
    log = res.array((0, 0)).ownership_log
    assert len(log) == OWNERSHIP_LOG_LEN
    for i in range(0, len(log), 2):
        assert log[i][0] == "acquire"
        assert log[i + 1][0] == "release"
        assert log[i][1] == log[i + 1][1]


def test_measured_pool_defaults_to_cpu_count(monkeypatch):
    """The default pool is capped at os.cpu_count(), not one thread per instance."""
    real_pool = executor.ThreadPoolExecutor
    sizes = []

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(executor, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 2)
    rng = np.random.default_rng(6)
    res = SimulatedChips(1, NOISY)
    graph, _, _ = _simple_graph(rng, n=SIGNED_ROWS * 8, m=1000, batch=2)
    assert len(graph.instances) >= 32
    (measured,) = Executor(res).run(graph, mode="measured_time")[0].values()
    (simulated,) = Executor(res).run(graph)[0].values()
    assert sizes == [2]
    assert np.array_equal(measured, simulated)


def test_failing_default_timing_surfaces(monkeypatch):
    def broken(hw_version):
        raise OSError("link config unreadable")

    monkeypatch.setattr(perf, "default_timing", broken)
    graph, _, _ = _simple_graph(np.random.default_rng(7))
    with pytest.raises(OSError, match="link config unreadable"):
        Executor(SimulatedChips(1, NOISELESS)).run(graph)


def test_default_timing_reads_the_link_config_once(monkeypatch):
    reads = []
    real = chip._config_text
    monkeypatch.setattr(chip, "_config_text", lambda name: reads.append(name) or real(name))
    perf.default_timing.cache_clear()
    graph, _, _ = _simple_graph(np.random.default_rng(7))
    ex = Executor(SimulatedChips(1, NOISELESS))
    _, first = ex.run(graph)
    _, second = ex.run(graph)
    assert reads == ["link_8g"]
    assert first.to_csv() == second.to_csv()


def test_load_can_source_a_digital_sum():
    """An instance may consume the clamped sum of two other instances."""
    b = g.GraphBuilder()
    w = np.eye(2, dtype=np.int8) * 3
    s1 = _chain(b, w, data=np.array([[1, 2]], dtype=np.uint8), iid=1)
    s3 = _chain(b, w, data=np.array([[2, 1]], dtype=np.uint8), iid=3)
    add = b.add_vertex(g.VertexKind.ADD, inputs=(s1, s3))
    s2 = _chain(b, np.eye(2, dtype=np.int8), source=add, iid=2)
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
    """5 B per weight (V1: once per sent input), 6 B per input event and send, 4 B per output."""
    c = InstanceCost(rows=100, cols=50, batch=4, hw_params=HwParams(num_sends=6))
    # V2: 5*100*50 + 6*100*4*6 = 25,000 + 14,400 out; 4*50*4 = 800 back
    assert executor.CostModel("V2").stage_bytes(c) == (39_400, 40_200, 800)
    # V1 rewrites the array for each of the 4 inputs: 4 * 25,000 + 14,400
    assert executor.CostModel("V1").stage_bytes(c) == (114_400, 115_200, 800)
    assert perf.CostModel is executor.CostModel


@pytest.mark.parametrize("hw_version", ["V1", "V2"])
def test_trace_bytes_are_the_bytes_the_timing_charged(hw_version):
    res = SimulatedChips(1, ChipConfig(hw_version=hw_version, sigma_temporal=0.0))
    graph, _, _ = _simple_graph(np.random.default_rng(7), batch=3)
    _, trace = Executor(res).run(graph)
    link = perf.default_timing(hw_version).link
    byte_s = 8.0 / (link.bandwidth_bps * link.protocol_efficiency)
    for row in trace.rows:
        t, (pre, wire, post) = row.times, row.bytes
        inst = graph.instances[row.instance]
        block = graph.vertices[inst.vertex_ids[1]].payload["weights"]
        rows, cols = 2 * block.shape[0], block.shape[1]  # signed rows take a physical pair
        outbound = 5 * rows * cols * (3 if hw_version == "V1" else 1) + 6 * rows * 3 * 6
        assert (pre, wire, post) == (outbound, outbound + 4 * cols * 3, 4 * cols * 3)
        assert t.pre_end - t.pre_start == pytest.approx(link.per_run_overhead_s + link.host_byte_time_s * pre)
        event = executor.CostModel().event_time(rows, 3, HwParams(), link)
        assert t.exec_end - t.exec_start == pytest.approx(max(wire * byte_s, event))
        assert t.post_end - t.post_start == pytest.approx(link.host_byte_time_s * post)
    measured = Executor(res).run(graph, mode="measured_time")[1]
    assert sorted((r.instance, r.bytes) for r in measured.rows) == sorted((r.instance, r.bytes) for r in trace.rows)


def test_hw_version_of_the_pool_sets_the_timing():
    """A V1 chip rewrites its array per sent input; the V2 timing is the link_8g model as before."""
    graph, _, _ = _simple_graph(np.random.default_rng(7), batch=3)
    v1 = Executor(SimulatedChips(1, ChipConfig(hw_version="V1"))).run(graph)[1]
    v2 = Executor(SimulatedChips(1, ChipConfig(hw_version="V2"))).run(graph)[1]
    assert v1.makespan > v2.makespan
    link_8g = perf.CostTiming(perf.load_link_config("link_8g"))
    explicit = Executor(SimulatedChips(1, ChipConfig()), timing=link_8g).run(graph)[1]
    assert v2.to_csv() == explicit.to_csv()


def test_one_run_analyses_the_instance_graph_once(monkeypatch):
    calls = []
    real = g.DependencyGraph.instance_dependencies

    def counted(graph):
        calls.append(1)
        return real(graph)

    def forbidden(graph):
        raise AssertionError("the run re-analysed its graph")

    monkeypatch.setattr(g.DependencyGraph, "instance_dependencies", counted)
    monkeypatch.setattr(g, "topo_schedule", forbidden)
    monkeypatch.setattr(g, "vertex_order", forbidden)
    graph, _, _ = _simple_graph(np.random.default_rng(7))
    ex = Executor(SimulatedChips(1, NOISELESS))
    for mode in ("simulated_time", "measured_time"):
        calls.clear()
        ex.run(graph, mode=mode)
        assert calls == [1], mode


def test_an_unused_digital_vertex_still_raises():
    b = g.GraphBuilder()
    s1 = _chain(b, np.ones((2, 2), np.int8), data=np.ones((1, 2), np.uint8), iid=0)
    s2 = _chain(b, np.ones((2, 3), np.int8), data=np.ones((1, 2), np.uint8), iid=1)
    b.add_vertex(g.VertexKind.EXTERNAL_STORE, inputs=(s1,))
    b.add_vertex(g.VertexKind.ADD, inputs=(s1, s2))  # 2 + 3 columns: no consumer, cannot broadcast
    with pytest.raises(ValueError, match="broadcast"):
        Executor(SimulatedChips(1, NOISELESS)).run(b.build())
