import re

import numpy as np
import pytest

from anamac import chip, perf
from anamac.chip import HwParams


def test_link_configs_load_and_validate():
    one = perf.load_link_config("link_1g")
    eight = perf.load_link_config("link_8g")
    assert one.bandwidth_bps == 1e9
    assert eight.bandwidth_bps == 8e9
    # frozen calibration constants are shared between both budgets
    assert one.per_run_overhead_s == eight.per_run_overhead_s
    assert one.clock_period_s == eight.clock_period_s


def test_packaged_link_configs_keep_their_values():
    assert perf.load_link_config("link_1g") == perf.LinkBudget(1e9, 8e-4, 1.0, 1.6e-8, 5e-11)
    assert perf.load_link_config("link_8g") == perf.LinkBudget(8e9, 8e-4, 1.0, 1.6e-8, 5e-11)


@pytest.mark.parametrize("drop, add, message", [
    (None, "wait = 1\n", "unknown key 'wait'; LinkBudget has bandwidth_bps, "),
    ("clock_period_s", "", "missing key(s) clock_period_s"),
])
def test_load_link_config_is_strict(tmp_path, drop, add, message):
    lines = [line for line in chip._config_text("link_8g").splitlines(keepends=True) if not drop or drop not in line]
    path = tmp_path / "link.cfg"
    path.write_text("".join(lines) + add)
    with pytest.raises(ValueError, match=re.escape(message)):
        perf.load_link_config(str(path))


def test_link_budget_invariants():
    with pytest.raises(ValueError):
        perf.LinkBudget(0, 1e-3, 1.0, 1e-8, 1e-10)
    with pytest.raises(ValueError):
        perf.LinkBudget(1e9, 1e-3, 1.5, 1e-8, 1e-10)


def test_exec_time_scales_with_wire_volume():
    timing = perf.CostTiming(perf.load_link_config("link_1g"))
    params = HwParams(num_sends=1, wait_between_events=1)
    _, t1, _ = timing.durations(perf.InstanceCost(128, 128, 100, params))
    _, t2, _ = timing.durations(perf.InstanceCost(256, 128, 100, params))
    assert t2 > t1
    # hand-computed: bytes * 8 / bandwidth; the wire outlasts the events here
    cost = timing.cost
    total = cost.bytes_config(128, 128) + cost.bytes_in(128, 100, 1) + cost.bytes_out(128, 100)
    assert t1 == pytest.approx(total * 8 / 1e9)


def test_v1_rewrites_weights_per_input():
    v1 = perf.CostModel(hw_version="V1")
    v2 = perf.CostModel(hw_version="V2")
    assert v1.config_rep(1000) == 1000
    assert v2.config_rep(1000) == 1
    assert v1.config_rep(0) == 1  # at least one configuration


def test_v1_wire_volume_dwarfs_v2():
    """Per input vector, the first chip version moves >= 64x more link data."""
    params_v1 = HwParams(num_sends=6, wait_between_events=25)
    params_v2 = HwParams(num_sends=1, wait_between_events=1)
    v1 = perf.CostModel(hw_version="V1")
    v2 = perf.CostModel(hw_version="V2")
    batch = 1000  # the rewrite penalty is per input vector, so batch-scale

    def volume(cost, params):
        return (
            cost.bytes_config(256, 256) * cost.config_rep(batch)
            + cost.bytes_in(256, batch, params.num_sends)
            + cost.bytes_out(256, batch)
        )

    assert volume(v1, params_v1) / volume(v2, params_v2) >= 64


def test_durations_are_overhead_plus_bottleneck():
    """Pre carries the per-run overhead; exec is the larger of wire and on-chip event time."""
    timing = perf.CostTiming(perf.load_link_config("link_8g"))
    c = perf.InstanceCost(256, 256, 1000, HwParams(num_sends=1, wait_between_events=1))
    pre, exec_, post = timing.durations(c)
    # hand-computed: 5 B per weight and 6 B per input event out, 4 B per output back
    outbound, response = 5 * 256 * 256 + 6 * 256 * 1000, 4 * 256 * 1000
    wire = (outbound + response) * 8 / 8e9
    event = 1000 * 256 * 1.6e-8
    assert timing.event_time(c) == pytest.approx(event)
    assert pre == pytest.approx(8e-4 + 5e-11 * outbound)
    assert exec_ == pytest.approx(max(wire, event))
    assert post == pytest.approx(5e-11 * response)


def test_event_time_grows_with_sends_and_wait():
    timing = perf.CostTiming(perf.load_link_config("link_1g"))
    slow = timing.event_time(perf.InstanceCost(256, 256, 100, HwParams(num_sends=6, wait_between_events=25)))
    fast = timing.event_time(perf.InstanceCost(256, 256, 100, HwParams(num_sends=1, wait_between_events=1)))
    assert slow == pytest.approx(fast * 150)


def test_rate_monotone_in_batch():
    batches = [1, 10, 50, 200, 1000, 5000]
    for scenario in perf.SCENARIOS:
        rates = [perf.mac_rate(256, 256, b, scenario) for b in batches]
        assert all(b > a for a, b in zip(rates, rates[1:])), scenario


def test_scenarios_are_ordered_v1_v2_sim():
    r = {s: perf.asymptotic_rate(s) for s in perf.SCENARIOS}
    assert r["v1_1gbe"] < r["v2_1gbe"] < r["sim_8g"]


def test_mac_rate_curve_rows():
    rows = perf.mac_rate_curve([64, 256], "sim_8g", sweep="size")
    assert [r[0] for r in rows] == [64, 256]
    assert all(r[2] == "sim_8g" for r in rows)
    with pytest.raises(ValueError):
        perf.mac_rate_curve([64], "sim_8g", sweep="nonsense")


def test_utilization_breakdown_columns():
    rows = perf.utilization_breakdown([128, 256], "sim_8g")
    assert len(rows) == 2
    for size, pre, exe, post in rows:
        assert pre > 0 and exe > 0 and post > 0


def test_chip_utilization_improves_with_size():
    """Bigger operands amortize per-run overhead: exec share of makespan grows."""
    sizes = [256, 512, 1024, 2048, 4096, 8192, 16384]
    utils = [perf.chip_utilization(s, "sim_8g") for s in sizes]
    assert all(b > a for a, b in zip(utils, utils[1:]))
    assert utils[-1] > 0.95
    assert all(u <= 1.0 for u in utils)


def test_rows_to_csv_float_precision():
    text = perf.rows_to_csv([(1, 0.1, "a")], ["x", "rate", "scenario"])
    lines = text.splitlines()
    assert lines[0] == "x,rate,scenario"
    assert lines[1] == "1,0.1,a"


def test_load_link_config_from_path(tmp_path):
    path = tmp_path / "slow.cfg"
    path.write_text(
        "bandwidth_bps = 5e8\nper_run_overhead_s = 1e-3\nprotocol_efficiency = 0.9\n"
        "clock_period_s = 1e-8\nhost_byte_time_s = 1e-10\n"
    )
    link = perf.load_link_config(str(path))
    assert link.bandwidth_bps == 5e8
    assert link.protocol_efficiency == 0.9


@pytest.mark.parametrize("source", ["link_8g", "link_8g.cfg", "path"])
def test_load_link_config_sources_agree(source, tmp_path):
    """Bare names and names with .cfg resolve to the packaged file; paths are read as given."""
    if source == "path":
        path = tmp_path / "copy.cfg"
        path.write_text(
            "# a copy of link_8g\n\nbandwidth_bps = 8e9\n  # indented comment\n"
            "per_run_overhead_s=8e-4\nprotocol_efficiency = 1.0\n\n"
            "clock_period_s = 1.6e-8\nhost_byte_time_s = 5e-11\n"
        )
        source = str(path)
    assert perf.load_link_config(source) == perf.LinkBudget(8e9, 8e-4, 1.0, 1.6e-8, 5e-11)
