"""Aggregate math and the frozen output schema."""

from __future__ import annotations

import csv
import functools
import gc
import json
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_bundled
from vecsim.metrics import DECISIONS_HEADER, PACKETS_HEADER, SCHEMA_VERSION, MetricsReport, write_summary
from vecsim.simulation import Simulation, run_scenario


def _report(**kw) -> MetricsReport:
    base = dict(scenario_name="t", seed=1, horizon=10, slot_duration=0.001, latency_deadline_s=0.002)
    base.update(kw)
    return MetricsReport(**base)


def _record_packets(report, *packets) -> None:
    """Each packet as (vehicle_id, emit_slot, delivered[, replicas, paths])."""
    for vid, emit, delivered, *rest in packets:
        report.record_packet(vid, emit, delivered, *(rest or (1, 1)))


def test_headers_are_frozen():
    assert PACKETS_HEADER == ["vehicle_id", "emit_slot", "delivered", "latency_slots", "replicas", "paths"]
    assert DECISIONS_HEADER == [
        "kind", "slot", "an_id", "vehicle_id", "service_id", "decision", "latency_s", "energy_j",
    ]
    assert SCHEMA_VERSION == 1


def test_aggregates_on_a_hand_built_report():
    report = _report()
    _record_packets(
        report,
        (0, 0, True),          # delivered in its 1 ms slot, within the 2 ms deadline
        (0, 1, True),
        (1, 0, True),
        (1, 1, False),
    )
    report.record_energy(0, 0.25)      # slot 0
    report.record_energy(1, 1.0)
    for _ in range(3):
        report.end_slot()
    report.record_energy(0, 0.25)      # slot 3; slots 4 to 9 are never closed
    report.end_slot()
    agg = report.aggregates()
    assert agg["packets"]["emitted"] == 4
    assert agg["packets"]["delivered"] == 3
    assert agg["packets"]["lost"] == 1
    assert agg["packets"]["success_rate"] == pytest.approx(0.75)
    assert agg["packets"]["latency_p50_slots"] == 1.0
    assert agg["packets"]["latency_p99_slots"] == 1.0
    assert agg["packets"]["latency_p50_s"] == 0.001
    assert agg["packets"]["latency_p99_s"] == 0.001
    assert agg["packets"]["deadline_hit_fraction"] == pytest.approx(0.75)
    assert agg["energy"]["mean_per_slot_per_an_j"] == {"0": pytest.approx(0.05), "1": pytest.approx(0.1)}
    assert agg["energy"]["total_j"] == pytest.approx(1.5)
    assert agg["schema_version"] == SCHEMA_VERSION


def test_a_slot_longer_than_the_deadline_hits_it_never():
    report = _report(slot_duration=0.003)
    _record_packets(report, (0, 0, True), (0, 1, False))
    agg = report.aggregates()
    assert agg["packets"]["delivered"] == 1
    assert agg["packets"]["latency_p99_s"] == 0.003
    assert agg["packets"]["deadline_hit_fraction"] == 0.0


def test_aggregates_with_no_packets():
    agg = _report().aggregates()
    assert agg["packets"]["success_rate"] == 0.0
    assert agg["packets"]["latency_p50_slots"] is None
    assert agg["packets"]["deadline_hit_fraction"] == 0.0
    assert agg["energy"]["total_j"] == 0.0


def test_latencies_are_null_when_every_packet_is_lost():
    report = _report()
    _record_packets(report, (0, 0, False))
    packets = report.aggregates()["packets"]
    assert packets["latency_p50_slots"] is None and packets["latency_p99_s"] is None
    assert packets["deadline_hit_fraction"] == 0.0


def test_record_energy_accumulates_within_a_slot():
    report = _report()
    for _ in range(4):
        report.end_slot()
    report.record_energy(2, 0.5)
    report.record_energy(2, 0.25)
    # the open slot counts before it closes, and the same after
    for _ in range(2):
        energy = report.aggregates()["energy"]
        assert energy == {"mean_per_slot_per_an_j": {"2": 0.75 / report.horizon}, "total_j": 0.75}
        report.end_slot()


def test_an_an_booked_late_in_a_long_horizon_allocates_no_series():
    report = _report(horizon=10**6)     # a float per slot would be 8 MB of list slots
    report.record_energy(0, 1.0)
    for _ in range(999_999):
        report.end_slot()
    tracemalloc.start()
    try:
        report.record_energy(0, 1.0)
        report.record_energy(1, 1.0)    # first booked in the last slot
        report.end_slot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    series = np.zeros(10**6)
    series[[0, -1]] = 1.0
    energy = report.aggregates()["energy"]
    assert energy["mean_per_slot_per_an_j"] == {"0": float(np.mean(series)), "1": 1.0 / 10**6}
    assert energy["total_j"] == 3.0


# numpy's pairwise_sum changes shape at 8 values, at its 128-value blocks and
# at every split, which rounds n // 2 down to a multiple of 8
BLOCK_EDGES = [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 8191, 8192, 8193, 65543, 10**5]


@settings(max_examples=100, deadline=None, derandomize=True)
@example(n=10**5, closed_share=1.0, zero_share=0.2, late_share=0.5, seed=1)
@example(n=8193, closed_share=0.7, zero_share=0.0, late_share=0.0, seed=2)
@example(n=129, closed_share=1.0, zero_share=0.9, late_share=0.3, seed=3)
@example(n=7, closed_share=1.0, zero_share=0.0, late_share=0.0, seed=4)
@given(
    n=st.one_of(st.integers(1, 300), st.sampled_from(BLOCK_EDGES), st.integers(1, 10**5)),
    closed_share=st.sampled_from([1.0, 1.0, 0.5, 0.0]) | st.floats(0, 1),
    zero_share=st.sampled_from([0.0, 0.2, 0.9]),
    late_share=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_mean_energy_is_np_mean_of_the_zero_filled_series(n, closed_share, zero_share, late_share, seed):
    """AN 0 books from slot 0, AN 1 from a later slot; a slot books zero to
    two amounts or nothing, and the slots after `closed` are never closed."""
    rnd = random.Random(seed)
    closed, late = int(n * closed_share), int(n * late_share)
    report = _report(horizon=n)
    series = {0: [0.0] * n, 1: [0.0] * n}
    booked = {}                 # in the order the ANs first book energy
    for slot in range(closed):
        for an_id in (1, 0) if slot % 2 else (0, 1):
            if an_id == 1 and slot < late or rnd.random() < zero_share:
                continue
            for _ in range(rnd.randint(1, 2)):
                joules = rnd.random() * 10.0 ** rnd.randint(-9, 3)
                series[an_id][slot] += joules
                report.record_energy(an_id, joules)
                booked.setdefault(an_id, series[an_id])
        report.end_slot()
    energy = report.aggregates()["energy"]
    assert energy["mean_per_slot_per_an_j"] == {str(a): float(np.mean(booked[a])) for a in sorted(booked)}
    totals = (functools.reduce(operator.add, values, 0) for values in booked.values())
    assert energy["total_j"] == float(functools.reduce(operator.add, totals, 0))
    assert report.aggregates()["energy"] == energy


def test_a_report_holds_no_more_memory_after_1e5_slots_than_after_1e3():
    report = _report(horizon=10**6)

    def feed(slots):
        for _ in range(slots):
            report.record_energy(0, 0.25)
            report.record_energy(1, 0.5)
            report.end_slot()

    gc.collect()
    tracemalloc.start()
    try:
        feed(10**3)
        gc.collect()
        early, _ = tracemalloc.get_traced_memory()
        feed(10**5 - 10**3)
        gc.collect()
        late, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # What may differ is each AN's path of partial sums: O(log horizon), at
    # most 14 levels of one tuple, float and int here. Two ANs' floats for the
    # 99 000 slots in between would be 1.6 MB.
    assert late - early < 4096


@pytest.mark.parametrize("horizon", [10**11, 2**63], ids=["1e11", "2**63"])
def test_a_huge_horizon_runs_its_first_slots(horizon):
    # each failed in slot 0 when the report allocated a float per slot of the horizon
    sim = Simulation(load_bundled("smoke", horizon=horizon))
    for _ in range(3):
        sim.engine.advance_slot()
    summary = sim.report.aggregates()
    assert summary["horizon"] == horizon
    assert summary["energy"]["total_j"] > 0.0


def _retained_bytes(horizon: int) -> tuple[int, int]:
    """Traced bytes a finished smoke run still holds, and its vehicle count."""
    cfg = load_bundled("smoke", horizon=horizon)
    gc.collect()
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del report
    return retained, len(cfg.vehicles)


def test_a_run_retains_no_per_packet_state():
    run_scenario(load_bundled("smoke", horizon=20))      # warm module-level caches first
    short, vehicles = _retained_bytes(500)
    long, _ = _retained_bytes(2000)
    # Nothing is kept per slot: each AN's energy is one open block of at most
    # 128 slots plus O(log horizon) partial sums. One float per AN-slot, 2 ANs
    # x 8 B over 2 vehicles, would show as 8 B per vehicle-slot.
    assert (long - short) / (vehicles * 1500) < 2


def test_write_emits_the_golden_csv_shapes(tmp_path):
    report = _report()
    _record_packets(report, (0, 0, True, 2, 2), (1, 0, False))
    report.record_decision("offload", 3, an_id=0, vehicle_id=1, service_id=2,
                           decision="local", latency_s=0.004, energy_j=0.05)
    report.record_decision("controller", 5, decision="place:0")
    paths = report.write(tmp_path)
    with paths["packets"].open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == PACKETS_HEADER
    assert rows[1] == ["0", "0", "1", "1", "2", "2"]
    assert rows[2] == ["1", "0", "0", "", "1", "1"]
    with paths["decisions"].open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == DECISIONS_HEADER
    assert rows[1] == ["offload", "3", "0", "1", "2", "local", "0.004", "0.05"]
    assert rows[2] == ["controller", "5", "", "", "", "place:0", "", ""]

    text = paths["summary"].read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(json.dumps(report.aggregates()))


def test_summary_is_byte_stable_across_writes(tmp_path):
    report = _report()
    _record_packets(report, (0, 0, True))
    report.record_decision("controller", 0, an_id=0, decision="open")
    a = report.write(tmp_path / "a")
    b = report.write(tmp_path / "b")
    for name in ("packets", "decisions", "summary"):
        assert a[name].read_bytes() == b[name].read_bytes()
    # rows recorded after a write still follow the earlier ones
    _record_packets(report, (1, 1, False))
    with report.write(tmp_path / "c")["packets"].open(newline="") as fh:
        assert list(csv.reader(fh))[1:] == [["0", "0", "1", "1", "1", "1"], ["1", "1", "0", "", "1", "1"]]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_a_summary_holding_a_non_finite_number_is_not_written_as_json(value, tmp_path):
    with pytest.raises(ValueError):
        write_summary({"energy": {"total_j": value}}, tmp_path / "summary.json")
