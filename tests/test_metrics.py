"""Aggregate math and the frozen output schema."""

from __future__ import annotations

import csv
import json
import tracemalloc

import pytest

from vecsim.metrics import (
    DECISIONS_HEADER,
    PACKETS_HEADER,
    SCHEMA_VERSION,
    DecisionRecord,
    MetricsReport,
    PacketRecord,
)


def _report(**kw) -> MetricsReport:
    base = dict(scenario_name="t", seed=1, horizon=10, slot_duration=0.001, latency_deadline_s=0.002)
    base.update(kw)
    return MetricsReport(**base)


def _packet(vid, emit, delivered, replicas=1, paths=1) -> PacketRecord:
    return PacketRecord(vehicle_id=vid, emit_slot=emit, delivered=delivered, replicas=replicas, paths=paths)


def test_headers_are_frozen():
    assert PACKETS_HEADER == ["vehicle_id", "emit_slot", "delivered", "latency_slots", "replicas", "paths"]
    assert DECISIONS_HEADER == [
        "kind", "slot", "an_id", "vehicle_id", "service_id", "decision", "latency_s", "energy_j",
    ]
    assert SCHEMA_VERSION == 1


def test_aggregates_on_a_hand_built_report():
    report = _report()
    report.packets = [
        _packet(0, 0, True),          # delivered in its 1 ms slot, within the 2 ms deadline
        _packet(0, 1, True),
        _packet(1, 0, True),
        _packet(1, 1, False),
    ]
    report.record_energy(0, 0, 0.25)
    report.record_energy(0, 3, 0.25)
    report.record_energy(1, 0, 1.0)
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
    report.packets = [_packet(0, 0, True), _packet(0, 1, False)]
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
    report.packets = [_packet(0, 0, False)]
    packets = report.aggregates()["packets"]
    assert packets["latency_p50_slots"] is None and packets["latency_p99_s"] is None
    assert packets["deadline_hit_fraction"] == 0.0


def test_record_energy_accumulates_within_a_slot():
    report = _report()
    report.record_energy(2, 4, 0.5)
    report.record_energy(2, 4, 0.25)
    assert report.energy_per_an[2][4] == pytest.approx(0.75)
    assert len(report.energy_per_an[2]) == report.horizon


def test_record_energy_allocates_a_series_only_for_a_new_an():
    report = _report(horizon=10**6)     # one series is 8 MB of list slots
    report.record_energy(0, 0, 1.0)
    tracemalloc.start()
    try:
        report.record_energy(0, 999_999, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert report.energy_per_an[0][999_999] == 1.0


def test_write_emits_the_golden_csv_shapes(tmp_path):
    report = _report()
    report.packets = [_packet(0, 0, True, replicas=2, paths=2), _packet(1, 0, False)]
    report.decisions = [
        DecisionRecord(kind="offload", slot=3, an_id=0, vehicle_id=1, service_id=2,
                       decision="local", latency_s=0.004, energy_j=0.05),
        DecisionRecord(kind="controller", slot=5, decision="place:0"),
    ]
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
    report.packets = [_packet(0, 0, True)]
    a = report.write(tmp_path / "a")["summary"].read_bytes()
    b = report.write(tmp_path / "b")["summary"].read_bytes()
    assert a == b
