"""Aggregate math and the frozen output schema."""

from __future__ import annotations

import csv
import gc
import json
import tracemalloc

import pytest

from conftest import load_bundled
from vecsim.metrics import DECISIONS_HEADER, PACKETS_HEADER, SCHEMA_VERSION, MetricsReport, write_summary
from vecsim.simulation import run_scenario


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
    # What remains per slot is the per-AN energy series, 2 ANs x 32 B over 2 vehicles.
    assert (long - short) / (vehicles * 1500) < 64


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
