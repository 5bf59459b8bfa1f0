"""Per-packet records, per-slot energy, aggregates, and file emission.

Aggregates are pure functions of the recorded events, so two identical runs
produce identical reports. Output schema is versioned and frozen: packets.csv
and decisions.csv headers and summary.json keys are part of the public
contract (golden-tested).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
PACKETS_HEADER = ["vehicle_id", "emit_slot", "delivered", "latency_slots", "replicas", "paths"]
DECISIONS_HEADER = ["kind", "slot", "an_id", "vehicle_id", "service_id", "decision", "latency_s", "energy_j"]


@dataclass(frozen=True)
class PacketRecord:
    """One uplink packet. Access is open-loop and grant-free: a packet is
    delivered in its emit slot (a latency of one slot) or lost."""

    vehicle_id: int
    emit_slot: int
    delivered: bool
    replicas: int
    paths: int


@dataclass(frozen=True)
class DecisionRecord:
    kind: str                      # offload | controller | domain
    slot: int
    an_id: int | None = None
    vehicle_id: int | None = None
    service_id: int | None = None
    decision: str = ""
    latency_s: float | None = None
    energy_j: float | None = None


@dataclass
class MetricsReport:
    """Everything a run measured; aggregates derive from the raw records."""

    scenario_name: str
    seed: int
    horizon: int
    slot_duration: float
    latency_deadline_s: float
    packets: list[PacketRecord] = field(default_factory=list)
    decisions: list[DecisionRecord] = field(default_factory=list)
    energy_per_an: dict[int, list[float]] = field(default_factory=dict)
    downlink: dict[str, float] = field(default_factory=dict)
    prediction: dict[str, float] = field(default_factory=dict)
    control: dict[str, object] = field(default_factory=dict)
    edge: dict[str, float] = field(default_factory=dict)
    cipher: dict[str, float] = field(default_factory=dict)
    slices: dict[str, float] = field(default_factory=dict)
    bandit: dict[str, object] = field(default_factory=dict)

    def record_energy(self, an_id: int, slot: int, joules: float) -> None:
        series = self.energy_per_an.get(an_id)
        if series is None:      # allocate once per AN, not on every call
            series = self.energy_per_an[an_id] = [0.0] * self.horizon
        series[slot] += joules

    # -- aggregates ---------------------------------------------------------

    def aggregates(self) -> dict:
        emitted = len(self.packets)
        delivered = sum(1 for p in self.packets if p.delivered)
        lost = emitted - delivered
        latency_slots = 1.0 if delivered else None
        latency_s = self.slot_duration if delivered else None
        meets_deadline = self.slot_duration <= self.latency_deadline_s * (1 + 1e-9)
        mean_energy = {
            str(an): float(np.mean(series)) if series else 0.0
            for an, series in sorted(self.energy_per_an.items())
        }
        out = {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario_name,
            "seed": self.seed,
            "horizon": self.horizon,
            "slot_duration": self.slot_duration,
            "latency_deadline_s": self.latency_deadline_s,
            "packets": {
                "emitted": emitted,
                "delivered": delivered,
                "lost": lost,
                "success_rate": delivered / emitted if emitted else 0.0,
                "latency_p50_slots": latency_slots,
                "latency_p99_slots": latency_slots,
                "latency_p50_s": latency_s,
                "latency_p99_s": latency_s,
                "deadline_hit_fraction": delivered / emitted if emitted and meets_deadline else 0.0,
            },
            "energy": {
                "mean_per_slot_per_an_j": mean_energy,
                "total_j": float(sum(sum(s) for s in self.energy_per_an.values())),
            },
            "downlink": dict(sorted(self.downlink.items())),
            "prediction": dict(sorted(self.prediction.items())),
            "control": {k: self.control[k] for k in sorted(self.control)},
            "edge": dict(sorted(self.edge.items())),
            "cipher": dict(sorted(self.cipher.items())),
            "slices": dict(sorted(self.slices.items())),
            "bandit": {k: self.bandit[k] for k in sorted(self.bandit)},
        }
        return out

    # -- emission -----------------------------------------------------------

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "packets": out / "packets.csv",
            "summary": out / "summary.json",
            "decisions": out / "decisions.csv",
        }
        with paths["packets"].open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(PACKETS_HEADER)
            for p in self.packets:
                writer.writerow([
                    p.vehicle_id,
                    p.emit_slot,
                    int(p.delivered),
                    1 if p.delivered else "",
                    p.replicas,
                    p.paths,
                ])
        with paths["decisions"].open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(DECISIONS_HEADER)
            for d in self.decisions:
                writer.writerow([
                    d.kind,
                    d.slot,
                    _blank(d.an_id),
                    _blank(d.vehicle_id),
                    _blank(d.service_id),
                    d.decision,
                    _blank(d.latency_s),
                    _blank(d.energy_j),
                ])
        write_summary(self.aggregates(), paths["summary"])
        return paths


def write_summary(summary: dict, path: Path) -> None:
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _blank(value):
    return "" if value is None else value
