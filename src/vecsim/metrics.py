"""Run counters, per-slot energy, and the three output files.

Phases count into the report's summary sections and aggregates() derives the
ratios. A packet or decision row is final when it is recorded (uplink access
is grant-free: a packet is decoded in its emit slot or lost), so it goes
straight to a temporary file that write() copies out after the header. The
output schema is versioned and frozen: the CSV headers and summary.json keys
are part of the public contract (golden-tested).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import operator
import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
PACKETS_HEADER = ["vehicle_id", "emit_slot", "delivered", "latency_slots", "replicas", "paths"]
DECISIONS_HEADER = ["kind", "slot", "an_id", "vehicle_id", "service_id", "decision", "latency_s", "energy_j"]


@dataclass
class MetricsReport:
    """Everything a run measured: summary counters plus two row sinks.

    record_packet and record_decision write their row at once, so a run keeps
    no per-row state; the other sections are dicts the phases count into.
    """

    scenario_name: str
    seed: int
    horizon: int
    slot_duration: float
    latency_deadline_s: float
    packets_emitted: int = 0
    packets_delivered: int = 0
    energy_per_an: dict[int, list[float]] = field(default_factory=dict)
    downlink: dict[str, float] = field(default_factory=dict)
    prediction: dict[str, float] = field(default_factory=dict)
    control: dict[str, object] = field(default_factory=dict)
    edge: dict[str, float] = field(default_factory=dict)
    cipher: dict[str, float] = field(default_factory=dict)
    slices: dict[str, float] = field(default_factory=dict)
    bandit: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._sinks = {name: tempfile.TemporaryFile("w+", newline="", encoding="utf-8")
                       for name in ("packets", "decisions")}
        for sink in self._sinks.values():
            weakref.finalize(self, sink.close)      # closed with the report, not leaked
        self._packet_row = csv.writer(self._sinks["packets"]).writerow
        self._decision_row = csv.writer(self._sinks["decisions"]).writerow

    def record_packet(self, vehicle_id: int, emit_slot: int, delivered: bool, replicas: int, paths: int):
        """One uplink packet, delivered in its emit slot (a latency of one slot) or lost."""
        self.packets_emitted += 1
        self.packets_delivered += delivered
        self._packet_row([vehicle_id, emit_slot, int(delivered), 1 if delivered else "", replicas, paths])

    def record_decision(self, kind: str, slot: int, an_id: int | None = None, vehicle_id: int | None = None,
                        service_id: int | None = None, decision: str = "", latency_s: float | None = None,
                        energy_j: float | None = None):
        """One offload or controller decision; a None field is left blank."""
        row = (kind, slot, an_id, vehicle_id, service_id, decision, latency_s, energy_j)
        self._decision_row(["" if v is None else v for v in row])

    def record_energy(self, an_id: int, slot: int, joules: float) -> None:
        series = self.energy_per_an.get(an_id)
        if series is None:      # allocate once per AN, not on every call
            series = self.energy_per_an[an_id] = [0.0] * self.horizon
        series[slot] += joules

    # -- aggregates ---------------------------------------------------------

    def aggregates(self) -> dict:
        emitted, delivered = self.packets_emitted, self.packets_delivered
        latency_slots = 1.0 if delivered else None
        latency_s = self.slot_duration if delivered else None
        meets_deadline = self.slot_duration <= self.latency_deadline_s * (1 + 1e-9)
        mean_energy = {
            str(an): float(np.mean(series)) if series else 0.0
            for an, series in sorted(self.energy_per_an.items())
        }
        # floats add left to right here: Python 3.12's sum() compensates and moves bits
        per_an_total = (functools.reduce(operator.add, series, 0) for series in self.energy_per_an.values())
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario_name,
            "seed": self.seed,
            "horizon": self.horizon,
            "slot_duration": self.slot_duration,
            "latency_deadline_s": self.latency_deadline_s,
            "packets": {
                "emitted": emitted,
                "delivered": delivered,
                "lost": emitted - delivered,
                "success_rate": delivered / emitted if emitted else 0.0,
                "latency_p50_slots": latency_slots,
                "latency_p99_slots": latency_slots,
                "latency_p50_s": latency_s,
                "latency_p99_s": latency_s,
                "deadline_hit_fraction": delivered / emitted if emitted and meets_deadline else 0.0,
            },
            "energy": {
                "mean_per_slot_per_an_j": mean_energy,
                "total_j": float(functools.reduce(operator.add, per_an_total, 0)),
            },
            "downlink": dict(sorted(self.downlink.items())),
            "prediction": dict(sorted(self.prediction.items())),
            "control": {k: self.control[k] for k in sorted(self.control)},
            "edge": dict(sorted(self.edge.items())),
            "cipher": dict(sorted(self.cipher.items())),
            "slices": dict(sorted(self.slices.items())),
            "bandit": {k: self.bandit[k] for k in sorted(self.bandit)},
        }

    # -- emission -----------------------------------------------------------

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "packets": out / "packets.csv",
            "summary": out / "summary.json",
            "decisions": out / "decisions.csv",
        }
        for name, header in (("packets", PACKETS_HEADER), ("decisions", DECISIONS_HEADER)):
            sink = self._sinks[name]
            with paths[name].open("w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(header)
                sink.seek(0)
                shutil.copyfileobj(sink, fh)
            sink.seek(0, io.SEEK_END)       # later rows append after the copied ones
        write_summary(self.aggregates(), paths["summary"])
        return paths


def write_summary(summary: dict, path: Path) -> None:
    # NaN and Infinity are not JSON (RFC 8259): such a value fails the write instead of being written
    path.write_text(json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8")
