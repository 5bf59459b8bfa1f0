"""Run counters, per-slot energy, and the three output files.

Phases count into the report's summary sections and aggregates() derives the
ratios; each AN's energy is summed as the slots close. A packet or decision row
is final when it is recorded (uplink access is grant-free: a packet is decoded
in its emit slot or lost), so it goes straight to a temporary file that write()
copies out after the header. The output schema is versioned and frozen: the CSV
headers and summary.json keys are part of the public contract (golden-tested).
"""

from __future__ import annotations

import csv
import functools
import json
import operator
import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1
PACKETS_HEADER = ["vehicle_id", "emit_slot", "delivered", "latency_slots", "replicas", "paths"]
DECISIONS_HEADER = ["kind", "slot", "an_id", "vehicle_id", "service_id", "decision", "latency_s", "energy_j"]


def _block_sum(block: list[float]) -> float:
    """numpy's pairwise_sum of at most 128 values: eight running partials, then the rest (all of them below 8)."""
    full = len(block) - len(block) % 8
    r = [functools.reduce(operator.add, block[j:full:8], 0.0) for j in range(8)]
    partials = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(operator.add, block[full:], partials)


class _AnEnergy:
    """One AN's energy per slot, summed as the slots close.

    The total adds the slots left to right. The pairwise sum is numpy's
    pairwise_sum over the whole horizon (numpy/_core/src/umath/loops_utils.h.src;
    Higham, Accuracy and Stability of Numerical Algorithms, s4.2), so divided
    by the horizon it has np.mean's bits. Its tree depends only on the horizon:
    the open slot's leaf block is kept, and a full one folds into the left
    sums on its path. A slot with nothing booked holds 0 J.
    """

    def __init__(self, horizon: int, slot: int) -> None:
        self.total = 0          # the folded blocks, left to right from int 0
        self.path: list[tuple[float, int]] = []     # per split above the block: (left sum, right half's size to come)
        self._enter(horizon, slot)

    def _enter(self, n: int, skip: int) -> None:
        while n > 128:      # descend n slots to the block of slot `skip`, the slots before it 0 J
            half = n // 2 - n // 2 % 8      # numpy's split: n // 2 rounded down to a multiple of 8
            self.path.append((0.0, n - half if skip < half else 0))
            n, skip = (half, skip) if skip < half else (n - half, skip - half)
        self.block, self.at = [0.0] * n, skip - n      # the open slot, counted back from the block's end

    def fold(self) -> None:
        """Fold the full block into the total and the path, then open the next block."""
        self.total = functools.reduce(operator.add, self.block, self.total)
        value = _block_sum(self.block)
        while self.path and not self.path[-1][1]:       # the block ends these right halves
            value = self.path.pop()[0] + value
        right = self.path.pop()[1] if self.path else 0  # 0 once every slot is in: an empty block stays open
        self.path.append((value, 0))
        self._enter(right, 0)

    def sums(self) -> tuple[float, float]:
        """(total, pairwise sum) with the open block in; a later slot's 0 J, summed to 0.0, changes neither."""
        pairwise = _block_sum(self.block)
        for left, _ in reversed(self.path):
            pairwise = left + pairwise      # 0.0 where the block is in a left half
        return functools.reduce(operator.add, self.block, self.total), pairwise


@dataclass(eq=False, repr=False)
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
    downlink: dict[str, float] = field(default_factory=dict)
    prediction: dict[str, float] = field(default_factory=dict)
    control: dict[str, object] = field(default_factory=dict)
    edge: dict[str, float] = field(default_factory=dict)
    cipher: dict[str, float] = field(default_factory=dict)
    slices: dict[str, float] = field(default_factory=dict)
    bandit: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # write-only text layers: a readable one resets its decoder on every row
        self._sinks = {name: tempfile.TemporaryFile("w", newline="", encoding="utf-8")
                       for name in ("packets", "decisions")}
        for sink in self._sinks.values():
            weakref.finalize(self, sink.close)      # closed with the report, not leaked
        self._packet_row = csv.writer(self._sinks["packets"]).writerow
        self._decision_row = csv.writer(self._sinks["decisions"]).writerow
        self._energy: dict[int, _AnEnergy] = {}     # in the order the ANs first booked energy
        self._slot = 0          # the open slot

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

    def record_energy(self, an_id: int, joules: float) -> None:
        """Add joules to the AN's energy in the open slot; its slots before its first booking hold 0 J."""
        an = self._energy.get(an_id) or self._energy.setdefault(an_id, _AnEnergy(self.horizon, self._slot))
        an.block[an.at] += joules

    def end_slot(self) -> None:
        """Close the open slot: no energy is booked into it after this."""
        self._slot += 1
        for an in self._energy.values():
            an.at += 1
            if not an.at:
                an.fold()

    # -- aggregates ---------------------------------------------------------

    def aggregates(self) -> dict:
        emitted, delivered = self.packets_emitted, self.packets_delivered
        latency_slots = 1.0 if delivered else None
        latency_s = self.slot_duration if delivered else None
        meets_deadline = self.slot_duration <= self.latency_deadline_s * (1 + 1e-9)
        # floats add left to right here: Python 3.12's sum() compensates and moves bits
        sums = {an_id: an.sums() for an_id, an in self._energy.items()}
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
                "mean_per_slot_per_an_j": {str(an_id): sums[an_id][1] / self.horizon for an_id in sorted(sums)},
                "total_j": float(functools.reduce(operator.add, (total for total, _ in sums.values()), 0)),
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
            sink.flush()        # read back through its descriptor, left at the end for later rows
            with paths[name].open("w", newline="", encoding="utf-8") as fh, \
                    open(sink.fileno(), "rb", closefd=False) as rows:
                csv.writer(fh).writerow(header)
                fh.flush()
                rows.seek(0)
                shutil.copyfileobj(rows, fh.buffer)
        write_summary(self.aggregates(), paths["summary"])
        return paths


def write_summary(summary: dict, path: Path) -> None:
    # NaN and Infinity are not JSON (RFC 8259): such a value fails the write instead of being written
    path.write_text(json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8")
