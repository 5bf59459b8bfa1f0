"""Deterministic slotted engine.

Owns the clock and the per-slot phase schedule. Subsystems register handlers
against named phases; every slot runs the phases in one fixed order, handlers
within a phase in registration order. An exception inside a phase aborts the
run with the slot index attached, since a half-executed slot has no defined
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable


class Phase(Enum):
    MOBILITY = 0
    UPLINK = 1
    RELAY_DECODE = 2
    PREDICTION = 3
    DOWNLINK = 4
    CONTROL_PLANE = 5
    EDGE_COMPUTE = 6
    CIPHER = 7


PHASE_ORDER = list(Phase)


@dataclass(frozen=True)
class SlotTime:
    index: int
    slot_duration: float


class PhaseError(RuntimeError):
    def __init__(self, phase: Phase, slot: int, cause: BaseException):
        super().__init__(f"phase {phase.name} failed at slot {slot}: {cause}")
        self.phase = phase
        self.slot = slot
        self.__cause__ = cause


class SlotEngine:
    """Runs `horizon` slots of the registered phase handlers."""

    def __init__(self, horizon: int, slot_duration: float):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be > 0, got {slot_duration}")
        self.horizon = horizon
        self.slot_duration = slot_duration
        self._handlers: dict[Phase, list[Callable[[SlotTime], None]]] = {p: [] for p in PHASE_ORDER}
        self._clock = 0
        self.slots_run = 0

    def register(self, phase: Phase, handler: Callable[[SlotTime], None]) -> None:
        self._handlers[phase].append(handler)

    @property
    def clock(self) -> int:
        return self._clock

    def advance_slot(self) -> SlotTime:
        """Execute every phase for the current slot, then tick the clock."""
        now = SlotTime(index=self._clock, slot_duration=self.slot_duration)
        for phase in PHASE_ORDER:
            for handler in self._handlers[phase]:
                try:
                    handler(now)
                except Exception as exc:
                    raise PhaseError(phase, now.index, exc) from exc
        self._clock += 1
        self.slots_run += 1
        return SlotTime(index=self._clock, slot_duration=self.slot_duration)

    def run(self) -> None:
        while self._clock < self.horizon:
            self.advance_slot()
