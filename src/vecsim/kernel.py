"""Deterministic slotted engine.

Owns the clock and the per-slot phase schedule. Subsystems register handlers
against named phases; every slot runs the phases in one fixed order, handlers
within a phase in registration order, each called with the slot index. An
exception inside a phase aborts the run with the slot index attached, since a
half-executed slot has no defined state.
"""

from __future__ import annotations

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


class PhaseError(RuntimeError):
    def __init__(self, phase: Phase, slot: int, cause: BaseException):
        super().__init__(f"phase {phase.name} failed at slot {slot}: {cause!r}")
        self.phase = phase
        self.slot = slot
        self.__cause__ = cause


class SlotEngine:
    """Runs `horizon` slots of the registered phase handlers."""

    def __init__(self, horizon: int):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        self._handlers: dict[Phase, list[Callable[[int], None]]] = {p: [] for p in PHASE_ORDER}
        self.clock = 0       # the slot that runs next

    def register(self, phase: Phase, handler: Callable[[int], None]) -> None:
        self._handlers[phase].append(handler)

    def advance_slot(self) -> None:
        """Execute every phase for the current slot, then tick the clock."""
        slot = self.clock
        if slot >= self.horizon:
            raise RuntimeError(f"slot {slot} is past the horizon of {self.horizon} slots")
        for phase, handlers in self._handlers.items():      # PHASE_ORDER
            for handler in handlers:
                try:
                    handler(slot)
                except Exception as exc:
                    raise PhaseError(phase, slot, exc) from exc
        self.clock += 1

    def run(self) -> None:
        while self.clock < self.horizon:
            self.advance_slot()
