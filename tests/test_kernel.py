from __future__ import annotations

import pytest

from vecsim.kernel import PHASE_ORDER, Phase, PhaseError, SlotEngine, SlotTime


def test_phase_order_is_fixed_and_complete():
    names = [p.name for p in PHASE_ORDER]
    assert names == [
        "MOBILITY",
        "UPLINK",
        "RELAY_DECODE",
        "PREDICTION",
        "DOWNLINK",
        "CONTROL_PLANE",
        "EDGE_COMPUTE",
        "CIPHER",
    ]


def test_every_phase_runs_in_order_each_slot():
    engine = SlotEngine(horizon=3, slot_duration=0.01)
    trace: list[tuple[int, str]] = []
    for phase in Phase:
        engine.register(phase, lambda t, p=phase: trace.append((t.index, p.name)))
    engine.run()
    per_slot = [p.name for p in PHASE_ORDER]
    assert trace == [(s, name) for s in range(3) for name in per_slot]
    assert engine.slots_run == 3
    assert engine.clock == 3


def test_handlers_within_a_phase_run_in_registration_order():
    engine = SlotEngine(horizon=1, slot_duration=1.0)
    seen: list[str] = []
    engine.register(Phase.UPLINK, lambda t: seen.append("first"))
    engine.register(Phase.UPLINK, lambda t: seen.append("second"))
    engine.run()
    assert seen == ["first", "second"]


def test_handler_exception_becomes_phase_error_with_slot_and_cause():
    engine = SlotEngine(horizon=5, slot_duration=1.0)
    ticks = []
    engine.register(Phase.MOBILITY, lambda t: ticks.append(t.index))

    def boom(t: SlotTime) -> None:
        if t.index == 2:
            raise ValueError("bad row")

    engine.register(Phase.DOWNLINK, boom)
    with pytest.raises(PhaseError) as err:
        engine.run()
    assert err.value.phase is Phase.DOWNLINK
    assert err.value.slot == 2
    assert isinstance(err.value.__cause__, ValueError)
    # the failing slot never completes, so the clock stays on it
    assert engine.clock == 2
    assert ticks == [0, 1, 2]


def test_constructor_rejects_bad_horizon_and_duration():
    with pytest.raises(ValueError):
        SlotEngine(horizon=0, slot_duration=1.0)
    with pytest.raises(ValueError):
        SlotEngine(horizon=10, slot_duration=0.0)


def test_advance_slot_returns_the_next_slot_time():
    engine = SlotEngine(horizon=2, slot_duration=0.5)
    nxt = engine.advance_slot()
    assert nxt.index == 1
    assert engine.clock == 1
