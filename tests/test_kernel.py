from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import scenario_path
from vecsim.config import scenario_from_dict
from vecsim.kernel import PHASE_ORDER, Phase, PhaseError, SlotEngine
from vecsim.simulation import Simulation


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
    engine = SlotEngine(horizon=3)
    trace: list[tuple[int, str]] = []
    for phase in Phase:
        engine.register(phase, lambda slot, p=phase: trace.append((slot, p.name)))
    engine.run()
    per_slot = [p.name for p in PHASE_ORDER]
    assert trace == [(s, name) for s in range(3) for name in per_slot]
    assert engine.clock == 3


def test_handlers_within_a_phase_run_in_registration_order():
    engine = SlotEngine(horizon=1)
    seen: list[str] = []
    engine.register(Phase.UPLINK, lambda slot: seen.append("first"))
    engine.register(Phase.UPLINK, lambda slot: seen.append("second"))
    engine.run()
    assert seen == ["first", "second"]


def test_handler_exception_becomes_phase_error_with_slot_and_cause():
    engine = SlotEngine(horizon=5)
    ticks = []
    engine.register(Phase.MOBILITY, ticks.append)

    def boom(slot: int) -> None:
        if slot == 2:
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


def test_constructor_rejects_a_horizon_below_one():
    with pytest.raises(ValueError):
        SlotEngine(horizon=0)


def test_advance_slot_runs_the_current_slot_and_ticks_the_clock():
    engine = SlotEngine(horizon=2)
    seen: list[int] = []
    engine.register(Phase.CIPHER, seen.append)
    assert engine.advance_slot() is None
    assert seen == [0]
    assert engine.clock == 1


def test_the_benchmark_child_traces_every_phase_of_every_slot(tmp_path):
    # perfbench wraps SlotEngine.register, run and advance_slot from outside;
    # a traced run must still time each slot and count each phase's calls
    repo = Path(__file__).resolve().parent.parent
    data = json.loads(scenario_path("smoke").read_text())
    data["horizon"] = 50
    scenario = tmp_path / "smoke.json"
    scenario.write_text(json.dumps(data))
    env = {**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = ["trace", str(scenario), "1", str(tmp_path / "out"), str(tmp_path / "r.json"), str(tmp_path / "s.jsonl")]
    proc = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "child.py"), *argv], env=env, cwd=tmp_path, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads((tmp_path / "r.json").read_text())
    assert len(result["slot_s"]) == 50
    assert {p.name: result["stats"][f"phase.{p.name}"][0] for p in Phase} == {p.name: 50 for p in Phase}


def test_a_phase_error_names_its_cause_type_even_without_a_message():
    engine = SlotEngine(horizon=1)

    def starve(slot: int) -> None:
        raise MemoryError()

    engine.register(Phase.DOWNLINK, starve)
    with pytest.raises(PhaseError, match=r"phase DOWNLINK failed at slot 0: MemoryError\(\)$"):
        engine.run()


def test_advance_slot_past_the_horizon_raises_before_any_handler_runs():
    engine = SlotEngine(horizon=2)
    trace: list[tuple[int, str]] = []
    for phase in Phase:
        engine.register(phase, lambda slot, p=phase: trace.append((slot, p.name)))
    engine.run()
    ran = list(trace)
    with pytest.raises(RuntimeError, match=r"^slot 2 is past the horizon of 2 slots$"):
        engine.advance_slot()
    assert trace == ran
    assert engine.clock == 2


def test_a_simulation_stepped_past_its_horizon_records_nothing_more(tmp_path):
    data = json.loads(scenario_path("smoke").read_text())
    data["horizon"] = 3
    sim = Simulation(scenario_from_dict(data))
    sim.engine.run()
    emitted = sim.report.packets_emitted
    with pytest.raises(RuntimeError, match="past the horizon"):
        sim.engine.advance_slot()
    assert sim.report.packets_emitted == emitted == 3 * len(sim.vehicles)
    paths = sim.finalize().write(tmp_path)
    assert len(paths["packets"].read_text().splitlines()) == 1 + emitted
