"""A deterministic cost gate: Python call counts per unit of work.

A run is a function of (scenario, seed), so the number of Python calls it
makes (cProfile counts builtins and every generator resume too) is exact. Per
vehicle-slot in the slot loop, and per cell at set-up, that count must not
rise with the fleet or the road: a per-vehicle step that walks the fleet, or
a per-cell step that walks the road, shows up as a count that grows with the
size, with no timing noise. Work inside one numpy or builtin call, and plain
loops that call nothing, are not counted.
"""

from __future__ import annotations

import cProfile
import functools
import json
import pstats
import random

import pytest

from conftest import scenario_path
from vecsim.config import scenario_from_dict
from vecsim.simulation import Simulation

N_APS = 16
N_ANS = 4
SPACING_M = 100.0
# a later size may cost this much more per unit than an earlier one
SLACK = 1.05


def _shape(vehicles: int, cells: int, horizon: int, period: int) -> dict:
    """Smoke's subsystems on a line road of `cells`, with `vehicles` at seeded
    start cells and 16 APs spread evenly along it, 4 per AN."""
    data = json.loads(scenario_path("smoke").read_text(encoding="utf-8"))
    rng = random.Random(1)
    length = cells * SPACING_M
    rate = data["control"]["rate_per_vehicle"]
    data.update(
        horizon=horizon,
        road={"builder": "line", "cells": cells, "spacing_m": SPACING_M, "forward_prob": 0.8},
        vehicles=[{"vehicle_id": v, "cell": rng.randrange(cells)} for v in range(vehicles)],
        aps=[
            {"ap_id": ap, "x": (ap + 0.5) * length / N_APS, "y": 10.0, "an_id": ap * N_ANS // N_APS,
             "fronthaul_snr_db": 30.0}
            for ap in range(N_APS)
        ],
        # any one AN can host every control flow, so every checkpoint is feasible
        ans=[
            {"an_id": an, "power_budget_w": 2.0, "controller_capacity": vehicles * rate, "storage_capacity": 10.0}
            for an in range(N_ANS)
        ],
        ctu_pool={"slots_per_frame": 1, "freq_blocks": 64, "sequences": 4},
    )
    data["control"]["period_slots"] = period
    data["control"]["edges"] = [[an, an + 1, 0.001, 4.0 * vehicles * rate] for an in range(N_ANS - 1)]
    return data


def _calls(fn):
    profile = cProfile.Profile()
    profile.enable()
    out = fn()
    profile.disable()
    return out, pstats.Stats(profile).total_calls


@functools.cache
def _cost(vehicles: int, cells: int, horizon: int, period: int) -> tuple[float, float]:
    """(loop calls per vehicle-slot, set-up calls per cell)."""
    cfg = scenario_from_dict(_shape(vehicles, cells, horizon, period))
    sim, setup = _calls(lambda: Simulation(cfg))
    _, loop = _calls(sim.engine.run)
    return loop / (vehicles * horizon), setup / cells


CROWDS = [(v, 40, 20, 10) for v in (100, 200, 400)]
ROADS = [(4, c, 10, 50) for c in (200, 800, 3200)]


def _never_rises(costs: list[float]) -> bool:
    return all(later <= earlier * SLACK for earlier, later in zip(costs, costs[1:]))


@pytest.mark.parametrize(
    "shapes, what",
    [(CROWDS, "vehicles"), (ROADS, "cells")],
    ids=["vehicles", "cells"],
)
def test_loop_calls_per_vehicle_slot_do_not_rise(shapes, what):
    costs = [_cost(*shape)[0] for shape in shapes]
    assert _never_rises(costs), f"loop calls per vehicle-slot rise with {what}: {costs}"


def test_setup_calls_per_cell_do_not_rise_with_cells():
    costs = [_cost(*shape)[1] for shape in ROADS]
    assert _never_rises(costs), f"set-up calls per cell rise with cells: {costs}"


# Loop calls per vehicle-slot of the bundled smoke scenario at 2000 slots,
# two vehicles: the count this ceiling was set at (126.1, on Python 3.11,
# where an in-sync cipher slot calls neither Fingerprint nor exchange and a
# CTU draw is one call), plus 5%.
SMOKE_LOOP_CALLS_CEILING = 132.4


def test_smoke_loop_calls_per_vehicle_slot_stay_under_a_ceiling():
    """A small fleet pays every per-slot fixed cost, so a call added back to
    the slot loop shows here. Python >= 3.12 inlines comprehensions and counts
    fewer calls, so there the ceiling is only easier to meet."""
    data = json.loads(scenario_path("smoke").read_text(encoding="utf-8"))
    data["horizon"] = 2000
    sim = Simulation(scenario_from_dict(data))
    _, loop = _calls(sim.engine.run)
    per_vehicle_slot = loop / (len(sim.vehicles) * data["horizon"])
    assert per_vehicle_slot <= SMOKE_LOOP_CALLS_CEILING, per_vehicle_slot
