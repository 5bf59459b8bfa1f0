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
import math
import pstats
import random

import pytest

from conftest import scenario_path
from vecsim.config import scenario_from_dict
from vecsim.control_plane import ControlTopology, Demand, place_controllers
from vecsim.simulation import Simulation

N_APS = 16
N_ANS = 4
SPACING_M = 100.0
# a later size may cost this much more per unit than an earlier one
SLACK = 1.05


def _shape(vehicles: int, cells: int, horizon: int, period: int, ans: int = N_ANS, hosted: int = 0) -> dict:
    """Smoke's subsystems on a line road of `cells`, with `vehicles` at seeded
    start cells and 16 APs spread evenly along it, owned in equal runs by
    `ans` ANs on a chain, each with room for `hosted` vehicles (0: all)."""
    data = json.loads(scenario_path("smoke").read_text(encoding="utf-8"))
    rng = random.Random(1)
    length = cells * SPACING_M
    rate = data["control"]["rate_per_vehicle"]
    data.update(
        horizon=horizon,
        road={"builder": "line", "cells": cells, "spacing_m": SPACING_M, "forward_prob": 0.8},
        vehicles=[{"vehicle_id": v, "cell": rng.randrange(cells)} for v in range(vehicles)],
        aps=[
            {"ap_id": ap, "x": (ap + 0.5) * length / N_APS, "y": 10.0, "an_id": ap * ans // N_APS,
             "fronthaul_snr_db": 30.0}
            for ap in range(N_APS)
        ],
        # by default any one AN can host every control flow, so every checkpoint is feasible
        ans=[
            {"an_id": an, "power_budget_w": 2.0, "controller_capacity": (hosted or vehicles) * rate,
             "storage_capacity": 10.0}
            for an in range(ans)
        ],
        ctu_pool={"slots_per_frame": 1, "freq_blocks": 64, "sequences": 4},
    )
    data["control"]["period_slots"] = period
    data["control"]["edges"] = [[an, an + 1, 0.001, 4.0 * vehicles * rate] for an in range(ans - 1)]
    return data


def _calls(fn):
    profile = cProfile.Profile()
    profile.enable()
    out = fn()
    profile.disable()
    return out, pstats.Stats(profile).total_calls


@functools.cache
def _cost(*shape) -> tuple[float, float]:
    """(loop calls per vehicle-slot, set-up calls per cell) of `_shape(*shape)`."""
    vehicles, cells, horizon = shape[:3]
    cfg = scenario_from_dict(_shape(*shape))
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


# Set-up calls per cell at the largest road shape: the count this ceiling was
# set at (57.7, on Python 3.11, where the SNR table is one pass with the
# channel constants read once, each cell is ranked and filled in one walk and
# only failing rows format a path), plus 5%. A set-up that calls snr_db per
# (cell, AP) pair made 93.7.
SETUP_CALLS_PER_CELL_CEILING = 60.6


def test_setup_calls_per_cell_stay_under_a_ceiling():
    per_cell = _cost(*ROADS[-1])[1]
    assert per_cell <= SETUP_CALLS_PER_CELL_CEILING, per_cell


# Loop calls per vehicle-slot as the ANs grow with the 16 APs held fixed, so at
# most 16 ANs are ingress, and each AN has room for an eighth of the fleet. A
# run that searched the topology from every AN made 80.2, 92.0 and 176.2 at 16,
# 64 and 256 ANs (x1.15, then x1.92); searching only the ANs asked about made
# 80.2, 89.6 and 119.4 (x1.12, then x1.33).
ANS = [(200, 40, 20, 10, ans, 25) for ans in (16, 64, 256)]
ANS_GROWTH_PER_QUADRUPLING = 1.5


def test_loop_calls_per_vehicle_slot_grow_at_most_1_5_times_per_quadrupling_of_ans():
    costs = [_cost(*shape)[0] for shape in ANS]
    assert all(later <= earlier * ANS_GROWTH_PER_QUADRUPLING for earlier, later in zip(costs, costs[1:])), costs


# Loop calls per vehicle-slot of the bundled smoke scenario at 2000 slots,
# two vehicles: the count this ceiling was set at (116.4, on Python 3.11,
# where the cipher phase counts outcomes without calling into vecsim.cipher,
# the association views are plain tuples and a CTU draw is one call), plus 5%.
SMOKE_LOOP_CALLS_CEILING = 122.2


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


# Greedy placement on a chain of A ANs, 1024 vehicles entering at the even ANs
# and each AN with room for a fair share of them, so about A/2 controllers open.
# The all-pairs distances grow faster than the fleet, but a cover that rescans
# every unassigned vehicle for every closed AN in every round grows faster
# still: that one made 42.9, 138.0 and 490.3 calls per vehicle at 8, 16 and 32
# ANs (x3.2, then x3.6).
PLACEMENT_GROWTH_PER_DOUBLING = 2.5


def _placement_calls_per_vehicle(n_ans: int, vehicles: int = 1024) -> float:
    capacity = float(math.ceil(vehicles / (n_ans // 2)))
    topo = ControlTopology(
        capacity=dict.fromkeys(range(n_ans), capacity),
        edges={(an, an + 1): (0.001, 1e9) for an in range(n_ans - 1)},
    )
    demands = [Demand(v, 2 * (v % (n_ans // 2)), 1.0) for v in range(vehicles)]
    placement, calls = _calls(lambda: place_controllers(topo, demands, 1.0, exact_limit=0))
    assert len(placement.controllers) == n_ans // 2
    return calls / vehicles


def test_greedy_placement_calls_per_vehicle_at_most_2_5_times_per_doubling_of_ans():
    costs = [_placement_calls_per_vehicle(n_ans) for n_ans in (8, 16, 32)]
    assert all(later <= earlier * PLACEMENT_GROWTH_PER_DOUBLING for earlier, later in zip(costs, costs[1:])), costs
