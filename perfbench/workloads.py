"""Benchmark workloads: scenario JSON generated from the bundled smoke.json and a seed.

The program only ever sees the generated file. The seed sets the scenario
seed and, for the synthetic workloads, the vehicles' start cells, so the
same seed always gives the same bytes.

Why each workload exists (sizing measured on a 2-core x86 host, Python
3.11, numpy 2.4, single-threaded BLAS):

crowd      V=500, C=40, every subsystem on, Bayes predictor, a control
           checkpoint every 10 slots. The per-vehicle layers (predictor,
           cipher, MAC, RNG) run near the largest fleet exact placement survives,
           and the control checkpoints (exact placement plus traffic
           balancing, about 1000 Dijkstra searches each) are about a
           quarter of the loop. V stays below 1000: at V=1000 on 4 ANs the
           recursive exact placement dies at slot 0 with RecursionError.
long_road  C=2000, V=4. The dense C x C belief filter is almost the whole
           loop, and the 2000-cell tables (transition matrix, SNR table,
           observation model) dominate set-up time and memory. MAC, cipher
           and control-plane work is a few percent here.
long_haul  smoke.json with a long horizon. Two vehicles, so per-slot fixed
           costs dominate: kernel dispatch, phase glue, per-slot energy
           recording (O(horizon) per call) and the end-of-run file writing.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SMOKE = Path("src/vecsim/scenarios/smoke.json")

N_APS = 16
N_ANS = 4
SPACING_M = 100.0

WORKLOADS = {
    # name: (vehicles, cells, horizon, control period) or None for long_haul
    "crowd": (500, 40, 20, 10),
    "long_road": (4, 2000, 600, 50),
    "long_haul": None,
}
LONG_HAUL_HORIZON = 15000
# Workloads whose slot loop and end of run are corrected for the host's speed,
# as set-up is on every workload (see README.md). long_road is left out: its
# loop streams 32 MB matrices through numpy, which the host slows differently
# from the pure-Python reference.
HOST_CORRECTED = ("crowd", "long_haul")


def scenario(name: str, seed: int, root: Path) -> dict:
    """The scenario dict for workload `name` and `seed`, built on root's smoke.json."""
    base = json.loads((root / SMOKE).read_text(encoding="utf-8"))
    base["seed"] = seed
    if WORKLOADS[name] is None:
        base["horizon"] = LONG_HAUL_HORIZON
        return base
    base["name"] = f"bench-{name}"
    vehicles, cells, horizon, period = WORKLOADS[name]
    return _scale_scenario(base, seed, vehicles, cells, horizon, period)


def _scale_scenario(base: dict, seed: int, vehicles: int, cells: int, horizon: int, period: int) -> dict:
    rng = random.Random(seed)
    length = cells * SPACING_M
    base["horizon"] = horizon
    base["road"] = {"builder": "line", "cells": cells, "spacing_m": SPACING_M, "forward_prob": 0.8}
    base["vehicles"] = [{"vehicle_id": v, "cell": rng.randrange(cells)} for v in range(vehicles)]
    base["aps"] = [
        {
            "ap_id": ap,
            "x": (ap + 0.5) * length / N_APS,
            "y": 10.0,
            "an_id": ap * N_ANS // N_APS,
            "fronthaul_snr_db": 30.0,
        }
        for ap in range(N_APS)
    ]
    # Capacities scale with V: any single AN can host every vehicle's control
    # flow and no chain edge congests, so no checkpoint is infeasible.
    rate = base["control"]["rate_per_vehicle"]
    base["ans"] = [
        {
            "an_id": an,
            "power_budget_w": 2.0,
            "controller_capacity": vehicles * rate,
            "storage_capacity": 10.0,
        }
        for an in range(N_ANS)
    ]
    base["ctu_pool"] = {"slots_per_frame": 1, "freq_blocks": 64, "sequences": 4}
    base["control"]["period_slots"] = period
    base["control"]["edges"] = [[an, an + 1, 0.001, 4.0 * vehicles * rate] for an in range(N_ANS - 1)]
    return base
