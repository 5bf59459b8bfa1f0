"""Caching vs an exhaustive knapsack oracle; offloading vs decision enumeration."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from vecsim.edge import (
    CacheState,
    ComputeParams,
    EnergyLedger,
    Service,
    Task,
    cloud_cost,
    decide_cache,
    decide_offload,
    local_cost,
    settle_slot,
)

PARAMS = ComputeParams(
    cpu_rate=1e9,
    cloud_rate=1e10,
    backhaul_rtt=0.05,
    backhaul_rate=1e8,
    joules_per_cycle=1e-9,
    joules_per_bit=1e-8,
)


def _svc(sid, size, cycles=1e6, pop=1.0) -> Service:
    return Service(service_id=sid, size=size, cycles_per_task=cycles, popularity=pop)


def test_service_and_ledger_validation():
    with pytest.raises(ValueError):
        EnergyLedger(an_id=0, budget_per_slot=0.0, tradeoff_v=1.0)
    with pytest.raises(ValueError):
        EnergyLedger(an_id=0, budget_per_slot=1.0, tradeoff_v=1.0, deficit=-0.1)


def test_cache_single_service_that_fits_is_cached():
    catalog = {0: _svc(0, 2.0)}
    assert decide_cache(catalog, {0: 1.0}, capacity=2.0) == {0}
    assert decide_cache(catalog, {0: 1.0}, capacity=1.0) == set()


def test_cache_prefers_the_denser_service():
    catalog = {0: _svc(0, 1.0), 1: _svc(1, 1.0)}
    assert decide_cache(catalog, {0: 0.3, 1: 0.9}, capacity=1.0) == {1}


def test_cache_density_tiebreak_is_by_service_id():
    catalog = {4: _svc(4, 1.0), 2: _svc(2, 1.0)}
    assert decide_cache(catalog, {4: 0.5, 2: 0.5}, capacity=1.0) == {2}


def test_cache_keeps_packing_smaller_services_past_a_nonfit():
    catalog = {0: _svc(0, 4.0), 1: _svc(1, 3.0), 2: _svc(2, 1.0)}
    pops = {0: 4.0, 1: 2.9, 2: 0.5}
    assert decide_cache(catalog, pops, capacity=5.0) == {0, 2}


def _exhaustive_best(catalog, pops, capacity):
    best = 0.0
    ids = sorted(catalog)
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            if sum(catalog[s].size for s in combo) <= capacity:
                best = max(best, sum(pops.get(s, 0.0) for s in combo))
    return best


def test_cache_greedy_stays_within_half_of_the_knapsack_optimum():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        catalog = {s: _svc(s, float(rng.integers(1, 7))) for s in range(n)}
        pops = {s: float(rng.uniform(0.1, 1.0)) for s in range(n)}
        capacity = float(rng.integers(5, 21))
        cached = decide_cache(catalog, pops, capacity)
        assert sum(catalog[s].size for s in cached) <= capacity
        got = sum(pops[s] for s in cached)
        best = _exhaustive_best(catalog, pops, capacity)
        assert got >= 0.5 * best - 1e-12


def test_cache_greedy_is_optimal_when_all_sizes_are_equal():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        catalog = {s: _svc(s, 2.0) for s in range(n)}
        pops = {s: float(rng.uniform(0.1, 1.0)) for s in range(n)}
        capacity = 2.0 * int(rng.integers(1, n + 1))
        cached = decide_cache(catalog, pops, capacity)
        got = sum(pops[s] for s in cached)
        assert got == pytest.approx(_exhaustive_best(catalog, pops, capacity))


def test_cost_closed_forms():
    svc = _svc(1, 1.0, cycles=2e7)
    task = Task(service_id=1, vehicle_id=0, input_bits=1e5, arrival_slot=0)
    d_cloud, e_tx = cloud_cost(task, svc, PARAMS)
    assert d_cloud == pytest.approx(0.05 + 2e7 / 1e10 + 1e5 / 1e8)
    assert e_tx == pytest.approx(1e-3)
    d_local, e_local = local_cost(task, svc, queued_cycles=3e7, params=PARAMS)
    assert d_local == pytest.approx((3e7 + 2e7) / 1e9)
    assert e_local == pytest.approx(2e-2)


def test_uncached_service_always_goes_to_the_cloud():
    svc = _svc(1, 1.0, cycles=1e6)
    task = Task(service_id=1, vehicle_id=0, input_bits=1e4, arrival_slot=0)
    cache = CacheState(an_id=0, capacity=10.0, cached=set())
    ledger = EnergyLedger(an_id=0, budget_per_slot=1.0, tradeoff_v=1e6)
    out = decide_offload(task, svc, cache, ledger, queued_cycles=0.0, params=PARAMS)
    assert out.where == "cloud"


@pytest.mark.parametrize(
    ("policy", "cached", "where"),
    [
        ("drift", True, "local"),
        ("drift", False, "cloud"),
        ("greedy_local", True, "local"),
        ("greedy_local", False, "cloud"),
        ("always_cloud", True, "cloud"),
        ("always_cloud", False, "cloud"),
    ],
)
def test_each_offload_policy_on_a_cached_and_an_uncached_service(policy, cached, where):
    # zero deficit and an idle CPU: drift runs the cached task locally (0.02 s
    # vs 0.053 s); behind a 1e9-cycle backlog local takes 1.02 s, so only
    # greedy_local still keeps it
    svc = _svc(1, 1.0, cycles=2e7)
    task = Task(service_id=1, vehicle_id=0, input_bits=1e5, arrival_slot=0)
    cache = CacheState(an_id=0, capacity=10.0, cached={1} if cached else set())
    ledger = EnergyLedger(an_id=0, budget_per_slot=1.0, tradeoff_v=1.0)
    out = decide_offload(task, svc, cache, ledger, 0.0, PARAMS, policy=policy)
    assert out.where == where
    expected = local_cost(task, svc, 0.0, PARAMS) if where == "local" else cloud_cost(task, svc, PARAMS)
    assert (out.latency_s, out.energy_j) == expected
    slow = decide_offload(task, svc, cache, ledger, 1e9, PARAMS, policy=policy)
    greedy_and_cached = policy == "greedy_local" and cached
    assert slow.where == ("local" if greedy_and_cached else "cloud")


def test_zero_deficit_reduces_to_a_latency_comparison():
    svc = _svc(1, 1.0, cycles=2e7)
    task = Task(service_id=1, vehicle_id=0, input_bits=1e5, arrival_slot=0)
    cache = CacheState(an_id=0, capacity=10.0, cached={1})
    ledger = EnergyLedger(an_id=0, budget_per_slot=1.0, tradeoff_v=1.0)
    fast_local = decide_offload(task, svc, cache, ledger, queued_cycles=0.0, params=PARAMS)
    assert fast_local.where == "local"          # 0.02 s vs 0.053 s
    slow_local = decide_offload(task, svc, cache, ledger, queued_cycles=1e9, params=PARAMS)
    assert slow_local.where == "cloud"          # 1.02 s vs 0.053 s


def test_exact_score_tie_goes_local():
    # zero deficit, and the two branch latencies land on the identical float
    params = ComputeParams(
        cpu_rate=1e9, cloud_rate=2e9, backhaul_rtt=0.0, backhaul_rate=2e8,
        joules_per_cycle=1e-9, joules_per_bit=1e-8,
    )
    svc = _svc(1, 1.0, cycles=2e7)
    task = Task(service_id=1, vehicle_id=0, input_bits=2e6, arrival_slot=0)
    cache = CacheState(an_id=0, capacity=10.0, cached={1})
    ledger = EnergyLedger(an_id=0, budget_per_slot=1.0, tradeoff_v=1.0, deficit=0.0)
    assert local_cost(task, svc, 0.0, params)[0] == cloud_cost(task, svc, params)[0]
    out = decide_offload(task, svc, cache, ledger, queued_cycles=0.0, params=params)
    assert out.where == "local"


def test_high_deficit_pushes_the_energy_heavy_branch_to_the_cloud():
    svc = _svc(1, 1.0, cycles=2e7)       # local 0.02 J vs 0.001 J uplink
    task = Task(service_id=1, vehicle_id=0, input_bits=1e5, arrival_slot=0)
    cache = CacheState(an_id=0, capacity=10.0, cached={1})
    lazy = EnergyLedger(an_id=0, budget_per_slot=0.02, tradeoff_v=1.0, deficit=0.0)
    assert decide_offload(task, svc, cache, lazy, 0.0, PARAMS).where == "local"
    pressed = EnergyLedger(an_id=0, budget_per_slot=0.02, tradeoff_v=1.0, deficit=10.0)
    assert decide_offload(task, svc, cache, pressed, 0.0, PARAMS).where == "cloud"


def test_two_task_sequence_matches_exhaustive_decision_enumeration():
    svc = _svc(1, 1.0, cycles=2e7)
    cache = CacheState(an_id=0, capacity=10.0, cached={1})
    tasks = [Task(1, 0, 1e5, 0), Task(1, 0, 1e5, 1)]
    v, budget, q0 = 1.0, 0.02, 0.5

    ledger = EnergyLedger(an_id=0, budget_per_slot=budget, tradeoff_v=v, deficit=q0)
    sequence, latencies = [], []
    for task in tasks:
        out = decide_offload(task, svc, cache, ledger, queued_cycles=0.0, params=PARAMS)
        sequence.append(out.where)
        latencies.append(out.latency_s)
        settle_slot(ledger, out.energy_j)

    def _cost(where, task):
        if where == "local":
            return local_cost(task, svc, 0.0, PARAMS)
        return cloud_cost(task, svc, PARAMS)

    best_vec, best_score = None, None
    for vec in itertools.product(["local", "cloud"], repeat=2):
        q = q0
        score = 0.0
        for where, task in zip(vec, tasks):
            lat, energy = _cost(where, task)
            score += v * lat + q * energy
            q = max(0.0, q + energy - budget)
        if best_score is None or score < best_score:
            best_vec, best_score = vec, score
    assert tuple(sequence) == best_vec


def test_settle_slot_closed_forms():
    ledger = EnergyLedger(an_id=0, budget_per_slot=0.5, tradeoff_v=1.0)
    settle_slot(ledger, 0.5)
    assert ledger.deficit == 0.0                 # exact balance
    settle_slot(ledger, 0.0)
    assert ledger.deficit == 0.0                 # floored at zero
    for _ in range(10):
        settle_slot(ledger, 0.7)                 # constant overspend of 0.2
    assert ledger.deficit == pytest.approx(2.0)
    with pytest.raises(ValueError):
        settle_slot(ledger, -0.1)
