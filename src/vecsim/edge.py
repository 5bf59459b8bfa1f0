"""Edge service caching and task offloading under a long-term energy budget.

Caching is density-greedy on a slow timescale; per-task offloading is a
drift-plus-penalty rule: a virtual deficit queue accumulates energy overdraft
against the per-slot budget, and the queue weight pushes tasks toward the
cloud whenever the AN has been overspending. Tasks whose service is not
cached have no local option at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from vecsim.ranges import Range

MAX_CYCLES_PER_TASK = 1e15      # days of one core; keeps the CPU backlog and the latency sums finite


@dataclass(frozen=True)
class Service:
    service_id: Annotated[int, Range()]
    size: Annotated[float, Range(gt=0)]               # storage units
    cycles_per_task: Annotated[float, Range(gt=0, le=MAX_CYCLES_PER_TASK)]
    popularity: Annotated[float, Range(ge=0)] = 1.0


@dataclass(eq=False, repr=False)
class CacheState:
    an_id: int
    capacity: float
    cached: set[int] = field(default_factory=set)


@dataclass(eq=False, repr=False)
class Task:
    service_id: int
    vehicle_id: int
    input_bits: float
    arrival_slot: int


@dataclass(eq=False, repr=False)
class EnergyLedger:
    """Virtual deficit queue enforcing the long-term energy budget."""

    an_id: int
    budget_per_slot: float           # joules/slot
    tradeoff_v: float                # latency weight in the drift-plus-penalty score
    deficit: float = 0.0

    def __post_init__(self):
        if self.budget_per_slot <= 0 or self.tradeoff_v <= 0:
            raise ValueError("energy budget and tradeoff weight must be positive")
        if self.deficit < 0:
            raise ValueError("deficit queue cannot start negative")


@dataclass(eq=False, repr=False)
class ComputeParams:
    # a task's latency divides its cycles and bits by these rates: at least one per second keeps it finite
    cpu_rate: Annotated[float, Range(ge=1)] = 5e9           # cycles/second at the AN
    cloud_rate: Annotated[float, Range(ge=1)] = 5e10        # cycles/second in the cloud
    backhaul_rtt: Annotated[float, Range(ge=0)] = 0.05      # seconds
    backhaul_rate: Annotated[float, Range(ge=1)] = 1e8      # bits/second
    # a joule per cycle or bit is already 10**9 times what hardware spends; more overflows the energy sums
    joules_per_cycle: Annotated[float, Range(ge=0, le=1)] = 1e-9
    joules_per_bit: Annotated[float, Range(ge=0, le=1)] = 1e-8


@dataclass(eq=False, repr=False)
class OffloadDecision:
    where: str                       # "local" or "cloud"
    latency_s: float
    energy_j: float


def decide_cache(
    catalog: dict[int, Service],
    popularity: dict[int, float],
    capacity: float,
) -> set[int]:
    """Greedy by popularity-per-storage density until capacity is exhausted.

    `popularity` is the observed request weight over the recent window; cold
    starts pass the catalog priors. Service-id tiebreak.
    """
    density = []
    for sid in sorted(catalog):
        svc = catalog[sid]
        weight = popularity.get(sid, 0.0)
        density.append((weight / svc.size, sid))
    density.sort(key=lambda pair: (-pair[0], pair[1]))
    cached: set[int] = set()
    free = capacity
    for _, sid in density:
        if catalog[sid].size <= free:
            cached.add(sid)
            free -= catalog[sid].size
    return cached


def cloud_cost(task: Task, service: Service, params: ComputeParams) -> tuple[float, float]:
    """(latency, AN-side energy) of shipping the task over the backhaul."""
    latency = (
        params.backhaul_rtt
        + service.cycles_per_task / params.cloud_rate
        + task.input_bits / params.backhaul_rate
    )
    return latency, params.joules_per_bit * task.input_bits


def local_cost(
    task: Task, service: Service, queued_cycles: float, params: ComputeParams
) -> tuple[float, float]:
    """(latency, energy) of running behind the AN's current CPU backlog."""
    latency = (queued_cycles + service.cycles_per_task) / params.cpu_rate
    return latency, params.joules_per_cycle * service.cycles_per_task


def decide_offload(
    task: Task,
    service: Service,
    cache: CacheState,
    ledger: EnergyLedger,
    queued_cycles: float,
    params: ComputeParams,
    policy: str = "drift",
) -> OffloadDecision:
    """Choice between the AN and the cloud; an uncached service forces the cloud.

    The "drift" policy is drift-plus-penalty: Score = V * latency +
    deficit * energy, evaluated for both branches; the cheaper wins with local
    on ties. "greedy_local" runs every cached service locally and
    "always_cloud" ships every task. The ledger itself is settled once per
    slot via `settle_slot`, after all of the slot's energy causes are known.
    """
    d_cloud, e_tx = cloud_cost(task, service, params)
    cloud = OffloadDecision(where="cloud", latency_s=d_cloud, energy_j=e_tx)
    if policy == "always_cloud" or task.service_id not in cache.cached:
        return cloud
    d_local, e_local = local_cost(task, service, queued_cycles, params)
    local = OffloadDecision(where="local", latency_s=d_local, energy_j=e_local)
    if policy == "greedy_local":
        return local
    score_local = ledger.tradeoff_v * d_local + ledger.deficit * e_local
    score_cloud = ledger.tradeoff_v * d_cloud + ledger.deficit * e_tx
    return local if score_local <= score_cloud else cloud


def settle_slot(ledger: EnergyLedger, energy_spent: float) -> EnergyLedger:
    """Advance the deficit queue by one slot: Q <- max(0, Q + spent - budget)."""
    if energy_spent < 0:
        raise ValueError("energy spent in a slot cannot be negative")
    ledger.deficit = max(0.0, ledger.deficit + energy_spent - ledger.budget_per_slot)
    return ledger
