"""Vehicle-centric virtual clusters and non-conflicting resource slices.

Each vehicle is served by the top-k APs it can reach (clusters may overlap
across vehicles) and hosted by one AN, which the caller decides; downlink CTUs
and AN power are then partitioned into pairwise-disjoint slices, one per
cluster: equal CTU runs in ascending vehicle id, and each AN's power in
proportion to member count. Cells and APs never move, so a cluster's members
depend only on the vehicle's cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from vecsim.channel import candidate_aps
from vecsim.mac import CtuPool


@dataclass
class VirtualCluster:
    center_vehicle: int
    members: tuple[int, ...]          # AP ids, descending SNR order
    an: int                           # the AN hosting the vehicle; its power funds the slice


@dataclass
class SliceAssignment:
    """Per-cluster downlink CTU sets and power budgets.

    ctus maps cluster (vehicle) id to a disjoint set of CTU ids; power maps it
    to a wattage within the granting AN's budget. unsatisfied records demand
    that found no free CTUs.
    """

    ctus: dict[int, frozenset[int]]
    power_w: dict[int, float]
    unsatisfied: dict[int, int]

    def validate_disjoint(self) -> None:
        seen: set[int] = set()
        for cid in sorted(self.ctus):
            overlap = seen & self.ctus[cid]
            if overlap:
                raise AssertionError(f"slice for cluster {cid} reuses CTUs {sorted(overlap)}")
            seen |= self.ctus[cid]


def form_cluster(snr_db: dict[int, float], threshold_db: float, k_cluster: int) -> tuple[int, ...]:
    """Cluster members at one position: the first min(k, |candidates|) of
    `channel.candidate_aps`, so descending SNR with AP-id tiebreak.

    `snr_db` maps each AP id to its SNR there. No AP at or above the
    threshold yields no members: a vehicle there is unserved and the caller
    records the loss (open-loop, no retry queue).
    """
    if k_cluster < 1:
        raise ValueError("k_cluster must be >= 1")
    return tuple(ap for ap, _ in candidate_aps(snr_db, threshold_db)[:k_cluster])


def allocate_slices(
    clusters: list[VirtualCluster],
    pool: CtuPool,
    demand: int,
    an_power_budget_w: dict[int, float],
) -> SliceAssignment:
    """Carve `demand` CTUs per cluster in ascending vehicle id.

    Each cluster receives min(demand, remaining) CTUs, disjoint by
    construction, plus a share of its AN's power budget proportional to its
    member count among the clusters that AN hosts.
    """
    order = sorted(clusters, key=lambda c: c.center_vehicle)
    start = 0       # CTUs below it are taken; each cluster carves the next run
    ctus: dict[int, frozenset[int]] = {}
    unsatisfied: dict[int, int] = {}
    for cluster in order:
        take = min(demand, pool.size - start)
        ctus[cluster.center_vehicle] = frozenset(range(start, start + take))
        start += take
        if take < demand:
            unsatisfied[cluster.center_vehicle] = demand - take

    an_members: dict[int, int] = {}
    for cluster in order:
        an_members[cluster.an] = an_members.get(cluster.an, 0) + len(cluster.members)
    power: dict[int, float] = {}
    for cluster in order:
        budget = an_power_budget_w.get(cluster.an, 0.0)
        share = len(cluster.members) / an_members[cluster.an] if an_members[cluster.an] else 0.0
        power[cluster.center_vehicle] = budget * share

    assignment = SliceAssignment(ctus=ctus, power_w=power, unsatisfied=unsatisfied)
    assignment.validate_disjoint()
    return assignment
