"""Vehicle-centric virtual clusters and non-conflicting resource slices.

Cells and APs never move, so each cell is ranked once: its cluster members are
the top-k APs its vehicles can reach (clusters may overlap across cells), and
the caller hosts its vehicles at the AN that owns the ranking's head. Each
slot, downlink CTUs and AN power are partitioned into one slice per covered
vehicle: equal CTU runs carved from one advancing offset in ascending vehicle
id, so pairwise disjoint by construction, and each AN's power in proportion
to member count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(eq=False, repr=False)
class SliceAssignment:
    """Per-vehicle downlink CTU runs and power budgets.

    ctus maps each vehicle id to its run of CTU ids, no two of which overlap;
    power_w maps it to a wattage within its AN's budget.
    """

    ctus: dict[int, range]
    power_w: dict[int, float]


def rank_cell(snr_db: dict[int, float], threshold_db: float, k_cluster: int) -> tuple[tuple[int, ...], int]:
    """(members, head) of one position, from one ranking of its APs by
    descending SNR with AP-id tiebreak; `snr_db` maps each AP id (at least one)
    to its SNR there.

    Members are the first k of the ranking at or above the threshold; with
    none, a vehicle there is unserved and the caller records the loss
    (open-loop, no retry queue). The head is the first AP, with no threshold.
    """
    if k_cluster < 1:
        raise ValueError("k_cluster must be >= 1")
    ranking = sorted([(-snr, ap) for ap, snr in snr_db.items()])
    members = tuple([ap for neg_snr, ap in ranking[:k_cluster] if -neg_snr >= threshold_db])
    return members, ranking[0][1]


def allocate_slices(
    clusters: list[tuple[int, int, int]],
    pool_size: int,
    demand: int,
    an_power_budget_w: dict[int, float],
) -> SliceAssignment:
    """Carve `demand` CTUs per (vehicle id, member count, AN) in ascending
    vehicle id.

    Each vehicle receives the next min(demand, remaining) CTUs of the pool,
    plus a share of its AN's power budget proportional to its member count
    (at least one) among the vehicles that AN hosts.
    """
    order = sorted(clusters)
    an_members: dict[int, int] = {}
    for _, n, an in order:
        an_members[an] = an_members.get(an, 0) + n
    ctus: dict[int, range] = {}
    power: dict[int, float] = {}
    start = 0       # CTUs below it are taken; each vehicle carves the next run
    for vid, n, an in order:
        stop = min(start + demand, pool_size)
        ctus[vid] = range(start, stop)
        start = stop
        power[vid] = an_power_budget_w[an] * (n / an_members[an])
    return SliceAssignment(ctus=ctus, power_w=power)
