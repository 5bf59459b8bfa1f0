"""Cluster formation and disjoint slice carving."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.clustering import VirtualCluster, allocate_slices, form_cluster
from vecsim.mac import CtuPool

POOL8 = CtuPool(slots_per_frame=1, freq_blocks=8, sequences=1)
OWNER = {0: 0, 1: 0, 2: 1, 3: 1}


def test_form_cluster_takes_top_k_by_snr_with_id_tiebreak():
    snr_db = {2: 50.0, 0: 60.0, 1: 50.0, 3: 40.0, 4: 5.0}
    assert form_cluster(snr_db, threshold_db=10.0, k_cluster=3) == (0, 1, 2)


def test_form_cluster_with_fewer_candidates_than_k():
    assert form_cluster({4: 30.0, 5: 9.0}, threshold_db=10.0, k_cluster=3) == (4,)


def test_form_cluster_empty_candidates_yield_an_empty_cluster():
    assert form_cluster({0: 9.0, 1: 2.0}, threshold_db=10.0, k_cluster=2) == ()
    assert form_cluster({}, threshold_db=10.0, k_cluster=2) == ()


def test_form_cluster_rejects_bad_k():
    with pytest.raises(ValueError):
        form_cluster({0: 10.0}, threshold_db=0.0, k_cluster=0)


def _cluster(vid: int, members: tuple[int, ...]) -> VirtualCluster:
    an = OWNER[members[0]] if members else 0
    return VirtualCluster(center_vehicle=vid, members=members, an=an)


def test_allocation_order_and_prefix_assignment():
    clusters = [_cluster(0, (0, 1)), _cluster(1, (2,))]
    out = allocate_slices(clusters, POOL8, demand=3, an_power_budget_w={0: 2.0, 1: 1.0})
    assert out.ctus[0] == frozenset({0, 1, 2})
    assert out.ctus[1] == frozenset({3, 4, 5})
    assert out.unsatisfied == {}
    assert out.power_w[0] == pytest.approx(2.0)
    assert out.power_w[1] == pytest.approx(1.0)


def test_clusters_are_carved_in_ascending_vehicle_id_until_the_pool_runs_out():
    clusters = [_cluster(2, (3,)), _cluster(0, (0,)), _cluster(1, (2,))]
    out = allocate_slices(clusters, POOL8, demand=3, an_power_budget_w={0: 1.0, 1: 1.0})
    assert out.ctus[0] == frozenset({0, 1, 2})
    assert out.ctus[1] == frozenset({3, 4, 5})
    assert out.ctus[2] == frozenset({6, 7})
    assert out.unsatisfied == {2: 1}


def test_power_is_split_by_the_cluster_an_not_by_its_first_member():
    # vehicle 1's best AP belongs to AN 0, but the caller hosts it at AN 1
    clusters = [_cluster(0, (0,)), VirtualCluster(center_vehicle=1, members=(1, 2), an=1)]
    out = allocate_slices(clusters, POOL8, demand=1, an_power_budget_w={0: 2.0, 1: 4.0})
    assert out.power_w == {0: pytest.approx(2.0), 1: pytest.approx(4.0)}


def test_power_shares_are_proportional_to_member_count_per_an():
    clusters = [_cluster(0, (0, 1)), _cluster(1, (0,))]
    out = allocate_slices(clusters, POOL8, demand=1, an_power_budget_w={0: 3.0})
    assert out.power_w[0] == pytest.approx(2.0)
    assert out.power_w[1] == pytest.approx(1.0)


def test_zero_demand_gets_an_empty_slice():
    out = allocate_slices([_cluster(0, (0,))], POOL8, demand=0, an_power_budget_w={0: 1.0})
    assert out.ctus[0] == frozenset()
    assert out.unsatisfied == {}


def test_validate_disjoint_catches_a_forged_overlap():
    from vecsim.clustering import SliceAssignment

    bad = SliceAssignment(
        ctus={0: frozenset({1, 2}), 1: frozenset({2, 3})},
        power_w={0: 1.0, 1: 1.0},
        unsatisfied={},
    )
    with pytest.raises(AssertionError, match="reuses CTUs"):
        bad.validate_disjoint()


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(
        st.sets(st.integers(min_value=0, max_value=3), min_size=0, max_size=4),
        min_size=1,
        max_size=4,
    ),
    demand=st.integers(min_value=0, max_value=6),
)
def test_slices_are_always_disjoint_and_conserve_demand(members, demand):
    clusters = [_cluster(vid, tuple(sorted(m))) for vid, m in enumerate(members)]
    out = allocate_slices(clusters, POOL8, demand, an_power_budget_w={0: 2.0, 1: 4.0})

    seen: set[int] = set()
    for cid, ctuset in out.ctus.items():
        assert not (seen & ctuset)
        seen |= ctuset
        assert all(0 <= c < POOL8.size for c in ctuset)
        got = len(ctuset) + out.unsatisfied.get(cid, 0)
        assert got == demand
    assert len(seen) <= POOL8.size

    # power never exceeds any AN budget
    budget_used = {0: 0.0, 1: 0.0}
    for c in clusters:
        budget_used[c.an] += out.power_w[c.center_vehicle]
    assert budget_used[0] <= 2.0 + 1e-9
    assert budget_used[1] <= 4.0 + 1e-9
