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
    return VirtualCluster(center_vehicle=vid, members=members)


def test_allocation_order_and_prefix_assignment():
    clusters = [_cluster(0, (0, 1)), _cluster(1, (2,))]
    out = allocate_slices(
        clusters, POOL8, demands={0: 3, 1: 3},
        an_power_budget_w={0: 2.0, 1: 1.0}, ap_owner=OWNER,
    )
    assert out.ctus[0] == frozenset({0, 1, 2})
    assert out.ctus[1] == frozenset({3, 4, 5})
    assert out.unsatisfied == {}
    assert out.power_w[0] == pytest.approx(2.0)
    assert out.power_w[1] == pytest.approx(1.0)


def test_higher_demand_is_served_first_with_id_tiebreak():
    clusters = [_cluster(0, (0,)), _cluster(1, (2,)), _cluster(2, (3,))]
    out = allocate_slices(
        clusters, POOL8, demands={0: 2, 1: 5, 2: 2},
        an_power_budget_w={0: 1.0, 1: 1.0}, ap_owner=OWNER,
    )
    assert out.ctus[1] == frozenset({0, 1, 2, 3, 4})
    assert out.ctus[0] == frozenset({5, 6})     # id 0 before id 2 at equal demand
    assert out.ctus[2] == frozenset({7})
    assert out.unsatisfied == {2: 1}


def test_power_shares_are_proportional_to_member_count_per_an():
    clusters = [_cluster(0, (0, 1)), _cluster(1, (0,))]
    out = allocate_slices(
        clusters, POOL8, demands={0: 1, 1: 1},
        an_power_budget_w={0: 3.0}, ap_owner=OWNER,
    )
    assert out.power_w[0] == pytest.approx(2.0)
    assert out.power_w[1] == pytest.approx(1.0)


def test_empty_clusters_are_skipped():
    clusters = [_cluster(0, ()), _cluster(1, (2,))]
    out = allocate_slices(
        clusters, POOL8, demands={0: 4, 1: 2},
        an_power_budget_w={0: 1.0, 1: 1.0}, ap_owner=OWNER,
    )
    assert 0 not in out.ctus
    assert out.ctus[1] == frozenset({0, 1})


def test_zero_demand_gets_an_empty_slice():
    out = allocate_slices(
        [_cluster(0, (0,))], POOL8, demands={0: 0},
        an_power_budget_w={0: 1.0}, ap_owner=OWNER,
    )
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
    demands=st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
)
def test_slices_are_always_disjoint_and_conserve_demand(members, demands):
    clusters = [_cluster(vid, tuple(sorted(m))) for vid, m in enumerate(members)]
    demand_map = {vid: demands[vid] for vid in range(len(clusters))}
    out = allocate_slices(
        clusters, POOL8, demand_map,
        an_power_budget_w={0: 2.0, 1: 4.0}, ap_owner=OWNER,
    )

    seen: set[int] = set()
    for cid, ctuset in out.ctus.items():
        assert not (seen & ctuset)
        seen |= ctuset
        assert all(0 <= c < POOL8.size for c in ctuset)
        got = len(ctuset) + out.unsatisfied.get(cid, 0)
        assert got == demand_map[cid]
    assert len(seen) <= POOL8.size

    # power never exceeds any AN budget
    budget_used = {0: 0.0, 1: 0.0}
    for cid, watts in out.power_w.items():
        an = OWNER[[c for c in clusters if c.center_vehicle == cid][0].members[0]]
        budget_used[an] += watts
    assert budget_used[0] <= 2.0 + 1e-9
    assert budget_used[1] <= 4.0 + 1e-9
