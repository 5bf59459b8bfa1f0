"""One ranking per cell and disjoint slice carving."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.clustering import allocate_slices, rank_cell

POOL8 = 8


def test_rank_cell_takes_top_k_by_snr_with_id_tiebreak():
    snr_db = {2: 50.0, 0: 60.0, 1: 50.0, 3: 40.0, 4: 5.0}
    assert rank_cell(snr_db, threshold_db=10.0, k_cluster=3) == ((0, 1, 2), 0)


def test_rank_cell_with_fewer_candidates_than_k():
    assert rank_cell({4: 30.0, 5: 9.0}, threshold_db=10.0, k_cluster=3) == ((4,), 4)


def test_rank_cell_with_no_candidate_yields_no_members():
    members, _ = rank_cell({0: 9.0, 1: 2.0}, threshold_db=10.0, k_cluster=2)
    assert members == ()


def test_rank_cell_below_the_threshold_still_yields_a_head():
    # the head ranks with no threshold, AP-id tiebreak included
    assert rank_cell({3: 2.0, 1: 9.0, 0: 9.0}, threshold_db=10.0, k_cluster=2) == ((), 0)


def test_rank_cell_rejects_bad_k():
    with pytest.raises(ValueError):
        rank_cell({0: 10.0}, threshold_db=0.0, k_cluster=0)


def test_allocation_order_and_prefix_assignment():
    out = allocate_slices([(0, 2, 0), (1, 1, 1)], POOL8, demand=3, an_power_budget_w={0: 2.0, 1: 1.0})
    assert out.ctus[0] == range(0, 3)
    assert out.ctus[1] == range(3, 6)
    assert out.power_w[0] == pytest.approx(2.0)
    assert out.power_w[1] == pytest.approx(1.0)


def test_clusters_are_carved_in_ascending_vehicle_id_until_the_pool_runs_out():
    clusters = [(2, 1, 1), (0, 1, 0), (1, 1, 1)]
    out = allocate_slices(clusters, POOL8, demand=3, an_power_budget_w={0: 1.0, 1: 1.0})
    assert list(out.ctus) == [0, 1, 2]
    assert out.ctus[0] == range(0, 3)
    assert out.ctus[1] == range(3, 6)
    assert out.ctus[2] == range(6, 8)


def test_power_is_split_by_the_an_carried_with_each_vehicle():
    # vehicle 1's members might include AN 0's APs, but it is hosted at AN 1
    out = allocate_slices([(0, 1, 0), (1, 2, 1)], POOL8, demand=1, an_power_budget_w={0: 2.0, 1: 4.0})
    assert out.power_w == {0: pytest.approx(2.0), 1: pytest.approx(4.0)}


def test_power_shares_are_proportional_to_member_count_per_an():
    out = allocate_slices([(0, 2, 0), (1, 1, 0)], POOL8, demand=1, an_power_budget_w={0: 3.0})
    assert out.power_w[0] == pytest.approx(2.0)
    assert out.power_w[1] == pytest.approx(1.0)


def test_zero_demand_gets_an_empty_run():
    out = allocate_slices([(0, 1, 0)], POOL8, demand=0, an_power_budget_w={0: 1.0})
    assert len(out.ctus[0]) == 0


@settings(max_examples=200, deadline=None)
@given(
    clusters=st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.sampled_from([0, 1])),
        min_size=1,
        max_size=6,
    ),
    demand=st.integers(min_value=0, max_value=6),
)
def test_runs_are_disjoint_in_the_pool_and_conserve_demand(clusters, demand):
    tuples = [(vid, n, an) for vid, (n, an) in enumerate(clusters)]
    budgets = {0: 2.0, 1: 4.0}
    out = allocate_slices(tuples, POOL8, demand, budgets)

    seen: set[int] = set()
    remaining = POOL8
    for vid in sorted(out.ctus):
        run = out.ctus[vid]
        assert not seen.intersection(run)
        seen.update(run)
        assert all(0 <= c < POOL8 for c in run)
        assert len(run) == min(demand, remaining)
        remaining -= len(run)
    assert len(seen) == min(demand * len(tuples), POOL8)

    # power never exceeds any AN budget
    used = {0: 0.0, 1: 0.0}
    for vid, _, an in tuples:
        used[an] += out.power_w[vid]
    assert used[0] <= budgets[0] + 1e-9
    assert used[1] <= budgets[1] + 1e-9
