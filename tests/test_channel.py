from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.channel import ChannelParams, snr_db, snr_table
from vecsim.clustering import rank_cell

PARAMS = ChannelParams()   # 23 dBm tx, 47.86 dB at 1 m, exponent 2, -95 dBm noise


def test_snr_at_reference_distance_is_the_link_budget():
    snr = snr_db((0.0, 0.0), (1.0, 0.0), PARAMS)
    assert snr == pytest.approx(23.0 - 47.86 + 95.0)


def test_doubling_distance_costs_six_db_at_exponent_two():
    near = snr_db((0.0, 0.0), (10.0, 0.0), PARAMS)
    far = snr_db((0.0, 0.0), (20.0, 0.0), PARAMS)
    assert near - far == pytest.approx(10.0 * 2.0 * math.log10(2.0))


def test_distances_below_the_reference_clamp_to_it():
    at_ref = snr_db((0.0, 0.0), (1.0, 0.0), PARAMS)
    closer = snr_db((0.0, 0.0), (0.05, 0.0), PARAMS)
    on_top = snr_db((0.0, 0.0), (0.0, 0.0), PARAMS)
    assert closer == at_ref
    assert on_top == at_ref


def test_pathloss_exponent_scales_the_slope():
    steep = ChannelParams(pathloss_exp=3.5)
    near = snr_db((0.0, 0.0), (10.0, 0.0), steep)
    far = snr_db((0.0, 0.0), (100.0, 0.0), steep)
    assert near - far == pytest.approx(35.0)


def _snr_row(positions):
    return {ap: snr_db((0.0, 0.0), xy, PARAMS) for ap, xy in positions.items()}


def test_rank_cell_thresholds_and_sorts_a_channel_row_by_snr():
    positions = {0: (1.0, 0.0), 1: (100.0, 0.0), 2: (10.0, 0.0)}
    row = _snr_row(positions)
    members, head = rank_cell(row, threshold_db=40.0, k_cluster=3)
    assert members == (0, 2)
    assert head == 0
    assert row[0] == pytest.approx(70.14)
    assert row[2] == pytest.approx(70.14 - 20.0)
    assert row[1] < 40.0


def test_rank_cell_tie_breaks_on_ap_id():
    positions = {5: (10.0, 0.0), 2: (-10.0, 0.0)}
    assert rank_cell(_snr_row(positions), threshold_db=0.0, k_cluster=2) == ((2, 5), 2)


def test_out_of_coverage_gives_no_members():
    positions = {0: (1e6, 0.0)}
    assert rank_cell(_snr_row(positions), threshold_db=20.0, k_cluster=2) == ((), 0)


def _scalar_snr_db(vehicle_xy, ap_xy, params):
    """The link budget one pair at a time, every constant read per pair."""
    d = math.hypot(vehicle_xy[0] - ap_xy[0], vehicle_xy[1] - ap_xy[1])
    d = max(d, params.ref_distance_m)
    path_loss = params.pl0_db + 10.0 * params.pathloss_exp * math.log10(d / params.ref_distance_m)
    return params.tx_power_dbm - path_loss - params.noise_dbm


_COORD = st.floats(-1e5, 1e5) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@st.composite
def _layout(draw):
    """Points and APs that coincide, sit below and at the reference distance, or anywhere."""
    d0 = draw(st.sampled_from([1.0, 0.5, 10.0]) | st.floats(1e-3, 1e3))
    params = ChannelParams(
        tx_power_dbm=draw(st.floats(-50.0, 50.0)),
        pl0_db=draw(st.floats(0.0, 100.0)),
        pathloss_exp=draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 6.0)),
        ref_distance_m=d0,
        noise_dbm=draw(st.floats(-150.0, 0.0)),
    )
    points = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=6))
    offsets = st.sampled_from([(0.0, 0.0), (d0, 0.0), (0.0, -d0), (d0 / 2, 0.0), (-d0 / 3, d0 / 3)])
    aps = draw(st.lists(
        st.tuples(st.sampled_from(points), offsets).map(lambda po: (po[0][0] + po[1][0], po[0][1] + po[1][1]))
        | st.tuples(_COORD, _COORD),
        min_size=1, max_size=6,
    ))
    return points, aps, params


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_layout())
def test_the_snr_table_is_the_scalar_formula_bit_for_bit(layout):
    points, aps, params = layout
    table = snr_table(points, dict(enumerate(aps)), params)
    assert len(table) == len(points)
    for point, row in zip(points, table):
        want = [_scalar_snr_db(point, ap, params).hex() for ap in aps]
        assert [row[i].hex() for i in range(len(aps))] == want
        assert [snr_db(point, ap, params).hex() for ap in aps] == want
