from __future__ import annotations

import math

import pytest

from vecsim.channel import ChannelParams, snr_db
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
