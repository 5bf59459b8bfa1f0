"""Contention, MUD, relay decoding, selection combining, and the replica bandit."""

from __future__ import annotations

import math

import pytest

from vecsim.channel import SignalQuality
from vecsim.mac import (
    BanditState,
    BlerCurve,
    CtuPool,
    CtuSelection,
    UplinkPacket,
    bandit_select_and_update,
    combine,
    decode_path,
    detect_collisions,
    effective_snr_db,
    mud_resolve,
    select_ctus,
)
from vecsim.rng import RngStream


def test_pool_size_is_the_grid_product():
    assert CtuPool(slots_per_frame=2, freq_blocks=8, sequences=3).size == 48


def test_selection_rejects_duplicates_and_ragged_lists():
    with pytest.raises(ValueError, match="duplicate CTU"):
        CtuSelection(vehicle_id=0, ctus=(3, 3), target_aps=(0, 1))
    with pytest.raises(ValueError, match="parallel"):
        CtuSelection(vehicle_id=0, ctus=(1, 2), target_aps=(0,))


def test_select_ctus_random_policy_shape():
    pool = CtuPool(freq_blocks=8)
    rng = RngStream(7, "mac/0")
    sel = select_ctus(0, candidates=[4, 9], replicas=3, pool=pool, rng=rng)
    assert len(sel.ctus) == 3
    assert sel.ctus == tuple(sorted(sel.ctus))
    assert all(0 <= c < pool.size for c in sel.ctus)
    # round-robin over the descending-SNR candidate list
    assert sel.target_aps == (4, 9, 4)


def test_select_ctus_validation():
    pool = CtuPool(freq_blocks=4)
    rng = RngStream(7, "mac/0")
    with pytest.raises(ValueError, match="replicas"):
        select_ctus(0, [1], replicas=0, pool=pool, rng=rng)
    with pytest.raises(ValueError, match="exceed pool size"):
        select_ctus(0, [1], replicas=5, pool=pool, rng=rng)
    with pytest.raises(ValueError, match="nonempty"):
        select_ctus(0, [], replicas=1, pool=pool, rng=rng)


def test_select_ctus_preconfigured_policy():
    pool = CtuPool(freq_blocks=4)
    rng = RngStream(7, "mac/0")
    table = {3: [(0, 9), (2, 4)]}
    sel = select_ctus(3, [9, 4], replicas=2, pool=pool, rng=rng, policy="preconfigured", preconfigured=table)
    assert sel.ctus == (0, 2)
    assert sel.target_aps == (9, 4)
    with pytest.raises(ValueError, match="no preconfigured CTU mapping"):
        select_ctus(5, [9], replicas=1, pool=pool, rng=rng, policy="preconfigured", preconfigured=table)


def test_detect_collisions_builds_the_exact_occupancy_multimap():
    sels = [
        CtuSelection(vehicle_id=0, ctus=(1, 4), target_aps=(0, 0)),
        CtuSelection(vehicle_id=1, ctus=(4,), target_aps=(0,)),
        CtuSelection(vehicle_id=2, ctus=(2, 4), target_aps=(1, 1)),
    ]
    assert detect_collisions(sels) == {1: [0], 4: [0, 1, 2], 2: [2]}
    assert detect_collisions([]) == {}


def test_mud_capacity_threshold_is_all_or_none():
    assert mud_resolve([4], k_max=2) is True
    assert mud_resolve([4, 7], k_max=2) is True
    assert mud_resolve([4, 7, 9], k_max=2) is False
    with pytest.raises(ValueError):
        mud_resolve([], k_max=2)
    with pytest.raises(ValueError):
        mud_resolve([1], k_max=0)


def test_effective_snr_formulas():
    # AF: s*r/(s+r+1) in linear units; equal 10 dB hops give 100/21
    assert effective_snr_db(10.0, 10.0, "AF") == pytest.approx(10.0 * math.log10(100.0 / 21.0))
    # DF: bottleneck hop
    assert effective_snr_db(10.0, 20.0, "DF") == pytest.approx(10.0)
    assert effective_snr_db(20.0, 10.0, "DF") == pytest.approx(10.0)
    with pytest.raises(ValueError):
        effective_snr_db(10.0, 10.0, "af")


def test_af_is_never_better_than_df():
    rng = RngStream(3, "snr")
    for _ in range(100):
        a = rng.random() * 40.0 - 10.0
        b = rng.random() * 40.0 - 10.0
        assert effective_snr_db(a, b, "AF") <= effective_snr_db(a, b, "DF") + 1e-12


def test_bler_curve_midpoint_monotonicity_and_saturation():
    curve = BlerCurve(alpha=1.0, beta_per_payload={128: 5.0})
    assert curve.bler(5.0, 128) == 0.5
    assert curve.bler(6.0, 128) < curve.bler(5.0, 128) < curve.bler(4.0, 128)
    # the exp guard pins the tails exactly
    steep = BlerCurve(alpha=3.0, beta_per_payload={128: 5.0})
    assert steep.bler(40.0, 128) == 0.0
    assert steep.bler(-40.0, 128) == 1.0
    with pytest.raises(ValueError, match="256"):
        curve.bler(5.0, 256)


def test_longer_payloads_need_more_snr():
    curve = BlerCurve(alpha=1.0, beta_per_payload={128: 5.0, 256: 8.0})
    assert curve.bler(6.5, 256) > curve.bler(6.5, 128)


def test_decode_path_at_the_curve_extremes():
    rng = RngStream(0, "decode")
    packet = UplinkPacket(vehicle_id=0, emit_slot=0, payload_bits=128)
    curve = BlerCurve(alpha=3.0, beta_per_payload={128: 5.0})
    strong = SignalQuality(snr_db=60.0)
    weak = SignalQuality(snr_db=-60.0)
    assert all(decode_path(strong, packet, "DF", strong, curve, rng) for _ in range(50))
    assert not any(decode_path(weak, packet, "DF", weak, curve, rng) for _ in range(50))


def test_combine_is_selection_combining():
    assert combine([False, True, False]).combined is True
    assert combine([False, False]).combined is False
    assert combine([]).combined is False
    out = combine([True], resolved_by_mud=True)
    assert out.path_success == (True,)
    assert out.resolved_by_mud is True


def test_bandit_state_validation():
    with pytest.raises(ValueError):
        BanditState(r_max=0)
    with pytest.raises(ValueError):
        BanditState(epsilon=1.5)


def test_bandit_update_is_an_incremental_mean():
    state = BanditState(r_max=2, epsilon=0.0, cost_per_replica=0.05)
    rng = RngStream(1, "bandit")
    bandit_select_and_update(state, combine([True]).combined, 2, rng)
    assert state.pulls[1] == 1
    assert state.estimates[1] == pytest.approx(1.0 - 0.1)
    bandit_select_and_update(state, combine([False]).combined, 2, rng)
    assert state.pulls[1] == 2
    assert state.estimates[1] == pytest.approx((0.9 + (0.0 - 0.1)) / 2)


def test_bandit_first_pick_breaks_ties_toward_fewer_replicas():
    state = BanditState(r_max=4, epsilon=0.0)
    rng = RngStream(1, "bandit")
    assert bandit_select_and_update(state, None, None, rng) == 1


def test_bandit_prefers_the_cheaper_arm_when_both_always_decode():
    # both arms always decode, so the replica cost separates them
    state = BanditState(r_max=2, epsilon=0.1, cost_per_replica=0.05)
    rng = RngStream(1234, "bandit")
    choice = bandit_select_and_update(state, None, None, rng)
    picks: list[int] = []
    for _ in range(500):
        nxt = bandit_select_and_update(state, combine([True]).combined, choice, rng)
        picks.append(nxt)
        choice = nxt
    late = picks[300:]
    assert late.count(1) / len(late) > 0.8
    # deterministic rewards make the estimates exact once pulled
    assert state.estimates[0] == pytest.approx(0.95)
    assert state.estimates[1] == pytest.approx(0.90)
