"""End-to-end runs: conservation, determinism, and subsystem isolation."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, load_bundled, scenario_path
from vecsim import cipher, mac
from vecsim.cli import main
from vecsim.channel import SignalQuality, signal_quality
from vecsim.config import ApSpec, ConfigError, VehicleSpec
from vecsim.mobility import line_graph
from vecsim.rng import RngStream
from vecsim.simulation import Simulation, run_scenario


def _written(report, out) -> dict[str, bytes]:
    return {name: path.read_bytes() for name, path in report.write(out).items()}


def test_one_packet_record_per_vehicle_per_slot(tmp_path):
    cfg = load_bundled("smoke", horizon=60)
    report = run_scenario(cfg)
    n_vehicles = len(cfg.vehicles)
    assert report.packets_emitted == 60 * n_vehicles
    with report.write(tmp_path)["packets"].open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60 * n_vehicles
    seen = {(row["vehicle_id"], row["emit_slot"]) for row in rows}
    assert len(seen) == 60 * n_vehicles


def test_identical_configs_produce_identical_reports(tmp_path):
    a = run_scenario(load_bundled("smoke", horizon=50))
    b = run_scenario(load_bundled("smoke", horizon=50))
    assert _written(a, tmp_path / "a") == _written(b, tmp_path / "b")
    assert a.aggregates() == b.aggregates()


def test_different_seeds_diverge():
    # smoke SNRs saturate the uplink, so divergence shows up in the
    # downlink, edge and prediction sections rather than the packet log
    a = run_scenario(load_bundled("smoke", horizon=50, seed=1))
    b = run_scenario(load_bundled("smoke", horizon=50, seed=2))
    assert (a.downlink, a.edge, a.prediction) != (b.downlink, b.edge, b.prediction)


def test_cipher_toggle_never_shifts_the_data_plane(tmp_path):
    # entity-scoped rng streams: switching one subsystem off must not
    # perturb draws anywhere else
    on = run_scenario(load_bundled("smoke", horizon=60))
    off = run_scenario(load_bundled("smoke", horizon=60, cipher__enabled=False))
    assert _written(on, tmp_path / "on")["packets"] == _written(off, tmp_path / "off")["packets"]
    agg_on, agg_off = on.aggregates(), off.aggregates()
    for section in ("packets", "prediction", "downlink", "bandit", "slices", "energy"):
        assert agg_on[section] == agg_off[section]
    assert agg_on["cipher"] != agg_off["cipher"]


def test_edge_toggle_never_shifts_the_data_plane(tmp_path):
    on = run_scenario(load_bundled("smoke", horizon=60))
    off = run_scenario(load_bundled("smoke", horizon=60, edge_compute__enabled=False))
    assert _written(on, tmp_path / "on")["packets"] == _written(off, tmp_path / "off")["packets"]
    assert on.aggregates()["prediction"] == off.aggregates()["prediction"]


def test_report_sections_are_complete_and_typed():
    agg = run_scenario(load_bundled("smoke", horizon=40)).aggregates()
    for section in ("packets", "energy", "downlink", "prediction", "control",
                    "edge", "cipher", "slices", "bandit"):
        assert section in agg
    assert agg["slices"]["overlaps"] == 0
    assert agg["edge"]["tasks"] == agg["edge"]["local"] + agg["edge"]["cloud"]
    # session keys stay out of the report; the cipher section is all counters
    assert all(isinstance(v, (int, float)) for v in agg["cipher"].values())


def test_degenerate_scenario_delivers_everything_in_one_slot():
    report = run_scenario(load_bundled("degenerate"))
    agg = report.aggregates()
    assert agg["packets"]["success_rate"] == 1.0
    assert agg["packets"]["latency_p99_slots"] == 1.0


def test_velocity_schedule_switches_the_class_at_its_slot():
    cfg = load_bundled("smoke", horizon=30)
    cfg.mobility.rows["crawl"] = {c: {c: 1.0} for c in cfg.road.cells}
    cfg.velocity_schedule = [(10, 0, "crawl")]
    sim = Simulation(cfg)
    sim.engine.run()
    assert sim.vehicles[0].mobility.velocity_class == "crawl"
    assert sim.vehicles[1].mobility.velocity_class == "default"


def test_control_checkpoints_appear_each_period():
    cfg = load_bundled("smoke", horizon=100)
    report = run_scenario(cfg)
    checkpoints = report.control["checkpoints"]
    assert [c["slot"] for c in checkpoints] == [0, 50]
    for c in checkpoints:
        assert c["controllers"]
        assert c["sync_rounds"] >= 0


def test_downlink_energy_matches_power_times_slot():
    cfg = load_bundled("degenerate", horizon=200)
    report = run_scenario(cfg)
    agg = report.aggregates()
    attempts = agg["downlink"]["attempts"]
    assert attempts > 0
    mean_power = agg["downlink"]["mean_power_w"]
    expected = mean_power * cfg.slot_duration * attempts
    assert agg["downlink"]["energy_j"] == pytest.approx(expected)


def test_a_config_built_in_python_is_validated_by_the_simulation():
    cfg = load_bundled("smoke")
    cfg.horizon = 0
    cfg.edge_compute.cloud_rate = 0.5
    with pytest.raises(ConfigError) as exc:
        Simulation(cfg)
    assert exc.value.errors == ["horizon: must be >= 1, got 0", "edge_compute.cloud_rate: must be >= 1, got 0.5"]


@pytest.mark.parametrize("vehicles", [2, 50])
def test_set_up_builds_a_fixed_number_of_streams_whatever_the_fleet(monkeypatch, vehicles):
    # per-vehicle streams (and master keys) come into being when first used
    cfg = load_bundled("smoke")
    cfg.vehicles = [VehicleSpec(v, v % len(cfg.road.cells)) for v in range(vehicles)]
    built = []
    init = RngStream.__init__
    monkeypatch.setattr(RngStream, "__init__", lambda self, *args: built.append(args[1]) or init(self, *args))
    Simulation(cfg)
    assert built == ["root"]


def test_the_path_failure_table_holds_every_ap_a_selection_can_aim_at():
    # relay decoding looks up (cell, AP) for each AP a selection aims at, and
    # preconfigured pairs may aim outside the cell's cluster
    cfg = load_bundled("smoke", horizon=40)
    cfg.mac.ctu_policy = "preconfigured"
    cfg.mac.preconfigured = {0: [(0, 0), (1, 2)], 1: [(2, 2)]}
    sim = Simulation(cfg)
    assert set(sim.path_failure) == {(cell, ap) for cell in sim.cells for ap in {*sim.cell_members[cell], 0, 2}}
    assert any(2 not in members for members in sim.cell_members.values())
    for (cell, ap), p_fail in sim.path_failure.items():
        assert p_fail == mac.path_failure_prob(
            SignalQuality(sim.cell_snr[cell][ap]), cfg.mac.relay_mode, sim.fronthaul[ap], sim.curve, cfg.mac.payload_bits
        )
    sim.engine.run()
    assert sim.finalize().packets_emitted == 40 * 2


# AP positions on a coarse grid, mirrored about the road (y = +-20), so many
# APs share a cell's SNR exactly and only the AP-id tiebreak orders them.
_AP_SPOT = st.tuples(st.integers(0, 16).map(lambda i: 25.0 * i), st.sampled_from([-20.0, 20.0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    spots=st.lists(_AP_SPOT, min_size=1, max_size=8),
    listing=st.randoms(use_true_random=False),
    threshold=st.floats(0.0, 80.0),
    k=st.integers(1, 6),
    floor=st.floats(0.0, 0.3),
    ceiling=st.floats(0.7, 1.0),
)
def test_cell_members_and_likelihoods_match_a_brute_force_top_k(spots, listing, threshold, k, floor, ceiling):
    # AP ids are multiples of 3, listed in a shuffled order, so an AP id never
    # doubles as its likelihood column and the input order never ranks APs
    ids = [3 * i for i in range(len(spots))]
    listing.shuffle(ids)
    cfg = load_bundled("smoke")
    cfg.aps = [ApSpec(ap, x, y, an_id=ap % 2) for ap, (x, y) in zip(ids, spots)]
    cfg.snr_threshold_db = threshold
    cfg.cluster.k_cluster = k
    cfg.predictor.obs_floor, cfg.predictor.obs_ceiling = floor, ceiling
    sim = Simulation(cfg)
    column = {ap: i for i, ap in enumerate(sorted(ids))}
    lk = sim.obs_model.likelihood
    assert lk.shape == (len(cfg.road.cells), len(ids))
    for i, cell in enumerate(sorted(cfg.road.cells)):
        snr = {a.ap_id: signal_quality(cfg.road.centers[cell], (a.x, a.y), cfg.channel).snr_db for a in cfg.aps}
        ranked = sorted(snr, key=lambda ap: (-snr[ap], ap))
        members = tuple(ap for ap in ranked if snr[ap] >= threshold)[:k]
        assert sim.cell_members[cell] == members
        for ap in ids:
            want = floor
            if ap in members:
                p_fail = mac.path_failure_prob(
                    SignalQuality(snr[ap]), cfg.mac.relay_mode, SignalQuality(30.0), sim.curve, cfg.mac.payload_bits
                )
                want = min(max(1.0 - p_fail, floor), ceiling)
            assert lk[i, column[ap]] == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    spots=st.lists(_AP_SPOT, min_size=1, max_size=8),
    owners=st.lists(st.integers(0, 1), min_size=8, max_size=8),
    listing=st.randoms(use_true_random=False),
    threshold=st.floats(0.0, 80.0),
)
def test_each_cell_is_hosted_by_the_owner_of_its_strongest_ap(spots, owners, listing, threshold):
    # non-contiguous AP ids, listed in a shuffled order and owned at random,
    # so tied APs on the grid often belong to different ANs
    ids = [3 * i + 1 for i in range(len(spots))]
    listing.shuffle(ids)
    cfg = load_bundled("smoke")
    cfg.aps = [ApSpec(ap, x, y, an_id=an) for ap, (x, y), an in zip(ids, spots, owners)]
    cfg.snr_threshold_db = threshold
    sim = Simulation(cfg)
    for cell in cfg.road.cells:
        best = None
        for a in cfg.aps:
            snr = signal_quality(cfg.road.centers[cell], (a.x, a.y), cfg.channel).snr_db
            if best is None or snr > best[0] or (snr == best[0] and a.ap_id < best[1]):
                best = (snr, a.ap_id, a.an_id)
        assert sim.cell_an[cell] == best[2]
        if sim.cell_members[cell]:
            assert sim.cell_an[cell] == sim.ap_owner[sim.cell_members[cell][0]]


def test_a_vehicle_in_a_coverage_gap_is_hosted_by_the_an_nearest_its_cell(tmp_path):
    # ten cells 100 m apart, AP 0 (AN 0) over cell 0 and AP 1 (AN 1) over cell
    # 9; at 28 dB only cells 0-1 and 8-9 are covered. The vehicle advances one
    # cell per slot from cell 0, so slot t finds it in cell t + 1.
    cfg = load_bundled("smoke", horizon=7, snr_threshold_db=28.0, edge_compute__task_arrival_prob=1.0)
    cfg.road, cfg.mobility = line_graph(10, spacing_m=100.0, forward_prob=1.0)
    cfg.aps = [ApSpec(0, 0.0, 10.0, an_id=0), ApSpec(1, 900.0, 10.0, an_id=1)]
    cfg.vehicles = [VehicleSpec(0, 0)]
    sim = Simulation(cfg)
    assert [cell for cell in sorted(sim.cell_members) if sim.cell_members[cell]] == [0, 1, 8, 9]
    sessions = []
    for _ in range(cfg.horizon):
        sim.engine.advance_slot()
        sessions.append(sim.vehicles[0].session_an_id)
    report = sim.finalize()
    # cells 2-4 lie nearer AP 0 and cells 5-7, the gap's far half, nearer AP 1
    assert sessions == [0, 0, 0, 0, 1, 1, 1]
    assert report.cipher["sessions"] == 2
    assert report.cipher["messages"] == cfg.horizon
    rows = {name: list(csv.DictReader(text.decode().splitlines())) for name, text in _written(report, tmp_path).items()}
    offloads = [row for row in rows["decisions"] if row["kind"] == "offload"]
    assert [(row["slot"], row["an_id"]) for row in offloads] == [(str(t), str(an)) for t, an in enumerate(sessions)]
    # coverage still gates the radio: no packet in the gap, and no downlink
    assert [row["paths"] for row in rows["packets"]] == ["1", "0", "0", "0", "0", "0", "0"]
    assert [row["replicas"] for row in rows["packets"]] == ["2", "0", "0", "0", "0", "0", "0"]
    assert report.bandit["replica_histogram"] == {"2": 1}
    assert report.downlink["attempts"] == 1


def _gap_road_with_bandit(horizon: int):
    # the ten-cell road above: slots 0 and 7-9 are covered, slots 1-6 are not
    cfg = load_bundled("smoke", horizon=horizon, snr_threshold_db=28.0, bandit__enabled=True)
    cfg.road, cfg.mobility = line_graph(10, spacing_m=100.0, forward_prob=1.0)
    cfg.aps = [ApSpec(0, 0.0, 10.0, an_id=0), ApSpec(1, 900.0, 10.0, an_id=1)]
    cfg.vehicles = [VehicleSpec(0, 0)]
    return cfg


def test_the_bandit_draws_and_learns_only_in_slots_that_send(tmp_path):
    sim = Simulation(_gap_road_with_bandit(10))
    bandit = sim.vehicles[0].bandit
    pulls, estimates = [], []
    for _ in range(10):
        sim.engine.advance_slot()
        pulls.append(sum(bandit.pulls))
        estimates.append(list(bandit.estimates))
    report = sim.finalize()
    rows = list(csv.DictReader(_written(report, tmp_path)["packets"].decode().splitlines()))
    # slot 7 learns from slot 0's packet, the last one sent before the gap
    assert pulls == [0, 0, 0, 0, 0, 0, 0, 1, 2, 3]
    first = int(rows[0]["replicas"])
    reward = int(rows[0]["delivered"]) - bandit.cost_per_replica * first
    assert estimates[7] == [reward if arm == first - 1 else 0.0 for arm in range(bandit.r_max)]
    sent = [int(row["replicas"]) for row in rows if row["paths"] != "0"]
    assert len(sent) == 4 and all(1 <= r <= 4 for r in sent)
    assert [row["replicas"] for row in rows if row["paths"] == "0"] == ["0"] * 6
    histogram = report.bandit["replica_histogram"]
    assert histogram == {str(r): sent.count(r) for r in set(sent)}


def test_a_preconfigured_packet_records_the_ctus_of_its_pair_list(tmp_path):
    pairs = {"0": [[0, 0]], "1": [[1, 0], [2, 1], [3, 2]]}
    report = run_scenario(load_bundled("smoke", horizon=20, mac__ctu_policy="preconfigured",
                                       mac__preconfigured=pairs))
    rows = list(csv.DictReader(_written(report, tmp_path)["packets"].decode().splitlines()))
    sent = {vid: len(p) for vid, p in pairs.items()}
    assert all(row["replicas"] == str(sent[row["vehicle_id"]]) for row in rows if row["paths"] != "0")
    assert report.bandit["replica_histogram"] == {
        str(n): sum(row["paths"] != "0" for row in rows if sent[row["vehicle_id"]] == n) for n in (1, 3)
    }


def test_zero_popularities_set_up_and_run_with_edge_compute_off():
    # validation requires a positive popularity only when edge compute is on
    cfg = load_bundled("smoke", horizon=5, edge_compute__enabled=False)
    cfg.edge_compute.services = [replace(s, popularity=0.0) for s in cfg.edge_compute.services]
    sim = Simulation(cfg)
    sim.engine.run()
    assert sim.finalize().edge["tasks"] == 0


def test_every_cipher_exchange_starts_from_equal_endpoint_states(tmp_path, monkeypatch, capsys):
    # over the noisy AN views of override set (a) and golden set (h), where
    # exchanges are rejected and sessions resync, are compromised and restart
    from test_golden import OVERRIDE_SETS, _noisy_view_scenario

    exchange = cipher.exchange
    calls = []

    def spy(vehicle, vehicle_fp, an, an_fp, message, n_bits):
        calls.append((vehicle == an, an_fp is vehicle_fp))
        return exchange(vehicle, vehicle_fp, an, an_fp, message, n_bits)

    monkeypatch.setattr(cipher, "exchange", spy)
    runs = {
        "a": [str(scenario_path("smoke")), *(a for o in OVERRIDE_SETS["a"] for a in ("--override", o))],
        "h": [str(_noisy_view_scenario(tmp_path))],
    }
    for name, run in runs.items():
        calls.clear()
        assert main(["run", *run, "--out", str(tmp_path / name)]) == 0
        assert calls and all(equal for equal, _ in calls)
        assert not all(shared for _, shared in calls)     # some windows differ: the full path
    capsys.readouterr()


def test_a_run_with_forced_placements_never_imports_networkx(tmp_path):
    code = (
        "import sys\n"
        "from vecsim import cli\n"
        f"assert cli.main(['run', {str(scenario_path('smoke'))!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('networkx' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_every_run_leaves_the_same_bytes_where_networkx_cannot_be_imported(tmp_path, capsys):
    # bundled scenarios, and smoke.json where placements split vehicles
    # between controllers (override sets (e) and (f)): a run needs no networkx
    from test_golden import FILES, OVERRIDE_SETS

    runs = [[str(path)] for path in sorted(SCENARIO_DIR.glob("*.json"))]
    runs += [[str(scenario_path("smoke")), *(a for o in OVERRIDE_SETS[k] for a in ("--override", o))] for k in "ef"]
    argvs = {side: [["run", *run, "--out", str(tmp_path / side / str(i))] for i, run in enumerate(runs)]
             for side in ("blocked", "here")}
    code = (
        "import json, sys\n"
        "sys.modules['networkx'] = None\n"
        "from vecsim import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs['blocked']!r}]\n"
        "print(json.dumps(codes))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(runs)
    assert [main(argv) for argv in argvs["here"]] == [0] * len(runs)
    capsys.readouterr()
    for blocked, here in zip(argvs["blocked"], argvs["here"]):
        for name in FILES:
            assert Path(blocked[-1], name).read_bytes() == Path(here[-1], name).read_bytes()
