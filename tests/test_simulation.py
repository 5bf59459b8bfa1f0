"""End-to-end runs: conservation, determinism, and subsystem isolation."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SCENARIO_DIR, load_bundled, scenario_path
from vecsim import mac
from vecsim.cli import main
from vecsim.config import VehicleSpec
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
            sim.cell_sq[cell][ap], cfg.mac.relay_mode, sim.fronthaul[ap], sim.curve, cfg.mac.payload_bits
        )
    sim.engine.run()
    assert sim.finalize().packets_emitted == 40 * 2


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
