"""Command-line contract: exit codes, file schema, determinism, sweep, compare."""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scenario_path
from vecsim.cli import main


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_run_writes_the_three_output_files(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout = _run(
        capsys, "run", str(scenario_path("degenerate")), "--out", str(out),
        "--override", "horizon=50",
    )
    assert code == 0
    status = json.loads(stdout)
    assert status["status"] == "ok"
    assert (out / "packets.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "decisions.csv").exists()

    with (out / "packets.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["vehicle_id", "emit_slot", "delivered", "latency_slots", "replicas", "paths"]
    assert len(rows) == 1 + 50                    # one record per vehicle per slot
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["horizon"] == 50
    assert summary["packets"]["emitted"] == 50


def test_run_is_byte_deterministic(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code, _ = _run(
            capsys, "run", str(scenario_path("smoke")), "--out", str(out),
            "--override", "horizon=40",
        )
        assert code == 0
        outs.append(out)
    for name in ("packets.csv", "summary.json", "decisions.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_does_not_mutate_the_scenario_file(tmp_path, capsys):
    path = scenario_path("smoke")
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    code, _ = _run(capsys, "run", str(path), "--out", str(tmp_path / "o"), "--override", "horizon=10")
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before


def test_seed_flag_overrides_the_scenario_seed(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _run(capsys, "run", str(scenario_path("smoke")), "--seed", "1", "--out", str(a), "--override", "horizon=30")
    _run(capsys, "run", str(scenario_path("smoke")), "--seed", "2", "--out", str(b), "--override", "horizon=30")
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
    assert sa["seed"] == 1
    assert sb["seed"] == 2
    # the random streams behind the downlink and edge phases must actually move
    for s in (sa, sb):
        del s["seed"]
        s.pop("files", None)
    assert sa != sb


def test_validate_ok_and_failure_modes(tmp_path, capsys):
    code, stdout = _run(capsys, "validate", str(scenario_path("oracle")))
    assert code == 0
    assert json.loads(stdout)["status"] == "ok"

    bad = tmp_path / "bad.json"
    data = json.loads(scenario_path("smoke").read_text())
    data["horizon"] = 0
    data["slot_duration"] = -1
    bad.write_text(json.dumps(data))
    code, stdout = _run(capsys, "validate", str(bad))
    assert code == 2
    err = json.loads(stdout)
    assert err["status"] == "error"
    assert err["exit_code"] == 2
    assert any(e.startswith("horizon:") for e in err["errors"])
    assert any(e.startswith("slot_duration:") for e in err["errors"])


def test_missing_scenario_file_is_a_config_error(tmp_path, capsys):
    code, stdout = _run(capsys, "run", str(tmp_path / "nope.json"))
    assert code == 2
    assert json.loads(stdout)["status"] == "error"


def test_bad_override_syntax_is_a_config_error(capsys):
    code, stdout = _run(capsys, "run", str(scenario_path("smoke")), "--override", "horizon")
    assert code == 2
    assert "expected K=V" in stdout


def test_runtime_failures_exit_three(tmp_path, capsys):
    clobber = tmp_path / "file"
    clobber.write_text("occupied")
    code, stdout = _run(
        capsys, "run", str(scenario_path("degenerate")), "--out", str(clobber),
        "--override", "horizon=5",
    )
    assert code == 3
    assert json.loads(stdout)["exit_code"] == 3


def test_sweep_runs_the_grid_and_summarizes(tmp_path, capsys):
    spec = {
        "scenario": str(scenario_path("degenerate")),
        "seeds": [1, 2],
        "parameter": {"name": "mac.replicas", "values": [1, 2]},
        "overrides": {"horizon": 30},
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sweepout"
    code, stdout = _run(capsys, "sweep", str(spec_path), "--out", str(out))
    assert code == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["parameter"] == "mac.replicas"
    assert sorted(summary["by_seed"]) == ["1", "2"]
    for rows in summary["by_seed"].values():
        assert [row["value"] for row in rows] == [1, 2]
        assert all("summary" in row for row in rows)
    for seed in (1, 2):
        for value in (1, 2):
            assert (out / f"seed-{seed}" / f"mac.replicas-{value}" / "summary.json").exists()


def test_compare_reports_paired_deltas_and_signs(tmp_path, capsys):
    base = {
        "scenario": str(scenario_path("eco_toy")),
        "seeds": [1, 2],
        "overrides": {"horizon": 300, "downlink.policy": "random"},
    }
    treat = dict(base)
    treat["overrides"] = {"horizon": 300, "downlink.policy": "eco"}
    bp, tp = tmp_path / "base.json", tmp_path / "treat.json"
    bp.write_text(json.dumps(base))
    tp.write_text(json.dumps(treat))
    out = tmp_path / "cmp"
    code, stdout = _run(capsys, "compare", str(bp), str(tp), "--out", str(out))
    assert code == 0
    report = json.loads((out / "compare.json").read_text())
    assert {row["seed"] for row in report["per_seed"]} == {1, 2}
    for metric in ("success_rate", "latency_p99_s", "mean_energy_per_slot_j"):
        assert metric in report["sign_summary"]
        signs = report["sign_summary"][metric]
        assert signs["positive"] + signs["negative"] + signs["zero"] == 2


def test_compare_rejects_mismatched_seed_lists(tmp_path, capsys):
    base = {"scenario": str(scenario_path("degenerate")), "seeds": [1]}
    treat = {"scenario": str(scenario_path("degenerate")), "seeds": [2]}
    bp, tp = tmp_path / "b.json", tmp_path / "t.json"
    bp.write_text(json.dumps(base))
    tp.write_text(json.dumps(treat))
    code, stdout = _run(capsys, "compare", str(bp), str(tp), "--out", str(tmp_path / "c"))
    assert code == 2
    assert json.loads(stdout)["status"] == "error"


def test_argparse_rejects_unknown_commands():
    with pytest.raises(SystemExit):
        main(["teleport"])


@pytest.mark.parametrize(("override", "path"), [
    ("horizon=1.5", "horizon"),
    ("horizon=true", "horizon"),
    ("ctu_pool.freq_blocks=0", "ctu_pool"),
    ("mac=5", "mac"),
    ('mac.k_max="2"', "mac.k_max"),
    ("downlink.power_levels_w=0.5", "downlink.power_levels_w"),
    ("control.edges=[[0,1]]", "control.edges[0]"),
])
def test_a_wrong_typed_override_exits_two_naming_its_path(override, path, tmp_path, capsys):
    code, stdout = _run(
        capsys, "run", str(scenario_path("smoke")), "--out", str(tmp_path), "--override", override,
    )
    assert code == 2
    assert any(e.startswith(f"{path}:") for e in json.loads(stdout)["errors"])


def test_an_override_through_a_non_object_exits_two_naming_its_key(tmp_path, capsys):
    code, stdout = _run(
        capsys, "run", str(scenario_path("smoke")), "--out", str(tmp_path), "--override", "horizon.x=1",
    )
    assert code == 2
    assert any(e.startswith("horizon.x:") for e in json.loads(stdout)["errors"])


def test_a_line_road_override_rebuilds_the_road(tmp_path, capsys):
    code, _ = _run(
        capsys, "run", str(scenario_path("smoke")), "--out", str(tmp_path),
        "--override", "road.cells=50", "--override", "horizon=20",
    )
    assert code == 0
    with (tmp_path / "packets.csv").open(newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 2 * 20
    assert json.loads((tmp_path / "summary.json").read_text())["horizon"] == 20


@pytest.mark.parametrize("override", ["downlink.power_levels_w=[0.2,0.4]", 'mac.bler_beta={"128":4}'])
def test_list_and_int_keyed_overrides_still_run(override, tmp_path, capsys):
    code, _ = _run(
        capsys, "run", str(scenario_path("smoke")), "--out", str(tmp_path),
        "--override", "horizon=20", "--override", override,
    )
    assert code == 0


def _set_services_size(data):
    data["edge_compute"]["services"][0]["size"] = "big"


def _repeat_first_an(data):
    data["ans"].append(dict(data["ans"][0], power_budget_w=5.0))


def _repeat_a_road_cell(data):
    # a valid three-cell ring, but for a fourth entry that reuses cell id 2
    cells = [{"cell_id": c, "x": 100.0 * i, "y": 0.0} for i, c in enumerate((0, 1, 2, 2))]
    data["road"] = {"cells": cells, "edges": [[c, n] for c in range(3) for n in (c, (c + 1) % 3)]}
    data["mobility"] = {"rows": {"default": {str(c): {str(c): 0.2, str((c + 1) % 3): 0.8} for c in range(3)}}}


def _set_popularities(*values):
    def mutate(data):
        for service, popularity in zip(data["edge_compute"]["services"], values, strict=True):
            service["popularity"] = popularity
    return mutate


def _preconfigure(data, table):
    data["mac"].update(ctu_policy="preconfigured", preconfigured=table)


@pytest.mark.parametrize(("mutate", "path"), [
    (lambda d: d.update(mac={"k_max": "2"}), "mac.k_max"),
    (lambda d: d.update(road={"builder": "line", "cells": "abc"}), "road.cells"),
    (lambda d: d.update(vehicles=5), "vehicles"),
    (lambda d: d.update(horizon=1.5), "horizon"),
    (_set_services_size, "edge_compute.services[0].size"),
    (_set_popularities(-3.0, 1.0, 2.0), "edge_compute.services[0].popularity"),
    (_set_popularities(0.0, 0.0, 0.0), "edge_compute.services"),
    (_repeat_first_an, "ans[2].an_id"),
    (_repeat_a_road_cell, "road.cells[3].cell_id"),
    (lambda d: _preconfigure(d, {"0": [[0, 0]]}), "mac.preconfigured[1]"),
    (lambda d: _preconfigure(d, {"0": [[0, 0]], "1": []}), "mac.preconfigured[1]"),
    (lambda d: _preconfigure(d, {"0": [[3, 0], [3, 1]], "1": [[4, 2]]}), "mac.preconfigured[0][1]"),
    (lambda d: (_preconfigure(d, {"0": [[0, 0]], "1": [[1, 2]]}), d.update(bandit={"enabled": True})),
     "bandit.enabled"),
])
def test_a_wrong_typed_file_field_fails_validation_naming_its_path(mutate, path, tmp_path, capsys):
    data = json.loads(scenario_path("smoke").read_text())
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, stdout = _run(capsys, "validate", str(bad))
    assert code == 2
    assert any(e.startswith(f"{path}:") for e in json.loads(stdout)["errors"])


_ANS_ZERO_CAPACITY = json.dumps([
    {"an_id": 0, "power_budget_w": 2.0, "controller_capacity": 0.0, "storage_capacity": 10.0},
    {"an_id": 1, "power_budget_w": 2.0, "controller_capacity": 100.0, "storage_capacity": 10.0},
])


@pytest.mark.parametrize(("override", "path"), [
    ("control.edges=[[0,0,0.001,100.0]]", "control.edges"),
    (f"ans={_ANS_ZERO_CAPACITY}", "ans[0].controller_capacity"),
    ("control.edges=[[0,7,0.001,100.0]]", "control.edges[0]"),
    ("control.edges=[[0,1,0.0,100.0]]", "control.edges[0][2]"),
    ("control.edges=[[0,1,0.001,-1.0]]", "control.edges[0][3]"),
])
def test_a_bad_control_topology_exits_two_naming_its_path(override, path, tmp_path, capsys):
    code, stdout = _run(
        capsys, "run", str(scenario_path("smoke")), "--out", str(tmp_path),
        "--override", "horizon=5", "--override", override,
    )
    assert code == 2
    assert any(e.startswith(f"{path}:") for e in json.loads(stdout)["errors"])


def _smoke_aps_with(**changes) -> str:
    aps = json.loads(scenario_path("smoke").read_text())["aps"]
    aps[1].update(changes)
    return json.dumps(aps)


@pytest.mark.parametrize(("override", "path"), [
    ("slot_duration=NaN", "slot_duration"),
    ("latency_deadline_s=NaN", "latency_deadline_s"),
    ("channel.tx_power_dbm=Infinity", "channel.tx_power_dbm"),
    ("downlink.w_power=-Infinity", "downlink.w_power"),
    ("downlink.power_levels_w=[0.1,NaN]", "downlink.power_levels_w[1]"),
    ('mac.bler_beta={"128":Infinity}', "mac.bler_beta[128]"),
    ("channel.tx_power_dbm=1e9", "channel"),
    ("channel.noise_dbm=-2000", "channel"),
    ("channel.pathloss_exp=-1e9", "channel.pathloss_exp"),
    (f"aps={_smoke_aps_with(fronthaul_snr_db=1e9)}", "aps[1].fronthaul_snr_db"),
])
def test_a_non_finite_or_overflowing_number_exits_two_naming_its_path(override, path, tmp_path, capsys):
    code, stdout = _run(
        capsys, "run", str(scenario_path("smoke")), "--out", str(tmp_path),
        "--override", "horizon=5", "--override", override,
    )
    assert code == 2
    assert any(e.startswith(f"{path}:") for e in json.loads(stdout)["errors"])


@pytest.mark.parametrize("override", [
    "slot_duration=1e308",
    "edge_compute.cloud_rate=5e-324",
    "edge_compute.backhaul_rate=5e-324",
    "edge_compute.joules_per_bit=1e308",
])
def test_a_number_whose_sums_would_overflow_exits_two_naming_its_path(override, tmp_path, capsys):
    # each ran to exit 0 and wrote Infinity, which is not JSON, into summary.json
    code, stdout = _run(
        capsys, "run", str(scenario_path("smoke")), "--out", str(tmp_path),
        "--override", "horizon=20", "--override", override,
    )
    assert code == 2
    path = override.split("=")[0]
    assert any(e.startswith(f"{path}:") for e in json.loads(stdout)["errors"])
    assert not (tmp_path / "summary.json").exists()


def test_run_validates_the_scenario_once(tmp_path, capsys, monkeypatch):
    from vecsim import config, simulation

    calls = []
    validate = config.validate_scenario

    def counted(cfg):
        calls.append(cfg)
        return validate(cfg)

    monkeypatch.setattr(config, "validate_scenario", counted)
    monkeypatch.setattr(simulation, "validate_scenario", counted)
    code, _ = _run(capsys, "run", str(scenario_path("smoke")), "--out", str(tmp_path), "--override", "horizon=5")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(("section", "key", "value"), [
    (None, "slot_duration", float("nan")),
    ("channel", "pl0_db", float("-inf")),
    ("channel", "tx_power_dbm", 10**400),      # an integer no float can hold
], ids=["nan", "minus_infinity", "huge_integer"])
def test_a_non_finite_number_in_a_file_fails_validation_naming_its_path(section, key, value, tmp_path, capsys):
    data = json.loads(scenario_path("smoke").read_text())
    (data.setdefault(section, {}) if section else data)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, stdout = _run(capsys, "validate", str(bad))
    assert code == 2
    path = f"{section}.{key}" if section else key
    assert any(e.startswith(f"{path}: expected a finite number") for e in json.loads(stdout)["errors"])


def _sweep_spec(**changes) -> dict:
    spec = {
        "scenario": str(scenario_path("degenerate")),
        "seeds": [1],
        "parameter": {"name": "mac.replicas", "values": [1]},
        "overrides": {"horizon": 5},
    }
    spec.update(changes)
    return spec


@pytest.mark.parametrize(("spec", "path"), [
    pytest.param(_sweep_spec(seeds=["x"]), "seeds[0]", id="string-seed"),
    pytest.param(_sweep_spec(seeds=5), "seeds", id="scalar-seeds"),
    pytest.param(_sweep_spec(seeds=[1.7]), "seeds[0]", id="fractional-seed"),
    pytest.param(_sweep_spec(seeds=[]), "seeds", id="no-seeds"),
    pytest.param(_sweep_spec(parameter="horizon"), "parameter", id="string-parameter"),
    pytest.param(_sweep_spec(parameter={"name": "horizon", "values": []}), "parameter", id="no-values"),
    pytest.param(_sweep_spec(overrides=[1]), "overrides", id="list-overrides"),
    pytest.param(_sweep_spec(repeat=3), "repeat", id="unknown-key"),
])
def test_a_malformed_sweep_spec_exits_two_naming_its_path(spec, path, tmp_path, capsys):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code, stdout = _run(capsys, "sweep", str(spec_path), "--out", str(out))
    assert code == 2
    assert any(e.startswith(f"{path}:") for e in json.loads(stdout)["errors"])
    assert not out.exists()


@pytest.mark.parametrize(("request_", "path"), [
    pytest.param({"scenario": str(scenario_path("degenerate")), "seeds": "ab"}, "seeds", id="string-seeds"),
    pytest.param({"scenario": str(scenario_path("degenerate")), "seed": 3}, "seed", id="singular-seed"),
    pytest.param({"seeds": [1]}, "scenario", id="no-scenario"),
])
def test_a_malformed_run_request_exits_two_naming_its_path(request_, path, tmp_path, capsys):
    good = {"scenario": str(scenario_path("degenerate")), "seeds": [1]}
    bp, tp = tmp_path / "b.json", tmp_path / "t.json"
    bp.write_text(json.dumps(request_))
    tp.write_text(json.dumps(good))
    code, stdout = _run(capsys, "compare", str(bp), str(tp), "--out", str(tmp_path / "c"))
    assert code == 2
    assert any(e.startswith(f"{path}:") for e in json.loads(stdout)["errors"])


@st.composite
def policy_overrides(draw) -> dict:
    """Overrides of smoke.json drawn over every policy combination: relay
    mode, CTU policy, bandit (never with preconfigured pairs), downlink,
    predictor and offload policy, and control, edge compute and cipher on or
    off, with one to four vehicles on any cells of its five-cell road."""
    vehicles = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    ctu_policy = draw(st.sampled_from(["random", "preconfigured"]))
    overrides = {
        "horizon": draw(st.integers(1, 12)),
        "vehicles": [{"vehicle_id": v, "cell": cell} for v, cell in enumerate(vehicles)],
        "mac.relay_mode": draw(st.sampled_from(["AF", "DF"])),
        "mac.ctu_policy": ctu_policy,
        "mac.replicas": draw(st.integers(1, 3)),
        "bandit.enabled": ctu_policy == "random" and draw(st.booleans()),
        "downlink.policy": draw(st.sampled_from(["eco", "random"])),
        "predictor.policy": draw(st.sampled_from(["bayes", "persistence"])),
        "edge_compute.offload_policy": draw(st.sampled_from(["drift", "greedy_local", "always_cloud"])),
        "control.enabled": draw(st.booleans()),
        "control.period_slots": draw(st.integers(1, 5)),
        "edge_compute.enabled": draw(st.booleans()),
        "cipher.enabled": draw(st.booleans()),
    }
    if ctu_policy == "preconfigured":    # one to three distinct CTUs of smoke's 16 per vehicle
        overrides["mac.preconfigured"] = {
            str(v): [[3 * v + j, draw(st.integers(0, 2))] for j in range(draw(st.integers(1, 3)))]
            for v in range(len(vehicles))
        }
    return overrides


@settings(max_examples=150, deadline=None, derandomize=True)
@given(policy_overrides())
def test_every_policy_combination_runs_and_its_counts_match_the_packet_rows(overrides):
    flags = [arg for key, value in overrides.items() for arg in ("--override", f"{key}={json.dumps(value)}")]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(["run", str(scenario_path("smoke")), "--out", tmp, *flags])
        assert code == 0, stdout.getvalue()
        with (Path(tmp) / "packets.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((Path(tmp) / "summary.json").read_text())
    n_vehicles, horizon = len(overrides["vehicles"]), overrides["horizon"]
    assert sorted((int(r["emit_slot"]), int(r["vehicle_id"])) for r in rows) == [
        (slot, v) for slot in range(horizon) for v in range(n_vehicles)
    ]
    assert summary["packets"]["delivered"] == sum(r["delivered"] == "1" for r in rows)
    sent = collections.Counter(r["replicas"] for r in rows if r["replicas"] != "0")
    assert summary["bandit"]["replica_histogram"] == dict(sent)
