"""Scenario parsing, exhaustive validation messages, and override plumbing."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import types
import typing
from typing import Annotated

import pytest

from conftest import SCENARIO_DIR, scenario_path
from vecsim.config import (
    ConfigError,
    ScenarioConfig,
    _is_record,
    _LineRoad,
    _RoadCell,
    _RoadCells,
    apply_overrides,
    load_scenario,
    read_json_object,
    scenario_from_dict,
    validate_scenario,
)
from vecsim.cli import RunRequest, SweepAxis, SweepSpec, main
from vecsim.edge import Service
from vecsim.mobility import MarkovJumpModel, RoadGraph
from vecsim.ranges import Range


def _minimal() -> dict:
    return {
        "name": "tiny",
        "seed": 1,
        "horizon": 10,
        "slot_duration": 0.01,
        "latency_deadline_s": 0.05,
        "road": {"builder": "line", "cells": 3, "spacing_m": 100.0, "forward_prob": 0.8},
        "vehicles": [{"vehicle_id": 0, "cell": 0}],
        "aps": [{"ap_id": 0, "x": 0.0, "y": 5.0, "an_id": 0}],
        "ans": [{"an_id": 0, "power_budget_w": 1.0}],
    }


def _smoke_with(overrides: dict) -> ScenarioConfig:
    """smoke.json's tree with `overrides` applied, converted but not validated."""
    return scenario_from_dict(apply_overrides(read_json_object(scenario_path("smoke")), overrides))


def test_all_bundled_scenarios_load_and_validate():
    for name in ("smoke", "degenerate", "oracle", "eco_toy"):
        cfg = load_scenario(scenario_path(name))
        assert validate_scenario(cfg) == []
    assert sorted(p.name for p in SCENARIO_DIR.glob("*.json")) == [
        "degenerate.json", "eco_toy.json", "oracle.json", "smoke.json",
    ]


def test_smoke_scenario_spot_values(smoke_cfg):
    assert smoke_cfg.name == "smoke"
    assert smoke_cfg.seed == 7
    assert smoke_cfg.horizon == 100
    assert smoke_cfg.ap_owner() == {0: 0, 1: 0, 2: 1}
    assert 0 in smoke_cfg.ap_positions()


def test_minimal_scenario_round_trips():
    cfg = scenario_from_dict(_minimal())
    assert validate_scenario(cfg) == []
    assert cfg.horizon == 10
    assert cfg.road.cells == [0, 1, 2]


def test_unknown_section_and_field_are_rejected():
    bad = _minimal()
    bad["turbo"] = True
    with pytest.raises(ConfigError, match="turbo: unknown section"):
        scenario_from_dict(bad)
    bad2 = _minimal()
    bad2["mac"] = {"payload_bits": 128, "warp": 9}
    with pytest.raises(ConfigError, match="mac.warp: unknown field"):
        scenario_from_dict(bad2)


def test_validation_collects_every_problem_at_once():
    data = _minimal()
    data["horizon"] = 0
    data["slot_duration"] = -1.0
    data["vehicles"] = [{"vehicle_id": 0, "cell": 99}]
    cfg = scenario_from_dict(data)
    problems = validate_scenario(cfg)
    assert any(p.startswith("horizon:") for p in problems)
    assert any(p.startswith("slot_duration:") for p in problems)
    assert any("unknown cell 99" in p for p in problems)
    assert len(problems) >= 3


def test_bad_transition_rows_surface_under_the_mobility_key():
    data = _minimal()
    data["road"] = {
        "cells": [{"cell_id": 0, "x": 0.0, "y": 0.0}, {"cell_id": 1, "x": 100.0, "y": 0.0}],
        "edges": [[0, 1], [1, 1]],
    }
    data["mobility"] = {"rows": {"default": {"0": {"1": 0.9}, "1": {"1": 1.0}}}}
    cfg = scenario_from_dict(data)
    assert validate_scenario(cfg) == ["mobility.rows[default][0]: row sums to 0.9, expected 1"]


def test_every_bad_row_and_dangling_edge_is_reported():
    data = _minimal()
    data["road"] = {
        "cells": [{"cell_id": c, "x": 100.0 * c, "y": 0.0} for c in range(4)],
        "edges": [[c, c] for c in range(4)],
    }
    rows = {str(c): {str(c): 1.0} for c in range(4)}
    rows["0"], rows["3"] = {"0": 0.5}, {"3": 0.25}
    data["mobility"] = {"rows": {"default": rows}}
    assert validate_scenario(scenario_from_dict(data)) == [
        "mobility.rows[default][0]: row sums to 0.5, expected 1",
        "mobility.rows[default][3]: row sums to 0.25, expected 1",
    ]
    data["road"]["edges"] += [[1, 8], [2, 9]]
    assert validate_scenario(scenario_from_dict(data)) == [     # rows are checked on a valid road only
        "road.adjacency[1]: edge to unknown cell 8",
        "road.adjacency[2]: edge to unknown cell 9",
    ]


def test_each_repeated_id_is_named_at_its_id_field():
    data = _minimal()
    data["vehicles"] = [{"vehicle_id": v, "cell": 0} for v in (0, 1, 0)]
    data["ans"] = [{"an_id": 0}, {"an_id": 0}]
    data["control"] = {"enabled": False}     # two AN entries would need control edges
    data["aps"] = [{"ap_id": 4, "x": 0.0, "y": 5.0, "an_id": 0}] * 2
    data["edge_compute"] = {"services": [{"service_id": 3, "size": 1, "cycles_per_task": 10}] * 2}
    assert validate_scenario(scenario_from_dict(data)) == [
        "vehicles[2].vehicle_id: duplicate id 0",
        "ans[1].an_id: duplicate id 0",
        "aps[1].ap_id: duplicate id 4",
        "edge_compute.services[1].service_id: duplicate id 3",
    ]
    data = _minimal()
    data["road"] = {"cells": [{"cell_id": 0, "x": 0, "y": 0}] * 2, "edges": [[0, 0]]}
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(data)
    assert err.value.errors == ["road.cells[1].cell_id: duplicate id 0"]


def test_replicas_cannot_exceed_the_ctu_pool():
    data = _minimal()
    data["ctu_pool"] = {"slots_per_frame": 1, "freq_blocks": 2, "sequences": 1}
    data["mac"] = {"replicas": 3}
    problems = validate_scenario(scenario_from_dict(data))
    assert any("mac.replicas" in p and "exceeds ctu_pool size" in p for p in problems)


def test_cross_reference_checks():
    data = _minimal()
    data["aps"] = [{"ap_id": 0, "x": 0.0, "y": 5.0, "an_id": 9}]
    data["velocity_schedule"] = [{"slot": 5, "vehicle_id": 3, "velocity_class": "default"}]
    problems = validate_scenario(scenario_from_dict(data))
    assert any("aps[0].an_id: unknown AN 9" in p for p in problems)
    assert any("velocity_schedule[0]: unknown vehicle 3" in p for p in problems)


def test_enum_fields_reject_unknown_values():
    data = _minimal()
    data["mac"] = {"relay_mode": "XX", "ctu_policy": "psychic"}
    data["downlink"] = {"policy": "warp"}
    data["predictor"] = {"policy": "oracle", "threshold": 1.5}
    problems = validate_scenario(scenario_from_dict(data))
    joined = "\n".join(problems)
    assert "mac.relay_mode" in joined
    assert "mac.ctu_policy" in joined
    assert "downlink.policy" in joined
    assert "predictor.policy" in joined
    assert "predictor.threshold" in joined


def test_load_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="unreadable"):
        load_scenario(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(garbled)
    listy = tmp_path / "listy.json"
    listy.write_text("[]", encoding="utf-8")
    with pytest.raises(ConfigError, match="top level"):
        load_scenario(listy)


def test_config_error_carries_the_full_problem_list(tmp_path):
    data = _minimal()
    data["horizon"] = 0
    data["latency_deadline_s"] = 0.0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_scenario(p)
    assert len(err.value.errors) == 2


def test_apply_overrides_sets_nested_fields():
    cfg = _smoke_with({"horizon": 20, "downlink.epsilon": 0.5, "mac.relay_mode": "DF"})
    assert cfg.horizon == 20
    assert cfg.downlink.epsilon == 0.5
    assert cfg.mac.relay_mode == "DF"
    assert validate_scenario(cfg) == []


def test_apply_overrides_edits_the_tree_and_creates_missing_objects():
    tree = {"mac": {"k_max": 2}, "horizon": 5}
    assert apply_overrides(tree, {"mac.k_max": 3, "bandit.enabled": True, "horizon": 9}) is tree
    assert tree == {"mac": {"k_max": 3}, "horizon": 9, "bandit": {"enabled": True}}
    # a later override edits the tree's copy of an earlier value, not the caller's
    section = {"epsilon": 0.1}
    apply_overrides(tree, {"bandit": section, "bandit.r_max": 2})
    assert tree["bandit"] == {"epsilon": 0.1, "r_max": 2} and section == {"epsilon": 0.1}


def test_apply_overrides_coerces_lists_onto_tuple_fields():
    cfg = _smoke_with({"downlink.power_levels_w": [0.2, 0.4]})
    assert cfg.downlink.power_levels_w == (0.2, 0.4)


def test_apply_overrides_rejects_unknown_paths():
    with pytest.raises(ConfigError, match="downlink.warp_factor: unknown field"):
        _smoke_with({"downlink.warp_factor": 1})
    with pytest.raises(ConfigError, match="flux: unknown section"):
        _smoke_with({"flux.capacitor": 1})


def test_an_override_through_a_non_object_names_its_dotted_key():
    with pytest.raises(ConfigError) as err:
        apply_overrides(read_json_object(scenario_path("smoke")), {"horizon.x": 1, "mac.k_max.y": 2})
    assert err.value.errors == [
        "horizon.x: horizon is not an object",
        "mac.k_max.y: mac.k_max is not an object",
    ]


@pytest.mark.parametrize(("override", "key"), [
    ("=5", ""),
    ("mac.=5", "mac."),
    (".mac=5", ".mac"),
    ("mac..k_max=5", "mac..k_max"),
])
def test_an_override_key_with_an_empty_part_exits_two_naming_the_key(override, key, tmp_path, capsys):
    code = main(["run", str(scenario_path("smoke")), "--out", str(tmp_path), "--override", override])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["errors"] == [f"override key {key!r}: empty part"]
    assert not any(tmp_path.iterdir())


def test_a_line_road_override_rebuilds_the_road_and_its_mobility_model():
    cfg = _smoke_with({"road.cells": 50, "road.spacing_m": 20.0})
    assert cfg.road.cells == list(range(50))
    assert cfg.road.centers[49] == (980.0, 0.0)
    assert set(cfg.mobility.rows["default"]) == set(range(50))
    assert validate_scenario(cfg) == []


def test_overridden_config_revalidates_to_catch_new_problems():
    cfg = _smoke_with({"horizon": -5})
    problems = validate_scenario(cfg)
    assert any(p.startswith("horizon:") for p in problems)
    with pytest.raises(ConfigError) as err:
        load_scenario(scenario_path("smoke"), {"horizon": -5})
    assert err.value.errors == problems


@pytest.mark.parametrize(("overrides", "path"), [
    ({"downlink.snr_bucket_db": 0.0}, "downlink.snr_bucket_db"),
    ({"edge_compute.cpu_rate": 0.0}, "edge_compute.cpu_rate"),
    ({"edge_compute.cloud_rate": 0.0}, "edge_compute.cloud_rate"),
    ({"edge_compute.backhaul_rate": 0.0}, "edge_compute.backhaul_rate"),
    ({"edge_compute.input_bits": -5.0}, "edge_compute.input_bits"),
    ({"channel.ref_distance_m": 0.0}, "channel.ref_distance_m"),
    ({"predictor.obs_floor": 2.0}, "predictor.obs_floor"),
    ({"predictor.obs_ceiling": -0.5}, "predictor.obs_ceiling"),
    ({"mac.payload_bits": 0, "mac.bler_beta": {"0": 5.0}}, "mac.payload_bits"),
    # used at set-up even with their subsystem switched off
    ({"edge_compute.enabled": False, "edge_compute.tradeoff_v": 0.0}, "edge_compute.tradeoff_v"),
    ({"cipher.enabled": False, "cipher.window": -1}, "cipher.window"),
    # sizes that would be allocated: the free CTU list, the downlink actions,
    # and the cipher library's message and fingerprint window per exchange
    ({"ctu_pool.freq_blocks": 10**9}, "ctu_pool"),
    ({"ctu_pool.sequences": 8193}, "ctu_pool"),
    ({"downlink.ap_ranks": 1025}, "downlink.ap_ranks"),
    ({"mac.payload_bits": 65537, "mac.bler_beta": {"65537": 5.0}}, "mac.payload_bits"),
    ({"cipher.window": 1025}, "cipher.window"),
    # exploration rates and bucket counts the downlink learner divides by or draws against
    ({"downlink.epsilon": 1.5}, "downlink.epsilon"),
    ({"downlink.epsilon": -0.1}, "downlink.epsilon"),
    ({"downlink.load_buckets": 0}, "downlink.load_buckets"),
    # the control plane's shortest paths need non-negative edge costs
    ({"control.kappa": -5.0}, "control.kappa"),
    # AN budgets: a negative power budget books negative energy, a negative
    # storage capacity caches nothing
    ({"ans": [{"an_id": 0, "power_budget_w": -1.0}, {"an_id": 1}]}, "ans[0].power_budget_w"),
    ({"ans": [{"an_id": 0}, {"an_id": 1, "storage_capacity": -5.0}]}, "ans[1].storage_capacity"),
    # the logistic BLER curve must fall as SNR rises
    ({"mac.bler_alpha": -1.0}, "mac.bler_alpha"),
    ({"mac.bler_alpha": 0.0}, "mac.bler_alpha"),
    # the downlink's SNR bucket index snr_db // snr_bucket_db must stay a finite number
    ({"downlink.snr_bucket_db": 1e-307}, "downlink.snr_bucket_db"),
    ({"channel.pathloss_exp": 1e300, "snr_threshold_db": -1e308, "downlink.snr_bucket_db": 1e-10}, "snr_threshold_db"),
    # fields that ran unchecked: a negative RTT, iteration count, target, BLER
    # threshold, reward weight or replica cost has no meaning
    ({"edge_compute.backhaul_rtt": -1.0}, "edge_compute.backhaul_rtt"),
    ({"control.max_feedback_iters": -1}, "control.max_feedback_iters"),
    ({"control.target_mean_latency_s": -1.0}, "control.target_mean_latency_s"),
    ({"mac.bler_beta": {"128": -50.0}}, "mac.bler_beta[128]"),
    ({"downlink.w_power": -1.0}, "downlink.w_power"),
    ({"bandit.cost_per_replica": -1.0}, "bandit.cost_per_replica"),
    # magnitudes whose energy, backlog and latency sums would overflow
    ({"downlink.power_levels_w": [1e308]}, "downlink.power_levels_w[0]"),
    ({"edge_compute.services": [{"service_id": 0, "size": 1.0, "cycles_per_task": 1e308}]},
     "edge_compute.services[0].cycles_per_task"),
    ({"edge_compute.input_bits": 1e308}, "edge_compute.input_bits"),
])
def test_runtime_divisors_and_sizes_are_range_checked(overrides, path):
    assert any(p.startswith(f"{path}:") for p in validate_scenario(_smoke_with(overrides)))


def test_a_disconnected_control_graph_names_its_components():
    cfg = _smoke_with({"control.edges": [[0, 0, 0.001, 100.0]]})
    assert validate_scenario(cfg) == [
        "control.edges: the ANs must form one connected graph, got components [[0], [1]]"
    ]


@pytest.mark.parametrize(("section", "value", "message"), [
    ("horizon", 1.5, "horizon: expected an integer"),
    ("seed", True, "seed: expected an integer"),
    ("slot_duration", "fast", "slot_duration: expected a number"),
    ("vehicles", [{"cell": 0}], "vehicles[0].vehicle_id: required field missing"),
    ("aps", [{"ap_id": 0, "x": 0.0, "y": "up", "an_id": 0}], "aps[0].y: expected a number"),
    ("mac", {"bler_beta": {"big": 4.0}}, "mac.bler_beta[big]: key is not an integer"),
    ("control", {"edges": [[0, 1, 0.001]]}, "control.edges[0]: expected 4 items"),
    ("ctu_pool", {"freq_blocks": "8"}, "ctu_pool.freq_blocks: expected an integer"),
    ("velocity_schedule", [{"slot": 1, "vehicle_id": 0}], "velocity_schedule[0].velocity_class: required"),
    ("road", {"builder": "ring"}, "road.builder: must be one of line, got 'ring'"),
    ("road", {"builder": "line", "forward_prob": 1.5}, "road.forward_prob: must be <= 1, got 1.5"),
    ("road", {"builder": "line", "cells": 0}, "road.cells: must be >= 1, got 0"),
    ("road", {"builder": "line", "spacing_m": 0}, "road.spacing_m: must be > 0, got 0.0"),
    ("road", {"cells": [{"cell_id": 0, "x": 0, "y": 0}], "edges": [[0]]}, "road.edges[0]: expected 2 items"),
])
def test_file_type_errors_name_their_dotted_path(section, value, message):
    data = _minimal()
    data[section] = value
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(data)
    assert any(e.startswith(message) for e in err.value.errors), err.value.errors


def test_sections_are_built_as_their_typed_dataclasses():
    data = _minimal()
    data["mac"] = {"bler_beta": {"128": 4}}
    data["downlink"] = {"power_levels_w": [0.5, 1]}
    data["velocity_schedule"] = [{"slot": 2, "vehicle_id": 0, "velocity_class": "default"}]
    data["edge_compute"] = {"services": [{"service_id": 3, "size": 1, "cycles_per_task": 10}]}
    cfg = scenario_from_dict(data)
    assert cfg.mac.bler_beta == {128: 4.0}
    assert cfg.downlink.power_levels_w == (0.5, 1.0)
    assert cfg.velocity_schedule == [(2, 0, "default")]
    assert cfg.edge_compute.services == [Service(service_id=3, size=1.0, cycles_per_task=10.0)]
    assert validate_scenario(cfg) == []


def test_overrides_are_typed_and_every_error_is_reported():
    cfg = _smoke_with({"ctu_pool.freq_blocks": 4, "mac.bler_beta": {"128": 4}})
    assert cfg.ctu_pool.freq_blocks == 4
    assert cfg.mac.bler_beta == {128: 4.0}
    with pytest.raises(ConfigError) as err:
        _smoke_with({"mac.k_max": 2.5, "ctu_pool.sequences": "0", "bandit": 5})
    assert len(err.value.errors) == 3


def test_a_declared_range_has_one_message_format():
    assert Range(gt=0).problem(0.0) == "must be > 0, got 0.0"
    assert Range(ge=0, le=1).problem(1.5) == "must be <= 1, got 1.5"
    assert Range(gt=0, lt=1).problem(1.0) == "must be < 1, got 1.0"
    assert Range(ge=1e-300).problem(1e-307) == "must be >= 1e-300, got 1e-307"
    assert Range(among=("AF", "DF")).problem("XX") == "must be one of AF, DF, got 'XX'"
    assert Range(ge=1, items=True).problem([]) == "must hold >= 1 items, got 0"
    assert [Range(ge=0, le=1).problem(x) for x in (0, 0.0, 1, 1.0)] == [None] * 4
    assert Range().problem(-1e308) is None
    assert validate_scenario(_smoke_with({"slot_duration": 0.0, "mac.bler_beta": {"128": -50}})) == [
        "slot_duration: must be > 0, got 0.0",
        "mac.bler_beta[128]: must be >= 0, got -50.0",
    ]


def _record_fields(hint, seen: dict | None = None) -> dict:
    """{record class: its type hints} for every record reachable from `hint`;
    RoadGraph and MarkovJumpModel check themselves in their own `problems`."""
    seen = {} if seen is None else seen
    if typing.get_origin(hint) is Annotated:
        hint = typing.get_args(hint)[0]
    if hint in (RoadGraph, MarkovJumpModel) or hint in seen:
        return seen
    if _is_record(hint):
        seen[hint] = typing.get_type_hints(hint, include_extras=True)
        subs = seen[hint].values()
    else:
        subs = typing.get_args(hint)
    for sub in subs:
        _record_fields(sub, seen)
    return seen


def _number_leaves(hint, where: str):
    """(where, declared) for each int or float in the field type `hint`, down
    through optional values, lists, tuples and dict values."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated and args[0] in (int, float):
        yield where, True
    elif origin is Annotated:
        yield from _number_leaves(args[0], where)
    elif hint in (int, float):
        yield where, False
    elif origin is dict:
        yield from _number_leaves(args[1], f"{where}[]")
    elif origin in (list, tuple, typing.Union, types.UnionType):
        for i, arg in enumerate(args):
            if arg not in (Ellipsis, type(None)):
                yield from _number_leaves(arg, f"{where}[{i}]" if origin in (list, tuple) else where)


def test_every_number_field_of_the_scenario_declares_its_range():
    records: dict = {}
    for root in (ScenarioConfig, _LineRoad, _RoadCells, SweepSpec, RunRequest):
        _record_fields(root, records)
    checked, undeclared = [], []
    for cls, hints in records.items():
        for name, hint in hints.items():
            for where, declared in _number_leaves(hint, f"{cls.__name__}.{name}"):
                checked.append(where)
                if not declared:
                    undeclared.append(where)
    assert undeclared == []
    # the walk reaches records inside lists, in other modules and NamedTuples,
    # the road builders and the sweep and compare records, and list items
    assert {
        "Service.popularity", "CtuPool.freq_blocks", "ChannelParams.noise_dbm", "VelocityChange.slot",
        "_LineRoad.spacing_m", "_RoadCell.x", "SweepSpec.seeds[0]", "RunRequest.seeds[0]",
        "ControlConfig.edges[0][0]", "MacConfig.preconfigured[][0][1]",
    } <= set(checked)
    assert {SweepAxis, _RoadCell} <= records.keys()


def test_no_converted_record_re_checks_its_declared_ranges_in_its_constructor():
    # the range walker is the one check of a declared Range: it names each
    # bad field by its dotted path, where a constructor check names none
    records: dict = {}
    for root in (ScenarioConfig, _LineRoad, _RoadCells, SweepSpec, RunRequest):
        _record_fields(root, records)
    assert [cls.__name__ for cls in records if hasattr(cls, "__post_init__")] == []


def _just_past(rng: Range, number: type) -> list:
    """Values that break each bound of `rng` by the least step of `number`."""
    if rng.among:
        return ["none-of-these"]
    if rng.items:
        assert (rng.gt, rng.ge, rng.lt, rng.le) == (None, 1, None, None)
        return [[]]
    if number is int:
        down, up = (lambda b: b - 1), (lambda b: b + 1)
    else:
        down, up = (lambda b: math.nextafter(b, -math.inf)), (lambda b: math.nextafter(b, math.inf))
    past = {"gt": lambda b: b, "ge": down, "lt": lambda b: b, "le": up}
    return [past[name](getattr(rng, name)) for name in past if getattr(rng, name) is not None]


def _declarations(hint, keys=(), path=""):
    """(JSON keys, dotted path, Range, the number or container type it bounds)
    for each declared Range under `hint`; lists and mappings are probed at
    their first entry."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        yield keys, path, args[1], typing.get_origin(args[0]) or args[0]
        yield from _declarations(args[0], keys, path)
    elif origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        yield from _declarations(inner, keys, path)
    elif origin in (list, tuple):
        items = [args[0]] if origin is list or args[-1] is Ellipsis else args
        for i, item in enumerate(items):
            yield from _declarations(item, keys + (i,), f"{path}[{i}]")
    elif origin is dict:
        yield from _declarations(args[1], keys + ("0",), f"{path}[0]")
    elif _is_record(hint) and hint not in (RoadGraph, MarkovJumpModel):
        for name, sub in typing.get_type_hints(hint, include_extras=True).items():
            yield from _declarations(sub, keys + (name,), f"{path}.{name}" if path else name)


BOUND_PROBES = [
    (keys, path, value)
    for keys, path, rng, number in _declarations(ScenarioConfig)
    for value in _just_past(rng, number)
]


def _set(tree, keys, value):
    for key in keys[:-1]:
        tree = tree.setdefault(key, {}) if isinstance(tree, dict) else tree[key]
    tree[keys[-1]] = value


@pytest.mark.parametrize(("keys", "path", "value"), BOUND_PROBES,
                         ids=[f"{path}={value!r}" for _, path, value in BOUND_PROBES])
def test_a_value_just_past_a_declared_bound_exits_two_naming_its_path(keys, path, value, tmp_path):
    tree = read_json_object(scenario_path("smoke"))
    tree["velocity_schedule"] = [{"slot": 1, "vehicle_id": 0, "velocity_class": "default"}]
    _set(tree, keys, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tree), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["validate", str(bad)])
    errors = json.loads(out.getvalue())["errors"]
    assert code == 2
    assert any(e.startswith(f"{path}:") for e in errors), errors


ROAD_PROBES = [(path, value) for _, path, rng, number in _declarations(_LineRoad, (), "road")
               for value in _just_past(rng, number)]


@pytest.mark.parametrize(("path", "value"), ROAD_PROBES, ids=[f"{path}={value!r}" for path, value in ROAD_PROBES])
def test_a_road_override_just_past_a_declared_bound_exits_two_naming_its_path(path, value, tmp_path):
    argv = ["run", str(scenario_path("smoke")), "--out", str(tmp_path), "--override", f"{path}={json.dumps(value)}"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 2
    assert any(e.startswith(f"{path}:") for e in json.loads(out.getvalue())["errors"])
    assert not (tmp_path / "summary.json").exists()


def _replaced(node, keys, value):
    """`node` with the item at the path `keys` set to `value`; records are
    rebuilt, not mutated, and the JSON key "0" of a mapping is the int 0."""
    if not keys:
        return value
    key, rest = keys[0], keys[1:]
    if isinstance(node, dict):
        return {**node, int(key): _replaced(node.get(int(key)), rest, value)}
    if isinstance(node, (list, tuple)):
        items = list(node)
        items[key] = _replaced(node[key], rest, value)
        return type(node)(items)
    return dataclasses.replace(node, **{key: _replaced(getattr(node, key), rest, value)})


FLOAT_FIELDS = [(keys, path) for keys, path, _, number in _declarations(ScenarioConfig) if number is float]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(("keys", "path"), FLOAT_FIELDS, ids=[path for _, path in FLOAT_FIELDS])
def test_a_non_finite_float_in_a_config_built_in_python_is_named(keys, path, value):
    cfg = _replaced(load_scenario(scenario_path("smoke")), keys, value)
    assert f"{path}: must be finite, got {value!r}" in validate_scenario(cfg)
