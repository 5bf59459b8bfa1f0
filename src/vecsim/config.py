"""Scenario configuration: schema, defaults, validation, JSON loading.

A scenario file is one JSON object whose sections mirror the dataclasses
below. The file and every `--override` value are converted by one path that
reads the dataclass type hints, so a wrong type is reported with its dotted
field path. Validation then collects every semantic problem it can find, so
a bad file is rejected before slot 0 with actionable diagnostics rather than
a mid-run crash.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from vecsim.channel import ChannelParams
from vecsim.control_plane import connected_components
from vecsim.edge import Service
from vecsim.mac import CtuPool
from vecsim.mobility import MarkovJumpModel, ModelValidationError, RoadGraph, line_graph


class ConfigError(ValueError):
    """Scenario rejected; .errors lists field-named diagnostics."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid scenario: " + "; ".join(errors))
        self.errors = errors


@dataclass
class VehicleSpec:
    vehicle_id: int
    cell: int
    velocity_class: str = "default"


class VelocityChange(NamedTuple):
    """A scheduled switch of one vehicle's velocity class; a (slot, vehicle, class) tuple."""

    slot: int
    vehicle_id: int
    velocity_class: str


@dataclass
class ApSpec:
    ap_id: int
    x: float
    y: float
    an_id: int
    fronthaul_snr_db: float = 30.0


@dataclass
class AnSpec:
    an_id: int
    power_budget_w: float = 2.0
    controller_capacity: float = 100.0
    storage_capacity: float = 10.0


@dataclass
class MacConfig:
    payload_bits: int = 128
    bler_alpha: float = 1.0
    bler_beta: dict[int, float] = field(default_factory=lambda: {128: 5.0, 256: 8.0})
    k_max: int = 2
    relay_mode: str = "AF"                 # AF | DF
    replicas: int = 2                      # used when the bandit is off
    ctu_policy: str = "random"             # random | preconfigured
    preconfigured: dict[int, list[tuple[int, int]]] = field(default_factory=dict)


@dataclass
class BanditConfig:
    enabled: bool = False
    epsilon: float = 0.1
    cost_per_replica: float = 0.05
    r_max: int = 4


@dataclass
class ClusterConfig:
    k_cluster: int = 2
    downlink_ctu_demand: int = 1


@dataclass
class DownlinkConfig:
    policy: str = "eco"                    # eco | random
    power_levels_w: tuple[float, ...] = (0.1, 1.0)
    ap_ranks: int = 2
    epsilon: float = 0.1
    eta: float = 0.3
    gamma: float = 0.5
    w_delivery: float = 1.0
    w_power: float = 0.5
    load_buckets: int = 3
    snr_bucket_db: float = 10.0


@dataclass
class PredictorConfig:
    policy: str = "bayes"                  # bayes | persistence
    threshold: float = 0.5
    obs_floor: float = 0.01
    obs_ceiling: float = 0.99


@dataclass
class ControlConfig:
    enabled: bool = True
    latency_bound_s: float = 0.01
    target_mean_latency_s: float | None = None
    tighten_factor: float = 0.8
    max_feedback_iters: int = 3
    rate_per_vehicle: float = 1.0
    period_slots: int = 50
    kappa: float = 1e-4
    edges: list[tuple[int, int, float, float]] = field(default_factory=list)   # u, v, weight_s, capacity


@dataclass
class EdgeComputeConfig:
    enabled: bool = True
    services: list[Service] = field(default_factory=lambda: [
        Service(service_id=0, size=2.0, cycles_per_task=2e6, popularity=1.0),
    ])
    task_arrival_prob: float = 0.1
    input_bits: float = 1e5
    recache_period: int = 100
    cpu_rate: float = 5e9
    cloud_rate: float = 5e10
    backhaul_rtt: float = 0.05
    backhaul_rate: float = 1e8
    joules_per_cycle: float = 1e-9
    joules_per_bit: float = 1e-8
    energy_budget_per_slot: float = 0.01
    tradeoff_v: float = 1.0
    offload_policy: str = "drift"          # drift | greedy_local | always_cloud


@dataclass
class CipherConfig:
    enabled: bool = True
    window: int = 4
    max_resync: int = 10
    an_view_flip_prob: float = 0.0         # chance an association bit is mis-recorded AN-side


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    horizon: int = 100
    slot_duration: float = 1e-3
    latency_deadline_s: float = 1e-3
    road: RoadGraph = field(default_factory=lambda: line_graph(5)[0])
    mobility: MarkovJumpModel = field(default_factory=lambda: line_graph(5)[1])
    vehicles: list[VehicleSpec] = field(default_factory=list)
    velocity_schedule: list[VelocityChange] = field(default_factory=list)
    aps: list[ApSpec] = field(default_factory=list)
    ans: list[AnSpec] = field(default_factory=list)
    channel: ChannelParams = field(default_factory=ChannelParams)
    snr_threshold_db: float = 3.0
    ctu_pool: CtuPool = field(default_factory=CtuPool)
    mac: MacConfig = field(default_factory=MacConfig)
    bandit: BanditConfig = field(default_factory=BanditConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    downlink: DownlinkConfig = field(default_factory=DownlinkConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    edge_compute: EdgeComputeConfig = field(default_factory=EdgeComputeConfig)
    cipher: CipherConfig = field(default_factory=CipherConfig)

    def ap_positions(self) -> dict[int, tuple[float, float]]:
        return {ap.ap_id: (ap.x, ap.y) for ap in self.aps}

    def ap_owner(self) -> dict[int, int]:
        return {ap.ap_id: ap.an_id for ap in self.aps}


MAX_SNR_DB = 1000.0     # keeps 10 ** (snr_db / 10) in mac.effective_snr_db, and its AF product, finite
MAX_CTU_POOL = 1 << 16  # the downlink lists every free CTU of the pool in each slot
MAX_AP_RANKS = 1024     # each downlink decision scans all ap_ranks x power level actions


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """All invariant checks; returns a list of 'path: problem' strings."""
    errors: list[str] = []
    if cfg.seed < 0:
        errors.append(f"seed: must be >= 0, got {cfg.seed}")
    if cfg.horizon < 1:
        errors.append(f"horizon: must be >= 1, got {cfg.horizon}")
    if cfg.slot_duration <= 0:
        errors.append(f"slot_duration: must be > 0, got {cfg.slot_duration}")
    if cfg.latency_deadline_s <= 0:
        errors.append(f"latency_deadline_s: must be > 0, got {cfg.latency_deadline_s}")

    try:
        cfg.road.validate()
    except ModelValidationError as exc:
        errors.append(f"road: {exc}")
    else:
        try:
            cfg.mobility.validate(cfg.road)
        except ModelValidationError as exc:
            errors.append(f"mobility: {exc}")

    ch = cfg.channel
    if ch.ref_distance_m <= 0:
        errors.append(f"channel.ref_distance_m: must be > 0, got {ch.ref_distance_m}")
    if ch.pathloss_exp < 0:     # then no SNR exceeds the peak, at the reference distance
        errors.append(f"channel.pathloss_exp: must be >= 0, got {ch.pathloss_exp}")
    if (peak := ch.tx_power_dbm - ch.pl0_db - ch.noise_dbm) > MAX_SNR_DB:
        errors.append(
            f"channel: peak SNR tx_power_dbm - pl0_db - noise_dbm must be <= {MAX_SNR_DB:g}, got {peak:g}"
        )

    cells = set(cfg.road.centers)
    vclasses = set(cfg.mobility.rows)
    seen_vehicles = set()
    for i, veh in enumerate(cfg.vehicles):
        if veh.vehicle_id in seen_vehicles:
            errors.append(f"vehicles[{i}]: duplicate vehicle id {veh.vehicle_id}")
        seen_vehicles.add(veh.vehicle_id)
        if veh.cell not in cells:
            errors.append(f"vehicles[{i}].cell: unknown cell {veh.cell}")
        if veh.velocity_class not in vclasses:
            errors.append(f"vehicles[{i}].velocity_class: unknown class {veh.velocity_class!r}")
    if not cfg.vehicles:
        errors.append("vehicles: at least one vehicle required")

    an_ids = set()
    for i, an in enumerate(cfg.ans):
        if an.an_id in an_ids:
            errors.append(f"ans[{i}].an_id: duplicate AN id {an.an_id}")
        an_ids.add(an.an_id)
    if not cfg.ans:
        errors.append("ans: at least one AN required")
    seen_aps = set()
    for i, ap in enumerate(cfg.aps):
        if ap.ap_id in seen_aps:
            errors.append(f"aps[{i}]: duplicate AP id {ap.ap_id}")
        seen_aps.add(ap.ap_id)
        if ap.an_id not in an_ids:
            errors.append(f"aps[{i}].an_id: unknown AN {ap.an_id}")
        if ap.fronthaul_snr_db > MAX_SNR_DB:
            errors.append(f"aps[{i}].fronthaul_snr_db: must be <= {MAX_SNR_DB:g}, got {ap.fronthaul_snr_db:g}")
    if not cfg.aps:
        errors.append("aps: at least one AP required")

    for i, (slot, vid, vclass) in enumerate(cfg.velocity_schedule):
        if vid not in seen_vehicles:
            errors.append(f"velocity_schedule[{i}]: unknown vehicle {vid}")
        if vclass not in vclasses:
            errors.append(f"velocity_schedule[{i}]: unknown class {vclass!r}")
        if slot < 0:
            errors.append(f"velocity_schedule[{i}]: negative slot {slot}")

    if cfg.ctu_pool.size > MAX_CTU_POOL:
        errors.append(
            f"ctu_pool: slots_per_frame * freq_blocks * sequences must be <= {MAX_CTU_POOL}, got {cfg.ctu_pool.size}"
        )
    mac = cfg.mac
    if mac.payload_bits < 1:
        errors.append(f"mac.payload_bits: must be >= 1, got {mac.payload_bits}")
    elif mac.payload_bits not in mac.bler_beta:
        errors.append(f"mac.bler_beta: no threshold for payload_bits {mac.payload_bits}")
    if mac.k_max < 1:
        errors.append(f"mac.k_max: must be >= 1, got {mac.k_max}")
    if mac.relay_mode not in ("AF", "DF"):
        errors.append(f"mac.relay_mode: must be AF or DF, got {mac.relay_mode!r}")
    if mac.ctu_policy not in ("random", "preconfigured"):
        errors.append(f"mac.ctu_policy: must be random or preconfigured, got {mac.ctu_policy!r}")
    if mac.replicas < 1:
        errors.append(f"mac.replicas: must be >= 1, got {mac.replicas}")
    elif mac.replicas > cfg.ctu_pool.size:
        errors.append(
            f"mac.replicas: {mac.replicas} exceeds ctu_pool size {cfg.ctu_pool.size} "
            "(mac.replicas vs ctu_pool)"
        )
    if mac.ctu_policy == "preconfigured":
        for i, veh in enumerate(cfg.vehicles):
            if not mac.preconfigured.get(veh.vehicle_id):
                errors.append(f"mac.preconfigured[{veh.vehicle_id}]: vehicles[{i}] needs at least one (CTU, AP) pair")
        for vid, pairs in mac.preconfigured.items():
            taken = set()
            for j, (ctu, ap) in enumerate(pairs):
                if not 0 <= ctu < cfg.ctu_pool.size:
                    errors.append(f"mac.preconfigured[{vid}][{j}]: CTU {ctu} outside pool")
                if ctu in taken:
                    errors.append(f"mac.preconfigured[{vid}][{j}]: duplicate CTU {ctu}")
                taken.add(ctu)
                if ap not in seen_aps:
                    errors.append(f"mac.preconfigured[{vid}][{j}]: unknown AP {ap}")

    bandit = cfg.bandit
    if not 0.0 <= bandit.epsilon <= 1.0:
        errors.append(f"bandit.epsilon: must lie in [0, 1], got {bandit.epsilon}")
    if bandit.r_max < 1:
        errors.append(f"bandit.r_max: must be >= 1, got {bandit.r_max}")
    elif bandit.enabled and bandit.r_max > cfg.ctu_pool.size:
        errors.append(f"bandit.r_max: {bandit.r_max} exceeds ctu_pool size {cfg.ctu_pool.size}")

    if cfg.cluster.k_cluster < 1:
        errors.append(f"cluster.k_cluster: must be >= 1, got {cfg.cluster.k_cluster}")
    if cfg.cluster.downlink_ctu_demand < 0:
        errors.append("cluster.downlink_ctu_demand: must be >= 0")

    dl = cfg.downlink
    if dl.policy not in ("eco", "random"):
        errors.append(f"downlink.policy: must be eco or random, got {dl.policy!r}")
    if not dl.power_levels_w or any(p <= 0 for p in dl.power_levels_w):
        errors.append("downlink.power_levels_w: need at least one positive level")
    if dl.ap_ranks < 1:
        errors.append("downlink.ap_ranks: must be >= 1")
    elif dl.ap_ranks > MAX_AP_RANKS:
        errors.append(f"downlink.ap_ranks: must be <= {MAX_AP_RANKS}, got {dl.ap_ranks}")
    if not 0.0 < dl.eta <= 1.0:
        errors.append(f"downlink.eta: must lie in (0, 1], got {dl.eta}")
    if not 0.0 <= dl.gamma < 1.0:
        errors.append(f"downlink.gamma: must lie in [0, 1), got {dl.gamma}")
    if dl.snr_bucket_db <= 0:
        errors.append(f"downlink.snr_bucket_db: must be > 0, got {dl.snr_bucket_db}")

    pred = cfg.predictor
    if pred.policy not in ("bayes", "persistence"):
        errors.append(f"predictor.policy: must be bayes or persistence, got {pred.policy!r}")
    if not 0.0 < pred.threshold < 1.0:
        errors.append(f"predictor.threshold: must lie in (0, 1), got {pred.threshold}")
    for name in ("obs_floor", "obs_ceiling"):
        if not 0.0 <= getattr(pred, name) <= 1.0:
            errors.append(f"predictor.{name}: must lie in [0, 1], got {getattr(pred, name)}")

    ctl = cfg.control
    if ctl.enabled:
        if ctl.latency_bound_s <= 0:
            errors.append("control.latency_bound_s: must be > 0")
        if not 0.0 < ctl.tighten_factor < 1.0:
            errors.append(f"control.tighten_factor: must lie in (0, 1), got {ctl.tighten_factor}")
        if ctl.rate_per_vehicle <= 0:
            errors.append("control.rate_per_vehicle: must be > 0")
        if ctl.period_slots < 1:
            errors.append("control.period_slots: must be >= 1")
        for i, an in enumerate(cfg.ans):
            if an.controller_capacity <= 0:
                errors.append(f"ans[{i}].controller_capacity: must be > 0, got {an.controller_capacity}")
        graph: dict[int, list[int]] = {an: [] for an in an_ids}
        for i, (u, v, w, cap) in enumerate(ctl.edges):
            if u not in an_ids or v not in an_ids:
                errors.append(f"control.edges[{i}]: endpoint not an AN id")
            else:
                graph[u].append(v)
            if w <= 0 or cap <= 0:
                errors.append(f"control.edges[{i}]: weight and capacity must be positive")
        parts = connected_components(graph)
        if len(cfg.ans) > 1 and not ctl.edges:
            errors.append("control.edges: required when more than one AN exists")
        elif len(parts) > 1:
            errors.append(f"control.edges: the ANs must form one connected graph, got components {parts}")

    ec = cfg.edge_compute
    # Every AN keeps an energy ledger, with edge compute on or off.
    if ec.energy_budget_per_slot <= 0:
        errors.append("edge_compute.energy_budget_per_slot: must be > 0")
    if ec.tradeoff_v <= 0:
        errors.append("edge_compute.tradeoff_v: must be > 0")
    if ec.enabled:
        seen_services = set()
        for i, svc in enumerate(ec.services):
            if svc.service_id in seen_services:
                errors.append(f"edge_compute.services[{i}]: duplicate service id {svc.service_id}")
            seen_services.add(svc.service_id)
        if not ec.services:
            errors.append("edge_compute.services: at least one service required when enabled")
        if not 0.0 <= ec.task_arrival_prob <= 1.0:
            errors.append("edge_compute.task_arrival_prob: must lie in [0, 1]")
        if ec.recache_period < 1:
            errors.append("edge_compute.recache_period: must be >= 1")
        for name in ("cpu_rate", "cloud_rate", "backhaul_rate"):
            if getattr(ec, name) <= 0:
                errors.append(f"edge_compute.{name}: must be > 0, got {getattr(ec, name)}")
        for name in ("input_bits", "joules_per_cycle", "joules_per_bit"):
            if getattr(ec, name) < 0:
                errors.append(f"edge_compute.{name}: must be >= 0, got {getattr(ec, name)}")
        if ec.offload_policy not in ("drift", "greedy_local", "always_cloud"):
            errors.append(f"edge_compute.offload_policy: unknown policy {ec.offload_policy!r}")

    ci = cfg.cipher
    if ci.window < 1:       # sizes every vehicle's fingerprint window, cipher on or off
        errors.append(f"cipher.window: must be >= 1, got {ci.window}")
    if ci.enabled:
        if ci.max_resync < 1:
            errors.append(f"cipher.max_resync: must be >= 1, got {ci.max_resync}")
        if not 0.0 <= ci.an_view_flip_prob <= 1.0:
            errors.append("cipher.an_view_flip_prob: must lie in [0, 1]")

    return errors


# ---------------------------------------------------------------------------
# JSON tree -> ScenarioConfig
# ---------------------------------------------------------------------------

@dataclass
class _LineRoad:
    """The {"builder": "line"} road shorthand; it also brings its mobility model."""

    builder: str
    cells: int = 5
    spacing_m: float = 100.0
    forward_prob: float = 0.8


@dataclass
class _RoadCell:
    cell_id: int
    x: float
    y: float


@dataclass
class _RoadCells:
    """A road given as cells and directed [src, dst] edges."""

    cells: list[_RoadCell]
    edges: list[tuple[int, int]]


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON object tree.

    Structural problems (wrong types, unknown keys) raise ConfigError here;
    semantic invariants are checked by validate_scenario afterwards.
    """
    errors: list[str] = []
    sections = {k: v for k, v in data.items() if k not in ("schema_version", "road")}
    cfg = _convert(sections, ScenarioConfig, "", errors)
    if "road" in data:
        road, line_mobility = _parse_road(data["road"], errors)
        if not errors:
            cfg.road = road
            if line_mobility is not None and "mobility" not in data:
                cfg.mobility = line_mobility
    if errors:
        raise ConfigError(errors)
    return cfg


def _parse_road(data, errors: list[str]) -> tuple[RoadGraph | None, MarkovJumpModel | None]:
    if isinstance(data, dict) and "builder" in data:
        spec = _convert(data, _LineRoad, "road", errors)
        if spec is None:
            return None, None
        if spec.builder != "line":
            errors.append(f"road.builder: unknown builder {spec.builder!r}")
            return None, None
        try:
            return line_graph(spec.cells, spacing_m=spec.spacing_m, forward_prob=spec.forward_prob)
        except ModelValidationError as exc:
            errors.append(f"road: {exc}")
            return None, None
    spec = _convert(data, _RoadCells, "road", errors)
    if spec is None:
        return None, None
    centers: dict[int, tuple[float, float]] = {}
    for i, c in enumerate(spec.cells):
        if c.cell_id in centers:     # the road graph keys cells by id, so repeats end here
            errors.append(f"road.cells[{i}].cell_id: duplicate cell id {c.cell_id}")
        centers[c.cell_id] = (c.x, c.y)
    adjacency: dict[int, list[int]] = {c: [] for c in centers}
    for src, dst in spec.edges:
        adjacency.setdefault(src, []).append(dst)
    return RoadGraph(centers=centers, adjacency={c: tuple(n) for c, n in adjacency.items()}), None


@functools.cache
def _fields(cls) -> tuple[dict[str, object], frozenset[str]]:
    """Type hint per field of a dataclass or NamedTuple, and the fields without a default."""
    hints = typing.get_type_hints(cls)
    if dataclasses.is_dataclass(cls):
        fields = dataclasses.fields(cls)
        missing = dataclasses.MISSING
        required = {f.name for f in fields if f.default is missing and f.default_factory is missing}
        return {f.name: hints[f.name] for f in fields}, frozenset(required)
    return {name: hints[name] for name in cls._fields}, frozenset(cls._fields) - cls._field_defaults.keys()


def _is_record(hint) -> bool:
    return dataclasses.is_dataclass(hint) or (isinstance(hint, type) and issubclass(hint, tuple)
                                              and hasattr(hint, "_fields"))


_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _convert(value, hint, path: str, errors: list[str]):
    """`value`, a parsed JSON tree, as an instance of the type `hint`.

    Problems are appended to `errors` as "dotted.path: problem"; the result is
    meaningless once any is added. Integers reject booleans and floats, floats
    reject NaN and the infinities (Python's JSON reader accepts both); JSON
    lists become lists or tuples, dict[int, ...] keys are parsed from the
    JSON object's string keys, and `object` takes any JSON value as it is.
    """
    if hint is object:
        return value
    if hint in _SCALARS:
        if hint is float and type(value) in (int, float) and not abs(value) <= sys.float_info.max:
            errors.append(f"{path}: expected a finite number, got {value!r}")   # or an int no float holds
            return None
        if type(value) is hint or (hint is float and type(value) is int):
            return float(value) if hint is float else value
        errors.append(f"{path}: expected {_SCALARS[hint]}, got {value!r}")
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _convert(value, inner, path, errors)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            errors.append(f"{path}: expected a list, got {value!r}")
            return None
        if origin is list or args[-1] is Ellipsis:
            items = [_convert(v, args[0], f"{path}[{i}]", errors) for i, v in enumerate(value)]
            return items if origin is list else tuple(items)
        if len(value) != len(args):
            errors.append(f"{path}: expected {len(args)} items, got {len(value)}")
            return None
        return tuple(_convert(v, a, f"{path}[{i}]", errors) for i, (v, a) in enumerate(zip(value, args)))
    if origin is dict:
        if not isinstance(value, dict):
            errors.append(f"{path}: expected an object, got {value!r}")
            return None
        key_hint, item_hint = args
        out = {}
        for key, item in value.items():
            if key_hint is int:
                try:
                    key = int(key)
                except (TypeError, ValueError):
                    errors.append(f"{path}[{key}]: key is not an integer")
                    continue
            out[key] = _convert(item, item_hint, f"{path}[{key}]", errors)
        return out
    if _is_record(hint):
        return _convert_record(value, hint, path, errors)
    raise TypeError(f"{path}: no JSON conversion to {hint!r}")


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _convert_record(value, cls, path: str, errors: list[str]):
    if not isinstance(value, dict):
        errors.append(f"{path}: expected an object, got {value!r}")
        return None
    hints, required = _fields(cls)
    before = len(errors)
    kwargs = {}
    for key, item in value.items():
        sub = _join(path, key)
        if key in hints:
            kwargs[key] = _convert(item, hints[key], sub, errors)
        else:
            errors.append(f"{sub}: unknown {'field' if path else 'section'}")
    for name in hints:
        if name in required and name not in value:
            errors.append(f"{_join(path, name)}: required field missing")
    if len(errors) > before:
        return None
    try:
        return cls(**kwargs)
    except ValueError as exc:     # a __post_init__ invariant
        errors.append(f"{path}: {exc}" if path else str(exc))
        return None


def read_json_object(path: str | Path) -> dict:
    """The JSON object in the file at `path`; anything else is a ConfigError."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError([f"{p}: unreadable ({exc})"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{p}: not valid JSON ({exc})"])
    if not isinstance(data, dict):
        raise ConfigError([f"{p}: top level must be an object"])
    return data


def load_record(path: str | Path, cls):
    """The JSON object in the file at `path`, converted to the dataclass `cls`
    by the scenario file's typed converter."""
    errors: list[str] = []
    record = _convert(read_json_object(path), cls, "", errors)
    if errors:
        raise ConfigError(errors)
    return record


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read, parse, and fully validate a scenario file."""
    cfg = scenario_from_dict(read_json_object(path))
    problems = validate_scenario(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def apply_overrides(cfg: ScenarioConfig, overrides: dict[str, object]) -> ScenarioConfig:
    """Apply dotted-path overrides like {"bandit.enabled": True} in place.

    Each value is converted by its field's type hint exactly like the scenario
    file's, and the sections on its path are rebuilt with dataclasses.replace,
    so frozen sections and their __post_init__ checks hold for overrides too.
    """
    errors = []
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        try:
            setattr(cfg, parts[0], _overridden(cfg, parts, value, dotted))
        except ConfigError as exc:
            errors.extend(exc.errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def _overridden(obj, parts: list[str], value, dotted: str):
    """The new value of obj's field parts[0] once the field at `parts` holds `value`."""
    name, rest = parts[0], parts[1:]
    hint = _fields(type(obj))[0].get(name)
    if hint is None or (rest and not dataclasses.is_dataclass(hint)):
        raise ConfigError([f"{dotted}: no such {'section' if rest else 'field'} {name!r}"])
    if rest:
        section = getattr(obj, name)
        new = _overridden(section, rest, value, dotted)
        try:
            return dataclasses.replace(section, **{rest[0]: new})
        except ValueError as exc:
            raise ConfigError([f"{dotted}: {exc}"]) from None
    errors: list[str] = []
    new = _convert(value, hint, dotted, errors)
    if errors:
        raise ConfigError(errors)
    return new
