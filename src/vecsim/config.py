"""Scenario configuration: schema, defaults, validation, JSON loading.

A scenario file is one JSON object whose sections mirror the dataclasses
below. Each `--override` edits that JSON tree, and the tree is converted by
one path that reads the dataclass type hints, so a wrong type is reported
with its dotted field path. Each number, enum and required list declares its
range next to it, as `Annotated[float, Range(gt=0)]` (`Range()` takes any
finite value). Validation checks every declared range in one message format,
`dotted.path: must be > 0, got 0.0`, whether or not the field's section is
enabled, then the rules that relate two fields or entities. It collects
every problem, so a bad file is rejected before slot 0 with actionable
diagnostics rather than a mid-run crash.
"""

# No postponed annotations here: the field hints are built once at import,
# so reading them for conversion and range checks compiles no strings.
import copy
import dataclasses
import functools
import itertools
import json
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, NamedTuple

from vecsim.channel import ChannelParams
from vecsim.control_plane import connected_components
from vecsim.edge import ComputeParams, Service
from vecsim.mac import CtuPool
from vecsim.mobility import MarkovJumpModel, RoadGraph, line_graph
from vecsim.ranges import Range, shown


class ConfigError(ValueError):
    """Scenario rejected; .errors lists field-named diagnostics."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid scenario: " + "; ".join(errors))
        self.errors = errors


MAX_SNR_DB = 1000.0     # keeps 10 ** (snr_db / 10) in mac.effective_snr_db, and its AF product, finite
MAX_CTU_POOL = 1 << 16  # the downlink lists every free CTU of the pool in each slot
MAX_AP_RANKS = 1024     # each downlink decision scans all ap_ranks x power level actions
MAX_PAYLOAD_BITS = 1 << 16  # the cipher library builds and encrypts a payload_bits / 8 byte message per exchange
MAX_CIPHER_WINDOW = 1024    # the cipher library packs and hashes a whole window per message
MAX_POWER_W = 1e6           # 10**4 times a macro cell's transmit power; keeps the downlink energy sums finite
MAX_INPUT_BITS = 1e15       # 10**10 times the default task input; keeps the cloud latency and energy sums finite

Id = Annotated[int, Range()]     # validate_scenario checks that each id is unique and each reference known
Probability = Annotated[float, Range(ge=0, le=1)]


@dataclass(eq=False, repr=False)
class VehicleSpec:
    vehicle_id: Id
    cell: Id
    velocity_class: str = "default"


class VelocityChange(NamedTuple):
    """A scheduled switch of one vehicle's velocity class; a (slot, vehicle, class) tuple."""

    slot: Annotated[int, Range(ge=0)]
    vehicle_id: Id
    velocity_class: str


@dataclass(eq=False, repr=False)
class ApSpec:
    ap_id: Id
    x: Annotated[float, Range()]
    y: Annotated[float, Range()]
    an_id: Id
    fronthaul_snr_db: Annotated[float, Range(le=MAX_SNR_DB)] = 30.0


@dataclass(eq=False, repr=False)
class AnSpec:
    an_id: Id
    power_budget_w: Annotated[float, Range(ge=0)] = 2.0     # a negative budget books negative energy
    controller_capacity: Annotated[float, Range(gt=0)] = 100.0
    storage_capacity: Annotated[float, Range(ge=0)] = 10.0


@dataclass(eq=False, repr=False)
class MacConfig:
    payload_bits: Annotated[int, Range(ge=1, le=MAX_PAYLOAD_BITS)] = 128
    bler_alpha: Annotated[float, Range(gt=0)] = 1.0         # the BLER must fall as SNR rises
    # the SNR (dB) at which half the blocks fail: below unit SNR a short packet fails more often than not
    bler_beta: dict[int, Annotated[float, Range(ge=0)]] = field(default_factory=lambda: {128: 5.0, 256: 8.0})
    k_max: Annotated[int, Range(ge=1)] = 2
    relay_mode: Annotated[str, Range(among=("AF", "DF"))] = "AF"
    replicas: Annotated[int, Range(ge=1)] = 2               # used when the bandit is off
    ctu_policy: Annotated[str, Range(among=("random", "preconfigured"))] = "random"
    preconfigured: dict[int, list[tuple[Id, Id]]] = field(default_factory=dict)     # vehicle -> (CTU, AP) pairs


@dataclass(eq=False, repr=False)
class BanditConfig:
    enabled: bool = False
    epsilon: Probability = 0.1
    cost_per_replica: Annotated[float, Range(ge=0)] = 0.05  # a negative cost rewards every extra replica
    r_max: Annotated[int, Range(ge=1)] = 4


@dataclass(eq=False, repr=False)
class ClusterConfig:
    k_cluster: Annotated[int, Range(ge=1)] = 2
    downlink_ctu_demand: Annotated[int, Range(ge=0)] = 1


@dataclass(eq=False, repr=False)
class DownlinkConfig:
    policy: Annotated[str, Range(among=("eco", "random"))] = "eco"
    power_levels_w: Annotated[tuple[Annotated[float, Range(gt=0, le=MAX_POWER_W)], ...], Range(ge=1, items=True)] = (0.1, 1.0)
    ap_ranks: Annotated[int, Range(ge=1, le=MAX_AP_RANKS)] = 2
    epsilon: Probability = 0.1
    eta: Annotated[float, Range(gt=0, le=1)] = 0.3
    gamma: Annotated[float, Range(ge=0, lt=1)] = 0.5
    # reward weights: a negative one would reward a lost packet or spent power
    w_delivery: Annotated[float, Range(ge=0)] = 1.0
    w_power: Annotated[float, Range(ge=0)] = 0.5
    load_buckets: Annotated[int, Range(ge=1)] = 3
    # keeps snr_db / snr_bucket_db finite for every |snr_db| <= MAX_SNR_DB
    snr_bucket_db: Annotated[float, Range(ge=1e-300)] = 10.0


@dataclass(eq=False, repr=False)
class PredictorConfig:
    policy: Annotated[str, Range(among=("bayes", "persistence"))] = "bayes"
    threshold: Annotated[float, Range(gt=0, lt=1)] = 0.5
    obs_floor: Probability = 0.01
    obs_ceiling: Probability = 0.99


@dataclass(eq=False, repr=False)
class ControlConfig:
    enabled: bool = True
    latency_bound_s: Annotated[float, Range(gt=0)] = 0.01
    target_mean_latency_s: Annotated[float, Range(gt=0)] | None = None
    tighten_factor: Annotated[float, Range(gt=0, lt=1)] = 0.8
    max_feedback_iters: Annotated[int, Range(ge=1)] = 3     # with no iteration the target is never pursued
    rate_per_vehicle: Annotated[float, Range(gt=0)] = 1.0
    period_slots: Annotated[int, Range(ge=1)] = 50
    kappa: Annotated[float, Range(ge=0)] = 1e-4             # scales each edge's congestion delay; shortest paths need it >= 0
    # u, v, weight_s, capacity
    edges: list[tuple[Id, Id, Annotated[float, Range(gt=0)], Annotated[float, Range(gt=0)]]] = field(
        default_factory=list
    )


@dataclass(eq=False, repr=False)
class EdgeComputeConfig(ComputeParams):
    enabled: bool = True
    services: list[Service] = field(default_factory=lambda: [
        Service(service_id=0, size=2.0, cycles_per_task=2e6, popularity=1.0),
    ])
    task_arrival_prob: Probability = 0.1
    input_bits: Annotated[float, Range(ge=0, le=MAX_INPUT_BITS)] = 1e5
    recache_period: Annotated[int, Range(ge=1)] = 100
    # every AN keeps an energy ledger, with edge compute on or off
    energy_budget_per_slot: Annotated[float, Range(gt=0)] = 0.01
    tradeoff_v: Annotated[float, Range(gt=0)] = 1.0
    offload_policy: Annotated[str, Range(among=("drift", "greedy_local", "always_cloud"))] = "drift"


@dataclass(eq=False, repr=False)
class CipherConfig:
    enabled: bool = True
    # slots in every vehicle's fingerprint window
    window: Annotated[int, Range(ge=1, le=MAX_CIPHER_WINDOW)] = 4
    max_resync: Annotated[int, Range(ge=1)] = 10
    an_view_flip_prob: Probability = 0.0                    # chance an association bit is mis-recorded AN-side


@dataclass(eq=False, repr=False)
class ScenarioConfig:
    name: str = "scenario"
    seed: Annotated[int, Range(ge=0)] = 0
    horizon: Annotated[int, Range(ge=1)] = 100
    # one radio scheduling interval (ms-scale); the energies it books, power x slot, stay finite
    slot_duration: Annotated[float, Range(gt=0, le=1)] = 1e-3
    latency_deadline_s: Annotated[float, Range(gt=0)] = 1e-3
    road: RoadGraph = field(default_factory=lambda: line_graph(5)[0])
    mobility: MarkovJumpModel = field(default_factory=lambda: line_graph(5)[1])
    vehicles: Annotated[list[VehicleSpec], Range(ge=1, items=True)] = field(default_factory=list)
    velocity_schedule: list[VelocityChange] = field(default_factory=list)
    aps: Annotated[list[ApSpec], Range(ge=1, items=True)] = field(default_factory=list)
    ans: Annotated[list[AnSpec], Range(ge=1, items=True)] = field(default_factory=list)
    channel: ChannelParams = field(default_factory=ChannelParams)
    # a cluster member's SNR lies between the threshold and the peak
    snr_threshold_db: Annotated[float, Range(ge=-MAX_SNR_DB, le=MAX_SNR_DB)] = 3.0
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


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """All invariant checks; returns a list of 'path: problem' strings.

    Every declared Range is checked first, then the rules that relate two
    fields or entities: ids, references, pool sizes, the peak SNR and
    connectivity.
    """
    errors: list[str] = []
    _range_problems(cfg, ScenarioConfig, "", errors)

    road_problems = cfg.road.problems()
    errors += [f"road.{p}" for p in road_problems]
    if not road_problems:     # the rows are checked against a valid road
        errors += [f"mobility.{p}" for p in cfg.mobility.problems(cfg.road)]

    ch = cfg.channel
    if (peak := ch.tx_power_dbm - ch.pl0_db - ch.noise_dbm) > MAX_SNR_DB:
        errors.append(
            f"channel: peak SNR tx_power_dbm - pl0_db - noise_dbm must be <= {MAX_SNR_DB:g}, got {peak:g}"
        )

    cells = set(cfg.road.centers)
    vclasses = set(cfg.mobility.rows)
    vehicle_ids = _unique_ids(cfg.vehicles, "vehicles", "vehicle_id", errors)
    for i, veh in enumerate(cfg.vehicles):
        if veh.cell not in cells:
            errors.append(f"vehicles[{i}].cell: unknown cell {veh.cell}")
        if veh.velocity_class not in vclasses:
            errors.append(f"vehicles[{i}].velocity_class: unknown class {veh.velocity_class!r}")

    an_ids = _unique_ids(cfg.ans, "ans", "an_id", errors)
    ap_ids = _unique_ids(cfg.aps, "aps", "ap_id", errors)
    for i, ap in enumerate(cfg.aps):
        if ap.an_id not in an_ids:
            errors.append(f"aps[{i}].an_id: unknown AN {ap.an_id}")

    for i, (_, vid, vclass) in enumerate(cfg.velocity_schedule):
        if vid not in vehicle_ids:
            errors.append(f"velocity_schedule[{i}]: unknown vehicle {vid}")
        if vclass not in vclasses:
            errors.append(f"velocity_schedule[{i}]: unknown class {vclass!r}")

    if cfg.ctu_pool.size > MAX_CTU_POOL:
        errors.append(
            f"ctu_pool: slots_per_frame * freq_blocks * sequences must be <= {MAX_CTU_POOL}, got {cfg.ctu_pool.size}"
        )
    mac = cfg.mac
    if mac.payload_bits not in mac.bler_beta:
        errors.append(f"mac.bler_beta: no threshold for payload_bits {mac.payload_bits}")
    if mac.replicas > cfg.ctu_pool.size:
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
                if ap not in ap_ids:
                    errors.append(f"mac.preconfigured[{vid}][{j}]: unknown AP {ap}")

    bandit = cfg.bandit
    if bandit.enabled and bandit.r_max > cfg.ctu_pool.size:
        errors.append(f"bandit.r_max: {bandit.r_max} exceeds ctu_pool size {cfg.ctu_pool.size}")
    if bandit.enabled and mac.ctu_policy == "preconfigured":     # the pair lists fix the replica count
        errors.append("bandit.enabled: the replica bandit needs mac.ctu_policy random, got preconfigured")

    ctl = cfg.control
    if ctl.enabled:
        graph: dict[int, list[int]] = {an: [] for an in an_ids}
        for i, (u, v, _, _) in enumerate(ctl.edges):
            if u not in an_ids or v not in an_ids:
                errors.append(f"control.edges[{i}]: endpoint not an AN id")
            else:
                graph[u].append(v)
        parts = connected_components(graph)
        if len(cfg.ans) > 1 and not ctl.edges:
            errors.append("control.edges: required when more than one AN exists")
        elif len(parts) > 1:
            errors.append(f"control.edges: the ANs must form one connected graph, got components {parts}")

    ec = cfg.edge_compute
    if ec.enabled:
        _unique_ids(ec.services, "edge_compute.services", "service_id", errors)
        if not ec.services:
            errors.append("edge_compute.services: at least one service required when enabled")
        elif not any(svc.popularity > 0 for svc in ec.services):
            errors.append("edge_compute.services: at least one popularity must be > 0")

    return errors


def _unique_ids(items, path: str, id_field: str, errors: list[str]) -> set:
    """The ids that `items` carry in `id_field`; each repeat is appended to
    `errors` as "path[i].id_field: duplicate id N"."""
    ids = set()
    for i, item in enumerate(items):
        key = getattr(item, id_field)
        if key in ids:
            errors.append(f"{path}[{i}].{id_field}: duplicate id {key}")
        ids.add(key)
    return ids


def _range_problems(value, hint, path: str, errors: list[str]) -> None:
    """Append "path: must be ..., got ..." for `value`, an instance of the type
    `hint`, and for each value under it that lies outside the Range its type
    declares; only types for which `_declares` holds are visited."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        if (problem := args[1].problem(value)) is not None:
            errors.append(f"{path}: {problem}")
        elif _declares(args[0]):
            _range_problems(value, args[0], path, errors)
    elif origin in (typing.Union, types.UnionType):
        if value is not None:
            (inner,) = [a for a in args if a is not type(None)]
            _range_problems(value, inner, path, errors)
    elif origin in (list, tuple, dict):
        items = value.items() if origin is dict else enumerate(value)
        if origin is tuple and args[-1] is not Ellipsis:     # one hint per item
            item_hints = args
        else:
            item_hints = itertools.repeat(args[-1] if origin is dict else args[0])
        for (key, item), item_hint in zip(items, item_hints):
            if _declares(item_hint):
                _range_problems(item, item_hint, f"{path}[{key}]", errors)
    else:     # a record; a NamedTuple record may be given as a plain tuple
        for i, (name, field_hint) in enumerate(_fields(hint)[2].items()):
            if _declares(field_hint):
                item = value[i] if isinstance(value, tuple) else getattr(value, name)
                _range_problems(item, field_hint, _join(path, name), errors)


@functools.cache
def _declares(hint) -> bool:
    """Whether the type `hint`, or a type under it, declares a Range that
    excludes a value; every declared float excludes NaN and the infinities."""
    if typing.get_origin(hint) is Annotated:
        return hint.__metadata__[0] != Range() or hint.__origin__ is float or _declares(hint.__origin__)
    if _is_record(hint):
        return any(map(_declares, _fields(hint)[2].values()))
    return any(map(_declares, typing.get_args(hint)))


# ---------------------------------------------------------------------------
# JSON tree -> ScenarioConfig
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class _LineRoad:
    """The {"builder": "line"} road shorthand; it also brings its mobility model."""

    builder: Annotated[str, Range(among=("line",))]
    cells: Annotated[int, Range(ge=1)] = 5
    spacing_m: Annotated[float, Range(gt=0)] = 100.0
    forward_prob: Probability = 0.8


@dataclass(eq=False, repr=False)
class _RoadCell:
    cell_id: Id
    x: Annotated[float, Range()]
    y: Annotated[float, Range()]


@dataclass(eq=False, repr=False)
class _RoadCells:
    """A road given as cells and directed [src, dst] edges."""

    cells: list[_RoadCell]
    edges: list[tuple[Id, Id]]


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
    """The road graph, and the line builder's mobility model, once the road's
    fields hold their declared ranges."""
    before = len(errors)
    cls = _LineRoad if isinstance(data, dict) and "builder" in data else _RoadCells
    spec = _convert(data, cls, "road", errors)
    if len(errors) == before:
        _range_problems(spec, cls, "road", errors)
    if len(errors) > before:
        return None, None
    if cls is _LineRoad:
        return line_graph(spec.cells, spacing_m=spec.spacing_m, forward_prob=spec.forward_prob)
    # the road graph keys cells by id, so repeats end here
    _unique_ids(spec.cells, "road.cells", "cell_id", errors)
    centers = {c.cell_id: (c.x, c.y) for c in spec.cells}
    adjacency: dict[int, list[int]] = {c: [] for c in centers}
    for src, dst in spec.edges:
        adjacency.setdefault(src, []).append(dst)
    return RoadGraph(centers=centers, adjacency={c: tuple(n) for c, n in adjacency.items()}), None


@functools.cache
def _fields(cls) -> tuple[dict[str, object], frozenset[str], dict[str, object]]:
    """Type hint per field of a dataclass or NamedTuple, the fields without a
    default, and each field's hint with its declared Range."""
    declared = typing.get_type_hints(cls, include_extras=True)
    if dataclasses.is_dataclass(cls):
        missing = dataclasses.MISSING
        fields = dataclasses.fields(cls)
        required = frozenset(f.name for f in fields if f.default is missing and f.default_factory is missing)
    else:
        required = frozenset(cls._fields) - cls._field_defaults.keys()
    bare = {name: h.__origin__ if typing.get_origin(h) is Annotated else h for name, h in declared.items()}
    return bare, required, declared


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
            errors.append(f"{path}: expected a finite number, got {_got(value)}")   # or an int no float holds
            return None
        if type(value) is hint or (hint is float and type(value) is int):
            return float(value) if hint is float else value
        errors.append(f"{path}: expected {_SCALARS[hint]}, got {_got(value)}")
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:     # an item's declared Range, checked by validate_scenario
        return _convert(value, args[0], path, errors)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _convert(value, inner, path, errors)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            errors.append(f"{path}: expected a list, got {_got(value)}")
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
            errors.append(f"{path}: expected an object, got {_got(value)}")
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


def _got(value) -> str:
    """A value of the wrong type, as its type and a bounded prefix of its repr."""
    return f"{type(value).__name__} {shown(value)}"


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _convert_record(value, cls, path: str, errors: list[str]):
    if not isinstance(value, dict):
        errors.append(f"{path}: expected an object, got {_got(value)}")
        return None
    hints, required, _ = _fields(cls)
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
    return None if len(errors) > before else cls(**kwargs)


def read_json_object(path: str | Path) -> dict:
    """The JSON object in the file at `path`; anything else is a ConfigError."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError([f"{p}: unreadable ({exc})"])
    except ValueError as exc:     # not UTF-8, not JSON, or an integer past Python's digit limit
        raise ConfigError([f"{p}: not valid JSON ({exc})"])
    if not isinstance(data, dict):
        raise ConfigError([f"{p}: top level must be an object"])
    return data


def load_record(path: str | Path, cls):
    """The JSON object in the file at `path`, converted to the dataclass `cls`
    by the scenario file's typed converter, with every declared range held."""
    errors: list[str] = []
    record = _convert(read_json_object(path), cls, "", errors)
    if not errors:
        _range_problems(record, cls, "", errors)
    if errors:
        raise ConfigError(errors)
    return record


def load_scenario(path: str | Path, overrides: dict[str, object] | None = None) -> ScenarioConfig:
    """Read a scenario file, apply `overrides` to its JSON tree, then parse
    and fully validate the result."""
    cfg = scenario_from_dict(apply_overrides(read_json_object(path), overrides or {}))
    problems = validate_scenario(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def apply_overrides(data: dict, overrides: dict[str, object]) -> dict:
    """Apply dotted-path overrides like {"bandit.enabled": True} to the parsed
    JSON tree `data` in place, and return it.

    Every part of a key but the last names a JSON object, created when
    missing; the last part's value is replaced. The tree is then converted
    like any scenario file, so an override addresses the file's own fields.
    """
    errors = []
    for dotted, value in overrides.items():
        *parents, leaf = dotted.split(".")
        if not all([*parents, leaf]):
            errors.append(f"override key {shown(dotted)}: empty part")
            continue
        node = data
        for i, part in enumerate(parents):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                errors.append(f"{dotted}: {'.'.join(parents[:i + 1])} is not an object")
                break
        else:
            node[leaf] = copy.deepcopy(value)     # a later override may edit inside it
    if errors:
        raise ConfigError(errors)
    return data
