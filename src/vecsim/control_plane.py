"""Scalable SDN control plane planning.

Three coupled pieces: minimum-count controller placement with vehicle domain
assignment, control-traffic path balancing under a convex congestion latency,
and versioned-view flooding between controllers. Placement is greedy
set-cover at scale with an exact subset search for small topologies; the
balancing loop reroutes one vehicle at a time until no move lowers the mean
latency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import networkx as nx

MAX_BALANCE_PASSES = 50     # full rerouting passes balance_control_traffic makes at most


class InfeasiblePlacement(Exception):
    """No controller set can serve the demand; .binding names the constraint."""

    def __init__(self, message: str, binding: str):
        super().__init__(message)
        self.binding = binding   # "capacity" or "latency"


class CongestionInfeasible(Exception):
    """Some edge is at or beyond capacity after routing converged."""


class DisconnectedControllers(Exception):
    def __init__(self, components: list[list[int]]):
        super().__init__(f"controller graph is disconnected: components {components}")
        self.components = components


@dataclass(frozen=True)
class ControlTopology:
    """AN graph: node controller capacities and weighted, capacitated edges.

    Edge keys are normalized (u < v); weights are propagation latency in
    seconds, capacities in control messages per slot.
    """

    capacity: dict[int, float]
    edges: dict[tuple[int, int], tuple[float, float]]   # (u, v) -> (weight_s, capacity)
    kappa: float = 1e-4

    def graph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(sorted(self.capacity))
        for (u, v), (w, cap) in self.edges.items():
            g.add_edge(u, v, weight=w, capacity=cap)
        return g

    def all_pairs_latency(self) -> dict[int, dict[int, float]]:
        return {
            src: dict(lengths)
            for src, lengths in nx.all_pairs_dijkstra_path_length(self.graph(), weight="weight")
        }


@dataclass(frozen=True)
class Demand:
    vehicle_id: int
    ingress_an: int
    rate: float        # control messages per slot


@dataclass(frozen=True)
class Placement:
    controllers: frozenset[int]
    domain: dict[int, int]          # vehicle -> controller
    latency_bound: float
    exact: bool


@dataclass
class ControlFlowRouting:
    paths: dict[int, list[int]]     # vehicle -> AN sequence (ingress..controller)
    edge_load: dict[tuple[int, int], float]
    mean_latency: float


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _assignment_backtrack(
    demands: list[Demand],
    options: dict[int, list[int]],
    capacity: dict[int, float],
) -> dict[int, int] | None:
    """Exact capacity-respecting assignment, or None.

    Vehicles are tried most-constrained first; candidate controllers by
    remaining capacity (id tiebreak). Desk-scale instances only.
    """
    order = sorted(demands, key=lambda d: (len(options[d.vehicle_id]), -d.rate, d.vehicle_id))
    remaining = dict(capacity)
    assigned: dict[int, int] = {}

    def recurse(i: int) -> bool:
        if i == len(order):
            return True
        d = order[i]
        cands = sorted(options[d.vehicle_id], key=lambda c: (-remaining[c], c))
        for c in cands:
            if remaining[c] + 1e-12 >= d.rate:
                remaining[c] -= d.rate
                assigned[d.vehicle_id] = c
                if recurse(i + 1):
                    return True
                remaining[c] += d.rate
                del assigned[d.vehicle_id]
        return False

    return assigned if recurse(0) else None


def place_controllers(
    topology: ControlTopology,
    demands: list[Demand],
    latency_bound: float,
    exact_limit: int = 12,
) -> Placement:
    """Minimum-cardinality controller set covering all control demand.

    Every vehicle must be assigned to a controller whose shortest-path latency
    from the vehicle's ingress AN is within `latency_bound`, without
    overflowing controller capacity. Topologies up to `exact_limit` ANs get an
    exhaustive subset search; larger ones a greedy set-cover.
    """
    total_demand = sum(d.rate for d in demands)
    total_capacity = sum(topology.capacity.values())
    if total_demand > total_capacity + 1e-12:
        raise InfeasiblePlacement(
            f"total demand {total_demand} exceeds total controller capacity {total_capacity}",
            binding="capacity",
        )
    dist = topology.all_pairs_latency()
    options = {
        d.vehicle_id: sorted(
            an for an in topology.capacity if dist[d.ingress_an].get(an, math.inf) <= latency_bound
        )
        for d in demands
    }
    orphans = sorted(v for v, opts in options.items() if not opts)
    if orphans:
        raise InfeasiblePlacement(
            f"vehicles {orphans} have no AN within latency bound {latency_bound}",
            binding="latency",
        )

    if len(topology.capacity) <= exact_limit:
        return _place_exact(topology, demands, options, latency_bound)
    return _place_greedy(topology, demands, options, dist, latency_bound)


def _place_exact(topology, demands, options, latency_bound) -> Placement:
    ans = sorted(topology.capacity)
    for k in range(1, len(ans) + 1):
        for subset in itertools.combinations(ans, k):
            sub = set(subset)
            trimmed = {v: [c for c in opts if c in sub] for v, opts in options.items()}
            if any(not opts for opts in trimmed.values()):
                continue
            assigned = _assignment_backtrack(demands, trimmed, topology.capacity)
            if assigned is not None:
                return Placement(
                    controllers=frozenset(subset),
                    domain=assigned,
                    latency_bound=latency_bound,
                    exact=True,
                )
    raise InfeasiblePlacement("no controller subset can host all demand", binding="capacity")


def _place_greedy(topology, demands, options, dist, latency_bound) -> Placement:
    unassigned = {d.vehicle_id: d for d in demands}
    open_controllers: list[int] = []
    remaining_cap = dict(topology.capacity)
    domain: dict[int, int] = {}
    while unassigned:
        best_an, best_covered, best_weight = None, [], 0.0
        for an in sorted(topology.capacity):
            if an in open_controllers:
                continue
            eligible = sorted(
                (d for d in unassigned.values() if an in options[d.vehicle_id]),
                key=lambda d: (dist[d.ingress_an][an], d.vehicle_id),
            )
            covered, weight, cap = [], 0.0, remaining_cap[an]
            for d in eligible:
                if weight + d.rate <= cap + 1e-12:
                    covered.append(d)
                    weight += d.rate
            if weight > best_weight:
                best_an, best_covered, best_weight = an, covered, weight
        if best_an is None:
            raise InfeasiblePlacement(
                f"greedy cover stalled with vehicles {sorted(unassigned)} unassigned",
                binding="capacity",
            )
        open_controllers.append(best_an)
        for d in best_covered:
            domain[d.vehicle_id] = best_an
            remaining_cap[best_an] -= d.rate
            del unassigned[d.vehicle_id]
    return Placement(
        controllers=frozenset(open_controllers),
        domain=domain,
        latency_bound=latency_bound,
        exact=False,
    )


def _edge_latency(weight: float, cap: float, load: float, kappa: float) -> float:
    if load >= cap:
        return math.inf
    return weight + kappa * load / (cap - load)


def balance_control_traffic(
    placement: Placement,
    topology: ControlTopology,
    demands: list[Demand],
) -> ControlFlowRouting:
    """Route each vehicle's control flow to its controller, then locally improve.

    Edge latency is w_e + kappa * load / (cap - load). One vehicle at a time
    is rerouted onto the path minimizing the marginal total latency; the loop
    stops when a full pass accepts no move, after at most MAX_BALANCE_PASSES.
    Total latency strictly decreases per accepted move, so it terminates.
    """
    g = topology.graph()
    by_vehicle = {d.vehicle_id: d for d in demands}
    load: dict[tuple[int, int], float] = {e: 0.0 for e in topology.edges}
    paths: dict[int, list[int]] = {}

    def marginal_weight(rate: float):
        def weight_fn(u, v, attrs):
            e = _norm_edge(u, v)
            f = load[e]
            w, cap = topology.edges[e]
            if f + rate >= cap:
                return None     # networkx treats None as an absent edge
            before = f * _edge_latency(w, cap, f, topology.kappa) if f > 0 else 0.0
            after = (f + rate) * _edge_latency(w, cap, f + rate, topology.kappa)
            return after - before
        return weight_fn

    def add_load(path: list[int], rate: float, sign: float) -> None:
        for u, v in zip(path, path[1:]):
            load[_norm_edge(u, v)] += sign * rate

    def total_latency() -> float:
        total = 0.0
        for vid, path in paths.items():
            rate = by_vehicle[vid].rate
            for u, v in zip(path, path[1:]):
                e = _norm_edge(u, v)
                w, cap = topology.edges[e]
                total += rate * _edge_latency(w, cap, load[e], topology.kappa)
        return total

    # initial greedy routing, ascending vehicle id
    for vid in sorted(placement.domain):
        d = by_vehicle[vid]
        target = placement.domain[vid]
        try:
            path = nx.dijkstra_path(g, d.ingress_an, target, weight=marginal_weight(d.rate))
        except nx.NetworkXNoPath:
            raise CongestionInfeasible(
                f"no uncongested path from AN {d.ingress_an} to controller {target} for vehicle {vid}"
            )
        paths[vid] = path
        add_load(path, d.rate, +1.0)

    total_rate = sum(by_vehicle[v].rate for v in placement.domain)
    current = total_latency()
    for _ in range(MAX_BALANCE_PASSES):
        improved = False
        for vid in sorted(placement.domain):
            d = by_vehicle[vid]
            add_load(paths[vid], d.rate, -1.0)
            try:
                candidate = nx.dijkstra_path(
                    g, d.ingress_an, placement.domain[vid], weight=marginal_weight(d.rate)
                )
            except nx.NetworkXNoPath:
                add_load(paths[vid], d.rate, +1.0)
                continue
            old_path = paths[vid]
            paths[vid] = candidate
            add_load(candidate, d.rate, +1.0)
            new_total = total_latency()
            if new_total < current - 1e-15:
                current = new_total
                improved = True
            else:
                add_load(candidate, d.rate, -1.0)
                paths[vid] = old_path
                add_load(old_path, d.rate, +1.0)
        if not improved:
            break

    for e, f in load.items():
        if f >= topology.edges[e][1]:
            raise CongestionInfeasible(f"edge {e} carries {f} against capacity {topology.edges[e][1]}")
    mean = current / total_rate if total_rate > 0 else 0.0
    return ControlFlowRouting(paths=paths, edge_load=load, mean_latency=mean)


def replace_on_feedback(
    placement: Placement,
    routing: ControlFlowRouting,
    topology: ControlTopology,
    demands: list[Demand],
    target: float,
    tighten_factor: float = 0.8,
    max_iters: int = 5,
) -> tuple[Placement, ControlFlowRouting]:
    """Adaptive re-placement: tighten the latency bound until the target holds.

    `routing` is `placement`'s balanced routing. Returns the last placement
    tried with its routing, or both untouched when the routing already meets
    the target. A bound collapsing below the smallest edge weight means the
    target cannot be met by re-placement and is reported as such.
    """
    if not 0.0 < tighten_factor < 1.0:
        raise ValueError("tighten_factor must lie in (0, 1)")
    min_weight = min(w for w, _ in topology.edges.values()) if topology.edges else 0.0
    bound = placement.latency_bound
    for _ in range(max_iters):
        if routing.mean_latency <= target:
            break
        bound *= tighten_factor
        if bound < min_weight:
            raise InfeasiblePlacement(
                f"latency bound collapsed to {bound:.6g}, below smallest edge weight {min_weight:.6g}; "
                "target unattainable",
                binding="latency",
            )
        placement = place_controllers(topology, demands, bound)
        routing = balance_control_traffic(placement, topology, demands)
    return placement, routing


def sync_controllers(
    neighbors: dict[int, list[int]],
    views: dict[int, dict[str, int]],
) -> tuple[int, dict[str, int]]:
    """Synchronous flooding of versioned views until all controllers agree.

    Each round every controller merges its neighbors' views element-wise,
    highest version winning. Returns (rounds, converged view); rounds is 0
    when views already agree. Convergence never needs more rounds than the
    graph diameter.
    """
    nodes = sorted(neighbors)
    if set(views) != set(nodes):
        raise ValueError("views must cover exactly the controller set")
    components = sorted(sorted(c) for c in nx.connected_components(nx.Graph(neighbors)))
    if len(components) > 1:
        raise DisconnectedControllers(components)

    keys = sorted({k for view in views.values() for k in view})
    state = {n: {k: views[n].get(k, 0) for k in keys} for n in nodes}

    def all_equal() -> bool:
        first = state[nodes[0]]
        return all(state[n] == first for n in nodes[1:])

    rounds = 0
    while not all_equal():
        merged = {}
        for n in nodes:
            view = dict(state[n])
            for nb in neighbors[n]:
                for k in keys:
                    if state[nb][k] > view[k]:
                        view[k] = state[nb][k]
            merged[n] = view
        state = merged
        rounds += 1
        if rounds > len(nodes):
            raise AssertionError("flooding exceeded the node-count bound; graph bookkeeping is broken")
    return rounds, state[nodes[0]]


def relay_free_controller_graph(
    topology: ControlTopology, controllers: frozenset[int]
) -> dict[int, list[int]]:
    """Sync graph over controllers: edge iff some shortest path between the two
    passes through no other controller. Connected whenever the AN graph is."""
    g = topology.graph()
    ctrls = sorted(controllers)
    neighbors: dict[int, list[int]] = {c: [] for c in ctrls}
    for i, a in enumerate(ctrls):
        for b in ctrls[i + 1 :]:
            for path in nx.all_shortest_paths(g, a, b, weight="weight"):
                if not any(n in controllers for n in path[1:-1]):
                    neighbors[a].append(b)
                    neighbors[b].append(a)
                    break
    for c in ctrls:
        neighbors[c].sort()
    return neighbors
