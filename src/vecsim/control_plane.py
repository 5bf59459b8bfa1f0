"""Scalable SDN control plane planning.

Three coupled pieces: minimum-count controller placement with vehicle domain
assignment, control-traffic path balancing under a convex congestion latency,
and versioned-view sync between controllers by breadth-first search. Exact
placement tries controller subsets in minimum-cardinality order and decides
each with one integral max-flow over vehicle classes; beyond `exact_limit` ANs
a greedy set cover merges ingress classes; both fill an AN by one rule. The
balancing loop reroutes one vehicle at a time, pricing its old and new paths
by their marginal cost, until no move lowers the total latency. Graphs are
adjacency dicts; a topology is searched by Dijkstra once from each AN that a
static latency or shortest-path question asks about, and every such question
reads those searches. Flows are one shortest-augmenting-path search in a
fixed order.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

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


class ControlTopology:
    """AN graph: node controller capacities and weighted, capacitated edges.

    Edge keys are normalized (u < v); weights are propagation latency in
    seconds, capacities in control messages per slot. The adjacency and the
    searches are cached on first use, so the dicts must not change after.
    """

    def __init__(
        self,
        capacity: dict[int, float],
        edges: dict[tuple[int, int], tuple[float, float]],     # (u, v) -> (weight_s, capacity)
        kappa: float = 1e-4,
    ):
        self.capacity = capacity
        self.edges = edges
        self.kappa = kappa
        self._searches: dict[int, tuple[dict[int, float], dict[int, list[int]]]] = {}     # filled by `search`

    @functools.cached_property
    def graph(self) -> dict[int, dict[int, float]]:
        """{an: {neighbour: weight_s}}: ANs ascending, then neighbours in edge order."""
        adj: dict[int, dict[int, float]] = {an: {} for an in sorted(self.capacity)}
        for (u, v), (w, _) in self.edges.items():
            adj.setdefault(u, {})[v] = w
            adj.setdefault(v, {})[u] = w
        return adj

    def search(self, src: int) -> tuple[dict[int, float], dict[int, list[int]]]:
        """`src`'s shortest distances and predecessors, searched once per topology, on first request."""
        if src not in self._searches:
            self._searches[src] = _dijkstra(self.graph, src)
        return self._searches[src]

    def all_pairs_latency(self) -> dict[int, dict[int, float]]:
        """{source: {an: latency_s}}; the rows are the cached searches', shared and read-only."""
        return {src: self.search(src)[0] for src in self.graph}


@dataclass(eq=False, repr=False)
class Demand:
    vehicle_id: int
    ingress_an: int
    rate: float        # control messages per slot


@dataclass(frozen=True, eq=False, repr=False)
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


Weight = Callable[[int, int], Optional[float]]


def _dijkstra(
    graph: dict[int, dict[int, float]],
    source: int,
    weight: Optional[Weight] = None,
    target: Optional[int] = None,
) -> tuple[dict[int, float], dict[int, list[int]]]:
    """Shortest distances from `source` and each node's shortest-path predecessors.

    `weight(u, v)` prices an edge, None hiding it; by default the graph's own
    weight. Weights must not be negative. The search stops once `target` is
    settled. This is networkx's `_dijkstra_multisource` for one source: a heap
    of (dist, counter, node), a strictly lower distance replaces a node's
    predecessors and an equal one appends to them, so `pred[v][0]` is the last
    strictly improving one, the predecessor networkx's path search follows.
    """
    dist: dict[int, float] = {}
    pred: dict[int, list[int]] = {source: []}
    seen: dict[int, float] = {source: 0}
    counter = itertools.count()
    fringe = [(0, next(counter), source)]
    while fringe:
        d, _, v = heapq.heappop(fringe)
        if v in dist:
            continue
        dist[v] = d
        if v == target:
            break
        for u, w in graph[v].items():
            cost = w if weight is None else weight(v, u)
            if cost is None:
                continue
            vu = d + cost
            if u in dist:
                if vu == dist[u]:
                    pred[u].append(v)
            elif u not in seen or vu < seen[u]:
                seen[u] = vu
                heapq.heappush(fringe, (vu, next(counter), u))
                pred[u] = [v]
            elif vu == seen[u]:
                pred[u].append(v)
    return dist, pred


def shortest_path(
    graph: dict[int, dict[int, float]], source: int, target: int, weight: Weight
) -> Optional[list[int]]:
    """The path networkx's `dijkstra_path` returns, or None where it finds none."""
    if source == target:
        return [source]
    dist, pred = _dijkstra(graph, source, weight, target)
    if target not in dist:
        return None
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]][0])
    return path[::-1]


def connected_components(neighbors: dict[int, Iterable[int]]) -> list[list[int]]:
    """Components of the undirected graph node -> neighbours, each sorted, in ascending order."""
    adj: dict[int, set[int]] = {}
    for u, nbs in neighbors.items():
        for v in (u, *nbs):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    parts, seen = [], set()
    for start in adj:
        if start not in seen:
            part, stack = {start}, [start]
            while stack:
                new = adj[stack.pop()] - part
                part |= new
                stack.extend(new)
            seen |= part
            parts.append(sorted(part))
    return sorted(parts)


def _is_tree(graph: dict[int, dict[int, float]]) -> bool:
    """Connected with |E| = |V| - 1; a self-loop counts as an edge."""
    edges = sum(len(nbs) + (v in nbs) for v, nbs in graph.items()) // 2
    return len(graph) > 0 and edges == len(graph) - 1 and len(connected_components(graph)) == 1


def _room(topology: ControlTopology, demands: list[Demand]) -> dict[int, int]:
    """AN -> the most m vehicles whose left-to-right rate sum fits its capacity
    within 1e-12; lo=1 leaves a capacity below zero room for none."""
    weights = list(itertools.accumulate((d.rate for d in demands), initial=0.0))
    return {an: bisect.bisect_right(weights, cap + 1e-12, 1) - 1 for an, cap in topology.capacity.items()}


def place_controllers(
    topology: ControlTopology,
    demands: list[Demand],
    latency_bound: float,
    exact_limit: int = 12,
) -> Placement:
    """Minimum-cardinality controller set covering all control demand.

    Every vehicle must be assigned to a controller whose shortest-path latency
    from the vehicle's ingress AN is within `latency_bound`, without
    overflowing controller capacity. All demands must share one rate.
    Topologies up to `exact_limit` ANs get an exhaustive subset search;
    larger ones a greedy set-cover.
    """
    if len({d.rate for d in demands}) > 1:
        raise ValueError(f"demands must share one rate, got {sorted({d.rate for d in demands})}")
    # floats add left to right here: Python 3.12's sum() compensates and moves bits
    total_demand = functools.reduce(operator.add, (d.rate for d in demands), 0)
    total_capacity = functools.reduce(operator.add, topology.capacity.values(), 0)
    if total_demand > total_capacity + 1e-12:
        raise InfeasiblePlacement(
            f"total demand {total_demand} exceeds total controller capacity {total_capacity}",
            binding="capacity",
        )
    dist = {src: topology.search(src)[0] for src in sorted({d.ingress_an for d in demands})}
    reach = {     # ingress AN -> controllers within the bound, ascending
        src: [an for an in sorted(topology.capacity) if row.get(an, math.inf) <= latency_bound]
        for src, row in dist.items()
    }
    orphans = sorted(d.vehicle_id for d in demands if not reach[d.ingress_an])
    if orphans:
        raise InfeasiblePlacement(
            f"vehicles {orphans} have no AN within latency bound {latency_bound}",
            binding="latency",
        )

    if len(topology.capacity) <= exact_limit:
        return _place_exact(topology, demands, reach, latency_bound)
    return _place_greedy(topology, demands, reach, dist, latency_bound)


def _place_exact(topology, demands, reach, latency_bound) -> Placement:
    """First subset, in minimum-cardinality order, that hosts every vehicle.

    With one rate a controller hosts at most its `_room`, so a subset is
    feasible iff an integral flow class -> controller carries every vehicle;
    `_class_flow` decides that. A class is the vehicles that reach the same
    controllers of the subset; it hands its vehicles out in ascending id to
    its controllers in ascending id, as many to each as the flow sends.
    """
    ans = sorted(topology.capacity)
    slots = _room(topology, demands)
    by_ingress: dict[int, list[int]] = {src: [] for src in reach}
    for d in demands:
        by_ingress[d.ingress_an].append(d.vehicle_id)
    for k in range(1, len(ans) + 1):
        for subset in itertools.combinations(ans, k):
            if sum(slots[c] for c in subset) < len(demands):
                continue
            classes: dict[tuple[int, ...], list[int]] = {}     # reachable controllers -> vehicles
            for src, vids in by_ingress.items():
                classes.setdefault(tuple(c for c in reach[src] if c in subset), []).extend(vids)
            flow = _class_flow(classes, slots)
            if flow is None:
                continue
            domain: dict[int, int] = {}
            for ctrls, vids in classes.items():
                queue = iter(sorted(vids))
                for c in ctrls:
                    domain.update((next(queue), c) for _ in range(flow[ctrls][c]))
            return Placement(frozenset(subset), domain, latency_bound, exact=True)
    raise InfeasiblePlacement("no controller subset can host all demand", binding="capacity")


def _class_flow(classes, slots) -> Optional[dict[tuple[int, ...], dict[int, int]]]:
    """Vehicles each class sends each of its controllers, or None once some vehicle fits nowhere.

    Shortest augmenting paths over the class -> controller graph in one fixed
    order: classes are taken in sorted order; a breadth-first search from a
    class tries its controllers in ascending id, and a full controller passes
    the search on, in sorted order, to the classes already sending it
    vehicles. Each path carries its bottleneck.
    """
    order = sorted(classes)
    flow = {ctrls: dict.fromkeys(ctrls, 0) for ctrls in order}
    spare = dict(slots)
    for start in order:
        left = len(classes[start])
        while left:
            # controller -> the class that reached it; class -> the controller it gives up
            parent: dict = {start: None, **dict.fromkeys(start, start)}
            queue = list(start)
            for c in queue:
                if spare[c]:
                    break
                for other in order:
                    if other not in parent and flow[other].get(c):
                        parent[other] = c
                        fresh = [d for d in other if d not in parent]
                        parent.update(dict.fromkeys(fresh, other))
                        queue += fresh
            else:
                return None
            chain = [c]     # end, class, controller, ..., class, start
            while chain[-1] != start:
                chain.append(parent[chain[-1]])
            gives = list(zip(chain[1::2], chain[2::2]))
            push = min(left, spare[c], *(flow[k][d] for k, d in gives))
            for k, d in zip(chain[1::2], chain[::2]):
                flow[k][d] += push
            for k, d in gives:
                flow[k][d] -= push
            spare[c] -= push
            left -= push
    return flow


def _place_greedy(topology, demands, reach, dist, latency_bound) -> Placement:
    """Chvátal's greedy set cover. Each round opens the closed AN that can host
    the most vehicles, the lowest id on ties, and fills it nearest vehicle first,
    ties by id: a merge of the ingress classes it reaches, up to its `_room`."""
    unassigned = {d.vehicle_id: d for d in demands}
    classes: dict[int, list[int]] = {src: [] for src in reach}      # ingress AN -> unassigned vehicles, id descending
    for vid in sorted(unassigned, reverse=True):
        classes[unassigned[vid].ingress_an].append(vid)
    closed = sorted(topology.capacity)
    sources: dict[int, list[int]] = {an: [] for an in closed}       # AN -> classes within the bound
    for src, ans in reach.items():
        for an in ans:
            sources[an].append(src)
    eligible = {an: sum(len(classes[src]) for src in sources[an]) for an in closed}
    room = _room(topology, demands)
    domain: dict[int, int] = {}
    while unassigned:
        best = max(closed, key=lambda an: min(eligible[an], room[an]), default=None)
        n = 0 if best is None else min(eligible[best], room[best])
        if not n:
            raise InfeasiblePlacement(
                f"greedy cover stalled with vehicles {sorted(unassigned)} unassigned", binding="capacity"
            )
        closed.remove(best)
        by_distance = (zip(itertools.repeat(dist[src][best]), reversed(classes[src])) for src in sources[best])
        for _, vid in list(itertools.islice(heapq.merge(*by_distance), n)):
            domain[vid] = best
            src = unassigned.pop(vid).ingress_an
            classes[src].pop()
            for an in reach[src]:
                eligible[an] -= 1
    return Placement(frozenset(domain.values()), domain, latency_bound, exact=False)


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

    Edge latency is l_e(f) = w_e + kappa * f / (cap - f), and the total
    latency is sum_e f_e * l_e(f_e). A Dijkstra weight is the exact change
    in that total when a vehicle's rate joins the edge, so one vehicle at a
    time leaves its path and moves onto the cheapest one if that costs more
    than 1e-15 less than its old path, priced the same way. The loop stops
    when a full pass moves no vehicle, after at most MAX_BALANCE_PASSES. On
    a tree every vehicle's path is its only one, so the pass searches nothing.
    """
    g = topology.graph
    tree = _is_tree(g)
    by_vehicle = {d.vehicle_id: d for d in demands}
    load: dict[tuple[int, int], float] = {e: 0.0 for e in topology.edges}
    paths: dict[int, list[int]] = {}

    def marginal_weight(rate: float):
        def weight_fn(u, v):
            e = _norm_edge(u, v)
            f = load[e]
            w, cap = topology.edges[e]
            if f + rate >= cap:
                return None     # the search treats None as an absent edge
            before = f * _edge_latency(w, cap, f, topology.kappa) if f > 0 else 0.0
            after = (f + rate) * _edge_latency(w, cap, f + rate, topology.kappa)
            return after - before
        return weight_fn

    def add_load(path: list[int], rate: float, sign: float) -> None:
        for u, v in zip(path, path[1:]):
            load[_norm_edge(u, v)] += sign * rate

    def path_cost(path: list[int], weight_fn) -> float:
        costs = [weight_fn(u, v) for u, v in zip(path, path[1:])]
        return math.inf if None in costs else functools.reduce(operator.add, costs, 0)

    # initial greedy routing, ascending vehicle id
    for vid in sorted(placement.domain):
        d = by_vehicle[vid]
        target = placement.domain[vid]
        path = shortest_path(g, d.ingress_an, target, marginal_weight(d.rate))
        if path is None:
            raise CongestionInfeasible(
                f"no uncongested path from AN {d.ingress_an} to controller {target} for vehicle {vid}"
            )
        paths[vid] = path
        add_load(path, d.rate, +1.0)

    for _ in range(MAX_BALANCE_PASSES):
        improved = False
        for vid in sorted(placement.domain):
            d = by_vehicle[vid]
            # off and back on even on a tree: the round trip rounds the float
            # loads, and the outputs keep that rounding
            add_load(paths[vid], d.rate, -1.0)
            if not tree:
                weight_fn = marginal_weight(d.rate)
                candidate = shortest_path(g, d.ingress_an, placement.domain[vid], weight_fn) or paths[vid]
                if path_cost(candidate, weight_fn) < path_cost(paths[vid], weight_fn) - 1e-15:
                    paths[vid] = candidate
                    improved = True
            add_load(paths[vid], d.rate, +1.0)
        if not improved:
            break

    for e, f in load.items():
        if f >= topology.edges[e][1]:
            raise CongestionInfeasible(f"edge {e} carries {f} against capacity {topology.edges[e][1]}")
    total = functools.reduce(
        operator.add, (f * _edge_latency(*topology.edges[e], f, topology.kappa) for e, f in load.items()), 0
    )
    total_rate = functools.reduce(operator.add, (by_vehicle[v].rate for v in placement.domain), 0)
    mean = total / total_rate if total_rate > 0 else 0.0
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
    """Rounds of synchronous view merging until all controllers agree, and the element-wise maximum view.

    Each round every controller merges the views on its own list, each key's
    highest version winning (a missing key is version 0), so the rounds are
    the most steps along the lists from a key's top-version holders to any
    controller: one breadth-first search per key. 0 rounds when views agree.
    """
    nodes = sorted(neighbors)
    if set(views) != set(nodes):
        raise ValueError("views must cover exactly the controller set")
    components = connected_components(neighbors)
    if len(components) > 1:
        raise DisconnectedControllers(components)

    merged = {k: max(views[n].get(k, 0) for n in nodes) for k in sorted({k for v in views.values() for k in v})}
    feeds: dict[int, list[int]] = {n: [] for n in nodes}     # node -> the nodes whose lists name it
    for n in nodes:
        for nb in neighbors[n]:
            feeds[nb].append(n)
    rounds = 0
    for k, top in merged.items():
        held = {n for n in nodes if views[n].get(k, 0) == top}
        frontier, depth = held, 0
        while len(held) < len(nodes):
            frontier = {m for n in frontier for m in feeds[n]} - held
            if not frontier:
                raise AssertionError(f"one-sided neighbour lists never deliver key {k!r} to every controller")
            held |= frontier
            depth += 1
        rounds = max(rounds, depth)
    return rounds, merged


def relay_free_controller_graph(
    topology: ControlTopology, controllers: frozenset[int]
) -> dict[int, list[int]]:
    """Sync graph over controllers: edge iff some shortest path between the two
    passes through no other controller. Connected whenever the AN graph is."""
    ctrls = sorted(controllers)
    neighbors: dict[int, list[int]] = {c: [] for c in ctrls}
    for i, a in enumerate(ctrls):
        pred = topology.search(a)[1]
        for b in ctrls[i + 1 :]:
            # walk the shortest-path predecessors back from b, never through another controller
            stack, seen = [b], {b}
            while stack and a not in seen:
                for p in pred.get(stack.pop(), ()):
                    if p not in seen and (p == a or p not in controllers):
                        seen.add(p)
                        stack.append(p)
            if a in seen:
                neighbors[a].append(b)
                neighbors[b].append(a)
    for c in ctrls:
        neighbors[c].sort()
    return neighbors
