"""Placement vs brute force, routing vs enumeration, flooding vs BFS diameter."""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vecsim import control_plane
from vecsim.control_plane import (
    CongestionInfeasible,
    ControlTopology,
    Demand,
    DisconnectedControllers,
    InfeasiblePlacement,
    Placement,
    balance_control_traffic,
    connected_components,
    place_controllers,
    relay_free_controller_graph,
    replace_on_feedback,
    sync_controllers,
)


def _topology(capacity, edges, kappa=1e-4) -> ControlTopology:
    norm = {}
    for u, v, w, cap in edges:
        key = (u, v) if u < v else (v, u)
        norm[key] = (w, cap)
    return ControlTopology(capacity=capacity, edges=norm, kappa=kappa)


def _line(n, weight=0.01, cap=100.0) -> ControlTopology:
    edges = [(i, i + 1, weight, cap) for i in range(n - 1)]
    return _topology({i: 10.0 for i in range(n)}, edges)


def test_all_pairs_latency_on_a_line():
    topo = _line(4, weight=0.5)
    dist = topo.all_pairs_latency()
    assert dist[0][3] == pytest.approx(1.5)
    assert dist[2][1] == pytest.approx(0.5)


def test_single_an_topology_places_itself():
    topo = ControlTopology(capacity={0: 5.0}, edges={})
    placement = place_controllers(topo, [Demand(0, 0, 1.0)], latency_bound=0.1)
    assert placement.controllers == frozenset({0})
    assert placement.domain == {0: 0}
    assert placement.exact


def test_capacity_binding_infeasibility():
    topo = _line(2)
    demands = [Demand(v, 0, rate=8.0) for v in range(3)]    # 24 > 20 total
    with pytest.raises(InfeasiblePlacement) as err:
        place_controllers(topo, demands, latency_bound=1.0)
    assert err.value.binding == "capacity"


def test_latency_binding_infeasibility_names_the_orphans():
    # an ingress AN always covers itself at distance zero, so the orphan
    # guard can only fire on a degenerate bound; it must name every vehicle
    topo = _line(3, weight=0.1)
    demands = [Demand(0, 0, 1.0), Demand(1, 2, 1.0)]
    with pytest.raises(InfeasiblePlacement) as err:
        place_controllers(topo, demands, latency_bound=-1.0)
    assert err.value.binding == "latency"
    assert "[0, 1]" in str(err.value)


def test_capacity_forces_a_second_controller():
    # one AN can host only one vehicle's demand, so the optimum is 2
    topo = _topology({0: 1.0, 1: 1.0, 2: 1.0}, [(0, 1, 0.01, 10.0), (1, 2, 0.01, 10.0)])
    demands = [Demand(0, 0, 1.0), Demand(1, 2, 1.0)]
    placement = place_controllers(topo, demands, latency_bound=1.0)
    assert len(placement.controllers) == 2
    assert placement.domain[0] != placement.domain[1]


def _random_tree_edges(rng, n):
    # attach each node to a uniformly chosen earlier one
    return [(int(rng.integers(i)), i) for i in range(1, n)]


def _random_topology(rng, n):
    edges = [(u, v, float(rng.uniform(0.01, 0.05)), 1e9) for u, v in _random_tree_edges(rng, n)]
    extra = rng.integers(0, n)
    for _ in range(int(extra)):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not any((a, b) in ((u, v), (v, u)) for a, b, _, _ in edges):
            edges.append((u, v, float(rng.uniform(0.01, 0.05)), 1e9))
    capacity = {i: float(rng.integers(1, 4)) for i in range(n)}
    return _topology(capacity, edges)


def _options(topo, demands, bound):
    dist = topo.all_pairs_latency()
    return {
        d.vehicle_id: [an for an in sorted(topo.capacity) if dist[d.ingress_an].get(an, 1e18) <= bound]
        for d in demands
    }


def _subset_feasible(subset, demands, options, capacity):
    """Unit demands against integer capacities, so max-flow integrality applies."""
    g = nx.DiGraph()
    for d in demands:
        g.add_edge("s", f"v{d.vehicle_id}", capacity=1)
        for an in options[d.vehicle_id]:
            if an in subset:
                g.add_edge(f"v{d.vehicle_id}", f"c{an}", capacity=1)
    for an in subset:
        g.add_edge(f"c{an}", "t", capacity=int(capacity[an]))
    if "s" not in g or "t" not in g:
        return False
    return nx.maximum_flow_value(g, "s", "t") >= len(demands)


def _brute_force_optimum(topo, demands, bound):
    options = _options(topo, demands, bound)
    if any(not opts for opts in options.values()):
        return None
    ans = sorted(topo.capacity)
    for k in range(1, len(ans) + 1):
        for subset in itertools.combinations(ans, k):
            if _subset_feasible(set(subset), demands, options, topo.capacity):
                return k
    return None


def _check_placement(topo, demands, placement, bound):
    dist = topo.all_pairs_latency()
    load = {an: 0.0 for an in topo.capacity}
    for d in demands:
        ctrl = placement.domain[d.vehicle_id]
        assert ctrl in placement.controllers
        assert dist[d.ingress_an][ctrl] <= bound + 1e-12
        load[ctrl] += d.rate
    for an, used in load.items():
        assert used <= topo.capacity[an] + 1e-9


def test_exact_placement_matches_the_max_flow_brute_force():
    rng = np.random.default_rng(881)
    solved = 0
    for _ in range(30):
        topo = _random_topology(rng, 6)
        demands = [Demand(v, int(rng.integers(6)), 1.0) for v in range(5)]
        dists = [d for row in topo.all_pairs_latency().values() for d in row.values() if d > 0]
        bound = float(np.median(dists))
        optimum = _brute_force_optimum(topo, demands, bound)
        if optimum is None:
            with pytest.raises(InfeasiblePlacement):
                place_controllers(topo, demands, bound)
            continue
        placement = place_controllers(topo, demands, bound)
        assert placement.exact
        assert len(placement.controllers) == optimum
        _check_placement(topo, demands, placement, bound)
        solved += 1
    assert solved >= 20     # the instance distribution must mostly be feasible


def test_greedy_placement_is_feasible_and_never_beats_exact():
    rng = np.random.default_rng(417)
    for _ in range(20):
        topo = _random_topology(rng, 6)
        demands = [Demand(v, int(rng.integers(6)), 1.0) for v in range(5)]
        dists = [d for row in topo.all_pairs_latency().values() for d in row.values() if d > 0]
        bound = float(np.max(dists))
        exact = place_controllers(topo, demands, bound)
        greedy = place_controllers(topo, demands, bound, exact_limit=0)
        assert not greedy.exact
        _check_placement(topo, demands, greedy, bound)
        assert len(greedy.controllers) >= len(exact.controllers)


@pytest.mark.parametrize("n_ans,vehicles,capacity,weight,bound,ingress", [
    # 2000 vehicles: one search step per vehicle overflowed the recursion limit
    (4, 2000, 700.0, 0.01, 0.01, lambda v: v % 4),
    # no 2-AN subset has room for 60 vehicles, which took a full enumeration to prove
    (6, 60, 20.5, 0.001, 1.0, lambda v: v % 6),
    # half the fleet enters at AN 0 and the bound reaches only neighbours
    (6, 60, 20.5, 0.01, 0.015, lambda v: 0 if v % 2 else 1 + v % 5),
])
def test_exact_placement_scales_past_the_old_walls(n_ans, vehicles, capacity, weight, bound, ingress):
    topo = _topology({i: capacity for i in range(n_ans)}, [(i, i + 1, weight, 1e9) for i in range(n_ans - 1)])
    demands = [Demand(v, ingress(v), 1.0) for v in range(vehicles)]
    placement = place_controllers(topo, demands, bound)
    assert placement.exact
    assert len(placement.controllers) == _brute_force_optimum(topo, demands, bound)
    _check_placement(topo, demands, placement, bound)


@pytest.mark.parametrize("rate,capacity,vehicles,opened", [
    (0.1, 0.3, 3, 1),       # 3 * 0.1 rounds above 0.3 but within the 1e-12 slack
    (0.1, 0.3, 4, 2),
    (1.0, 1e9, 5, 1),
    (1e-300, 1e9, 5, 1),    # capacity / rate overflows to infinity
])
def test_controller_capacity_counts_whole_vehicles(rate, capacity, vehicles, opened):
    topo = _topology({0: capacity, 1: capacity}, [(0, 1, 0.01, 1e9)])
    demands = [Demand(v, 0, rate) for v in range(vehicles)]
    placement = place_controllers(topo, demands, latency_bound=1.0)
    assert len(placement.controllers) == opened
    _check_placement(topo, demands, placement, 1.0)


def test_placement_rejects_mixed_rates():
    with pytest.raises(ValueError, match="one rate"):
        place_controllers(_line(2), [Demand(0, 0, 1.0), Demand(1, 1, 2.0)], latency_bound=1.0)


def _total_latency(topo, load):
    return sum(f * _edge_latency(*topo.edges[e], f, topo.kappa) for e, f in load.items())


@st.composite
def equal_rate_instances(draw):
    n = draw(st.integers(1, 7))
    vehicles = draw(st.integers(1, 40))
    edges = []
    for v in range(1, n):
        edges.append((draw(st.integers(0, v - 1)), v))
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not any({a, b} == {u, v} for a, b in edges):
            edges.append((u, v))
    # edge capacity just above the fleet size: no path is ever blocked, so
    # routing always succeeds, and the congestion latency is steep enough
    # that the balancing passes move vehicles
    weight = st.sampled_from([0.001, 0.002, 0.0025, 0.004])
    topo = _topology(
        {i: float(draw(st.integers(1, vehicles))) for i in range(n)},
        [(u, v, draw(weight), float(vehicles + draw(st.integers(1, 8)))) for u, v in edges],
        kappa=draw(st.sampled_from([1e-3, 1e-2])),
    )
    demands = [Demand(v, draw(st.integers(0, n - 1)), 1.0) for v in range(vehicles)]
    bound = draw(st.sampled_from(sorted({d for row in topo.all_pairs_latency().values() for d in row.values()})))
    return topo, demands, bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(equal_rate_instances())
def test_flow_placement_and_path_cost_balancing_hold_their_invariants(instance):
    topo, demands, bound = instance
    optimum = _brute_force_optimum(topo, demands, bound)
    if optimum is None:
        with pytest.raises(InfeasiblePlacement):
            place_controllers(topo, demands, bound)
        return
    placement = place_controllers(topo, demands, bound)
    assert len(placement.controllers) == optimum
    _check_placement(topo, demands, placement, bound)

    routing = balance_control_traffic(placement, topo, demands)
    total = _total_latency(topo, routing.edge_load)
    assert routing.mean_latency * len(demands) == pytest.approx(total, rel=1e-12)
    g = nx.Graph(list(topo.edges))
    g.add_nodes_from(topo.capacity)
    for d in demands:
        old = routing.paths[d.vehicle_id]
        for path in nx.all_simple_paths(g, d.ingress_an, placement.domain[d.vehicle_id]):
            load = dict(routing.edge_load)
            for hops, sign in ((old, -1.0), (path, 1.0)):
                for u, v in zip(hops, hops[1:]):
                    load[(u, v) if u < v else (v, u)] += sign * d.rate
            assert _total_latency(topo, load) >= total - 1e-12


def test_routing_on_a_single_path_matches_the_congestion_formula():
    topo = _line(2, weight=0.001, cap=10.0)
    placement = Placement(frozenset({1}), {0: 1}, latency_bound=1.0, exact=True)
    routing = balance_control_traffic(placement, topo, [Demand(0, 0, 1.0)])
    expected = 0.001 + 1e-4 * 1.0 / (10.0 - 1.0)
    assert routing.mean_latency == pytest.approx(expected)
    assert routing.paths[0] == [0, 1]
    assert routing.edge_load[(0, 1)] == pytest.approx(1.0)


def test_tree_balancing_searches_once_per_vehicle_and_routes_as_the_full_pass(monkeypatch):
    # a tree offers one path per pair, so only the initial routing searches;
    # with these mixed rates the pass's load round trip rounds the floats
    topo = _topology(
        {i: 100.0 for i in range(5)},
        [(0, 1, 0.001, 50.0), (1, 2, 0.002, 50.0), (1, 3, 0.001, 50.0), (3, 4, 0.003, 50.0)],
        kappa=1e-3,
    )
    demands = [Demand(v, v % 5, 0.1 * (v % 7 + 1)) for v in range(30)]
    placement = Placement(frozenset({2, 4}), {v: 2 + 2 * (v % 2) for v in range(30)}, latency_bound=1.0, exact=True)
    calls = []
    search = control_plane.shortest_path
    monkeypatch.setattr(control_plane, "shortest_path", lambda *args, **kw: calls.append(args) or search(*args, **kw))
    routing = balance_control_traffic(placement, topo, demands)
    assert len(calls) == len(demands)
    monkeypatch.setattr(control_plane, "_is_tree", lambda g: False)     # search every vehicle again, as on any graph
    full = balance_control_traffic(placement, topo, demands)
    assert len(calls) == 3 * len(demands)
    assert (routing.paths, routing.edge_load, routing.mean_latency) == (full.paths, full.edge_load, full.mean_latency)


def _edge_latency(w, cap, f, kappa):
    return w + kappa * f / (cap - f)


def _diamond_best_split(n, w_top, w_bot, cap, kappa):
    best = None
    for k in range(n + 1):
        top = 2 * k * _edge_latency(w_top, cap, float(k), kappa) if k else 0.0
        bot = 2 * (n - k) * _edge_latency(w_bot, cap, float(n - k), kappa) if n - k else 0.0
        total = top + bot
        if best is None or total < best:
            best = total
    return best


@pytest.mark.parametrize("w_top,w_bot,cap,n,kappa", [
    (0.001, 0.001, 8.0, 6, 1e-3),
    (0.001, 0.002, 8.0, 6, 1e-3),
    (0.001, 0.003, 12.0, 4, 1e-3),
    (0.002, 0.002, 8.0, 7, 1e-2),
    (0.001, 0.005, 8.0, 6, 1e-2),
])
def test_diamond_routing_matches_exhaustive_split_enumeration(w_top, w_bot, cap, n, kappa):
    topo = _topology(
        {0: 100.0, 1: 100.0, 2: 100.0, 3: 100.0},
        [(0, 1, w_top, cap), (1, 3, w_top, cap), (0, 2, w_bot, cap), (2, 3, w_bot, cap)],
        kappa=kappa,
    )
    demands = [Demand(v, 0, 1.0) for v in range(n)]
    placement = Placement(frozenset({3}), {v: 3 for v in range(n)}, latency_bound=1.0, exact=True)
    routing = balance_control_traffic(placement, topo, demands)
    best_total = _diamond_best_split(n, w_top, w_bot, cap, kappa)
    assert routing.mean_latency * n == pytest.approx(best_total, rel=1e-12)


def test_routing_raises_when_capacity_cannot_carry_the_demand():
    topo = _line(2, weight=0.001, cap=1.5)
    placement = Placement(frozenset({1}), {0: 1, 1: 1}, latency_bound=1.0, exact=True)
    demands = [Demand(0, 0, 1.0), Demand(1, 0, 1.0)]
    with pytest.raises(CongestionInfeasible):
        balance_control_traffic(placement, topo, demands)


def test_feedback_replacement_tightens_until_the_target_holds():
    topo = _line(3, weight=0.04, cap=100.0)
    demands = [Demand(0, 2, 1.0)]
    placement = place_controllers(topo, demands, latency_bound=0.1)
    assert placement.controllers == frozenset({0})
    routing = balance_control_traffic(placement, topo, demands)
    improved, rerouted = replace_on_feedback(placement, routing, topo, demands, target=0.05)
    assert improved.controllers == frozenset({1})
    assert rerouted == balance_control_traffic(improved, topo, demands)
    assert rerouted.mean_latency <= 0.05


def test_feedback_replacement_is_a_no_op_when_already_met():
    topo = _line(2)
    demands = [Demand(0, 0, 1.0)]
    placement = place_controllers(topo, demands, latency_bound=1.0)
    routing = balance_control_traffic(placement, topo, demands)
    assert routing.mean_latency <= 0.01
    same, same_routing = replace_on_feedback(placement, routing, topo, demands, target=0.01)
    assert same is placement and same_routing is routing


def test_feedback_replacement_reports_an_unattainable_target():
    topo = _line(3, weight=0.04, cap=100.0)
    demands = [Demand(0, 2, 1.0)]
    placement = place_controllers(topo, demands, latency_bound=0.1)
    routing = balance_control_traffic(placement, topo, demands)
    with pytest.raises(InfeasiblePlacement) as err:
        replace_on_feedback(placement, routing, topo, demands, target=1e-7)
    assert err.value.binding == "latency"
    with pytest.raises(ValueError):
        replace_on_feedback(placement, routing, topo, demands, 0.01, tighten_factor=1.0)


def test_sync_zero_rounds_when_views_already_agree():
    neighbors = {0: [1], 1: [0]}
    views = {0: {"a": 3}, 1: {"a": 3}}
    rounds, view = sync_controllers(neighbors, views)
    assert rounds == 0
    assert view == {"a": 3}


def test_sync_rounds_on_a_line_equal_the_distance_to_the_update():
    n = 5
    neighbors = {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}
    views = {i: {"k": 1 if i == 0 else 0} for i in range(n)}
    rounds, view = sync_controllers(neighbors, views)
    assert rounds == n - 1
    assert view == {"k": 1}


def test_sync_merges_element_wise_by_highest_version():
    neighbors = {0: [1], 1: [0]}
    views = {0: {"a": 5, "b": 1}, 1: {"a": 2, "b": 7}}
    rounds, view = sync_controllers(neighbors, views)
    assert view == {"a": 5, "b": 7}
    assert rounds == 1


def test_sync_validates_the_view_set_and_connectivity():
    with pytest.raises(ValueError, match="cover exactly"):
        sync_controllers({0: [1], 1: [0]}, {0: {"a": 1}})
    with pytest.raises(DisconnectedControllers) as err:
        sync_controllers({0: [], 1: []}, {0: {"a": 1}, 1: {"a": 0}})
    assert err.value.components == [[0], [1]]


def _bfs_diameter(neighbors):
    ecc = 0
    for start in neighbors:
        depth = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in neighbors[node]:
                    if nb not in depth:
                        depth[nb] = depth[node] + 1
                        nxt.append(nb)
            frontier = nxt
        ecc = max(ecc, max(depth.values()))
    return ecc


def test_sync_rounds_equal_the_bfs_diameter_with_unique_fresh_keys():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = nx.Graph(_random_tree_edges(rng, n))
        for _ in range(int(rng.integers(0, n))):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                g.add_edge(u, v)
        neighbors = {i: sorted(g.neighbors(i)) for i in range(n)}
        views = {i: {f"k{j}": (1 if i == j else 0) for j in range(n)} for i in range(n)}
        rounds, merged = sync_controllers(neighbors, views)
        assert rounds == _bfs_diameter(neighbors)
        assert merged == {f"k{j}": 1 for j in range(n)}


def test_relay_free_graph_skips_pairs_bridged_by_another_controller():
    topo = _line(3, weight=1.0)
    assert relay_free_controller_graph(topo, frozenset({0, 2})) == {0: [2], 2: [0]}
    assert relay_free_controller_graph(topo, frozenset({0, 1, 2})) == {0: [1], 1: [0, 2], 2: [1]}


# networkx is the reference for every graph question the control plane answers

def _nx_graph(topo):
    """The networkx graph `ControlTopology.graph` stands for, built in the same order."""
    g = nx.Graph()
    g.add_nodes_from(sorted(topo.capacity))
    for (u, v), (w, cap) in topo.edges.items():
        g.add_edge(u, v, weight=w, capacity=cap)
    return g


@st.composite
def weighted_graphs(draw, connected=True):
    # few distinct weights, so equal-length paths are common, and decimal ones
    # whose sums round, so the summation order shows
    n = draw(st.integers(1, 8))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] if connected else []
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = {}
    for u, v in draw(st.permutations(pairs)):
        edges.setdefault((min(u, v), max(u, v)), (draw(st.sampled_from([1.0, 2.0, 0.1, 0.2, 0.3])), 10.0))
    return ControlTopology(capacity={i: 1.0 for i in range(n)}, edges=edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weighted_graphs(connected=False), st.data())
def test_shortest_path_is_networkx_dijkstra_path_with_ties_and_hidden_edges(topo, data):
    g, ref = topo.graph, _nx_graph(topo)
    assert {u: list(nbs.items()) for u, nbs in g.items()} == {
        u: [(v, attrs["weight"]) for v, attrs in ref.adj[u].items()] for u in ref
    }
    hidden = data.draw(st.sets(st.sampled_from(sorted(topo.edges)))) if topo.edges else set()

    def weight(u, v):
        e = (min(u, v), max(u, v))
        return None if e in hidden else topo.edges[e][0]

    for s in ref:
        for t in ref:
            try:
                expected = nx.dijkstra_path(ref, s, t, weight=lambda u, v, _: weight(u, v))
            except nx.NetworkXNoPath:
                expected = None
            assert control_plane.shortest_path(g, s, t, weight) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weighted_graphs(connected=False))
def test_all_pairs_latency_equals_networkx_exactly(topo):
    expected = {s: list(lengths.items()) for s, lengths in nx.all_pairs_dijkstra_path_length(_nx_graph(topo))}
    assert {s: list(lengths.items()) for s, lengths in topo.all_pairs_latency().items()} == expected


def _relay_free_by_path_scan(topo, controllers):
    g, ctrls = _nx_graph(topo), sorted(controllers)
    neighbors = {c: [] for c in ctrls}
    for i, a in enumerate(ctrls):
        for b in ctrls[i + 1 :]:
            if any(not set(p[1:-1]) & controllers for p in nx.all_shortest_paths(g, a, b, weight="weight")):
                neighbors[a].append(b)
                neighbors[b].append(a)
    return {c: sorted(nbs) for c, nbs in neighbors.items()}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weighted_graphs(), st.data())
def test_relay_free_graph_equals_an_all_shortest_paths_scan(topo, data):
    controllers = frozenset(data.draw(st.sets(st.sampled_from(sorted(topo.capacity)), min_size=1)))
    assert relay_free_controller_graph(topo, controllers) == _relay_free_by_path_scan(topo, controllers)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weighted_graphs(connected=False), st.data())
def test_tree_test_and_components_equal_networkx(topo, data):
    ref = _nx_graph(topo)
    assert control_plane._is_tree(topo.graph) == nx.is_tree(ref)
    assert connected_components(topo.graph) == sorted(sorted(c) for c in nx.connected_components(ref))
    # one-sided neighbour lists, as sync_controllers may be handed
    n = len(topo.capacity)
    one_sided = {u: data.draw(st.lists(st.integers(0, n - 1), max_size=3)) for u in range(n)}
    assert connected_components(one_sided) == sorted(sorted(c) for c in nx.connected_components(nx.Graph(one_sided)))


def _place_by_max_flow(topo, demands, bound):
    """Exact placement with a networkx max-flow for every subset, forced or not."""
    dist = dict(nx.all_pairs_dijkstra_path_length(_nx_graph(topo)))
    ans = sorted(topo.capacity)
    reach = {d.ingress_an: [an for an in ans if dist[d.ingress_an].get(an, math.inf) <= bound] for d in demands}
    slots = {an: min(int(topo.capacity[an]), len(demands)) for an in ans}     # unit rates, whole capacities
    for k in range(1, len(ans) + 1):
        for subset in itertools.combinations(ans, k):
            classes = {}
            for d in sorted(demands, key=lambda d: d.ingress_an):
                classes.setdefault(tuple(c for c in reach[d.ingress_an] if c in subset), []).append(d.vehicle_id)
            g = nx.DiGraph()
            g.add_node("s")
            for ctrls, vids in sorted(classes.items()):
                g.add_edge("s", ctrls, capacity=len(vids))
                g.add_edges_from((ctrls, c) for c in ctrls)
            g.add_edges_from((c, "t", {"capacity": slots[c]}) for c in subset)
            value, flow = nx.maximum_flow(g, "s", "t")
            if value == len(demands):
                domain = {}
                for ctrls, vids in classes.items():
                    queue = iter(sorted(vids))
                    for c in ctrls:
                        domain.update((next(queue), c) for _ in range(flow[ctrls][c]))
                return frozenset(subset), domain
    return None


@st.composite
def forced_flow_instances(draw):
    topo = draw(weighted_graphs())
    n = len(topo.capacity)
    vehicles = draw(st.integers(1, 12))
    topo = ControlTopology(
        capacity={i: float(draw(st.integers(1, vehicles))) for i in range(n)}, edges=topo.edges
    )
    demands = [Demand(v, draw(st.integers(0, n - 1)), 1.0) for v in range(vehicles)]
    bound = draw(st.sampled_from(sorted({d for row in topo.all_pairs_latency().values() for d in row.values()})))
    return topo, demands, bound


@settings(max_examples=200, deadline=None, derandomize=True)
@given(forced_flow_instances())
def test_exact_placement_equals_a_max_flow_for_every_subset(instance):
    # most subsets have one controller per class, which the placement decides
    # without a flow; the domains must still be the max-flow's
    topo, demands, bound = instance
    expected = _place_by_max_flow(topo, demands, bound)
    if expected is None:
        with pytest.raises(InfeasiblePlacement):
            place_controllers(topo, demands, bound)
        return
    placement = place_controllers(topo, demands, bound)
    assert (placement.controllers, placement.domain) == expected


@st.composite
def contested_instances(draw):
    # capacities of at most half the fleet make controllers fill up, and a
    # bound from the upper half of the distances lets a class reach several
    topo = draw(weighted_graphs())
    n = len(topo.capacity)
    vehicles = draw(st.integers(2, 14))
    topo = ControlTopology(
        capacity={i: float(draw(st.integers(1, vehicles // 2))) for i in range(n)}, edges=topo.edges
    )
    demands = [Demand(v, draw(st.integers(0, n - 1)), 1.0) for v in range(vehicles)]
    dists = sorted({d for row in topo.all_pairs_latency().values() for d in row.values()})
    bound = draw(st.sampled_from(dists[len(dists) // 2 :]))
    return topo, demands, bound


def _contested(classes, slots):
    """Some class reaches two or more controllers, and they cannot all take it whole."""
    return any(len(ctrls) > 1 and all(slots[c] < len(vids) for c in ctrls) for ctrls, vids in classes.items())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(contested_instances())
def test_class_flow_decides_contested_subsets_as_a_max_flow_does(instance):
    topo, demands, bound = instance
    dist = topo.all_pairs_latency()
    ans = sorted(topo.capacity)
    reach = {d.vehicle_id: [an for an in ans if dist[d.ingress_an].get(an, math.inf) <= bound] for d in demands}
    slots = control_plane._room(topo, demands)
    chosen, contested = None, False
    for subset in (s for k in range(1, len(ans) + 1) for s in itertools.combinations(ans, k)):
        classes = {}
        for d in demands:
            classes.setdefault(tuple(c for c in reach[d.vehicle_id] if c in subset), []).append(d.vehicle_id)
        g = nx.DiGraph()
        for ctrls, vids in classes.items():
            g.add_edge("s", ctrls, capacity=len(vids))
            g.add_edges_from((ctrls, c) for c in ctrls)
        g.add_edges_from((c, "t", {"capacity": slots[c]}) for c in subset)
        feasible = nx.maximum_flow_value(g, "s", "t") == len(demands)
        assert (control_plane._class_flow(classes, slots) is not None) == feasible
        contested |= _contested(classes, slots)
        if feasible:
            chosen = subset, classes
            break
    assume(contested)
    if chosen is None:
        with pytest.raises(InfeasiblePlacement):
            place_controllers(topo, demands, bound)
        return
    subset, classes = chosen
    placement = place_controllers(topo, demands, bound)
    assert placement.controllers == frozenset(subset)
    for d in demands:
        assert placement.domain[d.vehicle_id] in reach[d.vehicle_id]
    for c in subset:
        assert sum(1 for ctrl in placement.domain.values() if ctrl == c) <= slots[c]
    for vids in classes.values():
        handed = [placement.domain[v] for v in sorted(vids)]
        assert handed == sorted(handed)
