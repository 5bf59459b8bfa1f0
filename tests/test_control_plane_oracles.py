"""Greedy placement and view sync against the per-round rescans they replaced.

`_place_greedy` below rebuilds and sorts every eligible vehicle for every
closed AN in every round, and `sync_controllers` floods whole views round by
round until they agree. Both are kept verbatim as oracles: the ingress-class
cover must give the same controllers, the same domain in the same insertion
order and the same `InfeasiblePlacement`, and the breadth-first sync the same
rounds and view, or the same error.
"""

from __future__ import annotations

import functools
import operator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim import control_plane
from vecsim.control_plane import (
    ControlTopology,
    Demand,
    DisconnectedControllers,
    InfeasiblePlacement,
    Placement,
    connected_components,
    place_controllers,
)


def _place_greedy(topology, demands, reach, dist, latency_bound) -> Placement:
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
                (d for d in unassigned.values() if an in reach[d.ingress_an]),
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
    return Placement(frozenset(open_controllers), domain, latency_bound, exact=False)


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
    components = connected_components(neighbors)
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


RATES = [1 / 3, 0.1, 1.0]
WEIGHTS = [0.001, 0.002, 0.0025, 0.1, 0.2, 0.3]     # decimal weights whose sums round, so ties show
BOUNDS = [1e-4, 1e-3, 0.0025, 0.01, 0.1, 1.0]


@st.composite
def capacities(draw, rate):
    """k vehicles' weight, as a product or a left-to-right sum, nudged across the 1e-12 slack."""
    if draw(st.sampled_from(range(20))) == 19:
        return draw(st.sampled_from([0.0, -1.0]))
    k = draw(st.sampled_from([*range(1, 13), 0]))
    base = draw(st.sampled_from([k * rate, functools.reduce(operator.add, [rate] * k, 0.0)]))
    return base + draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 3e-12, -3e-12, rate / 2]))


@st.composite
def greedy_instances(draw):
    """A chain of ANs with chords, one rate, unsorted vehicle ids, and a bound
    from 1e-4 to 1 s or equal to some distance."""
    n = draw(st.integers(1, 20))
    rate = draw(st.sampled_from(RATES))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges = {}
    for u, v in [(a, a + 1) for a in range(n - 1)] + [c for c in chords if c[0] != c[1]]:
        edges.setdefault((min(u, v), max(u, v)), (draw(st.sampled_from(WEIGHTS)), 1e9))
    topo = ControlTopology(capacity={an: draw(capacities(rate)) for an in range(n)}, edges=edges)
    ids = draw(st.lists(st.integers(0, 200), unique=True, min_size=1, max_size=60))
    demands = [Demand(vid, draw(st.integers(0, n - 1)), rate) for vid in ids]
    dists = sorted({d for row in topo.all_pairs_latency().values() for d in row.values()})
    return topo, demands, draw(st.sampled_from(BOUNDS + dists))


def _placement(topo, demands, bound, greedy=None):
    """What place_controllers returns, the domain in insertion order, or the error it raises."""
    with mock.patch.object(control_plane, "_place_greedy", greedy or control_plane._place_greedy):
        try:
            p = place_controllers(topo, demands, bound, exact_limit=0)
        except InfeasiblePlacement as exc:
            return str(exc), exc.binding
    return sorted(p.controllers), list(p.domain.items()), p.latency_bound, p.exact


@settings(max_examples=500, deadline=None, derandomize=True)
@given(greedy_instances())
def test_greedy_placement_equals_the_rescanning_cover(instance):
    assert _placement(*instance) == _placement(*instance, greedy=_place_greedy)


@pytest.mark.parametrize("capacity, vehicles, hosted", [
    # six 0.1s sum left to right to 0.6 = 0.599999999999 + 1e-12, where 6 * 0.1 = 0.6000000000000001
    ((0.599999999999, 0.1), 7, [6, 1]),
    ((0.3, 0.1), 4, [3, 1]),
    # the demand fits the total capacity, but no third whole vehicle fits
    ((0.15, 0.15), 3, "stalled"),
])
def test_greedy_placement_fills_by_the_running_sum(capacity, vehicles, hosted):
    topo = ControlTopology(capacity=dict(enumerate(capacity)), edges={(0, 1): (0.001, 1e9)})
    demands = [Demand(vid, 0, 0.1) for vid in range(vehicles)]
    got = _placement(topo, demands, 1.0)
    assert got == _placement(topo, demands, 1.0, greedy=_place_greedy)
    if hosted == "stalled":
        assert got == ("greedy cover stalled with vehicles [2] unassigned", "capacity")
        with pytest.raises(InfeasiblePlacement, match="no controller subset"):
            place_controllers(topo, demands, 1.0, exact_limit=12)
    else:
        assert [list(dict(got[1]).values()).count(c) for c in got[0]] == hosted
        # the exact search fills by the same running sum
        exact = place_controllers(topo, demands, 1.0, exact_limit=12)
        assert exact.exact and [list(exact.domain.values()).count(c) for c in sorted(exact.controllers)] == hosted


@st.composite
def sync_instances(draw):
    """A tree with chords, as it is or with one direction of some links
    dropped, or arbitrary one-sided lists; views with missing keys and
    negative versions, now and then one view short."""
    n = draw(st.integers(1, 12))
    adj = {u: set() for u in range(n)}
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    shape = draw(st.sampled_from(["both ways", "thinned", "arbitrary"]))
    if shape == "both ways":
        neighbors = {u: sorted(adj[u]) for u in range(n)}
    elif shape == "thinned":
        neighbors = {u: [v for v in sorted(adj[u]) if draw(st.sampled_from(range(4)))] for u in range(n)}
    else:
        neighbors = {u: draw(st.lists(st.integers(0, n - 1), max_size=3)) for u in range(n)}
    views = {u: draw(st.dictionaries(st.sampled_from("abcd"), st.integers(-3, 3))) for u in range(n)}
    if draw(st.sampled_from(range(20))) == 19:
        del views[n - 1]
    return neighbors, views


def _sync(sync, neighbors, views):
    try:
        rounds, view = sync(neighbors, views)
    except (ValueError, DisconnectedControllers) as exc:
        return type(exc), str(exc)
    except AssertionError:
        return AssertionError     # an update never delivered: each words it its own way
    return rounds, list(view.items())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(sync_instances())
def test_breadth_first_sync_equals_flooding(instance):
    assert _sync(control_plane.sync_controllers, *instance) == _sync(sync_controllers, *instance)
