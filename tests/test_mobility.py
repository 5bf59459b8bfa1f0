"""Road graph validation, transition-row sampling, and the line builder."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.mobility import (
    MarkovJumpModel,
    RoadGraph,
    draw_from_row,
    line_graph,
)
from vecsim.predictor import FleetBelief
from vecsim.rng import RngStream


class _FixedRng:
    """Scripted rng.random() values, for boundary checks on the sampler."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def _draw_row(model: MarkovJumpModel, vclass: str, cell: int) -> tuple[list[int], list[float]]:
    cells = sorted(model.rows[vclass])
    draws, _ = model.transition_matrix(vclass, cells)
    return draws[cells.index(cell)]


def _two_cell_graph() -> RoadGraph:
    return RoadGraph(
        centers={0: (0.0, 0.0), 1: (100.0, 0.0)},
        adjacency={0: (0, 1), 1: (1,)},
    )


def test_road_graph_rejects_unknown_and_missing_cells():
    assert RoadGraph(centers={0: (0.0, 0.0)}, adjacency={9: (0,)}).problems() == [
        "adjacency[9]: unknown cell 9",
        "adjacency[0]: missing",
    ]
    assert RoadGraph(centers={0: (0.0, 0.0)}, adjacency={0: (7,)}).problems() == [
        "adjacency[0]: edge to unknown cell 7",
    ]
    assert RoadGraph(centers={0: (0.0, 0.0), 1: (1.0, 0.0)}, adjacency={0: (0,)}).problems() == [
        "adjacency[1]: missing",
    ]


def test_road_graph_rejects_non_finite_centers():
    graph = RoadGraph(
        centers={0: (0.0, 0.0), 1: (float("inf"), 0.0), 2: (1.0, float("nan"))},
        adjacency={0: (1,), 1: (2,), 2: (0,)},
    )
    assert graph.problems() == [
        "centers[1]: must be finite, got (inf, 0.0)",
        "centers[2]: must be finite, got (1.0, nan)",
    ]


def test_road_graph_requires_an_outgoing_edge_everywhere():
    assert RoadGraph(centers={0: (0.0, 0.0)}, adjacency={0: ()}).problems() == [
        "adjacency[0]: no outgoing edge (self-loop required at minimum)",
    ]
    # a pure self-loop is the minimal legal adjacency
    assert RoadGraph(centers={0: (0.0, 0.0)}, adjacency={0: (0,)}).problems() == []


def test_model_rejects_bad_rows_with_cell_and_class_named():
    graph = _two_cell_graph()
    short = MarkovJumpModel(rows={"default": {0: {0: 0.5, 1: 0.4}, 1: {1: 1.0}}})
    assert short.problems(graph) == ["rows[default][0]: row sums to 0.9, expected 1"]

    missing = MarkovJumpModel(rows={"default": {0: {0: 1.0}}})
    assert missing.problems(graph) == ["rows[default][1]: no transition row"]

    negative = MarkovJumpModel(rows={"default": {0: {0: 1.5, 1: -0.5}, 1: {1: 1.0}}})
    assert negative.problems(graph) == ["rows[default][0]: negative probability for target 1"]

    offroad = MarkovJumpModel(rows={"default": {0: {0: 1.0}, 1: {0: 1.0}}})
    assert offroad.problems(graph) == ["rows[default][1]: positive mass on non-adjacent cell 0"]

    not_a_number = MarkovJumpModel(rows={"default": {0: {0: float("nan")}, 1: {1: 1.0}}})
    assert not_a_number.problems(graph) == ["rows[default][0]: row sums to nan, expected 1"]


def test_a_row_total_is_its_left_to_right_sum():
    # Python 3.12's sum() compensates: it totals this row to fsum's 0.6, and
    # a row near the tolerance could pass one way and fail the other
    graph = RoadGraph(
        centers={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)},
        adjacency={0: (0, 1, 2), 1: (1,), 2: (2,)},
    )
    row = {0: 0.1, 1: 0.2, 2: 0.3}
    assert (0.1 + 0.2) + 0.3 != math.fsum(row.values())
    model = MarkovJumpModel(rows={"default": {0: row, 1: {1: 1.0}, 2: {2: 1.0}}})
    assert model.problems(graph) == ["rows[default][0]: row sums to 0.6000000000000001, expected 1"]


def test_transition_matrix_matches_rows():
    _, model = line_graph(3, forward_prob=0.7)
    _, op = model.transition_matrix("default", [0, 1, 2])
    mat = np.array([unit @ op for unit in np.eye(3)])   # row i = e_i @ op
    assert mat[0, 0] == pytest.approx(0.3)
    assert mat[0, 1] == pytest.approx(0.7)
    assert mat[2, 0] == pytest.approx(0.7)   # wrap-around
    assert mat.sum(axis=1) == pytest.approx([1.0, 1.0, 1.0])


def test_draw_row_has_sorted_targets_and_an_exact_final_cumulative():
    _, model = line_graph(4, forward_prob=0.8)
    targets, cum = _draw_row(model, "default", 1)
    assert targets == [1, 2]
    assert cum[0] == pytest.approx(0.2)
    assert cum[-1] == 1.0


def test_draw_from_row_boundaries():
    targets, cum = [0, 1], [0.2, 1.0]
    # mass for target 0 is the half-open interval [0, 0.2)
    assert draw_from_row(targets, cum, _FixedRng([0.0])) == 0
    assert draw_from_row(targets, cum, _FixedRng([0.19999])) == 0
    assert draw_from_row(targets, cum, _FixedRng([0.2])) == 1
    assert draw_from_row(targets, cum, _FixedRng([0.99999])) == 1


def test_advance_preserves_velocity_class_and_uses_its_row():
    graph = _two_cell_graph()
    model = MarkovJumpModel(
        rows={
            "default": {0: {0: 1.0}, 1: {1: 1.0}},
            "fast": {0: {1: 1.0}, 1: {1: 1.0}},
        }
    )
    assert model.problems(graph) == []
    rng = RngStream(0, "v")
    assert draw_from_row(*_draw_row(model, "default", 0), rng) == 0
    assert draw_from_row(*_draw_row(model, "fast", 0), rng) == 1


def test_long_run_transition_frequency_matches_the_row():
    _, model = line_graph(5, forward_prob=0.8)
    rng = RngStream(1234, "mob")
    n = 20000
    moved = 0
    targets, cum = _draw_row(model, "default", 2)
    for _ in range(n):
        if draw_from_row(targets, cum, rng) == 3:
            moved += 1
    assert abs(moved / n - 0.8) < 0.01


def test_line_graph_shapes():
    graph, model = line_graph(4, spacing_m=50.0, forward_prob=0.8)
    assert graph.cells == [0, 1, 2, 3]
    assert graph.centers[3] == (150.0, 0.0)
    assert graph.adjacency[3] == (3, 0)
    assert graph.problems() == []
    assert model.problems(graph) == []

    single, single_model = line_graph(1)
    assert single.adjacency[0] == (0, 0)
    assert single_model.rows["default"][0] == {0: 1.0}


@st.composite
def _road(draw):
    """A road in the cells/edges form, with a random row per cell for two velocity classes."""
    ids = draw(st.lists(st.integers(0, 500), min_size=1, max_size=30, unique=True))
    cells = [{"cell_id": c, "x": float(i), "y": 0.0} for i, c in enumerate(ids)]
    edges, rows = [], {"slow": {}, "fast": {}}
    for c in ids:
        targets = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
        if c not in targets and draw(st.booleans()):
            targets[0] = c                       # a self-loop
        edges += [[c, t] for t in targets]
        for per_cell in rows.values():
            weights = [draw(st.floats(0.01, 1.0))]
            weights += [draw(st.sampled_from([0.0]) | st.floats(0.01, 1.0)) for _ in targets[1:]]
            per_cell[c] = {t: w / sum(weights) for t, w in zip(targets, weights)}
    belief = draw(st.lists(st.floats(0.0, 1.0), min_size=len(ids), max_size=len(ids)))
    return cells, edges, rows, belief


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_road())
def test_sparse_transition_matches_a_dense_matrix_built_from_rows(road):
    cells, edges, rows, belief = road
    centers = {c["cell_id"]: (c["x"], c["y"]) for c in cells}
    adjacency = {c: tuple(t for s, t in edges if s == c) for c in centers}
    graph = RoadGraph(centers=centers, adjacency=adjacency)
    model = MarkovJumpModel(rows=rows)
    assert graph.problems() == []
    assert model.problems(graph) == []
    order = graph.cells
    index = {c: i for i, c in enumerate(order)}
    b = np.array(belief) + 1e-3
    b /= b.sum()
    ops = {}
    for vclass, per_cell in rows.items():
        dense = np.zeros((len(order), len(order)))
        for c, row in per_cell.items():
            for t, p in row.items():
                dense[index[c], index[t]] = p
        _, ops[vclass] = model.transition_matrix(vclass, order)
        assert np.max(np.abs(b @ ops[vclass] - b @ dense)) <= 1e-12

        # stacked beliefs: each row is computed exactly as it is alone
        stacked = np.stack([b, b[::-1], b])
        assert all(np.array_equal(row, one @ ops[vclass]) for row, one in zip(stacked @ ops[vclass], stacked))

    # A velocity-class switch hands the belief a different transition object:
    # the cached propagation must be recomputed, not reused.
    fleet = FleetBelief(b)
    slow = fleet.prior([ops["slow"]])
    assert fleet.prior([ops["slow"]]) is slow
    fast = fleet.prior([ops["fast"]])
    assert fast is not slow
    assert np.array_equal(fast[0], b @ ops["fast"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_road())
def test_one_walk_gives_each_cells_draw_row_and_its_transition_row(road):
    cells, _, rows, _ = road
    model = MarkovJumpModel(rows=rows)
    order = sorted(c["cell_id"] for c in cells)
    unit = np.eye(len(order))
    for vclass, per_cell in rows.items():
        draws, op = model.transition_matrix(vclass, order)
        assert len(draws) == len(order)
        for i, cell in enumerate(order):
            row = per_cell[cell]
            norm = 0.0
            for p in row.values():          # left to right, in the row's own order
                norm += p
            targets, cum, total = sorted(row), [], 0.0
            for t in targets:
                total += row[t] / norm
                cum.append(total)
            assert draws[i] == (targets, cum[:-1] + [1.0])
            dense = np.zeros(len(order))
            for t, p in row.items():
                dense[order.index(t)] = p
            assert np.array_equal(unit[i] @ op, dense)
