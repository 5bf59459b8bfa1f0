"""Bayesian association filter against a hand-rolled forward-algorithm oracle,
and the fleet step against the one-vehicle filter, bit for bit."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.mobility import MarkovJumpModel, RoadGraph, line_graph
from vecsim.predictor import (
    AssociationVector,
    FleetBelief,
    ObservationModel,
    PosteriorBelief,
    derive_observation_model,
    predict_association,
    predict_fleet,
    uniform_belief,
    update_belief,
    update_fleet,
)


def _forward_step(b, P, L, bits):
    """Textbook forward recursion, written with explicit loops on purpose."""
    n = len(b)
    prior = [sum(b[i] * P[i][j] for i in range(n)) for j in range(n)]
    like = []
    for j in range(n):
        l = 1.0
        for a, bit in enumerate(bits):
            l *= L[j][a] if bit else (1.0 - L[j][a])
        like.append(l)
    unnorm = [prior[j] * like[j] for j in range(n)]
    z = sum(unnorm)
    if z <= 0.0:
        zp = sum(prior)
        return [p / zp for p in prior], True
    return [u / z for u in unnorm], False


def _random_instance(rng, n_cells, n_aps):
    P = rng.random((n_cells, n_cells))
    P /= P.sum(axis=1, keepdims=True)
    L = rng.random((n_cells, n_aps)) * 0.9 + 0.05
    return P, L


def test_association_vector_rejects_non_binary_bits():
    with pytest.raises(ValueError):
        AssociationVector(vehicle_id=0, slot=0, bits=(0, 2))


def test_obs_likelihood_is_a_product_over_bits():
    model = ObservationModel(likelihood=np.array([[0.9, 0.2], [0.5, 0.5]]))
    got = model.obs_likelihood((1, 0))
    assert got == pytest.approx([0.9 * 0.8, 0.5 * 0.5])
    with pytest.raises(ValueError, match="length"):
        model.obs_likelihood((1,))


def test_obs_likelihood_is_computed_once_per_vector_and_read_only():
    model = ObservationModel(likelihood=np.array([[0.9, 0.2], [0.5, 0.5]]))
    first = model.obs_likelihood((1, 0))
    assert model.obs_likelihood((1, 0)) is first
    assert model.obs_likelihood((0, 1)) == pytest.approx([0.1 * 0.2, 0.5 * 0.5])
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.0


def test_observation_model_rejects_bad_likelihoods():
    with pytest.raises(ValueError):
        ObservationModel(likelihood=np.array([[1.2]]))
    with pytest.raises(ValueError):
        ObservationModel(likelihood=np.array([0.5, 0.5]))


def test_update_matches_a_hand_computed_two_cell_step():
    P = np.array([[0.7, 0.3], [0.4, 0.6]])
    model = ObservationModel(likelihood=np.array([[0.9], [0.1]]))
    belief = PosteriorBelief(0, np.array([0.5, 0.5]))
    out, fallback = update_belief(belief, AssociationVector(0, 0, (1,)), P, model)
    prior = [0.55, 0.45]
    unnorm = [0.55 * 0.9, 0.45 * 0.1]
    z = sum(unnorm)
    assert not fallback
    assert out.probs == pytest.approx([unnorm[0] / z, unnorm[1] / z])


def test_update_requires_a_normalized_belief():
    P = np.eye(2)
    model = ObservationModel(likelihood=np.full((2, 1), 0.5))
    with pytest.raises(ValueError, match="normalized"):
        update_belief(PosteriorBelief(0, np.array([0.7, 0.6])), AssociationVector(0, 0, (1,)), P, model)


def test_zero_likelihood_observation_falls_back_to_the_predicted_prior():
    P = np.array([[0.2, 0.8], [0.5, 0.5]])
    model = ObservationModel(likelihood=np.array([[0.0], [0.0]]))
    belief = PosteriorBelief(0, np.array([0.5, 0.5]))
    out, fallback = update_belief(belief, AssociationVector(0, 0, (1,)), P, model)
    assert fallback
    assert out.probs == pytest.approx([0.35, 0.65])
    assert out.normalized()


def test_filter_trajectories_match_the_loop_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n_cells = int(rng.integers(2, 9))
        n_aps = int(rng.integers(1, 5))
        P, L = _random_instance(rng, n_cells, n_aps)
        model = ObservationModel(likelihood=L)
        belief = uniform_belief(0, n_cells)
        oracle = [1.0 / n_cells] * n_cells
        for step in range(20):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n_aps))
            belief, fb = update_belief(belief, AssociationVector(0, step, bits), P, model)
            oracle, ofb = _forward_step(oracle, P.tolist(), L.tolist(), bits)
            assert fb == ofb
            assert np.max(np.abs(belief.probs - np.array(oracle))) < 1e-9
            assert belief.normalized()


def test_predict_association_thresholds_the_propagated_marginals():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = ObservationModel(likelihood=np.array([[0.9, 0.1], [0.2, 0.8]]))
    belief = PosteriorBelief(3, np.array([1.0, 0.0]))
    out = predict_association(belief, P, model, threshold=0.5, slot=9)
    assert out.bits == (0, 1)       # all mass moves to cell 1
    assert out.vehicle_id == 3
    assert out.slot == 9
    low = predict_association(belief, P, model, threshold=0.15)
    assert low.bits == (1, 1)


def test_predict_association_threshold_bounds():
    belief = uniform_belief(0, 2)
    P = np.eye(2)
    model = ObservationModel(likelihood=np.full((2, 1), 0.5))
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            predict_association(belief, P, model, threshold=bad)


def test_uniform_belief_is_normalized():
    assert uniform_belief(0, 7).normalized()


def test_derived_observation_model_floors_ceilings_and_defaults():
    model = derive_observation_model(
        cells=[10, 20],
        cell_cols={10: {0: 0.999, 1: 0.5}, 20: {1: 0.0001}},
        n_aps=2,
        floor=0.01,
        ceiling=0.99,
    )
    lk = model.likelihood
    assert lk[0, 0] == pytest.approx(0.99)    # clamped from above
    assert lk[0, 1] == pytest.approx(0.5)
    assert lk[1, 1] == pytest.approx(0.01)    # clamped from below
    assert lk[1, 0] == pytest.approx(0.01)    # out of range stays at the floor


def test_module_never_touches_positions_or_geometry():
    # the filter must see association bits only; importing the channel or
    # mobility modules here would be a leak of ground-truth position
    import vecsim.predictor as predictor_module

    source = Path(predictor_module.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    forbidden = {"vecsim.channel", "vecsim.mobility", "vecsim.simulation", "vecsim.config"}
    assert not (imported & forbidden)


@st.composite
def _road_model(draw):
    """Two velocity classes on a line road or on a random cells/edges road."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 30))
        _, slow = line_graph(n, forward_prob=draw(st.floats(0.0, 1.0)))
        _, fast = line_graph(n, forward_prob=draw(st.floats(0.0, 1.0)))
        model = MarkovJumpModel(rows={"slow": slow.rows["default"], "fast": fast.rows["default"]})
        return list(range(n)), model
    ids = draw(st.lists(st.integers(0, 500), min_size=1, max_size=30, unique=True))
    adjacency, rows = {}, {"slow": {}, "fast": {}}
    for c in ids:
        targets = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
        adjacency[c] = tuple(targets)
        for per_cell in rows.values():
            weights = [draw(st.floats(0.01, 1.0))]
            weights += [draw(st.sampled_from([0.0]) | st.floats(0.01, 1.0)) for _ in targets[1:]]
            per_cell[c] = {t: w / sum(weights) for t, w in zip(targets, weights)}
    graph = RoadGraph(centers={c: (float(c), 0.0) for c in ids}, adjacency=adjacency)
    model = MarkovJumpModel(rows=rows)
    graph.validate()
    model.validate(graph)
    return graph.cells, model


def _marginals_in_cell_order(prior, likelihood):
    """sum_c prior[..., c] * likelihood[c], one cell after another, without BLAS."""
    acc = prior[..., 0, None] * likelihood[0]
    for c in range(1, len(likelihood)):
        acc += prior[..., c, None] * likelihood[c]
    return acc


def _reference_step(b, op, model, bits, threshold):
    """One vehicle's update and prediction as the per-vehicle filter computed
    them, on 1-D arrays: the sparse product as in-degree terms in order, the
    plain sum, and the marginals summed in cell order."""

    def propagate(v):
        acc = v[op.src[0]] * op.w[0]
        for k in range(1, len(op.src)):
            acc += v[op.src[k]] * op.w[k]
        return acc

    prior = propagate(b)
    weighted = prior * model.obs_likelihood(bits)
    total = float(weighted.sum())
    post, fallback = (prior / prior.sum(), True) if total <= 0.0 else (weighted / total, False)
    marginals = _marginals_in_cell_order(propagate(post), model.likelihood)
    return post, fallback, tuple(1 if m >= threshold else 0 for m in marginals)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    _road_model(),
    st.integers(1, 50),
    st.integers(1, 4),
    st.integers(1, 6),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
)
def test_fleet_step_equals_the_one_vehicle_filter_bit_for_bit(
    road, n_vehicles, n_aps, steps, switch_prob, deaf_ap, threshold, seed
):
    cells, mobility = road
    rng = np.random.default_rng(seed)
    ops = {vclass: mobility.transition_matrix(vclass, cells) for vclass in ("slow", "fast")}
    likelihood = rng.choice([0.0, 1.0, *rng.random(4)], size=(len(cells), n_aps))
    if deaf_ap:
        likelihood[:, 0] = 0.0      # hearing AP 0 has zero likelihood: those rows fall back
    model = ObservationModel(likelihood=likelihood)

    fleet = FleetBelief(np.full((n_vehicles, len(cells)), 1.0 / len(cells)))
    singles = [uniform_belief(v, len(cells)) for v in range(n_vehicles)]
    reference = [belief.probs for belief in singles]
    classes = list(rng.choice(["slow", "fast"], size=n_vehicles))
    for step in range(steps):
        # a random subset of the fleet switches class before each step
        classes = [("fast" if c == "slow" else "slow") if rng.random() < switch_prob else c for c in classes]
        trans = [ops[c] for c in classes]
        observed = [tuple(int(x) for x in rng.integers(0, 2, size=n_aps)) for _ in range(n_vehicles)]
        fellback = update_fleet(fleet, observed, trans, model)
        predicted = predict_fleet(fleet, trans, model, threshold)
        fallbacks = 0
        for v in range(n_vehicles):
            singles[v], fb = update_belief(singles[v], AssociationVector(v, step, observed[v]), trans[v], model)
            fallbacks += fb
            assert np.array_equal(fleet.probs[v], singles[v].probs)
            assert predicted[v] == predict_association(singles[v], trans[v], model, threshold).bits
            reference[v], ref_fb, ref_bits = _reference_step(reference[v], trans[v], model, observed[v], threshold)
            assert np.array_equal(fleet.probs[v], reference[v])
            assert (bool(fellback[v]), predicted[v]) == (ref_fb, ref_bits)
        assert int(fellback.sum()) == fallbacks


def test_predicted_marginals_are_the_cell_order_sum_bit_for_bit():
    # a BLAS product's bits depend on the kernel picked at run time; the
    # marginals must be the plain sequential sum, probed at each entry's own
    # value (the bit is set) and the next float up (it is not)
    rng = np.random.default_rng(11)
    graph, road = line_graph(200, forward_prob=0.7)
    cells = graph.cells
    op = road.transition_matrix("default", cells)        # sparse: the prior needs no BLAS
    probs = rng.random((40, len(cells)))
    fleet = FleetBelief(probs / probs.sum(axis=1, keepdims=True))
    model = ObservationModel(likelihood=rng.uniform(0.01, 0.99, size=(len(cells), 20)))
    trans = [op] * 40
    expected = _marginals_in_cell_order(fleet.prior(trans), model.likelihood)
    for (r, a), m in np.ndenumerate(expected):
        assert predict_fleet(fleet, trans, model, m)[r][a] == 1
        assert predict_fleet(fleet, trans, model, np.nextafter(m, 1.0))[r][a] == 0
