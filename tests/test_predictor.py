"""Bayesian association filter against a hand-rolled forward-algorithm oracle,
and the fleet step against the one-vehicle filter, bit for bit."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim import predictor
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


def test_the_likelihood_memo_is_cleared_when_full_and_keeps_every_row_exact(monkeypatch):
    # noisy AN views make almost every association vector distinct, so an
    # unbounded memo would grow by one row per vector
    rng = np.random.default_rng(5)
    cells, aps = 64, 12
    likelihood = rng.uniform(0.01, 0.99, size=(cells, aps))
    cap = 10 * cells * 8
    monkeypatch.setattr(predictor, "LIKELIHOOD_MEMO_BYTES", cap)
    model = ObservationModel(likelihood=likelihood)
    sizes = []
    for _ in range(100):
        bits = tuple(rng.integers(0, 2, aps).tolist())
        got = model.obs_likelihood(bits)
        assert np.array_equal(got, ObservationModel(likelihood=likelihood).obs_likelihood(bits))
        assert model.obs_likelihood(bits) is got
        sizes.append(sum(row.nbytes for row in model._memo.values()))
    assert max(sizes) == cap and min(sizes[10:]) == cells * 8


def test_observation_model_rejects_bad_likelihoods():
    with pytest.raises(ValueError):
        ObservationModel(likelihood=np.array([[1.2]]))
    with pytest.raises(ValueError):
        ObservationModel(likelihood=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ObservationModel(likelihood=np.array([[0.5], [np.nan]]))


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
    assert graph.problems() == []
    assert model.problems(graph) == []
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
    ops = {vclass: mobility.transition_matrix(vclass, cells)[1] for vclass in ("slow", "fast")}
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
            assert (fb, predicted[v]) == (ref_fb, ref_bits)
        assert fellback == fallbacks


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_road_model(), st.integers(1, 6), st.integers(1, 3), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_the_fleet_step_is_the_one_row_step_near_the_threshold(road, n_rows, n_aps, steps, seed):
    # one row switches class mid-run, rows share or repeat a vector, AP 0 is
    # never heard (a vector that hears it is impossible and its row falls
    # back), and each threshold sits at, or one float off, a row's marginal
    cells, mobility = road
    rng = np.random.default_rng(seed)
    ops = {vclass: mobility.transition_matrix(vclass, cells)[1] for vclass in ("slow", "fast")}
    likelihood = rng.choice([0.0, 1.0, *rng.random(3)], size=(len(cells), n_aps))
    likelihood[:, 0] = 0.0
    model = ObservationModel(likelihood=likelihood)
    fleet = FleetBelief(np.full((n_rows, len(cells)), 1.0 / len(cells)))
    singles = [uniform_belief(v, len(cells)) for v in range(n_rows)]
    classes = ["slow"] * n_rows
    switch_row, switch_step = int(rng.integers(n_rows)), int(rng.integers(1, steps))
    for step in range(steps):
        if step == switch_step:
            classes[switch_row] = "fast"
        trans = [ops[c] for c in classes]
        shared = tuple(rng.integers(0, 2, n_aps).tolist())
        observed = [shared if rng.random() < 0.5 else tuple(rng.integers(0, 2, n_aps).tolist()) for _ in range(n_rows)]
        fallbacks = update_fleet(fleet, observed, trans, model)
        one_row = [update_belief(singles[v], AssociationVector(v, step, observed[v]), trans[v], model) for v in range(n_rows)]
        singles = [belief for belief, _ in one_row]
        assert fallbacks == sum(fb for _, fb in one_row)
        assert all(np.array_equal(fleet.probs[v], singles[v].probs) for v in range(n_rows))

        row, ap = int(rng.integers(n_rows)), int(rng.integers(n_aps))
        m = _marginals_in_cell_order(singles[row].probs @ trans[row], likelihood)[ap]
        threshold = float(rng.choice([m, np.nextafter(m, 0.0), np.nextafter(m, 1.0)]))
        if not 0.0 < threshold < 1.0:
            threshold = 0.5
        predicted = predict_fleet(fleet, trans, model, threshold)
        assert predicted == [predict_association(singles[v], trans[v], model, threshold).bits for v in range(n_rows)]


def test_predicted_marginals_are_the_cell_order_sum_bit_for_bit():
    # a BLAS product's bits depend on the kernel picked at run time; the
    # marginals must be the plain sequential sum, probed at each entry's own
    # value (the bit is set) and the next float up (it is not)
    rng = np.random.default_rng(11)
    graph, road = line_graph(200, forward_prob=0.7)
    cells = graph.cells
    _, op = road.transition_matrix("default", cells)     # sparse: the prior needs no BLAS
    probs = rng.random((40, len(cells)))
    fleet = FleetBelief(probs / probs.sum(axis=1, keepdims=True))
    model = ObservationModel(likelihood=rng.uniform(0.01, 0.99, size=(len(cells), 20)))
    trans = [op] * 40
    expected = _marginals_in_cell_order(fleet.prior(trans), model.likelihood)
    for (r, a), m in np.ndenumerate(expected):
        assert predict_fleet(fleet, trans, model, m)[r][a] == 1
        assert predict_fleet(fleet, trans, model, np.nextafter(m, 1.0))[r][a] == 0


class _FixedPrior:
    """A transition that propagates every belief to the same given prior rows,
    so predict_fleet can be fed priors no stochastic matrix produces."""

    __array_ufunc__ = None      # make `ndarray @ op` defer to __rmatmul__

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __rmatmul__(self, probs: np.ndarray) -> np.ndarray:
        return self.rows


@st.composite
def _marginal_inputs(draw):
    """Non-negative priors, one scale per row from far below 1 (whole rows
    subnormal) to far above it, with zeros and subnormal entries; likelihoods
    in [0, 1] with exact 0s, 1s and halves (halves of subnormals are ties)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, n_cells, n_aps = draw(st.integers(1, 3)), draw(st.integers(1, 3000)), draw(st.integers(1, 4))
    scales = [2.0 ** draw(st.sampled_from([-1074, -1060, -1030, -1022, -500, 0, 0, 40, 900])) for _ in range(n_rows)]
    prior = rng.random((n_rows, n_cells)) * np.array(scales)[:, None]
    kind = rng.integers(0, 4, size=prior.shape)
    prior[kind == 1] = 0.0
    prior[kind == 2] = rng.integers(1, 2**12, size=int(np.count_nonzero(kind == 2))) * 2.0**-1074
    likelihood = rng.choice([0.0, 1.0, 0.5, *rng.random(5)], size=(n_cells, n_aps))
    return prior, likelihood


def _marginals_in_reversed_cell_order(prior, likelihood):
    acc = prior[..., -1, None] * likelihood[-1]
    for c in range(len(likelihood) - 2, -1, -1):
        acc += prior[..., c, None] * likelihood[c]
    return acc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_marginal_inputs())
def test_blas_and_reversed_order_sums_are_within_the_certified_bound(inputs):
    prior, likelihood = inputs
    rel, tiny = predictor.marginal_error_bound(len(likelihood))
    exact_order = _marginals_in_cell_order(prior, likelihood)
    for other in (prior @ likelihood, _marginals_in_reversed_cell_order(prior, likelihood)):
        assert (np.abs(other - exact_order) <= rel * other + tiny).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_marginal_inputs(), st.lists(st.floats(-310.0, -0.01), max_size=4))
def test_predicted_bits_are_the_cell_order_sums_bits_at_every_threshold(inputs, exponents):
    # thresholds at the cell-order sums themselves and their neighbours are
    # where BLAS's bits may differ; tiny thresholds need the bound's absolute term
    prior, likelihood = inputs
    expected = _marginals_in_cell_order(prior, likelihood)
    fleet = FleetBelief(np.eye(1, len(likelihood)).repeat(len(prior), axis=0))
    trans = [_FixedPrior(prior)] * len(prior)
    model = ObservationModel(likelihood=likelihood)
    entries = np.unique(expected)
    thresholds = [*entries, *np.nextafter(entries, 0.0), *np.nextafter(entries, np.inf), *(10.0**e for e in exponents)]
    for threshold in thresholds:
        if 0.0 < threshold < 1.0:
            bits = [tuple(int(b) for b in row) for row in expected >= threshold]
            assert predict_fleet(fleet, trans, model, threshold) == bits
