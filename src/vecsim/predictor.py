"""Anticipatory mobility prediction from AP association history.

A recursive Bayesian filter keeps a belief over road cells per vehicle,
driven ONLY by which APs the vehicle reached each slot (never positions, and
deliberately no GPS anywhere in this module). The one-step-ahead belief turns
into a predicted association vector that seeds proactive downlink.

The filter steps a whole fleet at once: `FleetBelief` stacks one posterior
row per vehicle, `update_fleet` and `predict_fleet` advance every row, and
the observation model keeps each association vector's likelihood in a memo
of bounded size. A step makes the same few numpy calls for any fleet: the
prior is one product per distinct transition, kept for the next update,
and the update works in place and returns its fallback count.
Every row is computed exactly as a lone vehicle's would be, so
`update_belief` and `predict_association`, the one-vehicle API, are the
one-row case.

A predicted bit is defined by the marginal summed in ascending cell order.
`predict_fleet` computes the marginals with one BLAS product and takes each
bit from it where a certified error bound shows that the cell-order sum
lies on the same side of the threshold; the cell-order sums are computed
only for a row with a marginal too close to the threshold to tell.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9
# Bytes of likelihood rows an observation model keeps. Noisy AN views make
# almost every association vector distinct, so the memo is cleared when full.
LIKELIHOOD_MEMO_BYTES = 32 * 2**20


@dataclass(unsafe_hash=True)
class AssociationVector:
    """Per-slot binary reachability over APs, derived from MAC outcomes only."""

    vehicle_id: int
    slot: int
    bits: tuple[int, ...]       # one per AP id, in ascending AP-id order

    def __post_init__(self):
        if not {0, 1}.issuperset(self.bits):
            raise ValueError("association bits must be 0/1")


@dataclass(eq=False, repr=False)
class PosteriorBelief:
    vehicle_id: int
    probs: np.ndarray           # over road cells, ascending cell order

    def normalized(self) -> bool:
        return _normalized(self.probs)


def _normalized(probs: np.ndarray) -> bool:
    """Each belief (the last axis) sums to 1 within NORM_TOL and has no negative entry."""
    return bool((np.abs(probs.sum(axis=-1) - 1.0) <= NORM_TOL).all() and (probs >= 0).all())


class FleetBelief:
    """Posteriors over road cells, one row per vehicle, with each row's propagated prior.

    A row's prior is its posterior pushed through a transition (a matrix or
    the road model's sparse operator). The filter needs it twice: to predict
    the next slot's association and, a slot later, as the prior of the
    update. So the prior remembers the transitions it was propagated under
    and is reused while the same ones come back; a new posterior, or a
    velocity-class switch, makes it stale.
    """

    def __init__(self, probs: np.ndarray):
        probs = np.array(probs, dtype=float, ndmin=2)       # (vehicles, cells), copied
        if not _normalized(probs):
            raise ValueError("belief must be normalized: each row sums to 1, with no negative entry")
        self._set_posteriors(probs)

    def _set_posteriors(self, probs: np.ndarray) -> None:
        """New posteriors: the prior goes stale."""
        self.probs = probs
        self._prior_op: list = [None] * len(probs)

    def prior(self, transitions: Sequence) -> np.ndarray:
        """Row i is probs[i] @ transitions[i]; one product per distinct transition."""
        if len(transitions) != len(self.probs):
            raise ValueError(f"expected one transition per row, got {len(transitions)} for {len(self.probs)} rows")
        # identity, not ==: a dense ndarray transition has no truth value
        if all(map(operator.is_, transitions, self._prior_op)):
            return self._prior
        ops = {id(op): op for op in transitions}
        if len(ops) == 1:
            self._prior = self.probs @ transitions[0]
        else:
            self._prior = np.empty_like(self.probs)
            for op in ops.values():
                rows = [i for i, t in enumerate(transitions) if t is op]
                self._prior[rows] = self.probs[rows] @ op
        self._prior_op = list(transitions)
        return self._prior


class ObservationModel:
    """P(AP bit = 1 | cell) per (cell, AP); conditionally independent bits."""

    def __init__(self, likelihood: np.ndarray):
        # NaN fails too: marginal_error_bound needs entries in [0, 1]
        if likelihood.ndim != 2 or not ((likelihood >= 0) & (likelihood <= 1)).all():
            raise ValueError("likelihood must be a (cells x aps) matrix with entries in [0, 1]")
        self.likelihood = likelihood        # shape (n_cells, n_aps), entries in [0, 1]
        # per AP, contiguous over cells: P(bit = 1 | cell) and P(bit = 0 | cell)
        self._hit = np.ascontiguousarray(likelihood.T)
        self._miss = 1.0 - self._hit
        self._memo: dict = {}       # bits -> obs_likelihood
        self._edges: dict = {}      # the last threshold -> its edges

    def obs_likelihood(self, bits: tuple[int, ...]) -> np.ndarray:
        """Per-cell likelihood of one association vector, read-only, and kept until the memo fills."""
        out = self._memo.get(bits)
        if out is None:
            if len(bits) != len(self._hit):
                raise ValueError("association vector length must equal AP count")
            out = np.ones(self.likelihood.shape[0])
            for j, bit in enumerate(bits):
                out *= self._hit[j] if bit else self._miss[j]
            out.flags.writeable = False
            if (len(self._memo) + 1) * out.nbytes > LIKELIHOOD_MEMO_BYTES:
                self._memo.clear()
            self._memo[bits] = out
        return out

    def threshold_edges(self, threshold: float) -> tuple[float, float]:
        """(above, below): a marginal summed in any order past either edge, solving
        |approx - threshold| > rel * approx + tiny (marginal_error_bound), is on
        that side of `threshold`. The last threshold's edges are kept."""
        edges = self._edges.get(threshold)
        if edges is None:
            rel, tiny = marginal_error_bound(len(self.likelihood))
            edges = ((threshold + tiny) / (1.0 - rel), (threshold - tiny) / (1.0 + rel))
            self._edges.clear()
            self._edges[threshold] = edges
        return edges


def update_fleet(
    fleet: FleetBelief,
    observations: Sequence[tuple[int, ...]],
    transitions: Sequence,
    obs_model: ObservationModel,
) -> int:
    """Predict-then-update step of every row, with row i's association bits and transition.

    b'(c) is proportional to L(obs | c) * sum_c0 P(c | c0) b(c0), renormalized.
    If an observation has zero total likelihood under the predicted prior
    (MAI can produce impossible vectors), that row's update is skipped: its
    predicted prior, renormalized, becomes the posterior. Returns how many
    rows fell back.
    """
    prior = fleet.prior(transitions)
    weighted = np.array(list(map(obs_model.obs_likelihood, observations)))
    weighted *= prior
    total = np.add.reduce(weighted, axis=1, keepdims=True)      # weighted.sum(axis=1), as a column
    # every term is >= 0, so a total that is not above 0 is 0
    n_fallback = len(total) - int(np.count_nonzero(total))
    if n_fallback:
        fallback = (total == 0.0)[:, 0]
        weighted[fallback] = prior[fallback]
        total[fallback] = np.add.reduce(prior[fallback], axis=1, keepdims=True)
    weighted /= total
    fleet._set_posteriors(weighted)
    return n_fallback


def marginal_error_bound(n_cells: int) -> tuple[float, float]:
    """(rel, tiny): any two float64 sums of n_cells terms prior[c] * lk[c], in
    any order, with or without FMA, differ by at most rel * x + tiny, x either sum.

    Every term is >= 0 (lk lies in [0, 1]), so under IEEE arithmetic with
    gradual underflow each sum x lies within gamma_C * m + C * 2**-1075 of
    the exact marginal m, with C = n_cells, u = 2**-53 and gamma_C =
    C*u / (1 - C*u) (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1: a term passes through at most C roundings; a product or FMA
    that lands below 2**-1022 adds at most 2**-1075, and a plain sum there
    is exact). Two such sums then differ by at most
    2*gamma_C*m + (1 + gamma_C) * C*2**-1074, and
    m <= (x + (1 + gamma_C) * C*2**-1075) / (1 - gamma_C) turns that into at
    most 2*C*eps * x + C*2**-1073 for C*u <= 1/4. rel and tiny are twice and
    eight times that; the slack covers the roundings of the threshold edges
    (ObservationModel.threshold_edges). Nothing assumes m <= 1: a dense transition passed to
    predict_association need not be stochastic.
    """
    return 4 * n_cells * 2.0**-52, n_cells * 2.0**-1070


def predict_fleet(
    fleet: FleetBelief,
    transitions: Sequence,
    obs_model: ObservationModel,
    threshold: float,
) -> list[tuple[int, ...]]:
    """One-step-ahead association bits per row: bit set iff the predicted marginal clears threshold.

    marginal(ap) = sum_c b_plus(c) * P(ap observed | c) with b_plus the
    transition-propagated belief, summed in ascending cell order. BLAS's
    product decides no bit on its own: its order depends on the kernel
    picked at run time, so a bit is taken from it only where
    |product - threshold| > rel * product + tiny (marginal_error_bound),
    which puts the cell-order sum on the same side of the threshold. A row
    with a marginal that close takes all its bits from the cell-order sums.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    prior = fleet.prior(transitions)
    above, below = obs_model.threshold_edges(threshold)
    approx = prior @ obs_model.likelihood
    bits = approx > above
    low = approx < below
    if np.count_nonzero(bits) + np.count_nonzero(low) < bits.size:
        # the running sums take a (rows, cells, APs) buffer: only for rows that need them
        rows = np.flatnonzero(~(bits | low).all(axis=1))
        bits[rows] = _cell_order_sums(prior[rows], obs_model.likelihood) >= threshold
    return [tuple(row) for row in bits.view(np.uint8).tolist()]


def _cell_order_sums(prior: np.ndarray, likelihood: np.ndarray) -> np.ndarray:
    """sum_c prior[r, c] * likelihood[c, a], each product rounded, then added one cell after another.

    A running sum fixes the order on every CPU; einsum does not (with one AP
    it sums in its own blocked order).
    """
    terms = prior[:, :, None] * likelihood
    return np.add.accumulate(terms, axis=1, out=terms)[:, -1]


def update_belief(
    belief: PosteriorBelief,
    obs: AssociationVector,
    transition: np.ndarray,
    obs_model: ObservationModel,
) -> tuple[PosteriorBelief, bool]:
    """update_fleet on one belief; the second element flags the fallback."""
    fleet = FleetBelief(belief.probs)
    fallback = update_fleet(fleet, [obs.bits], [transition], obs_model)
    return PosteriorBelief(belief.vehicle_id, fleet.probs[0]), fallback == 1


def predict_association(
    belief: PosteriorBelief,
    transition: np.ndarray,
    obs_model: ObservationModel,
    threshold: float,
    vehicle_id: int | None = None,
    slot: int = -1,
) -> AssociationVector:
    """predict_fleet on one belief, as the association vector of `slot`."""
    (bits,) = predict_fleet(FleetBelief(belief.probs), [transition], obs_model, threshold)
    vid = belief.vehicle_id if vehicle_id is None else vehicle_id
    return AssociationVector(vehicle_id=vid, slot=slot, bits=bits)


def uniform_belief(vehicle_id: int, n_cells: int) -> PosteriorBelief:
    return PosteriorBelief(vehicle_id, np.full(n_cells, 1.0 / n_cells))


def derive_observation_model(
    cells: list[int],
    cell_cols: dict[int, dict[int, float]],
    n_aps: int,
    floor: float = 0.01,
    ceiling: float = 0.99,
) -> ObservationModel:
    """Build the likelihood matrix from decode statistics.

    cell_cols maps cell -> {AP column: per-slot decode probability} for the
    APs a vehicle there aims at; every other entry sits at the floor, which
    keeps impossible-looking observations from zeroing the filter.
    """
    lk = np.full((len(cells), n_aps), floor)
    for i, cell in enumerate(cells):
        for col, p in cell_cols.get(cell, {}).items():
            lk[i, col] = min(max(p, floor), ceiling)
    return ObservationModel(likelihood=lk)
