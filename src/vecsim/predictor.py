"""Anticipatory mobility prediction from AP association history.

A recursive Bayesian filter keeps a belief over road cells per vehicle,
driven ONLY by which APs the vehicle reached each slot (never positions, and
deliberately no GPS anywhere in this module). The one-step-ahead belief turns
into a predicted association vector that seeds proactive downlink.

The filter steps a whole fleet at once: `FleetBelief` stacks one posterior
row per vehicle, `update_fleet` and `predict_fleet` advance every row, and
the observation model keeps each association vector's likelihood in a memo
of bounded size.
Every row is computed exactly as a lone vehicle's would be, so
`update_belief` and `predict_association`, the one-vehicle API, are the
one-row case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

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
        if not set(self.bits) <= {0, 1}:
            raise ValueError("association bits must be 0/1")


@dataclass
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
    update. So each prior row remembers the transition it was propagated
    under and is reused while the vehicle keeps that transition; a
    velocity-class switch, or a new posterior, makes it stale.
    """

    def __init__(self, probs: np.ndarray):
        probs = np.array(probs, dtype=float, ndmin=2)       # (vehicles, cells), copied
        if not _normalized(probs):
            raise ValueError("belief must be normalized: each row sums to 1, with no negative entry")
        self._set_posteriors(probs)

    def _set_posteriors(self, probs: np.ndarray) -> None:
        self.probs = probs
        self._prior = np.empty_like(probs)
        self._prior_op: list = [None] * len(probs)

    def prior(self, transitions: Sequence) -> np.ndarray:
        """Row i is probs[i] @ transitions[i]; only stale rows are propagated."""
        stale: dict[int, tuple[object, list[int]]] = {}
        for i, (op, had) in enumerate(zip(transitions, self._prior_op, strict=True)):
            if op is not had:
                stale.setdefault(id(op), (op, []))[1].append(i)
        for op, rows in stale.values():
            if len(rows) == len(self.probs):
                self._prior = self.probs @ op
            else:
                self._prior[rows] = self.probs[rows] @ op
            for i in rows:
                self._prior_op[i] = op
        return self._prior


@dataclass(frozen=True)
class ObservationModel:
    """P(AP bit = 1 | cell) per (cell, AP); conditionally independent bits."""

    likelihood: np.ndarray      # shape (n_cells, n_aps), entries in [0, 1]
    # per AP, contiguous over cells: P(bit = 1 | cell) and P(bit = 0 | cell)
    _hit: np.ndarray = field(init=False, compare=False, repr=False)
    _miss: np.ndarray = field(init=False, compare=False, repr=False)
    _memo: dict = field(init=False, compare=False, repr=False)     # bits -> obs_likelihood

    def __post_init__(self):
        lk = self.likelihood
        if lk.ndim != 2 or ((lk < 0) | (lk > 1)).any():
            raise ValueError("likelihood must be a (cells x aps) matrix with entries in [0, 1]")
        object.__setattr__(self, "_hit", np.ascontiguousarray(lk.T))
        object.__setattr__(self, "_miss", 1.0 - self._hit)
        object.__setattr__(self, "_memo", {})

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


def update_fleet(
    fleet: FleetBelief,
    observations: Sequence[tuple[int, ...]],
    transitions: Sequence,
    obs_model: ObservationModel,
) -> np.ndarray:
    """Predict-then-update step of every row, with row i's association bits and transition.

    b'(c) is proportional to L(obs | c) * sum_c0 P(c | c0) b(c0), renormalized.
    If an observation has zero total likelihood under the predicted prior
    (MAI can produce impossible vectors), that row's update is skipped: its
    predicted prior, renormalized, becomes the posterior. Returns the boolean
    mask of the rows that fell back.
    """
    prior = fleet.prior(transitions)
    distinct: dict[tuple[int, ...], int] = {}
    which = [distinct.setdefault(bits, len(distinct)) for bits in observations]
    likelihoods = np.array([obs_model.obs_likelihood(bits) for bits in distinct])
    weighted = prior * likelihoods[which]
    total = weighted.sum(axis=1)
    fallback = total <= 0.0
    if fallback.any():
        weighted[fallback] = prior[fallback]
        total[fallback] = prior[fallback].sum(axis=1)
    fleet._set_posteriors(weighted / total[:, None])
    return fallback


def predict_fleet(
    fleet: FleetBelief,
    transitions: Sequence,
    obs_model: ObservationModel,
    threshold: float,
) -> list[tuple[int, ...]]:
    """One-step-ahead association bits per row: bit set iff the predicted marginal clears threshold.

    marginal(ap) = sum_c b_plus(c) * P(ap observed | c) with b_plus the
    transition-propagated belief, summed in ascending cell order by einsum's
    own loop, not BLAS, whose kernel choice at run time would change the bits.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    marginals = np.einsum("rc,ca->ra", fleet.prior(transitions), obs_model.likelihood)
    return [tuple(row) for row in (marginals >= threshold).astype(int).tolist()]


def update_belief(
    belief: PosteriorBelief,
    obs: AssociationVector,
    transition: np.ndarray,
    obs_model: ObservationModel,
) -> tuple[PosteriorBelief, bool]:
    """update_fleet on one belief; the second element flags the fallback."""
    fleet = FleetBelief(belief.probs)
    fallback = update_fleet(fleet, [obs.bits], [transition], obs_model)
    return PosteriorBelief(belief.vehicle_id, fleet.probs[0]), bool(fallback[0])


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
