"""Anticipatory mobility prediction from AP association history.

A recursive Bayesian filter keeps a belief over road cells per vehicle,
driven ONLY by which APs the vehicle reached each slot (never positions, and
deliberately no GPS anywhere in this module). The one-step-ahead belief turns
into a predicted association vector that seeds proactive downlink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-9


@dataclass(frozen=True)
class AssociationVector:
    """Per-slot binary reachability over APs, derived from MAC outcomes only."""

    vehicle_id: int
    slot: int
    bits: tuple[int, ...]       # one per AP id, in ascending AP-id order

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("association bits must be 0/1")


@dataclass
class PosteriorBelief:
    vehicle_id: int
    probs: np.ndarray           # over road cells, ascending cell order
    # (transition, probs @ transition) of the last propagate() call
    _propagated: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def propagate(self, transition: np.ndarray) -> np.ndarray:
        """probs @ transition (a matrix or the road model's sparse operator), once per transition.

        The filter propagates each posterior twice: to predict the next slot's
        association and, a slot later, as the prior of its update. The result
        is read-only because later calls return the same array.
        """
        cached = self._propagated
        if cached is None or cached[0] is not transition:
            prior = self.probs @ transition
            prior.flags.writeable = False
            cached = self._propagated = (transition, prior)
        return cached[1]

    def normalized(self) -> bool:
        return bool(abs(float(self.probs.sum()) - 1.0) <= NORM_TOL and (self.probs >= 0).all())


@dataclass(frozen=True)
class ObservationModel:
    """P(AP bit = 1 | cell) per (cell, AP); conditionally independent bits."""

    likelihood: np.ndarray      # shape (n_cells, n_aps), entries in [0, 1]
    # per AP, contiguous over cells: P(bit = 1 | cell) and P(bit = 0 | cell)
    _hit: np.ndarray = field(init=False, compare=False, repr=False)
    _miss: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        lk = self.likelihood
        if lk.ndim != 2 or ((lk < 0) | (lk > 1)).any():
            raise ValueError("likelihood must be a (cells x aps) matrix with entries in [0, 1]")
        object.__setattr__(self, "_hit", np.ascontiguousarray(lk.T))
        object.__setattr__(self, "_miss", 1.0 - self._hit)

    def obs_likelihood(self, bits: tuple[int, ...]) -> np.ndarray:
        """Per-cell likelihood of one association vector."""
        if len(bits) != len(self._hit):
            raise ValueError("association vector length must equal AP count")
        out = np.ones(self.likelihood.shape[0])
        for j, bit in enumerate(bits):
            out *= self._hit[j] if bit else self._miss[j]
        return out


def update_belief(
    belief: PosteriorBelief,
    obs: AssociationVector,
    transition: np.ndarray,
    obs_model: ObservationModel,
) -> tuple[PosteriorBelief, bool]:
    """Predict-then-update step.

    b'(c) is proportional to L(obs | c) * sum_c0 P(c | c0) b(c0), renormalized.
    If the observation has zero total likelihood under the predicted prior
    (MAI can produce impossible vectors), the update is skipped: the predicted
    prior is returned and the second element flags the fallback.
    """
    if not belief.normalized():
        raise ValueError("belief must be normalized before an update")
    prior = belief.propagate(transition)
    weighted = prior * obs_model.obs_likelihood(obs.bits)
    total = float(weighted.sum())
    if total <= 0.0:
        return PosteriorBelief(belief.vehicle_id, prior / prior.sum()), True
    return PosteriorBelief(belief.vehicle_id, weighted / total), False


def predict_association(
    belief: PosteriorBelief,
    transition: np.ndarray,
    obs_model: ObservationModel,
    threshold: float,
    vehicle_id: int | None = None,
    slot: int = -1,
) -> AssociationVector:
    """One-step-ahead association: bit set iff the predicted marginal clears threshold.

    marginal(ap) = sum_c b_plus(c) * P(ap observed | c) with b_plus the
    transition-propagated belief.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    b_plus = belief.propagate(transition)
    marginals = b_plus @ obs_model.likelihood
    bits = tuple(1 if m >= threshold else 0 for m in marginals)
    vid = belief.vehicle_id if vehicle_id is None else vehicle_id
    return AssociationVector(vehicle_id=vid, slot=slot, bits=bits)


def uniform_belief(vehicle_id: int, n_cells: int) -> PosteriorBelief:
    return PosteriorBelief(vehicle_id, np.full(n_cells, 1.0 / n_cells))


def derive_observation_model(
    cells: list[int],
    cell_snrs: dict[int, list[tuple[int, float]]],
    n_aps: int,
    success_prob: dict[tuple[int, int], float],
    floor: float = 0.01,
    ceiling: float = 0.99,
) -> ObservationModel:
    """Build the likelihood matrix from channel geometry and decode statistics.

    cell_snrs maps cell -> candidate (ap_id, snr) pairs as the MAC would see
    them; success_prob maps (cell, ap) to per-slot decode probability. The
    floor keeps impossible-looking observations from zeroing the filter.
    """
    lk = np.full((len(cells), n_aps), floor)
    for i, cell in enumerate(cells):
        for ap_id, _snr in cell_snrs.get(cell, []):
            p = success_prob.get((cell, ap_id), 0.0)
            lk[i, ap_id] = min(max(p, floor), ceiling)
    return ObservationModel(likelihood=lk)
