"""Grant-free open-loop data plane.

Vehicles contend on a CTU grid (slot x frequency block x sequence) with no
handshake and no feedback: proactive CTU selection, collision detection,
a multiuser-detection capacity threshold, per-path decoding through a
logistic block-error curve, selection combining across relay paths, and an
epsilon-greedy bandit trading replica count against reliability.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Annotated

from vecsim.channel import SignalQuality
from vecsim.ranges import Range
from vecsim.rng import RngStream


@dataclass(frozen=True)
class CtuPool:
    """The contention grid. A CTU id is a flat index into the grid."""

    slots_per_frame: Annotated[int, Range(ge=1)] = 1
    freq_blocks: Annotated[int, Range(ge=1)] = 8
    sequences: Annotated[int, Range(ge=1)] = 1

    def __post_init__(self):
        if min(self.slots_per_frame, self.freq_blocks, self.sequences) < 1:
            raise ValueError("all CTU pool dimensions must be >= 1")

    @property
    def size(self) -> int:
        return self.slots_per_frame * self.freq_blocks * self.sequences


@dataclass
class CtuSelection:
    vehicle_id: int
    ctus: tuple[int, ...]              # distinct CTU ids
    target_aps: tuple[int, ...]        # parallel to ctus

    def __post_init__(self):
        if len(set(self.ctus)) != len(self.ctus):
            raise ValueError("duplicate CTU in one selection")
        if len(self.target_aps) != len(self.ctus):
            raise ValueError("target AP list must parallel the CTU list")


@dataclass(frozen=True)
class UplinkPacket:
    vehicle_id: int
    emit_slot: int
    payload_bits: int = 128


@dataclass(frozen=True)
class DecodeOutcome:
    path_success: tuple[bool, ...]
    combined: bool
    resolved_by_mud: bool = False


@dataclass(frozen=True)
class BlerCurve:
    """Logistic block-error curve, the stand-in for a short-packet FEC.

    BLER(s_db) = 1 / (1 + exp(alpha * (s_db - beta))), with beta keyed on the
    payload size so longer packets need more SNR.
    """

    alpha: float = 1.0
    beta_per_payload: dict[int, float] = field(default_factory=lambda: {128: 5.0, 256: 8.0})

    def bler(self, snr_eff_db: float, payload_bits: int) -> float:
        if payload_bits not in self.beta_per_payload:
            raise ValueError(f"no BLER threshold configured for payload of {payload_bits} bits")
        beta = self.beta_per_payload[payload_bits]
        x = self.alpha * (snr_eff_db - beta)
        # exp overflow guard; the curve saturates anyway
        if x > 60:
            return 0.0 if x > 0 else 1.0
        if x < -60:
            return 1.0
        return 1.0 / (1.0 + math.exp(x))


def select_ctus(
    vehicle_id: int,
    candidates: Sequence[int],
    replicas: int,
    pool: CtuPool,
    rng: RngStream,
    policy: str = "random",
    preconfigured: dict[int, list[tuple[int, int]]] | None = None,
) -> CtuSelection:
    """Pick `replicas` distinct CTUs and aim each at an AP.

    `candidates` is the vehicle's AP list in descending-SNR order; chosen CTUs
    are assigned to APs round-robin over that order, so the strongest APs get
    relay duty first. `preconfigured` maps vehicle id to fixed (ctu, ap) pairs.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if not candidates:
        raise ValueError("candidate AP set must be nonempty")
    if policy == "preconfigured":
        if preconfigured is None or vehicle_id not in preconfigured:
            raise ValueError(f"no preconfigured CTU mapping for vehicle {vehicle_id}")
        pairs = preconfigured[vehicle_id]
        ctus = tuple(c for c, _ in pairs)
        aps = tuple(a for _, a in pairs)
        for c in ctus:
            if not 0 <= c < pool.size:
                raise ValueError(f"preconfigured CTU {c} outside pool of size {pool.size}")
        return CtuSelection(vehicle_id=vehicle_id, ctus=ctus, target_aps=aps)
    if policy != "random":
        raise ValueError(f"unknown CTU selection policy {policy!r}")
    if replicas > pool.size:
        raise ValueError(f"replicas ({replicas}) exceed pool size ({pool.size})")
    ctus = tuple(sorted(rng.choice_without_replacement(pool.size, replicas)))
    aps = tuple(candidates[i % len(candidates)] for i in range(replicas))
    return CtuSelection(vehicle_id=vehicle_id, ctus=ctus, target_aps=aps)


def detect_collisions(selections: list[CtuSelection]) -> dict[int, list[int]]:
    """Exact occupancy multimap CTU id -> vehicle ids, for one slot."""
    occupancy: dict[int, list[int]] = {}
    for sel in selections:
        for ctu in sel.ctus:
            occupancy.setdefault(ctu, []).append(sel.vehicle_id)
    return occupancy


def mud_resolve(occupants: list[int], k_max: int) -> dict[int, bool]:
    """Multiuser detection as a capacity threshold.

    Up to k_max superposed transmissions per CTU are all separable; one more
    and the whole CTU is lost. Depends only on the occupant count.
    """
    if not occupants:
        raise ValueError("occupants must be nonempty")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ok = len(occupants) <= k_max
    return {v: ok for v in occupants}


def effective_snr_db(snr: SignalQuality, relay_snr: SignalQuality, mode: str) -> float:
    """Two-hop effective SNR: AF harmonic combination or DF bottleneck."""
    s = 10.0 ** (snr.snr_db / 10.0)
    r = 10.0 ** (relay_snr.snr_db / 10.0)
    if mode == "AF":
        eff = s * r / (s + r + 1.0)
    elif mode == "DF":
        eff = min(s, r)
    else:
        raise ValueError(f"unknown relay mode {mode!r}")
    return 10.0 * math.log10(max(eff, 1e-30))


def decode_path(
    snr: SignalQuality,
    payload: UplinkPacket,
    mode: str,
    relay_snr: SignalQuality,
    curve: BlerCurve,
    rng: RngStream,
) -> bool:
    """One relay path: vehicle -> AP -> AN. Success w.p. 1 - BLER(eff SNR)."""
    p_fail = path_failure_prob(snr, mode, relay_snr, curve, payload.payload_bits)
    return rng.random() >= p_fail


def path_failure_prob(
    snr: SignalQuality, mode: str, relay_snr: SignalQuality, curve: BlerCurve, payload_bits: int
) -> float:
    """P(a relay path fails to decode): BLER at the path's two-hop effective SNR."""
    return curve.bler(effective_snr_db(snr, relay_snr, mode), payload_bits)


def combine(path_success: list[bool], resolved_by_mud: bool = False) -> DecodeOutcome:
    """Selection combining: the packet is in if any single path decoded."""
    flags = tuple(bool(x) for x in path_success)
    return DecodeOutcome(path_success=flags, combined=any(flags), resolved_by_mud=resolved_by_mud)


@dataclass
class BanditState:
    """Epsilon-greedy bandit over replica counts 1..r_max.

    Reward for pulling arm r is 1{decoded} - cost_per_replica * r, tracked by
    incremental means. Ties break toward the lowest replica count, so the
    bandit never burns resources it has no evidence for.
    """

    r_max: int = 4
    epsilon: float = 0.1
    cost_per_replica: float = 0.05
    estimates: list[float] = field(default_factory=list)
    pulls: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if not self.estimates:
            self.estimates = [0.0] * self.r_max
        if not self.pulls:
            self.pulls = [0] * self.r_max

    def arm_of(self, replicas: int) -> int:
        return replicas - 1


def bandit_select_and_update(
    state: BanditState,
    last_decoded: bool | None,
    last_replicas: int | None,
    rng: RngStream,
) -> int:
    """Update the last pulled arm from whether its packet decoded (a
    `DecodeOutcome.combined`), then choose the next arm.

    Returns the replica count to use next slot. Mutates `state`.
    """
    if last_decoded is not None and last_replicas is not None:
        arm = state.arm_of(last_replicas)
        reward = (1.0 if last_decoded else 0.0) - state.cost_per_replica * last_replicas
        state.pulls[arm] += 1
        n = state.pulls[arm]
        state.estimates[arm] += (reward - state.estimates[arm]) / n
    if rng.random() < state.epsilon:
        arm = rng.integers(state.r_max)
    else:
        best = max(state.estimates)
        arm = min(i for i, est in enumerate(state.estimates) if est == best)
    return arm + 1
