"""Distance-based signal quality between road cells and APs.

Log-distance path loss with a configurable exponent; no fading realizations
here. Channel randomness is folded into the decode error curve in the MAC
layer so the two stay separable. `snr_table` gives a whole road's cell x AP
table in one pass, with the constants read once; `snr_db` is its one-pair case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Iterable

from vecsim.ranges import Range

__all__ = ["ChannelParams", "SignalQuality", "snr_db", "snr_table"]

Point = tuple[float, float]


@dataclass(frozen=True, eq=False, repr=False)
class ChannelParams:
    tx_power_dbm: Annotated[float, Range()] = 23.0
    pl0_db: Annotated[float, Range()] = 47.86           # reference path loss at d0
    pathloss_exp: Annotated[float, Range(ge=0)] = 2.0   # so no SNR exceeds the peak, at ref_distance_m
    ref_distance_m: Annotated[float, Range(gt=0)] = 1.0
    noise_dbm: Annotated[float, Range()] = -95.0


@dataclass(frozen=True, eq=False, repr=False)
class SignalQuality:
    """An SNR in dB, as `mac.decode_path` takes it."""

    snr_db: float


def snr_table(points: Iterable[Point], aps: dict[int, Point], params: ChannelParams) -> list[dict[int, float]]:
    """SNR in dB at each AP of `aps` (id -> position) for a vehicle at each
    of `points`: one {AP id: SNR} row per point, in order.

    snr = tx_power - [PL0 + 10*n*log10(max(d, d0)/d0)] - noise. Distances
    below the reference distance are clamped to it.
    """
    tx, pl0, d0, noise = params.tx_power_dbm, params.pl0_db, params.ref_distance_m, params.noise_dbm
    slope, hypot, log10 = 10.0 * params.pathloss_exp, math.hypot, math.log10
    # d if d > d0 else d0 is max(d, d0): an equal d0 is the same float
    return [{ap: tx - (pl0 + slope * log10((d if (d := hypot(x - ax, y - ay)) > d0 else d0) / d0)) - noise
             for ap, (ax, ay) in aps.items()} for x, y in points]


def snr_db(vehicle_xy: Point, ap_xy: Point, params: ChannelParams) -> float:
    """SNR in dB at an AP for a vehicle at the given position: `snr_table`'s one-pair case."""
    return snr_table([vehicle_xy], {0: ap_xy}, params)[0][0]
