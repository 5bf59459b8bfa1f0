"""Distance-based signal quality between road cells and APs.

Log-distance path loss with a configurable exponent; no fading realizations
here. Channel randomness is folded into the decode error curve in the MAC
layer so the two stay separable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

from vecsim.ranges import Range

__all__ = ["ChannelParams", "SignalQuality", "snr_db"]


@dataclass(frozen=True)
class ChannelParams:
    tx_power_dbm: Annotated[float, Range()] = 23.0
    pl0_db: Annotated[float, Range()] = 47.86           # reference path loss at d0
    pathloss_exp: Annotated[float, Range(ge=0)] = 2.0   # so no SNR exceeds the peak, at ref_distance_m
    ref_distance_m: Annotated[float, Range(gt=0)] = 1.0
    noise_dbm: Annotated[float, Range()] = -95.0


@dataclass(frozen=True)
class SignalQuality:
    """An SNR in dB, as `mac.decode_path` takes it."""

    snr_db: float


def snr_db(
    vehicle_xy: tuple[float, float],
    ap_xy: tuple[float, float],
    params: ChannelParams,
) -> float:
    """SNR in dB at an AP for a vehicle at the given position.

    snr = tx_power - [PL0 + 10*n*log10(max(d, d0)/d0)] - noise. Distances
    below the reference distance are clamped to it.
    """
    d = math.hypot(vehicle_xy[0] - ap_xy[0], vehicle_xy[1] - ap_xy[1])
    d = max(d, params.ref_distance_m)
    path_loss = params.pl0_db + 10.0 * params.pathloss_exp * math.log10(d / params.ref_distance_m)
    return params.tx_power_dbm - path_loss - params.noise_dbm
