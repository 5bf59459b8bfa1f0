"""Seeded, entity-scoped random number streams.

Every stochastic entity in a run (a vehicle's CTU draws, a path decode, a
Q-learner's exploration) owns its own sub-stream, derived from the scenario
seed and a string label. Streams are independent of each other and of the
order in which other entities draw, so adding a vehicle to a scenario never
perturbs the draws of existing ones.

A stream takes its starting state from numpy's `SeedSequence` and `PCG64`
once, then steps PCG64 itself and turns its 64-bit words into draws with the
algorithms numpy's `Generator` uses (the tests compare every draw with it).
So the trace depends only on `SeedSequence` and `PCG64`, whose streams
numpy's RNG policy (NEP 19) keeps stable, and not on `Generator`'s methods,
which NEP 19 lets change between numpy versions.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["RngStream"]

_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG's 128-bit LCG multiplier
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _spawn_key(stream_id: str) -> tuple[int, ...]:
    # hashlib, not hash(): Python string hashing is salted per process.
    digest = hashlib.sha256(stream_id.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


class RngStream:
    """One named sub-stream of the run-level seed.

    Identical (seed, stream_id, draw sequence) yields identical values on any
    platform; distinct stream_ids give statistically independent streams. Each
    draw equals the one `np.random.Generator(PCG64(seq))` makes in the same
    sequence of calls.
    """

    __slots__ = ("seed", "stream_id", "_state", "_inc", "_half")

    def __init__(self, seed: int, stream_id: str):
        self.seed = int(seed)
        self.stream_id = stream_id
        seq = np.random.SeedSequence(self.seed, spawn_key=_spawn_key(stream_id))
        pcg = np.random.PCG64(seq).state["state"]
        self._state, self._inc = pcg["state"], pcg["inc"]
        self._half: int | None = None     # high half of a word a 32-bit draw split

    def substream(self, label: str) -> "RngStream":
        return RngStream(self.seed, f"{self.stream_id}/{label}")

    def _word(self) -> int:
        """PCG64's next 64-bit output: step the LCG, then XSL-RR."""
        s = self._state = (self._state * _MULT + self._inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _word32(self) -> int:
        """The low half of a fresh word; its high half serves the next 32-bit draw."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        w = self._word()
        self._half = w >> 32
        return w & _MASK32

    def _bounded(self, rng: int) -> int:
        """Uniform on [0, rng] for 0 <= rng < 2**64: Lemire's multiply-and-reject,
        over 32-bit draws when rng fits in 32 bits, else over 64-bit words."""
        if rng == 0:
            return 0
        if rng == _MASK32:
            return self._word32()
        if rng == _MASK64:
            return self._word()
        draw, bits, mask = (self._word32, 32, _MASK32) if rng < _MASK32 else (self._word, 64, _MASK64)
        excl = rng + 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (1 << bits) % excl
            while m & mask < threshold:
                m = draw() * excl
        return m >> bits

    def _shuffle(self, data: list[int], first: int) -> None:
        """Fisher-Yates over data[first:], swapping each place with a bounded draw
        from the places at or below it, from the last place down."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]

    # The draws the simulator makes.
    def random(self) -> float:
        """Uniform on [0, 1) with 53 random bits."""
        return (self._word() >> 11) * 2.0**-53

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform on [low, high), or on [0, low) when high is omitted."""
        if high is None:
            low, high = 0, low
        if not -(2**63) <= low < high <= 2**63:
            raise ValueError(f"integers needs -2**63 <= low < high <= 2**63, got low={low}, high={high}")
        return low + self._bounded(high - 1 - low)

    def choice_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct values of range(n), in random order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} distinct values from {n}")
        if n > 10000 and k > n // 50:
            # the last k places of a Fisher-Yates pass over range(n) stopped early
            pool = list(range(n))
            self._shuffle(pool, max(n - k, 1))
            return pool[n - k :]
        # Floyd's sampling, then a Fisher-Yates shuffle of the k picks
        picked: list[int] = []
        seen: set[int] = set()
        for j in range(n - k, n):
            v = self._bounded(j)
            if v in seen:
                v = j
            seen.add(v)
            picked.append(v)
        self._shuffle(picked, 1)
        return picked

    def bytes(self, n: int) -> bytes:
        """n random bytes: 32-bit draws packed little-endian, the last one cut short.

        Like numpy, it makes one draw even for n = 0.
        """
        count = max(1, (n + 3) // 4)
        return struct.pack(f"<{count}I", *(self._word32() for _ in range(count)))[:n]

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id!r})"
