"""Seeded, entity-scoped random number streams.

Every stochastic entity in a run (a vehicle's CTU draws, a path decode, a
Q-learner's exploration) owns its own sub-stream, derived from the scenario
seed and a string label. Streams are independent of each other and of the
order in which other entities draw, so adding a vehicle to a scenario never
perturbs the draws of existing ones.

A stream starts where numpy's `PCG64(SeedSequence(seed, spawn_key))` would,
with the spawn key taken from the label's SHA-256. `seed_states` computes
those starting states itself, for a whole list of labels at once: the seed
is mixed into SeedSequence's pool once and kept, and each label's four
spawn words are mixed in with uint64 arrays, all labels and pool lanes
together. The stream then steps PCG64 itself and turns its 64-bit words
into draws with the algorithms numpy's `Generator` uses (the tests compare
every starting state and every draw with numpy). So the trace depends only
on the SeedSequence and PCG64 algorithms, which numpy's RNG policy (NEP 19)
keeps fixed, and not on `Generator`'s methods, which NEP 19 lets change
between numpy versions.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections.abc import Sequence

import numpy as np

__all__ = ["RngStream", "seed_states"]

_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG's 128-bit LCG multiplier
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's constants: a 4-word pool, the hash chains of mixing (A) and
# of output (B), and the two multipliers that mix a word into a pool word.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _chain(init: int, mult: int, n: int) -> list[int]:
    """The hash chain init, init * mult, init * mult**2, ... (mod 2**32), n + 1 long."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hashmix(value: int, xor: int, mult: int) -> int:
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    x = (_MIX_L * x - _MIX_R * y) & _MASK32
    return x ^ x >> 16


def _u64(values) -> np.ndarray:
    """A read-only uint64 array: the constants below, and _seed_pool's cached
    arrays, are shared by every caller."""
    out = np.array(values, dtype=np.uint64)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SeedSequence's pool with the run entropy mixed in, and the hash constants
    that mix in the four spawn words.

    The run entropy is the seed's 32-bit words, low first, zero-padded to the
    pool size because a spawn key follows. Returns the pool, and the XOR and
    multiply constants of the 16 spawn-word hashes as (word, lane) arrays.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    n_hashes = _POOL * _POOL + _POOL * (len(words) - _POOL)
    chain = _chain(_INIT_A, _MULT_A, n_hashes + _POOL * _POOL)
    consts = zip(chain, chain[1:])
    pool = [_hashmix(w, *next(consts)) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(w, *next(consts)))
    spawn = chain[n_hashes:]
    return (
        _u64(pool),
        _u64(spawn[:-1]).reshape(_POOL, _POOL),
        _u64(spawn[1:]).reshape(_POOL, _POOL),
    )


_OUT = _chain(_INIT_B, _MULT_B, 2 * _POOL)
_OUT_XOR = _u64(_OUT[:-1]).reshape(2, _POOL)
_OUT_MUL = _u64(_OUT[1:]).reshape(2, _POOL)
_M32, _S16, _S32 = _u64(_MASK32), _u64(16), _u64(32)
_L, _R = _u64(_MIX_L), _u64(_MIX_R)


def seed_states(seed: int, stream_ids: Sequence[str]) -> list[tuple[int, int]]:
    """PCG64's (state, inc) for each stream id, as numpy's
    `PCG64(SeedSequence(seed, spawn_key))` sets them.

    An id's spawn key is the first 16 bytes of its UTF-8 SHA-256 as four
    little-endian 32-bit words (hashlib, not hash(): Python string hashing is
    salted per process). The ids' keys are mixed into the seed's pool as one
    (ids, word, lane) array; SeedSequence's 32-bit arithmetic runs in uint64
    lanes, masked after each product.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    pool, xor, mul = _seed_pool(seed)
    keys = b"".join([hashlib.sha256(sid.encode("utf-8")).digest()[:16] for sid in stream_ids])
    h = (np.frombuffer(keys, dtype="<u4").astype(np.uint64).reshape(-1, _POOL, 1) ^ xor) * mul
    h &= _M32
    h ^= h >> _S16
    h *= _R
    # spawn word j enters every lane, in word order: pool = _mix(pool, hash of word j)
    for j in range(_POOL):
        pool = (_L * pool - h[:, j]) & _M32
        pool ^= pool >> _S16
    # generate_state(4, uint64): eight hashed 32-bit words cycling over the
    # pool, paired little-endian into (seed high, seed low, inc high, inc low)
    out = (pool[:, None] ^ _OUT_XOR) * _OUT_MUL
    out &= _M32
    out ^= out >> _S16
    words = out[..., 1::2] << _S32 | out[..., ::2]
    states = []
    for (s_hi, s_lo), (i_hi, i_lo) in words.tolist():
        # PCG64's seeding: inc = 2 * initseq + 1, then step, add initstate, step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _MULT + inc) & _MASK128, inc))
    return states


class RngStream:
    """One named sub-stream of the run-level seed.

    Identical (seed, stream_id, draw sequence) yields identical values on any
    platform; distinct stream_ids give statistically independent streams. Each
    draw equals the one `np.random.Generator(PCG64(seq))` makes in the same
    sequence of calls.
    """

    __slots__ = ("seed", "stream_id", "_state", "_inc", "_half")

    def __init__(self, seed: int, stream_id: str):
        seed = int(seed)
        self._start(seed, stream_id, *seed_states(seed, [stream_id])[0])

    def _start(self, seed: int, stream_id: str, state: int, inc: int) -> None:
        self.seed = seed
        self.stream_id = stream_id
        self._state, self._inc = state, inc
        self._half: int | None = None     # high half of a word a 32-bit draw split

    def substream(self, label: str) -> "RngStream":
        return RngStream(self.seed, f"{self.stream_id}/{label}")

    def substreams(self, labels: Sequence) -> list["RngStream"]:
        """`substream(label)` for each label, seeded in one batch."""
        ids = [f"{self.stream_id}/{label}" for label in labels]
        streams = []
        for sid, state in zip(ids, seed_states(self.seed, ids)):
            stream = RngStream.__new__(RngStream)
            stream._start(self.seed, sid, *state)
            streams.append(stream)
        return streams

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
