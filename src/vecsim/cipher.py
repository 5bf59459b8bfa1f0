"""Association-fingerprint stream cipher between a vehicle and an AN.

The shared secret material has two parts: a session key handed out at session
start, and a time-dynamic fingerprint, the sliding window of the vehicle's
recent AP association vectors, which both endpoints can derive on their own.
Keystream blocks come from HMAC-SHA256 in counter mode keyed on the session
key and bound to the fingerprint digest, so the stream drifts with mobility.
SHA-256 is the interpreter's own (see `vecsim.rng.sha256`) and HMAC is the
RFC 2104 construction over it, so a run never loads OpenSSL.
An in-band digest check detects window divergence (MAI can corrupt one
side's view) and triggers re-keying from the AN's master key. A fingerprint
packs and hashes its window only when asked. `exchange` runs a whole
vehicle-to-AN loopback. Its outcome is fixed by construction: equal windows
reproduce the vehicle's tag, so the message verifies, and XORing one
keystream twice returns it with its tail bits masked; diverged windows pack
to different bytes, so the tags differ and the AN rejects the message. The
simulation therefore counts outcomes from whether the windows agree and
never calls this module; tests/test_simulation.py replays its counts
through this protocol.

Security claims here are functional (roundtrip, sensitivity, recovery), not
cryptanalytic: tags are compared with `==`, not in constant time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from vecsim.predictor import AssociationVector
from vecsim.rng import RngStream, sha256

KEY_BYTES = 32
BLOCK_BYTES = 32     # HMAC-SHA256 output
_SHA256_BLOCK = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104): a key longer than SHA-256's 64-byte block is
    hashed first, then zero-padded to the block and XORed with 0x36 (inner)
    and 0x5C (outer)."""
    if len(key) > _SHA256_BLOCK:
        key = sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\0")
    return sha256(key.translate(_OPAD) + sha256(key.translate(_IPAD) + msg).digest()).digest()


@dataclass
class Fingerprint:
    """Sliding window of the last W association vectors, canonically ordered."""

    vehicle_id: int
    window: tuple[AssociationVector, ...]

    def canonical_bytes(self) -> bytes:
        # slot-ascending, bits in AP-id order; length prefixes keep it injective
        chunks = [struct.pack(">qI", vec.slot, len(vec.bits)) + bytes(vec.bits)
                  for vec in sorted(self.window, key=lambda v: v.slot)]
        return struct.pack(">I", len(self.window)) + b"".join(chunks)

    def digest(self) -> bytes:
        return sha256(self.canonical_bytes()).digest()


@dataclass
class CipherState:
    """One endpoint's half of a session. The key must never reach any output file."""

    key: bytes
    counter: int = 0

    def __post_init__(self):
        if len(self.key) != KEY_BYTES:
            raise ValueError(f"session key must be {KEY_BYTES} bytes")
        if self.counter < 0:
            raise ValueError("counter cannot be negative")


def start_session(vehicle_id: int, an_id: int, rng: RngStream) -> tuple[CipherState, CipherState]:
    """AN draws a starting key; both sides begin with identical state, counter 0.

    Authentication and the key transport are assumed (out of model); the two
    returned states are the vehicle copy and the AN copy.
    """
    key = rng.bytes(KEY_BYTES)
    return CipherState(key=key), CipherState(key=key)


def keystream_block(state: CipherState, fp: Fingerprint, n_bits: int) -> tuple[bytes, CipherState]:
    """Counter-mode keystream of ceil(n_bits / 8) bytes, trailing bits zeroed.

    Each 32-byte block is HMAC(key, counter || fingerprint digest); the
    counter advances by the number of blocks consumed.
    """
    if n_bits < 1:
        raise ValueError("keystream length must be >= 1 bit")
    n_bytes = (n_bits + 7) // 8
    blocks_used = n_blocks(n_bits)
    fp_digest = fp.digest()
    blocks = [
        hmac_sha256(state.key, struct.pack(">Q", counter) + fp_digest)
        for counter in range(state.counter, state.counter + blocks_used)
    ]
    stream = _mask_tail(b"".join(blocks)[:n_bytes], n_bits)
    return stream, CipherState(key=state.key, counter=state.counter + blocks_used)


def n_blocks(n_bits: int) -> int:
    """Keystream blocks an n_bits message takes: how far one exchange advances a counter."""
    return -(-((n_bits + 7) // 8) // BLOCK_BYTES)


def _mask_tail(data: bytes, n_bits: int) -> bytes:
    extra = len(data) * 8 - n_bits
    if extra == 0:
        return data
    head, last = data[:-1], data[-1]
    return head + bytes([last & (0xFF << extra) & 0xFF])


def crypt(state: CipherState, fp: Fingerprint, message: bytes, n_bits: int) -> tuple[bytes, CipherState]:
    """Encrypt or decrypt (same XOR) an n_bits message packed MSB-first in bytes."""
    _check_message(message, n_bits)
    stream, new_state = keystream_block(state, fp, n_bits)
    return _xor(message, stream, n_bits), new_state


def _check_message(message: bytes, n_bits: int) -> None:
    if n_bits < 1:
        raise ValueError("message length must be >= 1 bit")
    if len(message) != (n_bits + 7) // 8:
        raise ValueError("message byte length must match the stated bit length")


def _xor(message: bytes, stream: bytes, n_bits: int) -> bytes:
    body = int.from_bytes(_mask_tail(message, n_bits), "big") ^ int.from_bytes(stream, "big")
    return body.to_bytes(len(stream), "big")


def integrity_tag(fp: Fingerprint, counter: int) -> bytes:
    """The in-band check value: digest of fingerprint material plus counter."""
    return sha256(fp.canonical_bytes() + struct.pack(">Q", counter)).digest()


def verify_key(an_fp: Fingerprint, vehicle_check: bytes, state: CipherState) -> bool:
    """True when the AN-side fingerprint reproduces the vehicle's check value."""
    return integrity_tag(an_fp, state.counter) == vehicle_check


def exchange(
    vehicle: CipherState,
    vehicle_fp: Fingerprint,
    an: CipherState,
    an_fp: Fingerprint,
    message: bytes,
    n_bits: int,
) -> tuple[bool, bool, CipherState, CipherState]:
    """One vehicle-to-AN loopback: tag, encrypt, verify, decrypt.

    Returns (verified, roundtrip, vehicle state, AN state), exactly as the
    vehicle's `integrity_tag` and `crypt` followed by the AN's `verify_key`
    and, if it verifies, `crypt` would. The tag is checked first: a message
    the AN rejects computes no keystream, leaves the AN state as it was and
    advances the vehicle's counter by the blocks its encryption would take.
    """
    _check_message(message, n_bits)
    if not verify_key(an_fp, integrity_tag(vehicle_fp, vehicle.counter), an):
        return False, False, CipherState(key=vehicle.key, counter=vehicle.counter + n_blocks(n_bits)), an
    body, new_vehicle = crypt(vehicle, vehicle_fp, message, n_bits)
    plain, new_an = crypt(an, an_fp, body, n_bits)
    return True, plain == message, new_vehicle, new_an


def deterministic_message(vehicle_id: int, slot: int, n_bits: int) -> bytes:
    """Reproducible per-(vehicle, slot) payload for loopback checks."""
    n_bytes = (n_bits + 7) // 8
    seed = struct.pack(">qq", vehicle_id, slot)
    out = b""
    counter = 0
    while len(out) < n_bytes:
        out += sha256(seed + struct.pack(">I", counter)).digest()
        counter += 1
    return _mask_tail(out[:n_bytes], n_bits)


def master_key_for(vehicle_id: int, rng: RngStream) -> bytes:
    return rng.substream(f"master/{vehicle_id}").bytes(KEY_BYTES)


def resync_session(master_key: bytes, an_record: Fingerprint, generation: int) -> tuple[CipherState, CipherState]:
    """Re-key both endpoints from the AN's master key and its own association record.

    The vehicle is assumed to adopt the AN-side window out of band (the control
    plane knows the plausible AP set); the caller aligns the windows.
    """
    material = struct.pack(">Q", generation) + an_record.digest()
    key = hmac_sha256(master_key, b"resync" + material)
    return CipherState(key=key), CipherState(key=key)
