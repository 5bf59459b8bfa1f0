"""Fingerprint canonicalization, keystream roundtrips, verification, the one-call exchange, resync."""

from __future__ import annotations

import hashlib
import hmac
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.cipher import (
    KEY_BYTES,
    CipherState,
    Fingerprint,
    crypt,
    deterministic_message,
    exchange,
    integrity_tag,
    keystream_block,
    master_key_for,
    resync_session,
    start_session,
    verify_key,
)
from vecsim.predictor import AssociationVector
from vecsim.rng import RngStream


def _vec(slot, bits):
    return AssociationVector(vehicle_id=0, slot=slot, bits=bits)


def _fp(*slot_bits) -> Fingerprint:
    return Fingerprint(vehicle_id=0, window=tuple(_vec(s, b) for s, b in slot_bits))


def test_canonical_bytes_are_slot_ordered_and_window_insensitive():
    a = _fp((0, (1, 0)), (1, (0, 1)))
    shuffled = Fingerprint(vehicle_id=0, window=tuple(reversed(a.window)))
    assert a.canonical_bytes() == shuffled.canonical_bytes()
    assert a.digest() == shuffled.digest()


def test_fingerprint_bytes_and_digest_are_stable_and_equal_a_fresh_fingerprint():
    fp = _fp((3, (1, 0, 1)), (1, (0, 0, 1)), (2, (1, 1, 0)))
    fresh = Fingerprint(vehicle_id=0, window=fp.window)
    assert fp.canonical_bytes() == fp.canonical_bytes() == fresh.canonical_bytes()
    assert fp.digest() == fp.digest() == fresh.digest() == hashlib.sha256(fresh.canonical_bytes()).digest()
    assert fp == fresh


def _reference_canonical_bytes(window) -> bytes:
    """The canonical encoding packed field by field: the reference."""
    parts = [struct.pack(">I", len(window))]
    for vec in sorted(window, key=lambda v: v.slot):
        parts.append(struct.pack(">qI", vec.slot, len(vec.bits)))
        parts.append(bytes(vec.bits))
    return b"".join(parts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 1), st.lists(st.integers(0, 1), max_size=20)),
        max_size=8,
        unique_by=lambda pair: pair[0],
    ),
    st.randoms(use_true_random=False),
)
def test_canonical_bytes_equal_the_field_by_field_encoding(slot_bits, rnd):
    rnd.shuffle(slot_bits)          # windows need not arrive in slot order
    window = tuple(AssociationVector(3, slot, tuple(bits)) for slot, bits in slot_bits)
    fp = Fingerprint(vehicle_id=3, window=window)
    assert fp.canonical_bytes() == _reference_canonical_bytes(window)
    assert fp.digest() == hashlib.sha256(_reference_canonical_bytes(window)).digest()


def test_a_vectors_encoding_leaves_equality_hash_and_repr_alone():
    vec = _vec(4, (1, 0, 1))
    twin = _vec(4, (1, 0, 1))
    fp = Fingerprint(vehicle_id=0, window=(vec,))     # packs and keeps vec's chunk, not twin's
    assert fp.canonical_bytes() == Fingerprint(vehicle_id=0, window=(vec,)).canonical_bytes()
    assert fp.canonical_bytes() == struct.pack(">I", 1) + struct.pack(">qI", 4, 3) + bytes([1, 0, 1])
    assert vec == twin
    assert hash(vec) == hash(twin) == hash((0, 4, (1, 0, 1)))
    assert repr(vec) == "AssociationVector(vehicle_id=0, slot=4, bits=(1, 0, 1))"
    assert vec != _vec(4, (1, 0, 0))


def test_fingerprint_digest_is_sensitive_to_any_bit():
    base = _fp((0, (1, 0)), (1, (0, 1)))
    flipped = _fp((0, (1, 1)), (1, (0, 1)))
    other_slot = _fp((0, (1, 0)), (2, (0, 1)))
    longer = _fp((0, (1, 0)), (1, (0, 1)), (2, (0, 0)))
    digests = {base.digest(), flipped.digest(), other_slot.digest(), longer.digest()}
    assert len(digests) == 4


def test_cipher_state_validation():
    with pytest.raises(ValueError):
        CipherState(key=b"short")
    with pytest.raises(ValueError):
        CipherState(key=bytes(KEY_BYTES), counter=-1)


def test_start_session_hands_both_ends_the_same_fresh_state():
    rng = RngStream(5, "cipher/0")
    vehicle, an = start_session(0, 1, rng)
    assert vehicle.key == an.key
    assert len(vehicle.key) == KEY_BYTES
    assert vehicle.counter == an.counter == 0
    again_v, _ = start_session(0, 1, RngStream(5, "cipher/0"))
    assert again_v.key == vehicle.key


def test_keystream_is_deterministic_and_advances_by_blocks():
    state = CipherState(key=bytes(range(32)))
    fp = _fp((0, (1, 0, 1)))
    s1, n1 = keystream_block(state, fp, 8)
    s2, _ = keystream_block(state, fp, 8)
    assert s1 == s2
    assert n1.counter == 1                  # one 32-byte block covers 1 byte
    _, big = keystream_block(state, fp, 4096)
    assert big.counter == 16                # 512 bytes = 16 blocks
    s3, _ = keystream_block(n1, fp, 8)
    assert s3 != s1                         # fresh counter, fresh block


def test_keystream_tail_bits_are_masked():
    state = CipherState(key=bytes(32))
    stream, _ = keystream_block(state, _fp((0, (1,))), 3)
    assert len(stream) == 1
    assert stream[0] & 0x1F == 0            # only the top 3 bits may be set


def test_keystream_depends_on_the_fingerprint():
    state = CipherState(key=bytes(range(32)))
    a, _ = keystream_block(state, _fp((0, (1, 0))), 64)
    b, _ = keystream_block(state, _fp((0, (1, 1))), 64)
    assert a != b


def test_crypt_roundtrip_across_bit_lengths():
    rng = RngStream(9, "cipher/0")
    vehicle, an = start_session(0, 0, rng)
    fp = _fp((0, (1, 0)), (1, (1, 1)))
    for n_bits in (1, 3, 8, 13, 64, 1000, 4096):
        message = deterministic_message(0, n_bits, n_bits)
        body, vehicle = crypt(vehicle, fp, message, n_bits)
        back, an = crypt(an, fp, body, n_bits)
        assert back == message
        assert vehicle.counter == an.counter


def _bytewise_crypt(state, fp, message, n_bits):
    """crypt as the byte-by-byte XOR of the masked message with an HMAC
    counter-mode keystream grown one block at a time: the reference."""
    n_bytes = (n_bits + 7) // 8
    blocks, counter = b"", state.counter
    while len(blocks) < n_bytes:
        blocks += hmac.new(state.key, struct.pack(">Q", counter) + fp.digest(), hashlib.sha256).digest()
        counter += 1
    tail = 0xFF & (0xFF << (8 * n_bytes - n_bits))
    stream = blocks[: n_bytes - 1] + bytes([blocks[n_bytes - 1] & tail])
    masked = message[:-1] + bytes([message[-1] & tail])
    return bytes(m ^ s for m, s in zip(masked, stream)), counter


def test_crypt_equals_the_bytewise_reference_for_every_length():
    state = CipherState(key=bytes(range(7, 39)), counter=5)
    fp = _fp((0, (1, 0)), (1, (1, 1)))
    for n_bits in [*range(1, 301), 4096]:
        n_bytes = (n_bits + 7) // 8
        # every tail bit set, so the masking of a part-byte tail shows
        message = hashlib.shake_256(str(n_bits).encode()).digest(n_bytes)[:-1] + b"\xff"
        body, after = crypt(state, fp, message, n_bits)
        assert (body, after.counter) == _bytewise_crypt(state, fp, message, n_bits), n_bits


def test_crypt_validates_lengths():
    state = CipherState(key=bytes(32))
    fp = _fp((0, (1,)))
    with pytest.raises(ValueError):
        crypt(state, fp, b"", 0)
    with pytest.raises(ValueError, match="byte length"):
        crypt(state, fp, b"\x00\x00", 3)


def test_mismatched_fingerprints_garble_the_roundtrip():
    vehicle, an = start_session(0, 0, RngStream(1, "c"))
    good = _fp((0, (1, 0)), (1, (0, 1)))
    diverged = _fp((0, (1, 0)), (1, (1, 1)))
    message = deterministic_message(0, 7, 256)
    body, _ = crypt(vehicle, good, message, 256)
    back, _ = crypt(an, diverged, body, 256)
    assert back != message


def test_verify_key_accepts_matching_views_and_rejects_divergence():
    state = CipherState(key=bytes(32), counter=5)
    fp = _fp((3, (1, 0)), (4, (0, 0)))
    check = integrity_tag(fp, 5)
    assert verify_key(fp, check, state)
    assert not verify_key(_fp((3, (1, 1)), (4, (0, 0))), check, state)
    assert not verify_key(fp, integrity_tag(fp, 6), state)


def _reference_exchange(vehicle, vehicle_fp, an, an_fp, message, n_bits):
    """The loopback as its four public steps: tag, encrypt, verify, decrypt."""
    tag = integrity_tag(vehicle_fp, vehicle.counter)
    body, vehicle = crypt(vehicle, vehicle_fp, message, n_bits)
    if not verify_key(an_fp, tag, an):
        return False, False, vehicle, an
    plain, an = crypt(an, an_fp, body, n_bits)
    return True, plain == message, vehicle, an


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=1, max_size=4),
    st.sampled_from(["same object", "equal copy", "one bit", "shorter"]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**20),
    st.integers(1, 3),
    st.one_of(st.integers(1, 300), st.just(4096)),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_exchange_equals_the_tag_encrypt_verify_decrypt_sequence(
    window_bits, an_view, key_differs, counter_differs, counter, counter_step, n_bits, tail_set, salt
):
    vehicle_fp = Fingerprint(0, tuple(_vec(s, tuple(b)) for s, b in enumerate(window_bits)))
    if an_view == "same object":
        an_fp = vehicle_fp
    elif an_view == "equal copy":
        an_fp = Fingerprint(0, vehicle_fp.window)
    elif an_view == "one bit":
        flip = salt % (len(window_bits) * 3)
        bits = [list(b) for b in window_bits]
        bits[flip // 3][flip % 3] ^= 1
        an_fp = Fingerprint(0, tuple(_vec(s, tuple(b)) for s, b in enumerate(bits)))
    else:
        an_fp = Fingerprint(0, vehicle_fp.window[1:])
    key = hashlib.sha256(struct.pack(">I", salt)).digest()
    vehicle = CipherState(key=key, counter=counter)
    an = CipherState(
        key=bytes(b ^ 1 for b in key) if key_differs else key,
        counter=counter + counter_step if counter_differs else counter,
    )
    # a message whose part-byte tail is either zero or all ones
    n_bytes = (n_bits + 7) // 8
    tail = 0xFF >> (8 - (8 * n_bytes - n_bits)) if tail_set else 0
    body = hashlib.shake_256(struct.pack(">II", salt, n_bits)).digest(n_bytes)
    message = body[:-1] + bytes([body[-1] & (0xFF << (8 * n_bytes - n_bits)) & 0xFF | tail])
    got = exchange(vehicle, vehicle_fp, an, an_fp, message, n_bits)
    want = _reference_exchange(vehicle, vehicle_fp, an, an_fp, message, n_bits)
    assert got == want
    assert got[3] is not got[2]


def _forbid(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called where nothing may be hashed")
    return call


@pytest.mark.parametrize("n_bits", [1, 256, 257, 4096])
def test_a_rejected_exchange_computes_no_keystream(n_bits, monkeypatch):
    vehicle_fp = _fp((0, (1, 0, 1)), (1, (0, 1, 1)))
    an_fp = _fp((0, (1, 0, 1)), (1, (1, 1, 1)))        # the AN mis-recorded one bit
    state = CipherState(key=bytes(range(32)), counter=9)
    message = deterministic_message(0, 3, n_bits)
    want = _reference_exchange(state, vehicle_fp, state, an_fp, message, n_bits)
    monkeypatch.setattr(hmac, "digest", _forbid("hmac.digest"))
    monkeypatch.setattr(hmac, "new", _forbid("hmac.new"))
    got = exchange(state, vehicle_fp, state, an_fp, message, n_bits)
    assert got == want
    assert got[:2] == (False, False)
    assert got[2] == CipherState(key=state.key, counter=9 + -(-((n_bits + 7) // 8) // 32))
    assert got[3] is state


def test_a_fingerprint_hashes_its_window_only_when_asked(monkeypatch):
    calls = []
    sha256 = hashlib.sha256

    def counted(data=b""):
        calls.append(data)
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", counted)
    fp = _fp((0, (1, 0)), (1, (0, 1)))
    assert calls == []
    first = fp.digest()
    assert calls == [fp.canonical_bytes()]
    assert fp.digest() == first


def test_exchange_validates_lengths():
    state = CipherState(key=bytes(32))
    fp = _fp((0, (1,)))
    with pytest.raises(ValueError):
        exchange(state, fp, CipherState(key=bytes(32)), fp, b"", 0)
    with pytest.raises(ValueError, match="byte length"):
        exchange(state, fp, CipherState(key=bytes(32)), fp, b"\x00\x00", 3)


def test_deterministic_message_is_stable_and_masked():
    a = deterministic_message(3, 17, 20)
    b = deterministic_message(3, 17, 20)
    assert a == b
    assert len(a) == 3
    assert a[-1] & 0x0F == 0
    assert deterministic_message(3, 18, 20) != a


def test_master_keys_are_per_vehicle_deterministic():
    root = RngStream(7, "root/cipher-master")
    assert master_key_for(0, root) == master_key_for(0, RngStream(7, "root/cipher-master"))
    assert master_key_for(0, root) != master_key_for(1, root)


def test_resync_restores_a_shared_session():
    master = master_key_for(0, RngStream(7, "root/cipher-master"))
    record = _fp((9, (1, 0)), (10, (1, 1)))
    v1, a1 = resync_session(master, record, generation=1)
    assert v1.key == a1.key
    assert v1.counter == 0
    v2, _ = resync_session(master, record, generation=2)
    assert v2.key != v1.key                 # each generation re-keys
    message = deterministic_message(0, 0, 128)
    body, v1 = crypt(v1, record, message, 128)
    back, a1 = crypt(a1, record, body, 128)
    assert back == message


def test_resync_key_depends_on_the_an_record():
    master = master_key_for(0, RngStream(7, "root/cipher-master"))
    k1, _ = resync_session(master, _fp((0, (1, 0))), generation=1)
    k2, _ = resync_session(master, _fp((0, (0, 0))), generation=1)
    assert k1.key != k2.key
