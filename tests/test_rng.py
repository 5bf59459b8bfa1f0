"""Stream identity, independence, the label-to-spawn-key derivation, the
batch seeding against numpy's SeedSequence and PCG64, and every draw against
numpy's Generator on the same PCG64 stream."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.rng import RngStream, seed_states, sha256


def test_same_seed_and_label_reproduce_every_draw_kind():
    a = RngStream(42, "root/mobility/0")
    b = RngStream(42, "root/mobility/0")
    assert [a.random() for _ in range(16)] == [b.random() for _ in range(16)]
    assert [a.integers(1000) for _ in range(16)] == [b.integers(1000) for _ in range(16)]
    assert a.choice_without_replacement(20, 5) == b.choice_without_replacement(20, 5)
    assert a.bytes(64) == b.bytes(64)


def test_different_labels_give_different_sequences():
    a = RngStream(42, "root/mobility/0")
    b = RngStream(42, "root/mobility/1")
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_different_seeds_give_different_sequences():
    a = RngStream(1, "root")
    b = RngStream(2, "root")
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_substream_label_composition():
    root = RngStream(7, "root")
    child = root.substream("eco").substream("3")
    assert child.stream_id == "root/eco/3"
    direct = RngStream(7, "root/eco/3")
    assert [child.random() for _ in range(8)] == [direct.random() for _ in range(8)]


def test_draws_on_one_stream_never_shift_a_sibling():
    root = RngStream(99, "root")
    noisy = root.substream("a")
    for _ in range(1000):
        noisy.random()
    quiet = root.substream("b")
    fresh = RngStream(99, "root/b")
    assert [quiet.random() for _ in range(8)] == [fresh.random() for _ in range(8)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.binary(max_size=300), st.integers(0, 300))
def test_sha256_equals_hashlib(data, cut):
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    h = sha256(data[:cut])
    h.update(data[cut:])
    assert h.hexdigest() == hashlib.sha256(data).hexdigest()


def _generator(seed: int, label: str) -> np.random.Generator:
    """numpy's Generator on the stream's PCG64, the spawn key recomputed
    independently; string hash() would be salted."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    spawn_key = tuple(int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _numpy_state(seed: int, label: str) -> tuple[int, int]:
    pcg = _generator(seed, label).bit_generator.state["state"]
    return pcg["state"], pcg["inc"]


# run entropy of one to four 32-bit words, zero-padded to the pool's four, and of more than four
_SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 - 1, 2**128, 2**200 + 7]) | st.integers(2**128, 2**256)
_LABELS = st.text(max_size=6) | st.sampled_from(["véhicule/7", "车/3", "\U0001f697/0", ""])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_SEEDS | st.integers(0, 2**64), st.sampled_from([1, 2, 600]), st.lists(_LABELS, min_size=1, max_size=3))
def test_batch_seeding_equals_numpys_seed_sequence_and_pcg64(seed, n, labels):
    ids = [labels[i] if i < len(labels) else f"{labels[i % len(labels)]}/{i}" for i in range(n)]
    assert seed_states(seed, ids) == [_numpy_state(seed, sid) for sid in ids]


def _draws(stream: RngStream) -> list:
    return [stream.random(), stream.integers(1000), stream.bytes(5), stream.integers(2**40)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_SEEDS, st.lists(_LABELS, min_size=1, max_size=5, unique=True), st.randoms(use_true_random=False))
def test_a_streams_draws_do_not_depend_on_the_batch_that_seeded_it(seed, labels, order):
    root = RngStream(seed, "root")
    shuffled = labels[:]
    order.shuffle(shuffled)
    for batch in ([labels[0]], labels, shuffled, [f"{label}/x" for label in labels] + shuffled):
        for label, stream in zip(batch, root.substreams(batch), strict=True):
            assert stream.stream_id == f"root/{label}"
            assert _draws(stream) == _draws(root.substream(label)) == _draws(RngStream(seed, f"root/{label}"))


def test_spawn_key_is_the_sha256_prefix_of_the_label():
    assert RngStream(13, "root/decode/5").random() == _generator(13, "root/decode/5").random()


def test_choice_without_replacement_is_distinct_and_in_range():
    rng = RngStream(5, "root")
    for _ in range(50):
        picked = rng.choice_without_replacement(10, 4)
        assert len(set(picked)) == 4
        assert all(0 <= x < 10 for x in picked)
    assert sorted(rng.choice_without_replacement(6, 6)) == list(range(6))


def test_bytes_length_and_determinism():
    assert len(RngStream(3, "k").bytes(17)) == 17
    assert RngStream(3, "k").bytes(32) == RngStream(3, "k").bytes(32)


def _draw_both(stream: RngStream, gen: np.random.Generator, op: tuple):
    kind, *args = op
    if kind == "random":
        return stream.random(), float(gen.random())
    if kind == "integers":
        return stream.integers(*args), int(gen.integers(*args))
    if kind == "choice":
        n, k = args
        return stream.choice_without_replacement(n, k), [int(x) for x in gen.choice(n, size=k, replace=False)]
    return stream.bytes(*args), gen.bytes(*args)


# spans high - low: 1 draws nothing, 2 and 2**32 are Lemire's range 1 and the
# plain 32-bit draw of range 2**32 - 1, above 2**32 the draw takes 64-bit words
_SPANS = st.sampled_from([1, 2, 3, 7, 1000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63])


@st.composite
def _ops(draw):
    kind = draw(st.sampled_from(["random", "integers", "integers", "choice", "bytes"]))
    if kind == "random":
        return ("random",)
    if kind == "integers":
        span = draw(_SPANS)
        if draw(st.booleans()):
            return ("integers", span)
        low = draw(st.integers(-(2**63), 2**63 - span))
        return ("integers", low, low + span)
    if kind == "choice":
        # 10000 < n with k > n // 50 takes numpy's tail shuffle, the rest Floyd's sampling
        n = draw(st.integers(0, 300) | st.sampled_from([10000, 10001, 10500]))
        return ("choice", n, draw(st.integers(0, min(n, 40)) | st.integers(0, n)))
    return ("bytes", draw(st.integers(0, 70)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.text(max_size=8), st.lists(_ops(), min_size=1, max_size=30))
def test_every_draw_equals_numpys_generator_in_any_interleaving(seed, label, ops):
    stream, gen = RngStream(seed, label), _generator(seed, label)
    for op in ops:
        got, want = _draw_both(stream, gen, op)
        assert got == want, op


@pytest.mark.parametrize("k", [65536, 65535, 65536 // 50 + 1, 65536 // 50, 3])
def test_choice_over_a_65536_pool_equals_numpy_on_both_branches(k):
    stream, gen = RngStream(4, "ctu/0"), _generator(4, "ctu/0")
    stream.integers(7)              # leaves a buffered half-word behind
    gen.integers(7)
    for _ in range(2):
        got, want = _draw_both(stream, gen, ("choice", 65536, k))
        assert got == want


def _after_a_half_word(seed: int, label: str, buffered: bool) -> tuple[RngStream, np.random.Generator]:
    """A stream and numpy's Generator in the same state, with a buffered
    half-word left behind by one 32-bit draw, or with none."""
    stream, gen = RngStream(seed, label), _generator(seed, label)
    if buffered:
        assert stream.integers(7) == gen.integers(7)
    return stream, gen


def _same_state_after(stream: RngStream, gen: np.random.Generator) -> None:
    # a 32-bit draw takes the buffered half first, so it checks that too
    assert stream.integers(1000) == gen.integers(1000)
    assert stream.random() == gen.random()


# Floyd's bounds are n - k ... n - 1, so k <= 40 keeps every bound above
# 2**31 where n > 2**31 + 40: there Lemire's threshold, 2**32 % (bound + 1),
# is near 2**31 and about half of all 32-bit draws are rejected. From n =
# 2**32 + 1 on, the largest bounds take 64-bit words.
_REJECTING = st.integers(2**31 + 41, 2**31 + 2**20) | st.sampled_from([2**31 + 41, 2**32, 2**32 + 1, 2**32 + 3, 2**40])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_REJECTING, st.integers(0, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_floyd_equals_numpy_where_lemire_rejects_often(n, k, buffered, seed):
    stream, gen = _after_a_half_word(seed, "floyd", buffered)
    for _ in range(3):
        assert stream.choice_without_replacement(n, k) == [int(x) for x in gen.choice(n, size=k, replace=False)]
    _same_state_after(stream, gen)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(10001, 20000), st.data(), st.booleans(), st.integers(0, 2**32 - 1))
def test_the_tail_shuffle_equals_numpy(n, data, buffered, seed):
    k = data.draw(st.integers(n // 50 + 1, n) | st.sampled_from([n // 50 + 1, n - 1, n]))
    stream, gen = _after_a_half_word(seed, "tail", buffered)
    assert stream.choice_without_replacement(n, k) == [int(x) for x in gen.choice(n, size=k, replace=False)]
    _same_state_after(stream, gen)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("n", range(41))
def test_bytes_equal_numpy_for_every_length_up_to_40(n, buffered):
    stream, gen = _after_a_half_word(n, "bytes", buffered)
    assert stream.bytes(n) == gen.bytes(n)
    _same_state_after(stream, gen)


@pytest.mark.parametrize("span", [2, 2**32])
def test_ranges_1_and_2_32_minus_1_equal_numpy_around_half_words(span):
    stream, gen = RngStream(8, "span"), _generator(8, "span")
    for i in range(64):
        op = ("integers", span) if i % 3 else ("bytes", 3)
        got, want = _draw_both(stream, gen, op)
        assert got == want
    assert stream.random() == gen.random()


@pytest.mark.parametrize(("call", "args"), [
    ("integers", (5, 5)), ("integers", (5, 4)), ("integers", (0,)), ("integers", (-1,)),
    ("choice_without_replacement", (3, 4)), ("choice_without_replacement", (3, -1)),
])
def test_empty_ranges_and_oversized_choices_raise_like_numpy(call, args):
    with pytest.raises(ValueError):
        getattr(RngStream(1, "bad"), call)(*args)
    gen = _generator(1, "bad")
    with pytest.raises(ValueError):
        gen.integers(*args) if call == "integers" else gen.choice(args[0], size=args[1], replace=False)


def test_pinned_draws_outlive_numpy_versions():
    # literal values, so the reference holds even if Generator's methods change
    r = RngStream(20261019, "root/pin")
    assert [r.random() for _ in range(3)] == [0.39749078981676467, 0.8750268785492834, 0.46499901028091617]
    assert [r.integers(10) for _ in range(6)] == [5, 5, 6, 3, 3, 5]
    assert r.integers(-5, 2**32 - 5) == 2743933564
    assert r.choice_without_replacement(256, 4) == [141, 125, 145, 52]
    assert r.bytes(9).hex() == "10ac8e64c2d44517d2"
    assert r.integers(2**40) == 585322611200
    assert r.choice_without_replacement(65536, 65536)[:6] == [65441, 48667, 6721, 21195, 51364, 47342]
