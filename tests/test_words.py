import tracemalloc
from itertools import islice

import pytest
from hypothesis import given
import hypothesis.strategies as st

from irslab.randomness import KeyedRng
from irslab.words import (
    inverse_word,
    letters_ordered,
    phi_word,
    reduce_word,
    shortlex_key,
    shortlex_walk,
    shortlex_word,
    word_count,
    word_from_str,
    word_to_str,
    words_upto,
)

from helpers import (
    brute_reduce,
    concat,
    phi_inverse_word,
    reference_word_to_str,
)

letters = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=20)
wide_letters = st.integers(min_value=-12, max_value=12).filter(lambda x: x != 0)


def random_word(rng: KeyedRng, max_len: int = 12):
    raw = [(1, -1, 2, -2)[rng.randrange(4)]
           for _ in range(rng.randrange(max_len + 1))]
    return reduce_word(raw)


def test_reduce_examples():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, 1)) == (1, 1)


@given(raw_words)
def test_reduce_matches_bruteforce(raw):
    assert reduce_word(raw) == brute_reduce(raw)


@given(raw_words)
def test_reduce_idempotent(raw):
    w = reduce_word(raw)
    assert reduce_word(w) == w


@given(raw_words, raw_words, raw_words)
def test_concat_associative(a, b, c):
    wa, wb, wc = reduce_word(a), reduce_word(b), reduce_word(c)
    assert concat(concat(wa, wb), wc) == concat(wa, concat(wb, wc))


@given(raw_words)
def test_inverse_cancels(raw):
    w = reduce_word(raw)
    assert concat(w, inverse_word(w)) == ()
    assert inverse_word(inverse_word(w)) == w


def test_words_upto_counts_and_order():
    ball1 = words_upto(2, 1)
    assert ball1 == [(), (1,), (-1,), (2,), (-2,)]
    assert len(words_upto(2, 2)) == 17
    assert len(words_upto(3, 2)) == 1 + 6 + 30
    ws = words_upto(2, 3)
    assert ws == sorted(ws, key=shortlex_key)
    assert len(set(ws)) == len(ws)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("n", range(6))
def test_shortlex_word_is_the_word_at_its_position(rank, n):
    words = words_upto(rank, n)
    assert [shortlex_word(rank, k) for k in range(len(words))] == words


def test_shortlex_word_reaches_far_positions_directly():
    # the last word of length 80 at rank 2: s2^-1 repeated, 2(3^80 - 1) - 1
    # positions past the identity
    assert shortlex_word(2, 2 * (3**80 - 1)) == (-2,) * 80
    assert shortlex_word(2, 2 * (3**80 - 1) + 1) == (1,) * 81


def test_shortlex_walk_is_lazy():
    # the walk yields what words_upto lists, one word at a time
    assert list(islice(shortlex_walk(2, 30), 17)) == words_upto(2, 2)
    assert list(shortlex_walk(3, 0)) == [()]
    tracemalloc.start()
    try:
        walk = shortlex_walk(10**6, 3)
        assert next(walk) == ()  # before its 2 000 000 letters are built
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_letters_ordered():
    assert letters_ordered(2) == [1, -1, 2, -2]


@given(raw_words)
def test_word_str_roundtrip(raw):
    w = reduce_word(raw)
    assert word_from_str(word_to_str(w)) == w


def test_word_str_examples():
    assert word_to_str(()) == "e"
    assert word_to_str((1, -2)) == "s1*s2^-1"
    assert word_from_str("s1*s2^-1*s2") == (1,)


def test_phi_definition():
    assert phi_word((1, 2)) == (1, 1, 2)
    assert phi_word((-1,)) == (-1, -1)
    assert phi_word((2, -1, 2)) == (2, -1, -1, 2)


def test_phi_inverse_rejects_odd_runs():
    assert phi_inverse_word((1,)) is None
    assert phi_inverse_word((2, 1, 2)) is None


def test_phi_roundtrip_seeded():
    rng = KeyedRng(17, "phi")
    for _ in range(1000):
        w = random_word(rng)
        img = phi_word(w)
        assert reduce_word(img) == img  # phi preserves reducedness
        assert phi_inverse_word(img) == w


@given(raw_words, raw_words)
def test_phi_is_homomorphism(raw_a, raw_b):
    a, b = reduce_word(raw_a), reduce_word(raw_b)
    assert phi_word(concat(a, b)) == concat(phi_word(a), phi_word(b))


@given(st.lists(wide_letters, max_size=10))
def test_word_to_str_matches_the_letter_formula(raw):
    assert word_to_str(tuple(raw)) == reference_word_to_str(raw)
    w = reduce_word(raw)
    assert word_from_str(word_to_str(w)) == w


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_word_count_counts_the_words_up_to_a_bound(rank):
    for n in range(6):
        count = len(words_upto(rank, n))
        assert word_count(rank, n, count) == count
        assert word_count(rank, n, count - 1) is None
    # a length of 600 digits is refused without its power being taken
    assert word_count(rank, 10**600, 10**6) is None
