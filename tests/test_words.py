"""Free-word and Klein-reduction layer, checked against exhaustive rewriting."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

import oracles
from markedgroups.words import (
    FreeWord,
    alternating_words,
    enumerate_reduced,
    free_ball_count,
    free_concat,
    free_reduce,
    gen_word_from_free,
    is_square,
    klein_reduce,
    word_from_str,
    word_to_str,
)

LETTERS = st.sampled_from("abcd")
TREE_WORDS = st.text(alphabet="abcd", max_size=10)


# -- oracle agreement ---------------------------------------------------------

def test_klein_frozen_cases():
    for word, expected in oracles.KLEIN_CASES:
        assert klein_reduce(word) == expected


def test_klein_matches_exhaustive_rewriting_short():
    for n in range(7):
        for tup in itertools.product("abcd", repeat=n):
            w = "".join(tup)
            assert klein_reduce(w) == oracles.klein_oracle(w), w


def test_klein_sweep_through_length_7():
    # the 16384 words of length 7; the test above sweeps those up to 6
    for letters in itertools.product("abcd", repeat=7):
        w = "".join(letters)
        assert klein_reduce(w) == oracles.klein_oracle(w), w


def test_klein_reduce_names_the_first_bad_letter():
    for word, bad in [("abxcy", "x"), ("q", "q"), ("abcdA", "A"), ("aba\n", "\n"), ("ab cd", " ")]:
        with pytest.raises(ValueError, match=re.escape(f"letter {bad!r} not in alphabet 'abcd'")):
            klein_reduce(word)


@given(TREE_WORDS)
def test_klein_matches_exhaustive_rewriting(word):
    assert klein_reduce(word) == oracles.klein_oracle(word)


@given(TREE_WORDS)
def test_klein_idempotent(word):
    once = klein_reduce(word)
    assert klein_reduce(once) == once


@given(TREE_WORDS, TREE_WORDS)
def test_klein_is_a_congruence(u, v):
    assert klein_reduce(klein_reduce(u) + klein_reduce(v)) == klein_reduce(u + v)


def test_klein_irreducible_shape():
    # no aa, no adjacent pair from {b,c,d}
    for tup in itertools.product("abcd", repeat=5):
        w = klein_reduce("".join(tup))
        for x, y in zip(w, w[1:]):
            assert not (x == y)
            assert not (x in "bcd" and y in "bcd")


# -- free reduction -----------------------------------------------------------

SIGNED = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=12
).map(tuple)


@given(SIGNED)
def test_free_reduce_idempotent(letters):
    w = free_reduce(FreeWord(letters, 2))
    assert free_reduce(w) == w


@given(SIGNED)
def test_free_inverse_cancels(letters):
    w = FreeWord(letters, 2)
    assert len(free_reduce(free_concat(w, w.inverse()))) == 0
    assert len(free_reduce(free_concat(w.inverse(), w))) == 0


@given(SIGNED, SIGNED)
def test_free_reduce_respects_concat(a, b):
    u, v = FreeWord(a, 2), FreeWord(b, 2)
    assert free_reduce(free_concat(free_reduce(u), free_reduce(v))) == free_reduce(free_concat(u, v))


def _rank2_words(max_len):
    """Every letter sequence over s, t and their inverses, reduced or not."""
    letters = [(i, sign) for i in (0, 1) for sign in (1, -1)]
    return [FreeWord(w, 2) for n in range(max_len + 1) for w in itertools.product(letters, repeat=n)]


def test_free_reduce_laws_sweep():
    # idempotence, inverse cancellation and the string round trip over the
    # 1365 words of length <= 5; the reduced form has no cancelling pair
    words = _rank2_words(5)
    assert len(words) == 1365
    for w in words:
        r = free_reduce(w)
        assert free_reduce(r) == r, w
        assert all(x != (y[0], -y[1]) for x, y in zip(r.letters, r.letters[1:])), w
        assert len(free_reduce(free_concat(w, w.inverse()))) == 0, w
        assert len(free_reduce(free_concat(w.inverse(), w))) == 0, w
        assert word_from_str(word_to_str(r, ("s", "t")), ("s", "t")) == r, w


def test_free_reduce_respects_concat_sweep():
    # every pair of words of length <= 3
    words = _rank2_words(3)
    reduced = [free_reduce(w) for w in words]
    for u, ru in zip(words, reduced):
        for v, rv in zip(words, reduced):
            assert free_reduce(free_concat(ru, rv)) == free_reduce(free_concat(u, v)), (u, v)


def test_free_ball_counts_frozen():
    assert [free_ball_count(2, n) for n in range(4)] == list(oracles.FREE_COUNTS_K2)
    assert [free_ball_count(2, n) for n in range(4)] == oracles.brute_free_counts(2, 3)


def test_enumerate_reduced_counts_and_uniqueness():
    words = list(enumerate_reduced(2, 3))
    assert len(words) == oracles.FREE_COUNTS_K2[3]
    assert len(set(words)) == len(words)
    for w in words:
        assert free_reduce(w) == w
    # lexicographic-by-length enumeration: lengths never decrease
    lens = [len(w) for w in words]
    assert lens == sorted(lens)


def test_enumerate_reduced_order_is_deterministic():
    a = list(enumerate_reduced(2, 3))
    b = list(enumerate_reduced(2, 3))
    assert a == b


# -- string round trips -------------------------------------------------------

def test_word_str_round_trip():
    for text in ["", "st", "sTs", "xyXY"]:
        names = ("x", "y") if "x" in text or "y" in text else ("s", "t")
        w = word_from_str(text, names)
        assert word_to_str(w, names) == text


def test_word_from_str_ignores_spaces():
    assert word_from_str("s s t", ("s", "t")) == word_from_str("sst", ("s", "t"))


@given(SIGNED)
def test_word_str_round_trip_random(letters):
    w = free_reduce(FreeWord(letters, 2))
    assert word_from_str(word_to_str(w, ("s", "t")), ("s", "t")) == w


# -- tree-word helpers --------------------------------------------------------

def test_gen_word_from_free_inverses_collapse():
    w = word_from_str("aBcD", ("a", "b", "c", "d"))
    # all four are involutions, so case is irrelevant after conversion
    assert gen_word_from_free(w) == "abcd"


def test_alternating_words_are_irreducible():
    words = list(alternating_words(6))
    assert len(set(words)) == len(words)
    for w in words:
        assert klein_reduce(w) == w


def test_alternating_words_cover_all_irreducibles():
    seen = set(alternating_words(5))
    expect = set()
    for n in range(6):
        for tup in itertools.product("abcd", repeat=n):
            w = "".join(tup)
            if w and klein_reduce(w) == w:
                expect.add(w)
    assert seen == expect


def test_is_square():
    assert is_square(word_from_str("ss", ("s", "t")))
    assert is_square(word_from_str("stst", ("s", "t")))
    assert not is_square(word_from_str("st", ("s", "t")))
    assert not is_square(word_from_str("sts", ("s", "t")))
    assert is_square(word_from_str("", ("s", "t")))
