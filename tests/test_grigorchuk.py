"""Tree groups G_omega: action, sections, word problem, torsion, limits."""

import functools
import itertools
import random

import pytest
from hypothesis import given, strategies as st

import markedgroups.grigorchuk as grigorchuk_module
import oracles
from markedgroups.grigorchuk import (
    EventuallyConstantError,
    OmegaWord,
    _level1_words,
    _omega_id,
    act,
    TreeKeys,
    is_trivial,
    limit_trivial,
    order_of,
    parse_omega,
    root_parity,
    sections,
    translate_L_word,
)
from markedgroups.lamplighter import EXT_STATE_IDENTITY, eval_abcd_state
from markedgroups.words import klein_reduce

OM012 = parse_omega("(012)")
OM021 = parse_omega("(021)")

TREE_WORDS = st.text(alphabet="abcd", max_size=10)
OMEGA_TEXTS = st.sampled_from(
    ["(012)", "(021)", "(01)", "(02)", "(12)", "0(012)", "21(102)", "(0)", "(1)", "(2)"]
)
VERTICES = st.text(alphabet="01", max_size=8)


def _oracle_omega(text):
    om = parse_omega(text)
    return (tuple(om.preperiod), tuple(om.period))


def _oracle_act(word, om, vertex):
    """Image of the vertex under the word by the oracle's leaf permutation."""
    if not vertex:
        return ""
    depth = len(vertex)
    perm = oracles.oracle_word_perm(word, _oracle_omega(str(om)), depth)
    return format(perm[int(vertex, 2)], f"0{depth}b")


# -- omega words --------------------------------------------------------------

def test_omega_canonicalization():
    assert str(parse_omega("00(0)")) == "(0)"
    assert str(parse_omega("(012012)")) == "(012)"
    assert str(parse_omega("0(120)")) == "(012)"
    assert str(parse_omega("012(012)")) == "(012)"


def test_omega_shift_and_at():
    om = parse_omega("2(01)")
    assert [om.at(i) for i in range(5)] == [2, 0, 1, 0, 1]
    assert str(om.shift()) == "(01)"
    assert str(OM012.shift()) == "(120)"


def test_omega_flags():
    assert parse_omega("(0)").constant
    assert parse_omega("1(0)").eventually_constant
    assert not parse_omega("1(0)").constant
    assert not OM012.eventually_constant


def test_parse_omega_rejects_garbage():
    for bad in ["", "012", "(013)", "(01", "x(01)"]:
        with pytest.raises(ValueError):
            parse_omega(bad)


# -- action on vertices -------------------------------------------------------

def test_act_examples():
    assert act("a", OM012, "0") == "1"
    assert act("a", OM012, "10") == "00"
    assert act("b", OM012, "00") == "01"
    assert act("d", OM012, "00") == "00"
    assert act("ab", OM012, "10") == act("b", OM012, act("a", OM012, "10"))


@given(OMEGA_TEXTS, TREE_WORDS, VERTICES)
def test_act_matches_oracle_permutation(otext, word, vertex):
    om = parse_omega(otext)
    depth = len(vertex)
    got = act(word, om, vertex)
    if depth == 0:
        assert got == ""
        return
    idx = int(vertex, 2)
    perm = oracles.oracle_word_perm(word, _oracle_omega(otext), depth)
    assert got == format(perm[idx], f"0{depth}b")


@given(OMEGA_TEXTS, TREE_WORDS, TREE_WORDS, VERTICES)
def test_act_is_left_to_right(otext, u, v, vertex):
    om = parse_omega(otext)
    assert act(u + v, om, vertex) == act(v, om, act(u, om, vertex))


def test_defining_relations_act_trivially():
    # act Klein-reduces its word, which would turn each relator into e before
    # it acts, so the package's side applies the relator one letter at a time
    depth8 = ["".join(p) for p in itertools.product("01", repeat=8)]
    for otext in ["(012)", "(021)", "(01)", "1(02)", "(0)"]:
        om = parse_omega(otext)
        for rel in ["aa", "bb", "cc", "dd", "bcd", "cdb"]:
            assert oracles.oracle_acts_trivially(rel, _oracle_omega(otext), 10), (otext, rel)
            for v in depth8:
                assert functools.reduce(lambda u, x: act(x, om, u), rel, v) == v, (otext, rel, v)


@pytest.mark.parametrize("otext", ["(012)", "1(02)", "2(01)", "(0)", "1(0)"])
def test_act_sweep_against_oracle(otext):
    # every word of length <= 5, reduced or not, on the 16 leaves of depth 4,
    # so on every vertex of depth <= 4: the action keeps prefixes
    om = parse_omega(otext)
    images = _leaf_images(om, 4)
    leaves = ["".join(p) for p in itertools.product("01", repeat=4)]
    for n in range(6):
        for letters in itertools.product("abcd", repeat=n):
            w = "".join(letters)
            want = [format(k, "04b") for k in images(w)]
            assert [act(w, om, v) for v in leaves] == want, (otext, w)


def test_act_rejects_bad_vertices_and_letters():
    for w, v in [("a", "2"), ("", "zz"), ("b", "01 "), ("", "0x1")]:
        with pytest.raises(ValueError, match="not a string over 01"):
            act(w, OM012, v)
    with pytest.raises(ValueError):
        act("ax", OM012, "0")


# -- sections -----------------------------------------------------------------

@given(OMEGA_TEXTS, TREE_WORDS, VERTICES)
def test_sections_consistency(otext, word, vertex):
    om = parse_omega(otext)
    if root_parity(word) != 0:
        return  # sections are defined for stabilizer elements only
    w0, w1 = sections(klein_reduce(word), om)
    image = _oracle_act(word, om, "0" + vertex)
    assert image[0] == "0"
    assert image[1:] == _oracle_act(w0, om.shift(), vertex)
    image = _oracle_act(word, om, "1" + vertex)
    assert image[1:] == _oracle_act(w1, om.shift(), vertex)


def test_section_example():
    w0, w1 = sections("abab", OM012)
    assert (klein_reduce(w0), klein_reduce(w1)) == ("ba", "ab")


def _leaf_images(om, depth):
    """word -> the images (as indices) of the 2^depth leaves under the
    oracle's action, folded letter by letter, memoised on the prefix."""
    step = {x: oracles.oracle_word_perm(x, _oracle_omega(str(om)), depth) for x in "abcd"}
    memo = {"": tuple(range(1 << depth))}

    def images(w):
        if w not in memo:
            memo[w] = tuple(step[w[-1]][k] for k in images(w[:-1]))
        return memo[w]

    return images


@pytest.mark.parametrize("otext", ["(012)", "1(02)", "21(012)", "2(01)", "(0)"])
def test_section_scan_sweep(otext):
    # every word of length <= 7, reduced or not: with p its a-parity, w sends
    # the vertex y v to (y ^ p) w_y(v). Even words go through sections(), odd
    # ones (TreeKeys' single "a" among them) through the scan itself. Checked
    # on the 16 leaves of depth 4, so on every vertex of depth <= 4: the
    # action keeps prefixes
    om = parse_omega(otext)
    omega_id = _omega_id(om, faithful=False)
    top, below = _leaf_images(om, 4), _leaf_images(om.shift(), 3)
    assert _level1_words("a", omega_id) == ("", "")
    for n in range(8):
        for letters in itertools.product("abcd", repeat=n):
            w = "".join(letters)
            p = root_parity(w)
            halves = _level1_words(w, omega_id) if p else sections(w, om)
            image = top(w)
            for y in (0, 1):
                want = tuple(8 * (y ^ p) + k for k in below(halves[y]))
                assert image[8 * y : 8 * y + 8] == want, (otext, w, y)


# -- word problem -------------------------------------------------------------

def test_is_trivial_oracle_agreement_exhaustive():
    for otext in ["(012)", "(021)"]:
        om = parse_omega(otext)
        oom = _oracle_omega(otext)
        for w in oracles.alternating_words(8):
            assert is_trivial(w, om) == oracles.oracle_acts_trivially(w, oom, 12), (
                otext,
                w,
            )


@pytest.mark.parametrize("otext", ["1(02)", "21(012)", "00(012)", "000(012)", "0000(012)"])
def test_is_trivial_sweep_over_preperiods(otext):
    # every alternating word of length <= 10, and the powers w^2 .. w^32 of
    # those of length <= 4. Only the powers contract deep enough to pass the
    # point where the shift orbit of omega wraps to the period start
    om = parse_omega(otext)
    oom = _oracle_omega(otext)
    words = list(oracles.alternating_words(10))
    for w in oracles.alternating_words(4):
        words += [w * (1 << k) for k in range(1, 6)]
    for w in words:
        assert is_trivial(w, om) == oracles.oracle_acts_trivially(w, oom, 10), (otext, w)


@given(OMEGA_TEXTS, TREE_WORDS)
def test_is_trivial_oracle_agreement_random(otext, word):
    om = parse_omega(otext)
    if om.eventually_constant and not om.constant:
        return
    if om.constant:
        return  # handled by the wreath model elsewhere
    assert is_trivial(word, om) == oracles.oracle_acts_trivially(
        word, _oracle_omega(otext), 12
    )


@given(OMEGA_TEXTS, TREE_WORDS)
def test_is_trivial_klein_invariant(otext, word):
    om = parse_omega(otext)
    if om.eventually_constant:
        return
    assert is_trivial(word, om) == is_trivial(klein_reduce(word), om)


def test_is_trivial_rejects_eventually_constant():
    with pytest.raises(EventuallyConstantError):
        is_trivial("ab", parse_omega("1(0)"))


def test_is_trivial_memo_interleaved_omegas():
    # the same word at four omegas in turn: a verdict memoized for one omega
    # must never answer for another
    oms = [(t, parse_omega(t), _oracle_omega(t)) for t in ["(012)", "(021)", "0(12)", "2(01)"]]
    for w in oracles.alternating_words(8):
        for otext, om, oom in oms:
            assert is_trivial(w, om) == oracles.oracle_acts_trivially(w, oom, 10), (otext, w)


def test_is_trivial_memo_bound(monkeypatch):
    # a bound of 2 entries per omega: the memos clear over and over, the
    # verdicts stay those of the default bound, and no memo outgrows it
    oms = [parse_omega(t) for t in ["(012)", "0(12)", "21(012)"]]
    words = list(oracles.alternating_words(8))
    want = [[is_trivial(w, om) for w in words] for om in oms]
    for memo in grigorchuk_module._MEMOS:
        memo.clear()
    monkeypatch.setattr(grigorchuk_module, "_MEMO_BOUND", 2)
    for om, verdicts in zip(oms, want):
        for w, verdict in zip(words, verdicts):
            assert is_trivial(w, om) == verdict, (str(om), w)
            assert max(map(len, grigorchuk_module._MEMOS)) <= 2, (str(om), w)


# -- torsion ------------------------------------------------------------------

def test_orders_frozen():
    assert order_of("ad", OM012) == oracles.ORDER_AD_012
    assert order_of("ab", OM012) == oracles.ORDER_AB_012
    assert order_of("ab", OM021) == 8
    assert order_of("ac", OM012) == 8
    assert order_of("ac", OM021) == 16
    assert order_of("", OM012) == 1
    assert order_of("a", OM012) == 2


def test_orders_are_powers_of_two():
    for w in oracles.alternating_words(3):
        n = order_of(w, OM012)
        assert n is not None and n & (n - 1) == 0


def test_order_of_is_none_off_the_torsion_family():
    # (01) misses the symbol 2, so G_(01) is not torsion: b = (a, b) at every
    # level, (ab)^2 = (ba, ab) and ab has infinite order; no max_exp helps
    om01 = parse_omega("(01)")
    assert order_of("ab", om01, max_exp=12) is None
    assert order_of("abad", parse_omega("0(12)"), 12) is None
    assert "ab" in sections("abab", om01)  # the self-similar certificate


# -- limits and constant routing ----------------------------------------------

def test_translate_L_word():
    assert translate_L_word("x") == "d"
    assert translate_L_word("y") == "ab"
    assert translate_L_word("X") == "d"
    assert translate_L_word("yY") == ""
    assert translate_L_word("xy") == "dab"


def test_limit_trivial_frozen():
    assert limit_trivial("d") is False
    assert limit_trivial(translate_L_word("xx")) is True
    assert limit_trivial(translate_L_word("xyxy")) is False
    assert limit_trivial(translate_L_word("yxYX" * 4)) is True


def test_limit_trivial_default_window_sweep():
    # the empty word and the 32,800 alternating words of length <= 16: the
    # default window is stable (never None) and its verdict is the
    # lamplighter model's
    cases = 0
    for w in ["", *oracles.alternating_words(16)]:
        assert limit_trivial(w) is (eval_abcd_state(w) == EXT_STATE_IDENTITY), w
        cases += 1
    assert cases == 32801


def test_contraction_reads_omega_below_log_length():
    # the lemma behind limit_trivial's default window: the contraction of a
    # reduced word of length n reads only the symbols of omega at positions
    # below (n - 1).bit_length(). So the verdict is the same for every tail
    # that follows a given prefix of that length
    tails = [(0, 1, 2), (0, 2, 1), (1, 2), (2, 1, 0), (0, 1)]
    omegas = {
        m: [(prefix, [OmegaWord(prefix, tail) for tail in tails]) for prefix in itertools.product(range(3), repeat=m)]
        for m in range(5)
    }
    cases = 0
    for w in oracles.alternating_words(10):
        for prefix, column in omegas[(len(w) - 1).bit_length()]:
            verdicts = {is_trivial(w, om) for om in column}
            assert len(verdicts) == 1, (w, prefix)
            cases += 1
    assert cases == 75622



# -- exact element keys -------------------------------------------------------

KEY_OMEGAS = ["(012)", "(021)", "0(012)", "2(01)"]


def _key(keys, w):
    """Key of a word over a, b, c, d, reduced or not: a fold of mul."""
    return functools.reduce(keys.mul, w, keys.identity)


@pytest.mark.parametrize("otext", KEY_OMEGAS)
def test_tree_keys_match_word_problem_exhaustive(otext):
    # every pair of Klein-reduced words of length <= 5: equal keys iff
    # u v^-1 is trivial, and the independent oracle confirms each equal pair
    om = parse_omega(otext)
    keys = TreeKeys(om)
    words = [""] + list(oracles.alternating_words(5))
    by_key = {}
    for w in words:
        by_key.setdefault(_key(keys, w), []).append(w)
    for u in words:
        ku = _key(keys, u)
        for v in words:
            quotient = u + v[::-1]  # every letter is an involution, so v^-1 is v reversed
            assert (ku == _key(keys, v)) == is_trivial(quotient, om), (otext, u, v)
    equal_pairs = [(u, v) for cls in by_key.values() for u in cls for v in cls if u != v]
    assert equal_pairs, "the sweep should contain distinct words for one element"
    for u, v in equal_pairs:
        assert oracles.oracle_acts_trivially(u + v[::-1], _oracle_omega(otext), 10), (otext, u, v)


@pytest.mark.parametrize("otext", KEY_OMEGAS)
def test_tree_keys_absorb_relators_at_short_forms(otext):
    # x^ord(x) is trivial, so multiplying it onto e or a letter, on either
    # side, must land on that element's key. The products end at short forms
    # of several shifts of omega, which only the minimized automaton merges
    om = parse_omega(otext)
    keys = TreeKeys(om)
    relators = []
    for x in ("ab", "ac", "ad", "abac", "abad", "acad"):
        order = order_of(x, om)
        if order is not None:
            relators.append(x * order)
    assert len(relators) >= 4
    for rel in relators:
        for y in ["", "a", "b", "c", "d"]:
            assert _key(keys, rel + y) == _key(keys, y), (otext, rel, y)
            assert _key(keys, y + rel) == _key(keys, y), (otext, rel, y)


def test_tree_keys_long_word_equal_to_generator():
    # (ad)^4 is a relator of G_(012) that Klein reduction does not see, so
    # r.x reaches a generator only through the registered automaton classes
    rel = "ad" * oracles.ORDER_AD_012
    assert oracles.oracle_acts_trivially(rel, oracles.OMEGA_012, 10)
    keys = TreeKeys(OM012)
    assert _key(keys, rel) == _key(keys, "")
    for x in "abcd":
        assert _key(keys, rel + x) == _key(keys, x)
        assert _key(keys, x + rel) == _key(keys, x)
    assert len({_key(keys, x) for x in ["", "a", "b", "c", "d"]}) == 5


@pytest.mark.parametrize("otext", ["(012)", "00000000(012)", "2(01)", "(0112)"])
def test_tree_keys_match_word_problem_long_words(otext):
    # words of up to 80 letters, multiplied out one letter at a time. Half of
    # the pairs are equal by construction: v is u with a relator x^ord(x)
    # inserted. Equal keys iff u v^-1 is trivial, and the independent oracle
    # confirms each equal pair
    om = parse_omega(otext)
    keys = TreeKeys(om)
    rng = random.Random(otext)
    relators = []
    for x in ("ab", "ac", "ad", "abac", "abad", "acad", "adac"):
        order = order_of(x, om, 5)
        if order is not None and len(x) * order <= 40:
            relators.append(x * order)
    assert len(relators) >= 2
    equal = 0
    for _ in range(300):
        u = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 40)))
        if rng.random() < 0.5:
            cut = rng.randint(0, len(u))
            v = u[:cut] + rng.choice(relators) + u[cut:]
        else:
            v = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 80)))
        quotient = u + v[::-1]
        same = _key(keys, u) == _key(keys, v)
        assert same == is_trivial(quotient, om), (otext, u, v)
        if same:
            equal += 1
            assert oracles.oracle_acts_trivially(quotient, _oracle_omega(otext), 10), (otext, u, v)
    assert equal >= 100


@pytest.mark.parametrize("otext", ["(012)", "2(01)", "0(021)"])
def test_tree_keys_need_no_top_level_reduction(otext):
    # _key is a fold of mul and reduces nothing, so every word of length
    # <= 6, reduced or not, must get the key of its Klein normal form
    keys = TreeKeys(parse_omega(otext))
    words = ["".join(p) for n in range(7) for p in itertools.product("abcd", repeat=n)]
    assert len(words) == 5461
    for w in words:
        assert _key(keys, w) == _key(keys, klein_reduce(w)), (otext, w)


def test_tree_keys_reject_eventually_constant():
    with pytest.raises(EventuallyConstantError):
        TreeKeys(parse_omega("1(0)"))
