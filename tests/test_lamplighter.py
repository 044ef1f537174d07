"""Wreath-product models: the lamp group, its flip extension, dictionaries."""

from itertools import product

import pytest
from hypothesis import example, given, strategies as st

import markedgroups.lamplighter as lamplighter_module
import oracles
from markedgroups.grigorchuk import dead_letter_for
from markedgroups.handles import ext_model_handle
from markedgroups.lamplighter import (
    EXT_STATE_IDENTITY,
    LampElement,
    _state_inverse,
    _state_multiply,
    alpha,
    eval_abcd_state,
    eval_st_word,
    ext_pretwisted_images,
    ext_state_mul,
    lamp_commutator,
    lamp_identity,
    lamp_inverse,
    lamp_multiply,
    lamp_s,
    lamp_t,
    structure_report,
    t_n_word,
)
from markedgroups.words import word_from_str

MODS = st.sampled_from((2, 3, 5))


@st.composite
def lamp_elements(draw, n=None):
    if n is None:
        n = draw(MODS)
    positions = draw(st.lists(st.integers(-4, 4), unique=True, max_size=4))
    lamps = tuple(sorted((p, draw(st.integers(1, n - 1))) for p in positions))
    return LampElement(n, lamps, draw(st.integers(-3, 3)))


@st.composite
def lamp_triples(draw):
    # one modulus for all three, so every draw is a product that is defined
    n = draw(MODS)
    return tuple(draw(lamp_elements(n=n)) for _ in range(3))


def _as_pair(u):
    return (dict(u.lamps), u.shift)


def _oracle_mult(u, v):
    # mod-2 only; reuse the independent implementation
    assert u.n == v.n == 2
    lamps, shift = oracles._lamp_mult(_as_pair(u), _as_pair(v))
    items = tuple(sorted(lamps.items()))
    return LampElement(2, items, shift)


# -- base group laws ----------------------------------------------------------

@given(lamp_elements(n=2), lamp_elements(n=2))
def test_multiply_matches_independent_model(u, v):
    assert lamp_multiply(u, v) == _oracle_mult(u, v)


@given(lamp_triples())
def test_lamp_associative(triple):
    u, v, w = triple
    assert lamp_multiply(lamp_multiply(u, v), w) == lamp_multiply(u, lamp_multiply(v, w))


@given(lamp_elements())
def test_lamp_inverse_law(u):
    e = lamp_identity(u.n)
    assert lamp_multiply(u, lamp_inverse(u)) == e
    assert lamp_multiply(lamp_inverse(u), u) == e


@given(lamp_elements())
def test_lamp_metabelian(u):
    # commutators land in the abelian lamp part, so they all commute
    v = lamp_multiply(u, lamp_t(u.n))
    c1 = lamp_commutator(u, v)
    assert c1.shift == 0


def _small_lamp_elements(n, positions, shifts):
    """Every element with its lamps inside `positions` and its shift in `shifts`."""
    out = []
    for values in product(range(n), repeat=len(positions)):
        lamps = tuple((p, val) for p, val in zip(positions, values) if val)
        out.extend(LampElement(n, lamps, z) for z in shifts)
    return out


def test_lamp_multiply_sweep_against_independent_model():
    # every pair of n = 2 elements with lamps in -2..2 and shift in -2..2
    elements = _small_lamp_elements(2, range(-2, 3), range(-2, 3))
    for u in elements:
        for v in elements:
            assert lamp_multiply(u, v) == _oracle_mult(u, v), (u, v)


def test_lamp_group_laws_sweep_n3():
    # every n = 3 element with lamps in {0, 1} and shift in -1..1: identity,
    # two-sided inverse, and associativity over all triples
    elements = _small_lamp_elements(3, (0, 1), (-1, 0, 1))
    e = lamp_identity(3)
    for u in elements:
        u_inv = lamp_inverse(u)
        assert lamp_multiply(e, u) == u == lamp_multiply(u, e)
        assert lamp_multiply(u, u_inv) == e == lamp_multiply(u_inv, u)
        for v in elements:
            uv = lamp_multiply(u, v)
            for w in elements:
                assert lamp_multiply(uv, w) == lamp_multiply(u, lamp_multiply(v, w)), (u, v, w)


def test_lamp_commutators_sweep():
    # every commutator of small n = 2 and n = 3 elements has shift 0, and
    # every two of them commute
    for n, positions in ((2, range(-1, 2)), (3, (0, 1))):
        elements = _small_lamp_elements(n, positions, (-1, 0, 1))
        commutators = {lamp_commutator(u, v) for u in elements for v in elements}
        assert len(commutators) > 1, n
        for c1 in commutators:
            assert c1.shift == 0, c1
            for c2 in commutators:
                assert lamp_multiply(c1, c2) == lamp_multiply(c2, c1), (c1, c2)


def test_lamp_generators():
    s, t = lamp_s(2), lamp_t(2)
    assert lamp_multiply(s, s) == lamp_identity(2)
    tst = lamp_multiply(lamp_multiply(t, s), lamp_inverse(t))
    assert tst.lamps == ((1, 1),)
    # s and its t-conjugates commute
    assert lamp_multiply(s, tst) == lamp_multiply(tst, s)


# -- the flip automorphism ----------------------------------------------------

def _state_from_positions(positions, shift, flip):
    # the state normal form, built here rather than by the package
    if not positions:
        return (0, 0, shift, flip)
    low = min(positions)
    return (sum(1 << (p - low) for p in positions), low, shift, flip)


def _positions(s):
    mask, low = s[0], s[1]
    return {low + i for i in range(mask.bit_length()) if mask >> i & 1}


def _reflected(s):
    # alpha on position sets: lamp p goes to 1 - p, the shift is negated
    return _state_from_positions({1 - p for p in _positions(s)}, -s[2], s[3])


@st.composite
def ext_states(draw, flip=None):
    positions = draw(st.sets(st.integers(-6, 6), max_size=5))
    if flip is None:
        flip = draw(st.integers(0, 1))
    return _state_from_positions(positions, draw(st.integers(-4, 4)), flip)


def _small_states():
    """Every state with mask < 2^5, low in -3..3, shift in -2..2, either flip."""
    bases = [(0, 0)] + [(mask, low) for mask in range(1, 32, 2) for low in range(-3, 4)]
    return [(mask, low, z, f) for mask, low in bases for z in range(-2, 3) for f in (0, 1)]


@given(ext_states(flip=0), ext_states(flip=0))
def test_alpha_is_automorphism(u, v):
    # flip-0 products are plain lamp products, so this checks alpha against
    # the base law without going through the twist
    assert alpha(ext_state_mul(u, v)) == ext_state_mul(alpha(u), alpha(v))


@given(ext_states())
def test_alpha_involutive(u):
    assert alpha(alpha(u)) == u


def test_alpha_on_generators():
    s, t, t_inv = (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0)
    assert alpha(t) == t_inv
    assert alpha(s) == ext_state_mul(ext_state_mul(t, s), t_inv) == (1, 1, 0, 0)


def test_alpha_sweeps_small_states():
    # involution, the automorphism law on flip-0 pairs, and agreement with
    # the reflection of position sets, over 1130 states
    states = _small_states()
    assert len(states) == 1130
    for u in states:
        assert alpha(alpha(u)) == u, u
        assert alpha(u) == _reflected(u), u
    plain = [u for u in states if not u[3]]
    images = {u: alpha(u) for u in plain}
    for u in plain:
        au = images[u]
        for v in plain:
            assert alpha(ext_state_mul(u, v)) == ext_state_mul(au, images[v]), (u, v)


# -- the extension ------------------------------------------------------------

def _mul(u, v):
    return _state_multiply(alpha, u, v)


def _inv(u):
    return _state_inverse(alpha, u)


@given(ext_states(), ext_states())
def test_ext_group_laws(u, v):
    e = EXT_STATE_IDENTITY
    assert _mul(u, _inv(u)) == e
    assert _mul(_inv(u), u) == e
    w = _mul(u, v)
    assert _mul(_inv(v), _mul(_inv(u), w)) == e


def test_ext_word_evaluation():
    e = EXT_STATE_IDENTITY
    for rel in ("aa", "bb", "cc", "dd", "bcd"):
        assert eval_abcd_state(rel) == e, rel
    assert eval_abcd_state("bc") != e
    assert eval_abcd_state("d") != e  # d is the lamp, not trivial


def _state_as_oracle(s):
    mask, low, shift, flip = s
    return (frozenset(low + i for i in range(mask.bit_length()) if mask >> i & 1), shift, flip)


@given(
    st.sampled_from("bcd"),
    st.lists(st.sampled_from("abcdABCD \t"), max_size=64).map("".join),
)
def test_eval_abcd_state_matches_oracle_and_fold(dead, word):
    value = eval_abcd_state(word, dead)
    assert _state_as_oracle(value) == oracles.ext_model_oracle(word, dead)
    images = ext_pretwisted_images(dead)[0]
    acc = EXT_STATE_IDENTITY
    for ch in word:
        if not ch.isspace():
            acc = _mul(acc, images[ch])
    assert value == acc


def test_eval_abcd_state_sweeps_short_words():
    # every word of length <= 6, for each dead letter: the state reads as the
    # oracle's value, and equal oracle values give equal states
    words = ["".join(w) for n in range(7) for w in product("abcd", repeat=n)]
    assert len(words) == 5461
    for dead in "bcd":
        states = {}
        for w in words:
            value = oracles.ext_model_oracle(w, dead)
            state = eval_abcd_state(w, dead)
            assert _state_as_oracle(state) == value, (dead, w)
            assert states.setdefault(value, state) == state, (dead, w)


MODEL_HANDLES = {dead_letter_for(symbol): ext_model_handle(symbol) for symbol in range(3)}
MODEL_WORDS = st.lists(st.sampled_from("abcdABCD"), max_size=12).map("".join)


def _handle_element(handle, word):
    elem = handle.identity
    for letter in word_from_str(word, ("a", "b", "c", "d")).letters:
        elem = handle.mul(elem, letter)
    return elem


@st.composite
def model_word_pairs(draw):
    # half of the pairs insert a relator into u, so equal elements reached
    # along different paths are drawn often
    u = draw(MODEL_WORDS)
    if draw(st.booleans()):
        return u, draw(MODEL_WORDS)
    k = draw(st.integers(0, len(u)))
    return u, u[:k] + draw(st.sampled_from(("aa", "bb", "cc", "dd", "bcd", "dbc", "cbd"))) + u[k:]


@given(st.sampled_from("bcd"), model_word_pairs())
@example("d", ("abdba", "abdbadd"))  # the last d clears the lowest of lamps {0, 1}
def test_ext_state_arithmetic_matches_oracle(dead, pair):
    # handle elements are equal exactly when the oracle values are, and the
    # state product and inverse agree with the oracle
    u, v = pair
    handle = MODEL_HANDLES[dead]
    same = _handle_element(handle, u) == _handle_element(handle, v)
    assert same == (oracles.ext_model_oracle(u, dead) == oracles.ext_model_oracle(v, dead))
    eu, ev = eval_abcd_state(u, dead), eval_abcd_state(v, dead)
    assert _state_as_oracle(_mul(eu, ev)) == oracles.ext_model_oracle(u + v, dead)
    # every letter is an involution, so the inverse of u is u reversed
    assert _state_as_oracle(_inv(eu)) == oracles.ext_model_oracle(u[::-1], dead)


@given(st.sampled_from("bcd"), model_word_pairs())
@example("d", ("abdba", "abdbadd"))  # the last d clears the lowest of lamps {0, 1}
@example("d", ("add", "a"))  # the second d clears the only lamp, at position 1
def test_eval_abcd_state_is_a_normal_form(dead, pair):
    # states are equal exactly when the oracle values are, and each state is
    # the handle's product over the same letters
    u, v = pair
    su, sv = eval_abcd_state(u, dead), eval_abcd_state(v, dead)
    assert (su == sv) == (oracles.ext_model_oracle(u, dead) == oracles.ext_model_oracle(v, dead))
    handle = MODEL_HANDLES[dead]
    assert su == _handle_element(handle, u)
    assert sv == _handle_element(handle, v)


def test_eval_abcd_state_rejects_bad_input():
    with pytest.raises(ValueError, match="'e' not in alphabet"):
        eval_abcd_state("abe")
    with pytest.raises(ValueError, match="dead letter must be one of b, c, d"):
        eval_abcd_state("ab", "a")
    with pytest.raises(ValueError, match="dead letter must be one of b, c, d"):
        ext_pretwisted_images("a")


def test_eval_abcd_state_is_one_pass(monkeypatch):
    # the word is folded over tables built at import: no element arithmetic
    # runs per letter, so breaking it leaves the value unchanged
    word = "".join("abcd"[pow(3, i, 101) % 4] for i in range(200))
    want = eval_abcd_state(word, "c")
    assert want[0]

    def broken(*args):
        raise AssertionError("element arithmetic in the word fold")

    for name in ("lamp_multiply", "alpha", "_from_dict", "LampElement"):
        monkeypatch.setattr(lamplighter_module, name, broken)
    assert eval_abcd_state(word, "c") == want


def test_abcd_dictionary_relations_all_dead_letters():
    e = EXT_STATE_IDENTITY
    for dead in "bcd":
        plain, flipped = ext_pretwisted_images(dead)
        for g in "abcd":
            assert _mul(plain[g], plain[g]) == e, (dead, g)
            assert flipped[g] == alpha(plain[g]), (dead, g)
        assert _mul(_mul(plain["b"], plain["c"]), plain["d"]) == e, dead
        assert plain[dead][0], dead  # dead letter carries the lamp


def test_eval_st_word():
    w = word_from_str("st", ("s", "t"))
    assert eval_st_word(w) == lamp_multiply(lamp_s(2), lamp_t(2))
    assert eval_st_word(word_from_str("ss", ("s", "t"))) == lamp_identity(2)
    assert eval_st_word(word_from_str("tT", ("s", "t"))) == lamp_identity(2)


# -- shift generators t_i -----------------------------------------------------

def test_t_n_words_land_in_lamp_part():
    # each t_i is a single lamp: mask 1, shift 0, flip 0
    for i in range(-3, 4):
        mask, _, shift, flip = eval_abcd_state(t_n_word(i))
        assert (mask, shift, flip) == (1, 0, 0), i


def test_t_n_positions_are_distinct():
    lows = []
    for i in range(-4, 5):
        mask, low, shift, flip = eval_abcd_state(t_n_word(i))
        assert (mask, shift, flip) == (1, 0, 0), i
        lows.append(low)
    assert len(set(lows)) == len(lows)


def test_t_n_conjugation_steps_index():
    # (ab) conjugation moves t_i to a neighbouring index
    for i in range(-3, 3):
        moved = eval_abcd_state("ba" + t_n_word(i) + "ab")
        assert moved == eval_abcd_state(t_n_word(i + 1)), i


def test_t_words_commute():
    for i in range(-2, 3):
        for j in range(-2, 3):
            ti, tj = t_n_word(i), t_n_word(j)
            assert eval_abcd_state(ti + tj) == eval_abcd_state(tj + ti), (i, j)


# -- structure report ---------------------------------------------------------

EXPECTED_CHECKS = {
    "conjugation_steps_index",
    "defining_relations",
    "metabelian_commutators",
    "shift_separates_ab_powers",
    "t_commute",
    "t_distinct",
    "unique_factorization",
}


def test_structure_report_passes():
    rep = structure_report(4)
    assert rep["verdict"] == "pass"
    assert set(rep["checks"]) == EXPECTED_CHECKS
    assert all(c["pass"] for c in rep["checks"].values())


def test_structure_report_negative_control():
    rep = structure_report(4, corrupt_alpha=True)
    assert rep["verdict"] == "fail"
    failing = [k for k, c in rep["checks"].items() if not c["pass"]]
    assert failing


def test_structure_report_catches_non_involutive_twist(monkeypatch):
    # a^f . k' is rebuilt through the twist, so a twist whose square is not
    # the identity cannot pass the factorization check
    def shift_lamps(s):
        mask, low, shift, flip = s
        return (mask, low + 1 if mask else 0, shift, flip)

    monkeypatch.setattr(lamplighter_module, "alpha", shift_lamps)
    rep = structure_report(4)
    assert rep["checks"]["unique_factorization"] == {"pass": False}
    assert rep["verdict"] == "fail"


def _reflect_keeping_shift(s):
    # reflects the lamps like alpha but fixes t instead of inverting it
    return _reflected(s)[:2] + s[2:]


# check -> (module global to corrupt, its replacement)
CORRUPTIONS = {
    "t_distinct": ("t_n_word", lambda i: "d"),
    "t_commute": ("t_n_word", lambda i: "a" if i == 0 else t_n_word(i)),
    "conjugation_steps_index": ("t_n_word", lambda i: t_n_word(2 * i)),
    "shift_separates_ab_powers": ("alpha", lambda s: (s[0], s[1], 0, s[3])),
    "defining_relations": ("alpha", _reflect_keeping_shift),
    "metabelian_commutators": ("_state_inverse", lambda twist, s: s),
}


@pytest.mark.parametrize("check", sorted(CORRUPTIONS))
def test_structure_report_check_can_fail(check, monkeypatch):
    # every check has a corruption of the model that it reports
    name, replacement = CORRUPTIONS[check]
    monkeypatch.setattr(lamplighter_module, name, replacement)
    rep = structure_report(4)
    assert rep["checks"][check]["pass"] is False
    assert rep["verdict"] == "fail"


def test_structure_report_rejects_zero_samples():
    # the sampled checks would pass vacuously on no samples
    for count in (0, -1):
        with pytest.raises(ValueError, match="sample_count"):
            structure_report(4, sample_count=count)


def test_structure_report_never_multiplies_lamp_elements(monkeypatch):
    # every check, the metabelian samples included, runs on the extension
    # model's states, so the report checks the model it reports on
    calls = []

    def counted(u, v):
        calls.append(1)
        return lamp_multiply(u, v)

    monkeypatch.setattr(lamplighter_module, "lamp_multiply", counted)
    for window in (4, 64):
        assert structure_report(window)["verdict"] == "pass"
    assert calls == []


def test_structure_report_deterministic():
    assert structure_report(3) == structure_report(3)


def test_lamp_element_validation():
    with pytest.raises(ValueError):
        LampElement(2, ((0, 1), (0, 1)), 0)
    with pytest.raises(ValueError):
        LampElement(2, ((0, 2),), 0)
    with pytest.raises(ValueError):
        LampElement(1, (), 0)
