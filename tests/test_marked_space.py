"""Metric-space machinery: balls, growth, agreement radii, separators."""

import io

import pytest
from hypothesis import given, settings, strategies as st

import markedgroups.handles as handles_module
import markedgroups.lamplighter as lamplighter_module
import oracles
from markedgroups.grigorchuk import parse_omega
from markedgroups.handles import (
    ext_model_handle,
    free_handle,
    grig_handle,
    l_subgroup_handle,
    lamplighter_handle,
    trivial_handle,
)
from markedgroups.marked_space import (
    agree_radius,
    build_ball,
    convergence_table,
    find_separating_word,
    growth_sequence,
    make_handle,
    relation_agreement,
    relation_agreement_exhaustive,
    relation_set,
    write_convergence_csv,
    write_growth_csv,
)
from markedgroups.words import (
    FreeWord,
    alternating_words,
    enumerate_reduced,
    free_concat,
    gen_inverse,
    gen_word_from_free,
    klein_reduce,
    word_to_str,
)

FREE2 = free_handle(2)
FREE4 = free_handle(4, ("a", "b", "c", "d"))
LAMP = lamplighter_handle(2)
G012 = grig_handle("(012)")
G021 = grig_handle("(021)")
L012 = l_subgroup_handle("(012)")
MODEL0 = ext_model_handle(0)
TRIV2 = trivial_handle(2)


# -- handle construction ------------------------------------------------------

def test_involutive_flags_measured():
    assert G012.involutive == (True, True, True, True)
    assert LAMP.involutive == (True, False)
    assert FREE2.involutive == (False, False)
    assert TRIV2.involutive == (True, True)


def test_make_handle_measures_not_trusts():
    h = make_handle(
        "z2", ("g",), lambda w: sum(s for _, s in w.letters) % 2 == 0,
        0, lambda e, letter: (e + letter[1]) % 2, lambda e: e,
    )
    assert h.involutive == (True,)


def test_make_handle_rejects_protocol_disagreeing_with_oracle():
    # Z_3 elements under a Z_2 oracle: the generator square is trivial for
    # the oracle but not for the keys, so ball pruning would be unsound
    with pytest.raises(AssertionError, match="protocol"):
        make_handle(
            "bad", ("g",), lambda w: sum(s for _, s in w.letters) % 2 == 0,
            0, lambda e, letter: (e + letter[1]) % 3, lambda e: e,
        )


# -- balls and growth ---------------------------------------------------------

def test_growth_frozen_free():
    assert growth_sequence(FREE2, 3) == list(oracles.FREE_COUNTS_K2)


def test_growth_frozen_lamp_vs_brute():
    assert growth_sequence(LAMP, 2) == list(oracles.GAMMA_LAMP)
    assert growth_sequence(LAMP, 4) == oracles.brute_gamma_lamp(4)


def test_growth_frozen_tree_vs_brute():
    assert growth_sequence(G012, 2) == list(oracles.GAMMA_G012)
    assert growth_sequence(G012, 3) == oracles.brute_gamma_tree(oracles.OMEGA_012, 3, 10)


def test_growth_trivial_group():
    assert growth_sequence(TRIV2, 4) == [1, 1, 1, 1, 1]


def test_growth_below_free_bound():
    from markedgroups.words import free_ball_count

    for n in range(1, 4):
        assert growth_sequence(G012, n)[n] < free_ball_count(4, n)
        assert growth_sequence(LAMP, n)[n] < free_ball_count(2, n) or n < 2


def test_growth_nondecreasing_and_submultiplicative():
    g = growth_sequence(LAMP, 6)
    assert g == sorted(g)
    for m in range(1, 4):
        for n in range(1, 3):
            assert g[m + n] <= g[m] * g[n]


def test_ball_edges_closed_in_ball():
    ball = build_ball(FREE2, 2)
    assert len(ball.elements) == 17
    for (src, d), dst in ball.edges.items():
        assert 0 <= src < 17 and 0 <= dst < 17 and 0 <= d < 4
    # boundary edges leaving the ball are absent
    deep = next(i for i, w in enumerate(ball.elements) if len(w) == 2)
    outward = sum(1 for (src, _) in ball.edges if src == deep)
    assert outward == 1  # only the backtracking edge stays inside


def test_ball_edges_wrap_for_relations():
    ball = build_ball(LAMP, 2)
    assert ball.gamma == tuple(oracles.GAMMA_LAMP)
    s_idx = ball.elements.index(FreeWord(((0, 1),), 2))
    # direction 0 is the s generator: ss = 1 wraps back to the identity
    assert ball.edges[(s_idx, 0)] == 0
    assert ball.elements[0] == FreeWord((), 2)


def test_ball_deterministic():
    # the second call reuses the handle's grown key table
    assert build_ball(G012, 3) == build_ball(G012, 3)
    assert build_ball(grig_handle("(012)"), 3) == build_ball(G012, 3)


def test_lamp_ball_never_reevaluates_words(monkeypatch):
    # growing a word by one letter costs one multiplication: no candidate or
    # edge is evaluated from scratch
    handle = lamplighter_handle(2)

    def whole_word(*args, **kwargs):
        raise AssertionError("eval_st_word called during the BFS")

    monkeypatch.setattr(lamplighter_module, "eval_st_word", whole_word)
    monkeypatch.setattr(handles_module, "eval_st_word", whole_word)
    gamma = growth_sequence(handle, 8)
    assert gamma[: len(oracles.GAMMA_LAMP)] == list(oracles.GAMMA_LAMP)


# -- element protocol ---------------------------------------------------------

def _element(handle, w):
    elem = handle.identity
    for letter in w.letters:
        elem = handle.mul(elem, letter)
    return elem


def test_handle_protocol_matches_oracle():
    # for every factory, equal keys iff the oracle kills u v^-1; the handles
    # are evaluated word by word in turn, so the key tables of two omegas
    # are interleaved in one process
    tree_omegas = {"G_(012)": "(012)", "G_2(01)": "2(01)"}
    handles = [
        free_handle(2),
        trivial_handle(2),
        lamplighter_handle(2),
        lamplighter_handle(3),
        ext_model_handle(0),
        ext_model_handle(1),
        ext_model_handle(2),
        grig_handle("(012)"),
        grig_handle("2(01)"),
        l_subgroup_handle("(012)"),
    ]
    words = {2: list(enumerate_reduced(2, 3)), 4: list(enumerate_reduced(4, 2))}
    keys = [{} for _ in handles]
    for position in range(max(len(ws) for ws in words.values())):
        for h, ks in zip(handles, keys):
            if position < len(words[h.k]):
                w = words[h.k][position]
                ks[w] = h.key(_element(h, w))
    for h, ks in zip(handles, keys):
        for u in words[h.k]:
            for v in words[h.k]:
                quotient = free_concat(u, v.inverse())
                same = ks[u] == ks[v]
                assert same == h.trivial(quotient), (h.label, u, v)
                if same and h.label in tree_omegas:
                    om = parse_omega(tree_omegas[h.label])
                    oracle_om = (tuple(om.preperiod), tuple(om.period))
                    assert oracles.oracle_acts_trivially(gen_word_from_free(quotient), oracle_om, 10), (h.label, u, v)


def test_tree_mul_matches_full_reduction():
    # mul re-reduces only the tail of the stored string; it must agree with
    # reducing the whole concatenation, for elements longer than the image
    for h, images in ((G012, "abcd"), (L012, ("d", "ab"))):
        for elem in [""] + list(alternating_words(6)):
            for i, img in enumerate(images):
                for sign, text in ((1, img), (-1, gen_inverse(img))):
                    assert h.mul(elem, (i, sign)) == klein_reduce(elem + text), (h.label, elem, i, sign)


# -- relation agreement: fast path vs exhaustive ------------------------------

PAIRS = [
    (FREE2, LAMP),
    (FREE2, TRIV2),
    (LAMP, TRIV2),
    (FREE4, G012),
    (G012, G021),
    (G012, MODEL0),
]


@pytest.mark.parametrize("h1,h2", PAIRS)
@pytest.mark.parametrize("max_len", [0, 1, 2, 3, 4])
def test_lockstep_matches_exhaustive(h1, h2, max_len):
    assert relation_agreement(h1, h2, max_len) == relation_agreement_exhaustive(
        h1, h2, max_len
    )


@pytest.mark.parametrize("h1,h2", PAIRS)
def test_relation_agreement_symmetric_and_monotone(h1, h2):
    prev = True
    for L in range(5):
        cur = relation_agreement(h1, h2, L)
        assert cur == relation_agreement(h2, h1, L)
        assert prev or not cur  # once false, stays false
        prev = cur


def test_relation_set_lamp_frozen():
    rels = relation_set(LAMP, 2)
    texts = {word_to_str(w, ("s", "t")) for w in rels}
    assert texts == oracles.LAMP_RELATION_SET_L2


# -- agreement radii ----------------------------------------------------------

def test_agree_radius_frozen():
    assert agree_radius(LAMP, FREE2, 6) == type(agree_radius(LAMP, FREE2, 6))(0, True)
    r = agree_radius(G012, G021, 8)
    assert (r.n, r.exact) == (7, True)
    r = agree_radius(L012, LAMP, 8)
    assert (r.n, r.exact) == (5, True)


def test_agree_radius_identical_handles_hits_horizon():
    r = agree_radius(G012, grig_handle("(012)"), 3)
    assert (r.n, r.exact) == (3, False)
    assert r.distance_str() == "<= 2^-3"


def test_agree_radius_generator_mismatch():
    r = agree_radius(LAMP, TRIV2, 4)
    assert (r.n, r.exact) == (-1, True)


def test_agree_radius_ultrametric_spot():
    # d(x,z) <= max(d(x,y), d(y,z)) reads as n(x,z) >= min(n(x,y), n(y,z))
    n12 = agree_radius(G012, G021, 8).n
    n23 = agree_radius(G021, MODEL0, 8).n
    n13 = agree_radius(G012, MODEL0, 8).n
    assert n13 >= min(n12, n23)


def test_convergence_rows_shape():
    rows = convergence_table([(1, l_subgroup_handle("0(012)"))], LAMP, 2)
    assert rows == [{"index": 0, "prefix_len": 1, "agree_N": 2, "exact": False}]


# -- separating words ---------------------------------------------------------

def _first_by_enumeration(h1, h2, max_len):
    assert h1.k == h2.k
    for w in enumerate_reduced(h1.k, max_len):
        if h1.trivial(w) != h2.trivial(w):
            return w
    return None


@pytest.mark.parametrize(
    "h1,h2,max_len",
    [(LAMP, FREE2, 4), (LAMP, TRIV2, 2), (FREE4, G012, 3), (FREE2, TRIV2, 2)],
)
def test_separator_is_first_in_enumeration_order(h1, h2, max_len):
    rep = find_separating_word(h1, h2, max_len)
    assert rep.word == _first_by_enumeration(h1, h2, max_len)
    assert rep.length == len(rep.word)
    assert h1.trivial(rep.word) != h2.trivial(rep.word)
    assert rep.trivial_in == (h1.label if h1.trivial(rep.word) else h2.label)


def test_separator_lamp_vs_free_frozen():
    rep = find_separating_word(LAMP, FREE2, 6)
    assert word_to_str(rep.word, ("s", "t")) == oracles.SEPARATOR_LAMP_VS_FREE
    assert rep.square is True
    assert rep.trivial_in == LAMP.label


def test_separator_012_vs_021_frozen():
    rep = find_separating_word(G012, G021, 16)
    assert gen_word_from_free(rep.word) == oracles.SEPARATOR_012_VS_021
    assert rep.length == 16
    assert rep.square is True
    assert rep.trivial_in == G021.label
    # confirmed on both sides by the independent tree oracle
    assert oracles.oracle_acts_trivially(oracles.SEPARATOR_012_VS_021, oracles.OMEGA_021, 12)
    assert not oracles.oracle_acts_trivially(oracles.SEPARATOR_012_VS_021, oracles.OMEGA_012, 12)


def test_separator_absent_within_bound():
    rep = find_separating_word(G012, G021, 8)
    assert rep == type(rep)(None, None, None, None)
    # length 0: only the empty word, trivial everywhere
    assert find_separating_word(G012, G021, 0) == rep


# -- csv surfaces -------------------------------------------------------------

def test_growth_csv_bytes():
    buf = io.StringIO()
    write_growth_csv([1, 5, 11], buf)
    assert buf.getvalue() == "n,gamma\n0,1\n1,5\n2,11\n"


def test_convergence_csv_bytes():
    buf = io.StringIO()
    write_convergence_csv(
        [{"index": 0, "prefix_len": 1, "agree_N": 3, "exact": True}], buf
    )
    assert buf.getvalue() == "index,prefix_len,agree_N,exact\n0,1,3,true\n"
