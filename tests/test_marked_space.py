"""Metric-space machinery: balls, growth, agreement radii, separators."""

import io

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from markedgroups.grigorchuk import is_trivial, parse_omega
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
    gen_inverse,
    gen_word_from_free,
    word_from_str,
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
    h = make_handle("z2", ("g",), lambda w: sum(s for _, s in w.letters) % 2 == 0)
    assert h.involutive == (True,)


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


def test_ball_determinism_across_threads():
    a = build_ball(G012, 3, threads=1)
    b = build_ball(G012, 3, threads=2)
    assert a == b


# -- element keys -------------------------------------------------------------

def test_tree_handle_keys_interleaved_omegas():
    # each fingerprinter call owns its key table: two omegas looked up in
    # turn in one process must each still agree with the oracles
    names = ("a", "b", "c", "d")
    words = [""] + list(alternating_words(4))
    sides = {}
    for otext in ("(012)", "2(01)"):
        om = parse_omega(otext)
        sides[otext] = (om, grig_handle(om).fingerprinter(4), {})
    for w in words:
        for om, fp, keys in sides.values():
            keys[w] = fp.map(word_from_str(w, names))
    for otext, (om, fp, keys) in sides.items():
        assert fp.exact
        oracle_om = (tuple(om.preperiod), tuple(om.period))
        for u in words:
            for v in words:
                quotient = u + gen_inverse(v)
                same = keys[u] == keys[v]
                assert same == is_trivial(quotient, om), (otext, u, v)
                if same:
                    assert oracles.oracle_acts_trivially(quotient, oracle_om, 10), (otext, u, v)


def test_no_fingerprint_single_bucket_still_correct():
    om = parse_omega("(012)")
    plain = make_handle(
        "plain", ("a", "b", "c", "d"), lambda w: is_trivial(gen_word_from_free(w), om)
    )
    assert growth_sequence(plain, 2) == list(oracles.GAMMA_G012)


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


def test_separator_deterministic_across_threads():
    a = find_separating_word(G012, G021, 16, threads=1)
    b = find_separating_word(G012, G021, 16, threads=2)
    assert a == b


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
