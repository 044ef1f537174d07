"""Metric-space machinery: balls, growth, agreement radii, separators."""

import itertools

import pytest

import markedgroups.grigorchuk as grigorchuk_module
import markedgroups.handles as handles_module
import markedgroups.lamplighter as lamplighter_module
import markedgroups.marked_space as marked_space_module
import markedgroups.words as words_module
import oracles
from markedgroups.grigorchuk import parse_omega
from markedgroups.handles import (
    ext_model_handle,
    free_handle,
    grig_handle,
    l_subgroup_handle,
    lamplighter_handle,
    subgroup_handle,
    trivial_handle,
)
from markedgroups.marked_space import (
    agree_radius,
    build_ball,
    find_separating_word,
    growth_sequence,
    make_handle,
)
from markedgroups.words import (
    FreeWord,
    free_reduce,
    gen_word_from_free,
    is_square,
    word_from_str,
    word_to_str,
)

FREE2 = free_handle(2)
FREE4 = free_handle(4)
LAMP = lamplighter_handle(2)
G012 = grig_handle("(012)")
G021 = grig_handle("(021)")
L012 = l_subgroup_handle("(012)")
L021 = l_subgroup_handle("(021)")
L12 = l_subgroup_handle("(12)")
MODEL0 = ext_model_handle(0)
TRIV2 = trivial_handle(2)


def _reduced_words(rank, max_len):
    return [FreeWord(letters, rank) for letters in oracles.enumerate_reduced(rank, max_len)]


# -- handle construction ------------------------------------------------------

def test_involutive_flags_measured():
    assert G012.involutive == (True, True, True, True)
    assert LAMP.involutive == (True, False)
    assert FREE2.involutive == (False, False)
    assert TRIV2.involutive == (True, True)


def test_make_handle_measures_not_trusts():
    h = make_handle(
        "z2", ("g",), lambda w: sum(s for _, s in w.letters) % 2 == 0,
        0, lambda e, letter: (e + letter[1]) % 2,
    )
    assert h.involutive == (True,)


def test_make_handle_rejects_protocol_disagreeing_with_oracle():
    # Z_3 elements under a Z_2 oracle: the generator square is trivial for
    # the oracle but not for the elements, so ball pruning would be unsound
    with pytest.raises(AssertionError, match="protocol"):
        make_handle(
            "bad", ("g",), lambda w: sum(s for _, s in w.letters) % 2 == 0,
            0, lambda e, letter: (e + letter[1]) % 3,
        )


@pytest.mark.parametrize("k", range(1, 9))
def test_formal_handles_name_their_generators_as_words_do(k):
    # the names round-trip through word_to_str and word_from_str
    for handle in (free_handle(k), trivial_handle(k)):
        assert handle.gen_names == tuple("stuvwxyz"[:k])
        word = FreeWord(tuple((i, sign) for i in range(k) for sign in (1, -1)), k)
        assert word_from_str(word_to_str(word, handle.gen_names), handle.gen_names) == word


def test_make_handle_rejects_names_words_cannot_spell():
    for factory in (free_handle, trivial_handle):
        with pytest.raises(ValueError, match="at most 8"):
            factory(9)
    for names in (("g1",), ("G",), ("",), ("g", "g")):
        with pytest.raises(ValueError, match="generator names must be"):
            make_handle("bad", names, lambda w: not w.letters, (), lambda e, letter: e + (letter,))


def test_make_handle_rejects_a_wrong_inverse_letter():
    # Z_3 where g^-1 acts as g: the squares agree with the oracle, but a
    # search that appends g^-1 would multiply by g
    with pytest.raises(AssertionError, match="g0\\^1 g0\\^-1 is not the identity"):
        make_handle(
            "bad", ("g",), lambda w: sum(s for _, s in w.letters) % 3 == 0,
            0, lambda e, letter: (e + 1) % 3,
        )
    # F_2 where h^-1 h does not cancel, though h h^-1 does: both sides count
    def one_sided(e, letter):
        if e and e[-1] == (letter[0], -letter[1]) and letter != (1, 1):
            return e[:-1]
        return e + (letter,)

    with pytest.raises(AssertionError, match="g1\\^-1 g1\\^1 is not the identity"):
        make_handle("bad", ("g", "h"), lambda w: not w.letters, (), one_sided)


# -- balls and growth ---------------------------------------------------------

def test_growth_frozen_free():
    assert growth_sequence(FREE2, 3) == list(oracles.FREE_COUNTS_K2)


def test_growth_frozen_lamp_vs_brute():
    assert growth_sequence(LAMP, 2) == list(oracles.GAMMA_LAMP)
    assert growth_sequence(LAMP, 4) == oracles.brute_gamma_lamp(4)


# the largest radius at which the ball search for each modulus stays under a second
LAMP_RADII = {2: 14, 3: 11, 4: 10, 5: 10, 6: 9, 7: 9}


@pytest.mark.parametrize("modulus", sorted(LAMP_RADII))
def test_lamp_growth_closed_form(modulus):
    # the closed form counts lamp configurations; brute force enumerates words
    assert oracles.lamp_gamma_closed_form(6, modulus) == oracles.brute_gamma_lamp(6, modulus)
    r = LAMP_RADII[modulus]
    assert growth_sequence(lamplighter_handle(modulus), r) == oracles.lamp_gamma_closed_form(r, modulus)


def test_lamp_growth_closed_form_pins_the_ball_workload():
    # the final counts of `growth --family lamp --nmax 12` and of
    # `growth --family lamp --modulus 3 --nmax 10`
    assert oracles.lamp_gamma_closed_form(12)[-1] == 4167
    assert oracles.lamp_gamma_closed_form(10, 3)[-1] == 10495


def test_growth_frozen_tree_vs_brute():
    assert growth_sequence(G012, 2) == list(oracles.GAMMA_G012)
    assert growth_sequence(G012, 3) == oracles.brute_gamma_tree(oracles.OMEGA_012, 3, 10)


def test_growth_trivial_group():
    assert growth_sequence(TRIV2, 4) == [1, 1, 1, 1, 1]


def test_growth_below_free_bound():
    free4, free2 = oracles.brute_free_counts(4, 3), oracles.brute_free_counts(2, 3)
    for n in range(1, 4):
        assert growth_sequence(G012, n)[n] < free4[n]
        assert growth_sequence(LAMP, n)[n] < free2[n] or n < 2


def test_growth_nondecreasing_and_submultiplicative():
    g = growth_sequence(LAMP, 6)
    assert g == sorted(g)
    for m in range(1, 4):
        for n in range(1, 3):
            assert g[m + n] <= g[m] * g[n]


def test_ball_edges_closed_in_ball():
    ball = build_ball(FREE2, 2)
    assert len(ball.elements) == 17
    assert len(ball.edges) == 4
    for row in ball.edges:
        assert len(row) == 17 and all(-1 <= dst < 17 for dst in row)
    # boundary edges leaving the ball are -1
    deep = next(i for i, w in enumerate(ball.elements) if len(w) == 2)
    outward = sum(1 for row in ball.edges if row[deep] >= 0)
    assert outward == 1  # only the backtracking edge stays inside


def test_ball_edges_wrap_for_relations():
    ball = build_ball(LAMP, 2)
    assert ball.gamma == tuple(oracles.GAMMA_LAMP)
    s_idx = ball.elements.index(FreeWord(((0, 1),), 2))
    # direction 0 is the s generator: ss = 1 wraps back to the identity
    assert ball.edges[0][s_idx] == 0
    assert ball.elements[0] == FreeWord((), 2)


def _tree_word(letters):
    return "".join("abcd"[idx] for idx, _ in letters)


def _tree_element(letters):
    return tuple(oracles.oracle_word_perm(_tree_word(letters), oracles.OMEGA_012, 10))


@pytest.mark.parametrize(
    "handle,radius,element",
    [
        (lamplighter_handle(2), 6, oracles.lamp_word_element),
        (FREE2, 3, oracles.free_normal_form),
        (G012, 4, _tree_element),
    ],
    ids=["lamp2", "F2", "G_(012)"],
)
def test_flat_ball_matches_oracle(handle, radius, element):
    # the ball's tree and edge arrays, read back through an independent
    # element of each word: lamp configurations, free reduction, or the
    # permutation of the 2^10 leaves
    ball = build_ball(handle, radius)
    words = [w.letters for w in ball.elements]
    assert len(set(words)) == len(words)
    for n in range(radius + 1):
        layer = range(ball.gamma[n - 1] if n else 0, ball.gamma[n])
        assert all(len(words[i]) == n for i in layer), n
    elems = [element(w) for w in words]
    assert len(set(elems)) == len(elems)
    class_of = {e: j for j, e in enumerate(elems)}
    directions = [(idx, sign) for idx in range(handle.k) for sign in (1, -1)]
    assert len(ball.edges) == len(directions)
    for row, letter in zip(ball.edges, directions):
        assert [class_of.get(element(w + (letter,)), -1) for w in words] == list(row), letter
        if handle is G012:
            for w, j in zip(words, row):
                if j >= 0:
                    word = _tree_word(w + (letter,)) + _tree_word(words[j])[::-1]
                    assert oracles.oracle_acts_trivially(word, oracles.OMEGA_012, 10), word


# N(L_omega, lamp2) with n_max 6; 0(021) reaches the horizon
L_OMEGA_LAMP_RADII = [("(012)", 5, True), ("(021)", 3, True), ("2(01)", 1, True), ("1(02)", 3, True), ("0(021)", 6, False)]


def test_growth_agrees_up_to_agreement_radius():
    # ball-N agreement makes the two balls of radius N isomorphic, so the
    # ball counts agree up to the lockstep radius; where they first differ
    # (6, 4, 2, 6 and 8 here) is not pinned
    lamp = growth_sequence(LAMP, 6)
    for omega, n, exact in L_OMEGA_LAMP_RADII:
        handle = l_subgroup_handle(omega)
        r = agree_radius(handle, LAMP, 6)
        assert (r.n, r.exact) == (n, exact), omega
        assert growth_sequence(handle, n) == lamp[: n + 1], omega


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
    # for every factory, equal elements iff the oracle kills u v^-1; the
    # handles are evaluated word by word in turn, so the key tables of two
    # omegas are interleaved in one process
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
    words = {2: _reduced_words(2, 3), 4: _reduced_words(4, 2)}
    elems = [{} for _ in handles]
    for position in range(max(len(ws) for ws in words.values())):
        for h, es in zip(handles, elems):
            if position < len(words[h.k]):
                w = words[h.k][position]
                es[w] = _element(h, w)
    for h, es in zip(handles, elems):
        for u in words[h.k]:
            for v in words[h.k]:
                quotient = free_reduce(FreeWord(u.letters + v.inverse().letters, h.k))
                same = es[u] == es[v]
                assert same == h.trivial(quotient), (h.label, u, v)
                if same and h.label in tree_omegas:
                    om = parse_omega(tree_omegas[h.label])
                    oracle_om = (tuple(om.preperiod), tuple(om.period))
                    assert oracles.oracle_acts_trivially(gen_word_from_free(quotient), oracle_om, 10), (h.label, u, v)


def test_tree_search_never_reduces_strings(monkeypatch):
    # a tree element is an int key multiplied by key arithmetic, so once the
    # handles are built no search Klein-reduces a string
    l012, lamp = l_subgroup_handle("(012)"), lamplighter_handle(2)
    g012, g021 = grig_handle("(012)"), grig_handle("(021)")

    def no_reduction(w):
        raise AssertionError(f"klein_reduce({w!r}) called during a search")

    for module in (grigorchuk_module, handles_module, words_module):
        monkeypatch.setattr(module, "klein_reduce", no_reduction, raising=False)
    r = agree_radius(l012, lamp, 8)
    assert (r.n, r.exact) == (5, True)
    rep = find_separating_word(g012, g021, 16)
    assert gen_word_from_free(rep.word) == oracles.SEPARATOR_012_VS_021


# -- relation agreement: fast path vs exhaustive ------------------------------

PAIRS = [
    (FREE2, LAMP),
    (FREE2, TRIV2),
    (LAMP, TRIV2),
    (FREE4, G012),
    (G012, G021),
    (G012, MODEL0),
]


def _agree(h1, h2, max_len):
    """Every freely reduced word of length <= max_len gets one verdict."""
    return find_separating_word(h1, h2, max_len).word is None


@pytest.mark.parametrize("h1,h2", PAIRS)
@pytest.mark.parametrize("max_len", [0, 1, 2, 3, 4, 5])
def test_lockstep_matches_exhaustive(h1, h2, max_len):
    assert _agree(h1, h2, max_len) == (_first_by_enumeration(h1, h2, max_len) is None)


@pytest.mark.parametrize("h1,h2", PAIRS)
def test_relation_agreement_symmetric_and_monotone(h1, h2):
    prev = True
    for L in range(5):
        cur = _agree(h1, h2, L)
        assert cur == _agree(h2, h1, L)
        assert prev or not cur  # once false, stays false
        prev = cur


@pytest.mark.parametrize(
    "h1,h2,target_len",
    [(h1, h2, 8) for h1, h2 in PAIRS]
    + [(L012, LAMP, 12), (G012, G021, 16), (G012, MODEL0, 16), (LAMP, lamplighter_handle(3), 8)],
)
def test_lockstep_partners_match_brute_force(h1, h2, target_len):
    # a joint class is partnered exactly when some other joint class equals
    # it in exactly one group, checked over every pair of classes
    res = marked_space_module._lockstep(h1, h2, target_len)
    pairs = sorted(res.joint, key=res.joint.get)
    assert [res.joint[pair] for pair in pairs] == list(range(len(pairs)))
    expected = [any((a1 == b1) != (a2 == b2) for b1, b2 in pairs) for a1, a2 in pairs]
    assert res.partnered == expected
    assert (res.lam is None) == (not any(expected))


def test_relation_set_lamp_frozen():
    rels = {w for w in _reduced_words(2, 2) if LAMP.trivial(w)}
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


def test_agree_radius_generator_mismatch():
    r = agree_radius(LAMP, TRIV2, 4)
    assert (r.n, r.exact) == (-1, True)


def test_agree_radius_ultrametric_spot():
    # d(x,z) <= max(d(x,y), d(y,z)) reads as n(x,z) >= min(n(x,y), n(y,z))
    n12 = agree_radius(G012, G021, 8).n
    n23 = agree_radius(G021, MODEL0, 8).n
    n13 = agree_radius(G012, MODEL0, 8).n
    assert n13 >= min(n12, n23)


# the Cantor set omega -> L_omega at small radii: exact agreement radii of
# the x/y subgroups, with the horizon n_max each was measured at
L_OMEGA_RADII = [
    ("(012)", "(021)", 4, 3),
    ("(012)", "(102)", 5, 3),
    ("(012)", "(201)", 4, 1),
    ("(12)", "(21)", 4, 1),
    ("0(12)", "0(21)", 5, 3),
    ("00(12)", "00(21)", 9, 7),
    ("2(012)", "2(102)", 8, 7),
    ("(021)", "(102)", 5, 3),
    ("(021)", "(201)", 5, 1),
    ("(102)", "(201)", 5, 1),
]


def test_agree_radius_l_omega_cells_frozen():
    radii = {}
    for om1, om2, n_max, n in L_OMEGA_RADII:
        r = agree_radius(l_subgroup_handle(om1), l_subgroup_handle(om2), n_max)
        assert (r.n, r.exact) == (n, True), (om1, om2)
        radii[om1, om2] = radii[om2, om1] = n
    # n(x, z) >= min(n(x, y), n(y, z)) over every triple of the periodic four
    for x, y, z in itertools.permutations(["(012)", "(021)", "(102)", "(201)"], 3):
        assert radii[x, z] >= min(radii[x, y], radii[y, z]), (x, y, z)


# -- separating words ---------------------------------------------------------

def _first_by_enumeration(h1, h2, max_len):
    assert h1.k == h2.k
    for w in _reduced_words(h1.k, max_len):
        if h1.trivial(w) != h2.trivial(w):
            return w
    return None


@pytest.mark.parametrize(
    "h1,h2,max_len",
    [
        (LAMP, FREE2, 4), (LAMP, TRIV2, 2), (FREE4, G012, 3), (FREE2, TRIV2, 2),
        # length-8 separators: the walk prunes at depth 4 by conflict partners
        (LAMP, L021, 8), (L012, L12, 8), (L012, L021, 8),
    ],
)
def test_separator_is_first_in_enumeration_order(h1, h2, max_len):
    rep = find_separating_word(h1, h2, max_len)
    assert rep.word is not None
    assert rep.word == _first_by_enumeration(h1, h2, max_len)
    assert h1.trivial(rep.word) != h2.trivial(rep.word)
    assert rep.trivial_in == (h1.label if h1.trivial(rep.word) else h2.label)


def test_separator_lamp_vs_free_frozen():
    rep = find_separating_word(LAMP, FREE2, 6)
    assert word_to_str(rep.word, ("s", "t")) == oracles.SEPARATOR_LAMP_VS_FREE
    assert is_square(rep.word)
    assert rep.trivial_in == LAMP.label


def test_separator_012_vs_021_frozen():
    rep = find_separating_word(G012, G021, 16)
    assert gen_word_from_free(rep.word) == oracles.SEPARATOR_012_VS_021
    assert len(rep.word) == 16 and is_square(rep.word)
    assert rep.trivial_in == G021.label
    # confirmed on both sides by the independent tree oracle
    assert oracles.oracle_acts_trivially(oracles.SEPARATOR_012_VS_021, oracles.OMEGA_021, 12)
    assert not oracles.oracle_acts_trivially(oracles.SEPARATOR_012_VS_021, oracles.OMEGA_012, 12)


def test_separator_012_vs_model_needs_no_element_arithmetic(monkeypatch):
    # the model handle multiplies (mask, low, shift, flip) states with images
    # twisted at import, so LampElement and its arithmetic can be broken
    # without changing the separator
    def broken(*args):
        raise AssertionError("element arithmetic in the model handle")

    for name in ("LampElement", "lamp_multiply", "_from_dict", "alpha"):
        monkeypatch.setattr(lamplighter_module, name, broken)
    rep = find_separating_word(grig_handle("(012)"), ext_model_handle(0), 16)
    word = gen_word_from_free(rep.word)
    assert word == "abadabadabadabad"
    assert (len(rep.word), is_square(rep.word), rep.trivial_in) == (16, True, "G_(0)[model]")
    assert oracles.ext_model_oracle(word, "d") == (frozenset(), 0, 0)
    assert not oracles.oracle_acts_trivially(word, oracles.OMEGA_012, 12)


@pytest.mark.parametrize("h1,h2", [(L012, LAMP), (G012, G021)])
def test_separator_scan_multiplies_no_word_from_identity(monkeypatch, h1, h2):
    # the scan grows each word by one letter per multiplication: it folds a
    # word from the identity (_element) no more often than the lockstep it runs
    calls = 0
    element = marked_space_module._element

    def counted(handle, w):
        nonlocal calls
        calls += 1
        return element(handle, w)

    monkeypatch.setattr(marked_space_module, "_element", counted)
    marked_space_module._lockstep(h1, h2, 16)
    lockstep_calls, calls = calls, 0
    assert find_separating_word(h1, h2, 16).word is not None
    assert calls == lockstep_calls


def test_separator_absent_within_bound():
    rep = find_separating_word(G012, G021, 8)
    assert rep == type(rep)(None, None)
    # length 0: only the empty word, trivial everywhere
    assert find_separating_word(G012, G021, 0) == rep


# x = d and y = ab as words over (a, b, c, d), and each x/y letter as the
# oracles' a..d string (every a..d letter is an involution)
_XY = tuple(word_from_str(w, ("a", "b", "c", "d")) for w in ("d", "ab"))
_XY_ORACLE = {(0, 1): "d", (0, -1): "d", (1, 1): "ab", (1, -1): "ba"}


def _model_l_handle(symbol):
    """<d, ab> in the extension model of the constant sequence (symbol)."""
    return subgroup_handle(ext_model_handle(symbol), _XY, ("x", "y"), f"L_({symbol})[model]")


def test_model_l_subgroup_is_lamp2_only_for_symbol_0():
    # the CLI's two-generator handle for every constant omega is lamp2; that
    # matches <d, ab> in the model for symbol 0 up to the horizon, but for
    # symbols 1 and 2 a short word is trivial in the model and not in lamp2
    for symbol, word in ((1, "xyxyxyxy"), (2, "yyyy")):
        rep = find_separating_word(_model_l_handle(symbol), LAMP, 12)
        assert word_to_str(rep.word, ("x", "y")) == word, symbol
        assert rep.trivial_in == f"L_({symbol})[model]"
    r = agree_radius(_model_l_handle(0), LAMP, 6)
    assert (r.n, r.exact) == (6, False)


def _subgroup_parent(parent):
    """The x/y subgroups over the parent, and the oracle's triviality
    verdict on an a..d string."""
    if isinstance(parent, int):
        dead = oracles.dead_letter(parent)
        subgroups = [_model_l_handle(parent)]
        return subgroups, lambda word: oracles.ext_model_oracle(word, dead) == (frozenset(), 0, 0)
    omega, oracle_omega = parent
    subgroups = [subgroup_handle(grig_handle(omega), _XY, ("x", "y"), f"L_{omega}"), l_subgroup_handle(omega)]
    return subgroups, lambda word: oracles.oracle_acts_trivially(word, oracle_omega, 10)


@pytest.mark.parametrize(
    "parent",
    [("(012)", ((), (0, 1, 2))), ("2(01)", ((2,), (0, 1))), ("0(021)", ((0,), (0, 2, 1))), 0, 1, 2],
    ids=["G_(012)", "G_2(01)", "G_0(021)", "model0", "model1", "model2"],
)
def test_subgroup_handle_sweep(parent):
    # every reduced x/y word of length <= 6: the subgroup's oracle agrees
    # with the independent oracle on the word's d/ab spelling, and for u, v
    # of length <= 3 the elements are equal iff that oracle kills u v^-1
    subgroups, oracle = _subgroup_parent(parent)
    verdict = {}
    for w in _reduced_words(2, 6):
        verdict[w.letters] = oracle("".join(_XY_ORACLE[letter] for letter in w.letters))
        for h in subgroups:
            assert h.trivial(w) == verdict[w.letters], (h.label, word_to_str(w, ("x", "y")))
    short = _reduced_words(2, 3)
    for h in subgroups:
        elems = {u.letters: _element(h, u) for u in short}
        for u in short:
            for v in short:
                quotient = oracles.free_normal_form(u.letters + v.inverse().letters)
                assert (elems[u.letters] == elems[v.letters]) == verdict[quotient], (h.label, u, v)
