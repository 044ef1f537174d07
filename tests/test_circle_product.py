"""Difference-set sequences, graph products, and the minimality pipeline."""

import pytest
from hypothesis import given, strategies as st

import oracles
from markedgroups.circle_product import (
    GPWord,
    SSpec,
    build_s_sequence,
    commutator_trivial,
    gp_concat,
    gp_empty,
    gp_inverse,
    gp_reduce,
    gp_syllable,
    gp_translate,
    in_difference_set,
    ts_adjacent,
    ts_predicate,
    verify_difference_window,
    verify_minimality,
    w_identity,
    w_inverse,
    w_multiply,
    x_gen,
    y_gen,
)
from markedgroups.sampling import Lcg, sample_gp_syllables

M2_ORIG = SSpec(2, "original")
M2_CORR = SSpec(2, "corrected")


def _rand_word(rng, n, max_syllables, window=9):
    count = rng.randrange(max_syllables + 1)
    return GPWord(sample_gp_syllables(rng, count, window, n), n)


# -- sequences ----------------------------------------------------------------

def test_s_sequence_frozen_prefixes():
    assert tuple(build_s_sequence(M2_ORIG, 6)) == oracles.S_PREFIX_M2_ORIGINAL
    assert tuple(build_s_sequence(M2_CORR, 6)) == oracles.S_PREFIX_M2_CORRECTED


def test_s_sequence_strictly_increasing():
    for m in (1, 2, 3, 5):
        for variant in ("original", "corrected"):
            seq = build_s_sequence(SSpec(m, variant), 40)
            assert all(a < b for a, b in zip(seq, seq[1:]))


def test_sspec_validation():
    with pytest.raises(ValueError):
        SSpec(0)
    with pytest.raises(ValueError):
        SSpec(2, "patched")


def test_difference_set_contains_small_deltas():
    # both variants: every 0 < delta < m-ish window except the excluded one
    for m in (2, 3):
        spec = SSpec(m, "corrected")
        present = [d for d in range(1, 2 * m + 2) if in_difference_set(d, spec)]
        assert m not in present
        assert set(present) == set(range(1, 2 * m + 2)) - {m}


def test_difference_set_original_collision():
    # the original recurrence admits delta = m for m >= 2: frozen witnesses
    for m, (hi, lo) in oracles.DIFFERENCE_WITNESS_ORIGINAL.items():
        spec = SSpec(m, "original")
        seq = build_s_sequence(spec, 40)
        assert hi in seq and lo in seq
        assert hi - lo == m
        assert in_difference_set(m, spec)


def test_difference_set_matches_brute_force():
    # membership is decided on a short prefix; compare with every pair of a
    # prefix far longer than any pair differing by <= 80 can reach
    for variant in ("original", "corrected"):
        for m in range(1, 13):
            spec = SSpec(m, variant)
            seq = build_s_sequence(spec, 400)
            brute = set()
            for i, a in enumerate(seq):
                for b in seq[i + 1 :]:
                    if b - a > 80:
                        break
                    brute.add(b - a)
            for delta in range(1, 81):
                assert in_difference_set(delta, spec) == (delta in brute), (variant, m, delta)


def test_difference_set_symmetric():
    spec = M2_CORR
    for d in range(-8, 9):
        assert in_difference_set(d, spec) == in_difference_set(-d, spec)
    # delta 0 is declared present by convention; the edge predicate refuses it
    assert in_difference_set(0, spec)


def test_ts_adjacency():
    spec = M2_CORR
    assert ts_adjacent(0, 1, spec)
    assert not ts_adjacent(0, 2, spec)  # delta = m = 2 excluded
    assert ts_adjacent(3, 0, spec)
    with pytest.raises(ValueError):
        ts_adjacent(1, 1, spec)
    pred = ts_predicate(spec)
    assert pred(5, 6) == ts_adjacent(5, 6, spec)


def test_verify_difference_window_corrected_passes():
    for m in (1, 2, 3):
        rep = verify_difference_window(SSpec(m, "corrected"), 12)
        assert rep["verdict"] == "pass", rep
        assert rep["clause_i_m_absent"]["pass"]
        assert rep["clause_ii_rest_present"]["pass"]
        assert rep["clause_iii_gap_identities"]["pass"]


def test_verify_difference_window_original_fails_with_witness():
    rep = verify_difference_window(SSpec(2, "original"), 12)
    assert rep["verdict"] == "fail"
    assert not rep["clause_i_m_absent"]["pass"]
    hi, lo = rep["clause_i_m_absent"]["witness"]
    assert hi - lo == 2
    assert (hi, lo) == oracles.DIFFERENCE_WITNESS_ORIGINAL[2]


# -- graph-product words ------------------------------------------------------

def _adj(spec):
    return ts_predicate(spec)


def test_gp_reduce_merges_and_cancels():
    n = 3
    w = gp_concat(gp_syllable(0, 1, n), gp_syllable(0, 2, n))
    assert gp_reduce(w, _adj(M2_CORR)) == gp_empty(n)  # exponents mod 3
    w = gp_concat(gp_syllable(0, 1, n), gp_syllable(0, 1, n))
    assert gp_reduce(w, _adj(M2_CORR)) == gp_syllable(0, 2, n)


def test_gp_reduce_commutes_adjacent_vertices():
    n = 2
    spec = M2_CORR
    a = gp_concat(gp_syllable(0, 1, n), gp_syllable(1, 1, n))
    b = gp_concat(gp_syllable(1, 1, n), gp_syllable(0, 1, n))
    assert ts_adjacent(0, 1, spec)
    assert gp_reduce(a, _adj(spec)) == gp_reduce(b, _adj(spec))
    # non-adjacent vertices (delta = 2 = m) do not commute
    c = gp_concat(gp_syllable(0, 1, n), gp_syllable(2, 1, n))
    d = gp_concat(gp_syllable(2, 1, n), gp_syllable(0, 1, n))
    assert gp_reduce(c, _adj(spec)) != gp_reduce(d, _adj(spec))


def test_gp_reduce_idempotent_random():
    rng = Lcg(5)
    adj = _adj(M2_CORR)
    for _ in range(200):
        w = _rand_word(rng, 2, 10)
        r = gp_reduce(w, adj)
        assert gp_reduce(r, adj) == r


def test_gp_reduce_is_congruence_random():
    rng = Lcg(6)
    adj = _adj(M2_CORR)
    for _ in range(300):
        u = _rand_word(rng, 2, 6, window=7)
        v = _rand_word(rng, 2, 6, window=7)
        lhs = gp_reduce(gp_concat(gp_reduce(u, adj), gp_reduce(v, adj)), adj)
        assert lhs == gp_reduce(gp_concat(u, v), adj)


def test_gp_inverse_cancels_random():
    rng = Lcg(7)
    adj = _adj(M2_CORR)
    for _ in range(200):
        w = _rand_word(rng, 3, 8)
        assert gp_reduce(gp_concat(w, gp_inverse(w)), adj) == gp_empty(3)


def test_gp_translate_commutes_with_reduce():
    rng = Lcg(8)
    adj = _adj(M2_CORR)
    for _ in range(200):
        w = _rand_word(rng, 2, 8)
        assert gp_reduce(gp_translate(w, 3), adj) == gp_translate(gp_reduce(w, adj), 3)
        # translation invariance of the defining graph makes this sound
        assert gp_reduce(gp_translate(w, -2), adj) == gp_translate(
            gp_reduce(w, adj), -2
        )


def test_gp_syllable_normalizes_exponent():
    assert gp_syllable(0, 0, 2) == gp_empty(2)
    assert gp_syllable(0, 2, 2) == gp_empty(2)
    assert gp_syllable(0, -1, 3) == gp_syllable(0, 2, 3)
    with pytest.raises(ValueError):
        GPWord(((0, 2),), 2)  # raw constructor does validate
    with pytest.raises(ValueError):
        GPWord(((0, 0),), 3)


# -- reflection-matrix oracle -------------------------------------------------

def test_matrix_oracle_agrees_with_reduction():
    rng = Lcg(9)
    adj = _adj(M2_CORR)
    for _ in range(200):
        w = _rand_word(rng, 2, 10)
        reduced_empty = len(gp_reduce(w, adj).syllables) == 0
        assert reduced_empty == oracles.racg_matrix_oracle(w.syllables, adj, (-4, 4)), w
        # and a guaranteed identity built from the same sample
        ww = gp_concat(w, gp_inverse(w))
        assert oracles.racg_matrix_oracle(ww.syllables, adj, (-4, 4))
        assert len(gp_reduce(ww, adj).syllables) == 0


def test_matrix_oracle_frozen_cases():
    adj = _adj(M2_CORR)
    assert oracles.racg_matrix_oracle((), adj, (-2, 2))
    assert not oracles.racg_matrix_oracle(((0, 1),), adj, (-2, 2))
    assert oracles.racg_matrix_oracle(((0, 1), (0, 1)), adj, (-2, 2))
    # commutator of adjacent vertices is trivial, of non-adjacent not
    assert adj(0, 1) and not adj(0, 2)
    assert oracles.racg_matrix_oracle(((0, 1), (1, 1), (0, 1), (1, 1)), adj, (-2, 2))
    assert not oracles.racg_matrix_oracle(((0, 1), (2, 1), (0, 1), (2, 1)), adj, (-2, 2))


# -- the W group and minimality reports ---------------------------------------

def test_w_group_laws():
    spec = M2_CORR
    adj = _adj(spec)
    x, y = x_gen(2), y_gen(2)
    e = w_identity(2)
    assert w_multiply(x, x, adj) == e  # x is an involution in the n=2 case
    assert w_multiply(y, w_inverse(y, adj), adj) == e
    xy = w_multiply(x, y, adj)
    assert w_multiply(w_inverse(xy, adj), xy, adj) == e


def test_commutator_grid_matches_difference_predicate():
    for m in (1, 2, 3):
        spec = SSpec(m, "corrected")
        for i in range(-8, 9):
            if i == 0:
                continue
            # commuting corresponds to an edge of T_S, i.e. membership
            expected = in_difference_set(i, spec)
            assert commutator_trivial(i, spec, 2) == expected, (m, i)
            assert expected == (abs(i) != m) or abs(i) > 2 * m + 1


def test_minimality_corrected_passes():
    for n, m in [(2, 1), (2, 2), (3, 2)]:
        rep = verify_minimality(n, m, 10)
        assert rep["verdict"] == "pass", rep
        assert rep["power_relator"]["trivial"]
        assert rep["homomorphism_witness"]["witness_ok"]
        assert all(c["trivial"] == c["expected"] for c in rep["commutators"])


def test_minimality_original_fails_for_m2():
    rep = verify_minimality(2, 2, 10, variant="original")
    assert rep["verdict"] == "fail"
    w = rep["homomorphism_witness"]
    assert w["others_trivial"] and w["r_m_trivial"] and not w["witness_ok"]


def test_minimality_report_shape_and_determinism():
    rep = verify_minimality(2, 1, 8)
    assert rep["schema"] == 1
    assert set(rep) == {
        "schema",
        "n",
        "m",
        "variant",
        "window",
        "difference_check",
        "commutators",
        "power_relator",
        "homomorphism_witness",
        "verdict",
    }
    assert rep == verify_minimality(2, 1, 8)
