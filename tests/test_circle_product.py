"""Difference-set sequences, graph products, and the minimality pipeline."""

from itertools import product

import pytest

import markedgroups.circle_product as circle_product
import oracles
from markedgroups.circle_product import (
    SSpec,
    _in_difference_set,
    _w_inverse,
    _w_mul,
    build_s_sequence,
    commutator_trivial,
    gp_reduce,
    in_difference_set,
    ts_adjacent,
    verify_difference_window,
    verify_minimality,
)
from markedgroups.sampling import Lcg, sample_gp_syllables

M2_ORIG = SSpec(2, "original")
M2_CORR = SSpec(2, "corrected")


def _rand_word(rng, n, max_syllables, window=9):
    count = rng.randrange(max_syllables + 1)
    return sample_gp_syllables(rng, count, window, n)


def _inverse(w, n):
    return tuple((v, n - e) for v, e in reversed(w))


def _translate(w, z):
    return tuple((v + z, e) for v, e in w)


def _words_up_to(length, letters):
    return [w for k in range(length + 1) for w in product(letters, repeat=k)]


def _edges(spec):
    """The T_S edge test as a predicate, for the oracle."""
    return lambda u, v: ts_adjacent(u, v, spec)


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


def test_verify_difference_window_two_apart_clause_fails(monkeypatch):
    # S with every odd gap intact but a_2 - a_1 = 1, so a_2 - a_0 = 2 <= m:
    # clause iii names the first pair two apart that is too close
    real = build_s_sequence(M2_CORR, 100)
    fake = real[:2] + [a - 3 for a in real[2:]]
    assert all(a < b for a, b in zip(fake, fake[1:]))
    monkeypatch.setattr(circle_product, "build_s_sequence", lambda spec, count: fake[:count])
    _in_difference_set.cache_clear()  # memoized membership would see the fake S
    try:
        rep = verify_difference_window(M2_CORR, 12)
    finally:
        _in_difference_set.cache_clear()
    assert rep["verdict"] == "fail"
    clause = rep["clause_iii_gap_identities"]
    assert clause == {"pass": False, "witness": {"kind": "two_apart", "pair": [2, 0]}}


def test_verify_difference_window_odd_gap_clause_fails(monkeypatch):
    # S with a_7 - a_6 one more than the gap identity allows: clause iii
    # names the first odd step j whose gap is wrong
    real = build_s_sequence(M2_CORR, 100)
    fake = real[:7] + [a + 1 for a in real[7:]]
    assert real[7] - real[6] == 5 and fake[7] - fake[6] == 6
    monkeypatch.setattr(circle_product, "build_s_sequence", lambda spec, count: fake[:count])
    _in_difference_set.cache_clear()  # memoized membership would see the fake S
    try:
        rep = verify_difference_window(M2_CORR, 12)
    finally:
        _in_difference_set.cache_clear()
    assert rep["verdict"] == "fail"
    clause = rep["clause_iii_gap_identities"]
    assert clause == {"pass": False, "witness": {"kind": "odd_gap", "j": 3}}


# -- graph-product words ------------------------------------------------------

def test_gp_reduce_merges_and_cancels():
    n = 3
    assert gp_reduce(((0, 1), (0, 2)), n, M2_CORR) == ()  # exponents mod 3
    assert gp_reduce(((0, 1), (0, 1)), n, M2_CORR) == ((0, 2),)


def test_gp_reduce_commutes_adjacent_vertices():
    n = 2
    spec = M2_CORR
    assert ts_adjacent(0, 1, spec)
    assert gp_reduce(((0, 1), (1, 1)), n, spec) == gp_reduce(((1, 1), (0, 1)), n, spec)
    # non-adjacent vertices (delta = 2 = m) do not commute
    assert gp_reduce(((0, 1), (2, 1)), n, spec) != gp_reduce(((2, 1), (0, 1)), n, spec)


def test_gp_reduce_idempotent_random():
    rng = Lcg(5)
    for _ in range(200):
        w = _rand_word(rng, 2, 10)
        r = gp_reduce(w, 2, M2_CORR)
        assert gp_reduce(r, 2, M2_CORR) == r


def test_gp_reduce_is_congruence_random():
    rng = Lcg(6)
    for _ in range(300):
        u = _rand_word(rng, 2, 6, window=7)
        v = _rand_word(rng, 2, 6, window=7)
        lhs = gp_reduce(gp_reduce(u, 2, M2_CORR) + gp_reduce(v, 2, M2_CORR), 2, M2_CORR)
        assert lhs == gp_reduce(u + v, 2, M2_CORR)


def test_gp_inverse_cancels_random():
    rng = Lcg(7)
    for _ in range(200):
        w = _rand_word(rng, 3, 8)
        assert gp_reduce(w + _inverse(w, 3), 3, M2_CORR) == ()


def test_gp_translate_commutes_with_reduce():
    rng = Lcg(8)
    for _ in range(200):
        w = _rand_word(rng, 2, 8)
        assert gp_reduce(_translate(w, 3), 2, M2_CORR) == _translate(gp_reduce(w, 2, M2_CORR), 3)
        # translation invariance of the defining graph makes this sound
        assert gp_reduce(_translate(w, -2), 2, M2_CORR) == _translate(gp_reduce(w, 2, M2_CORR), -2)


def test_gp_reduce_normalizes_exponents():
    assert gp_reduce(((0, 0),), 2, M2_CORR) == ()
    assert gp_reduce(((0, 2),), 2, M2_CORR) == ()
    assert gp_reduce(((0, -1),), 3, M2_CORR) == ((0, 2),)
    assert gp_reduce(((0, 7), (1, -4)), 3, M2_CORR) == ((0, 1), (1, 2))


def test_gp_reduce_rejects_bad_input():
    with pytest.raises(ValueError):
        gp_reduce(((0, 1),), 1, M2_CORR)


@pytest.mark.parametrize("m", [1, 2])
def test_gp_reduce_n3_sweep_laws(m):
    # every n = 3 word of <= 5 syllables over vertices -1..1, exponents 1..2:
    # the reduction is idempotent and w w^-1 reduces to (); and for u of <= 2
    # and v of <= 3 syllables, reducing the parts first changes nothing
    spec = SSpec(m)
    words = _words_up_to(5, [(v, e) for v in (-1, 0, 1) for e in (1, 2)])
    forms = {w: gp_reduce(w, 3, spec) for w in words}
    for w, form in forms.items():
        assert gp_reduce(form, 3, spec) == form, w
        assert gp_reduce(w + _inverse(w, 3), 3, spec) == (), w
    for u in (w for w in words if len(w) <= 2):
        for v in (w for w in words if len(w) <= 3):
            assert gp_reduce(forms[u] + forms[v], 3, spec) == forms[u + v], (u, v)


# -- reflection-matrix oracle -------------------------------------------------

def test_matrix_oracle_agrees_with_reduction():
    rng = Lcg(9)
    adj = _edges(M2_CORR)
    for _ in range(200):
        w = _rand_word(rng, 2, 10)
        reduced_empty = gp_reduce(w, 2, M2_CORR) == ()
        assert reduced_empty == oracles.racg_matrix_oracle(w, adj, (-4, 4)), w
        # and a guaranteed identity built from the same sample
        ww = w + _inverse(w, 2)
        assert oracles.racg_matrix_oracle(ww, adj, (-4, 4))
        assert gp_reduce(ww, 2, M2_CORR) == ()


@pytest.mark.parametrize("m", [1, 2])
def test_gp_reduce_sweep_against_matrix_oracle(m):
    # every n = 2 word of <= 5 syllables over vertices -2..2: the normal form
    # is () iff the word is trivial; and for u, v of <= 3 syllables the normal
    # forms agree iff u v^-1 is trivial, so equal elements get equal forms
    spec = SSpec(m)
    adj = _edges(spec)
    window = (-2, 2)
    letters = [(v, 1) for v in range(window[0], window[1] + 1)]
    for w in _words_up_to(5, letters):
        assert (gp_reduce(w, 2, spec) == ()) == oracles.racg_matrix_oracle(w, adj, window), w
    short = _words_up_to(3, letters)
    forms = [gp_reduce(w, 2, spec) for w in short]
    for j, (u, fu) in enumerate(zip(short, forms)):
        # both sides are symmetric in u and v, so pairs with v no later suffice
        for v, fv in zip(short[: j + 1], forms):
            assert (fu == fv) == oracles.racg_matrix_oracle(u + _inverse(v, 2), adj, window), (u, v)


def test_matrix_oracle_frozen_cases():
    adj = _edges(M2_CORR)
    assert oracles.racg_matrix_oracle((), adj, (-2, 2))
    assert not oracles.racg_matrix_oracle(((0, 1),), adj, (-2, 2))
    assert oracles.racg_matrix_oracle(((0, 1), (0, 1)), adj, (-2, 2))
    # commutator of adjacent vertices is trivial, of non-adjacent not
    assert adj(0, 1) and not adj(0, 2)
    assert oracles.racg_matrix_oracle(((0, 1), (1, 1), (0, 1), (1, 1)), adj, (-2, 2))
    assert not oracles.racg_matrix_oracle(((0, 1), (2, 1), (0, 1), (2, 1)), adj, (-2, 2))


# -- the W group and minimality reports ---------------------------------------

W_IDENTITY = ((), 0)


def _rand_w(rng, n, spec):
    """A W element: a sampled word in normal form and a shift in -4..4."""
    return gp_reduce(_rand_word(rng, n, 6, window=7), n, spec), rng.randrange(9) - 4


@pytest.mark.parametrize("n", [2, 3])
def test_w_group_laws_on_sampled_elements(n):
    rng = Lcg(10 + n)

    def mul(u, v):
        return _w_mul(u, v, n, M2_CORR)

    for _ in range(100):
        u, v, w = (_rand_w(rng, n, M2_CORR) for _ in range(3))
        assert mul(W_IDENTITY, u) == u == mul(u, W_IDENTITY)
        u_inv = _w_inverse(u, n, M2_CORR)
        assert mul(u, u_inv) == W_IDENTITY == mul(u_inv, u)
        assert mul(mul(u, v), w) == mul(u, mul(v, w))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_w_generator_x_has_order_n(n):
    x = (((0, 1),), 0)
    power = x
    for k in range(1, n):
        assert power != W_IDENTITY, k
        power = _w_mul(power, x, n, M2_CORR)
    assert power == W_IDENTITY


def test_commutator_trivial_rejects_bad_input():
    with pytest.raises(ValueError):
        commutator_trivial(1, M2_CORR, 1)
    with pytest.raises(ValueError):
        commutator_trivial(0, M2_CORR, 2)


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


def test_minimality_rejects_window_not_above_m():
    with pytest.raises(ValueError):
        verify_minimality(2, 5, 5)


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
