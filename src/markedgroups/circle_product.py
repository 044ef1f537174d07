"""Graph products of cyclic groups over the arithmetic graph T_S.

S is a strictly increasing integer sequence whose difference set S - S is
meant to be all of Z except +-m. The graph T_S has vertex set Z and an edge
between v1 and v2 iff v1 - v2 lies in S - S; the graph product W of copies
of Z_n over T_S, extended by the shift, realizes a wreath-like group in
which exactly the commutators [x, x^{y^i}] with |i| != m die. That is the
engine behind the minimality verdict for the presentation
< s, t | s^n, [s, s^{t^i}] (i >= 1) >.

The graph product K over T_S, the only graph, has canonical normal forms:
`gp_reduce(syllables, n, spec)` reduces a (vertex, exponent) word in one
pass, reading adjacency from the memoized difference set, then fronts it.
An element of W = K x| Z is a pair (syllables, shift) with identity ((), 0);
its product (w1, z1) (w2, z2) = (w1 . translate(w2, z1), z1 + z2) and inverse
(w, z)^-1 = (translate(w^-1, -z), -z) each make one `gp_reduce` call. So x is
(((0, 1),), 0), y is ((), 1), and two W elements are equal iff their pairs are.

Two sequence variants are built from the same odd-step gap rule; they differ
in the even-index closed form (multiplier m+1 versus m+2). The original
variant puts m into S - S (for m = 2 via 9 - 7), which defeats the intended
difference set; the corrected variant is the default everywhere and is the
one whose window checks pass. Both are kept so the discrepancy stays visible.
"""

from __future__ import annotations

from functools import lru_cache

from .words import _Frozen

__all__ = [
    "VARIANTS",
    "SSpec",
    "build_s_sequence",
    "in_difference_set",
    "ts_adjacent",
    "verify_difference_window",
    "gp_reduce",
    "commutator_trivial",
    "verify_minimality",
]

VARIANTS = ("original", "corrected")


class SSpec(_Frozen):
    """Parameters of the sequence S: the forbidden difference m and variant."""

    __slots__ = ("m", "variant")
    m: int
    variant: str

    def __init__(self, m: int, variant: str = "corrected") -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "variant", variant)


def build_s_sequence(spec: SSpec, count: int) -> list[int]:
    """First `count` terms of S.

    a_0 = 0; even indices follow the closed form j*mult + j(j+1)/2 with
    mult = m+1 (original) or m+2 (corrected); odd indices add j+1 while
    j < m-1 and j+2 afterwards. Strictly increasing for both variants.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    m = spec.m
    mult = m + 1 if spec.variant == "original" else m + 2
    seq = []
    for idx in range(count):
        j, odd = divmod(idx, 2)
        even_val = j * mult + j * (j + 1) // 2
        if odd:
            even_val += j + 1 if j < m - 1 else j + 2
        seq.append(even_val)
    assert all(b > a for a, b in zip(seq, seq[1:])), "S must be strictly increasing"
    return seq


@lru_cache(maxsize=1 << 16)
def _in_difference_set(delta: int, m: int, variant: str) -> bool:
    """delta >= 0 membership in S - S, decided exactly on a prefix of S.

    Let a_l - a_k = delta with k < l. Every gap of S is at least 1, so
    l <= k + delta. The gap after index 2j is j+1 or j+2, so a pair with
    k = 2j, or with k = 2j-1 and l >= k+2, has delta >= j+1, hence k <= 2 delta.
    The remaining pairs (k odd, l = k+1) are the even gaps a_{2j+2} - a_{2j+1},
    which equal mult for j < m-1 and mult-1 afterwards (mult as in
    build_s_sequence); their first witnesses sit at k = 1 and k = 2m-1, both
    <= 2 delta because mult-1 >= m. So some witness has l <= 3 delta, and the
    first 3 delta + 1 terms decide membership.
    """
    if delta == 0:
        return True
    seq = build_s_sequence(SSpec(m, variant), 3 * delta + 1)
    terms = set(seq)
    return any(a + delta in terms for a in seq)


def in_difference_set(delta: int, spec: SSpec) -> bool:
    """Whether delta lies in the difference set S - S (symmetric in sign)."""
    return _in_difference_set(abs(delta), spec.m, spec.variant)


def ts_adjacent(v1: int, v2: int, spec: SSpec) -> bool:
    """Edge test in T_S: translation-invariant, so only the difference matters."""
    if v1 == v2:
        raise ValueError("self-adjacency is handled by convention, not queried")
    return in_difference_set(v1 - v2, spec)


def verify_difference_window(spec: SSpec, window: int) -> dict:
    """Three clauses on S - S over |delta| <= window, with witnesses.

    (i) +-m is absent; (ii) every other delta in range is present;
    (iii) the odd-step gap identities and the two-apart inequality
    |a_k - a_l| > m for |k - l| >= 2 hold on the generated prefix.
    """
    if window <= spec.m:
        raise ValueError("window must exceed m")
    m = spec.m
    count = 2 * (m + window) + 24
    seq = build_s_sequence(spec, count)

    clause_i = {"pass": True, "witness": None}
    if in_difference_set(m, spec):
        pair = next((b, a) for i, a in enumerate(seq) for b in seq[i + 1 :] if b - a == m)
        clause_i = {"pass": False, "witness": list(pair)}

    clause_ii = {"pass": True, "witness": None}
    for delta in range(1, window + 1):
        if delta == m:
            continue
        if not in_difference_set(delta, spec):
            clause_ii = {"pass": False, "witness": delta}
            break

    clause_iii = {"pass": True, "witness": None}
    for j in range((count - 1) // 2):
        expected = j + 1 if j < m - 1 else j + 2
        if seq[2 * j + 1] - seq[2 * j] != expected:
            clause_iii = {"pass": False, "witness": {"kind": "odd_gap", "j": j}}
            break
    if clause_iii["pass"]:
        # S increases, so the closest pair at least two apart from k is (k, k + 2)
        k = next((k for k in range(len(seq) - 2) if seq[k + 2] - seq[k] <= m), None)
        if k is not None:
            clause_iii = {"pass": False, "witness": {"kind": "two_apart", "pair": [seq[k + 2], seq[k]]}}

    ok = clause_i["pass"] and clause_ii["pass"] and clause_iii["pass"]
    return {
        "m": m,
        "variant": spec.variant,
        "window": window,
        "clause_i_m_absent": clause_i,
        "clause_ii_rest_present": clause_ii,
        "clause_iii_gap_identities": clause_iii,
        "verdict": "pass" if ok else "fail",
    }


# ---------------------------------------------------------------------------
# Graph-product words: tuples of (vertex, exponent) syllables

Syllables = tuple[tuple[int, int], ...]


def gp_reduce(syllables: Syllables, n: int, spec: SSpec) -> Syllables:
    """Normal form of a word in the graph product of copies of Z_n over T_S, n >= 2.

    One pass keeps the word reduced: each syllable, exponent mod n, scans back
    across syllables of other, adjacent vertices, merges into the first one of
    its own vertex (the pair drops at exponent 0), or is appended at the first
    non-adjacent one. Reduced words for one element differ only by shuffles
    (Green's normal form theorem), so greedily fronting the least (vertex,
    exponent) among the syllables that commute to the front is canonical.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    m, variant = spec.m, spec.variant

    def adjacent(u: int, v: int) -> bool:
        return _in_difference_set(abs(u - v), m, variant)

    syl: list[tuple[int, int]] = []
    for v, e in syllables:
        e %= n
        if e == 0:
            continue
        k = len(syl) - 1
        while k >= 0 and syl[k][0] != v and adjacent(syl[k][0], v):
            k -= 1
        if k >= 0 and syl[k][0] == v:
            e = (syl[k][1] + e) % n
            if e:
                syl[k] = (v, e)
            else:
                del syl[k]
        else:
            syl.append((v, e))

    out: list[tuple[int, int]] = []
    rest = syl
    while rest:
        best = None
        for idx, (v, e) in enumerate(rest):
            # a same-vertex predecessor blocks fronting outright
            if all(u != v and adjacent(u, v) for u, _ in rest[:idx]):
                if best is None or (v, e) < rest[best]:
                    best = idx
        assert best is not None  # the first syllable is always frontable
        out.append(rest[best])
        del rest[best]
    return tuple(out)


# ---------------------------------------------------------------------------
# The extension W = K x| Z: (syllables, shift) pairs, the shift translating


def _w_mul(u: tuple[Syllables, int], v: tuple[Syllables, int], n: int, spec: SSpec) -> tuple[Syllables, int]:
    """(w1, z1)(w2, z2) = (w1 . translate(w2, z1), z1 + z2), reduced."""
    (w1, z1), (w2, z2) = u, v
    return gp_reduce(w1 + tuple((x + z1, e) for x, e in w2), n, spec), z1 + z2


def _w_inverse(u: tuple[Syllables, int], n: int, spec: SSpec) -> tuple[Syllables, int]:
    """(w, z)^-1 = (translate(w^-1, -z), -z), reduced."""
    w, z = u
    return gp_reduce(tuple((x - z, -e) for x, e in reversed(w)), n, spec), -z


def commutator_trivial(i: int, spec: SSpec, n: int) -> bool:
    """Whether [x, x^{y^i}] dies in W; must match the T_S edge prediction.

    x = (((0, 1),), 0) is the vertex-0 generator and y^i = ((), i) the shift,
    so x^{y^i} is the single syllable at vertex -i.
    """
    if i == 0:
        raise ValueError("i must be nonzero")
    x, y_i = (((0, 1),), 0), ((), i)
    x_conj = _w_mul(_w_mul(_w_inverse(y_i, n, spec), x, n, spec), y_i, n, spec)
    assert x_conj == (((-i, 1),), 0), f"x^(y^{i}) must be the syllable at vertex {-i}"
    inverses = _w_mul(_w_inverse(x, n, spec), _w_inverse(x_conj, n, spec), n, spec)
    result = _w_mul(inverses, _w_mul(x, x_conj, n, spec), n, spec)
    verdict = result == ((), 0)
    predicted = ts_adjacent(0, -i, spec)
    assert verdict == predicted, f"reduction and T_S edge disagree at i={i}"
    return verdict


# ---------------------------------------------------------------------------
# Minimality pipeline


def verify_minimality(n: int, m: int, window: int, variant: str = "corrected") -> dict:
    """Full minimality evidence for < s, t | s^n, [s, s^{t^i}] i >= 1 > at index m.

    Pipeline: the difference-window clauses on S, the commutator grid
    [x, x^{y^i}] for 1 <= i <= window against the prediction trivial iff
    i != m, the power relator x^n, and the homomorphism witness: s -> x,
    t -> y kills every relator except r_m, so r_m is not a consequence of
    the others at this resolution.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    spec = SSpec(m, variant)
    diff_report = verify_difference_window(spec, window)

    indices = range(1, window + 1)
    commutators = [{"i": i, "trivial": commutator_trivial(i, spec, n), "expected": i != m} for i in indices]
    grid_ok = all(row["trivial"] == row["expected"] for row in commutators)

    x = (((0, 1),), 0)
    power = x
    for _ in range(n - 1):
        power = _w_mul(power, x, n, spec)
    power_trivial = power == ((), 0)

    r_m_trivial = commutators[m - 1]["trivial"]
    others_trivial = all(row["trivial"] for row in commutators if row["i"] != m)
    witness_ok = power_trivial and others_trivial and not r_m_trivial

    ok = diff_report["verdict"] == "pass" and grid_ok and witness_ok
    return {
        "n": n,
        "m": m,
        "variant": variant,
        "window": window,
        "difference_check": diff_report,
        "commutators": commutators,
        "power_relator": {"exponent": n, "trivial": power_trivial},
        "homomorphism_witness": {
            "relators_checked": len(indices) + 1,
            "others_trivial": others_trivial,
            "r_m_trivial": r_m_trivial,
            "witness_ok": witness_ok,
        },
        "verdict": "pass" if ok else "fail",
    }
