"""Graph products of cyclic groups over the arithmetic graph T_S.

S is a strictly increasing integer sequence whose difference set S - S is
meant to be all of Z except +-m. The graph T_S has vertex set Z and an edge
between v1 and v2 iff v1 - v2 lies in S - S; the graph product W of copies
of Z_n over T_S, extended by the shift, realizes a wreath-like group in
which exactly the commutators [x, x^{y^i}] with |i| != m die. That is the
engine behind the minimality verdict for the presentation
< s, t | s^n, [s, s^{t^i}] (i >= 1) >.

Two sequence variants are built from the same odd-step gap rule; they differ
in the even-index closed form (multiplier m+1 versus m+2). The original
variant puts m into S - S (for m = 2 via 9 - 7), which defeats the intended
difference set; the corrected variant is the default everywhere and is the
one whose window checks pass. Both are kept so the discrepancy stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

__all__ = [
    "SSpec",
    "build_s_sequence",
    "in_difference_set",
    "ts_adjacent",
    "verify_difference_window",
    "GPWord",
    "gp_empty",
    "gp_syllable",
    "gp_concat",
    "gp_inverse",
    "gp_translate",
    "gp_reduce",
    "ts_predicate",
    "WElement",
    "w_identity",
    "w_multiply",
    "w_inverse",
    "x_gen",
    "y_gen",
    "commutator_trivial",
    "verify_minimality",
]

VARIANTS = ("original", "corrected")


@dataclass(frozen=True, slots=True)
class SSpec:
    """Parameters of the sequence S: the forbidden difference m and variant."""

    m: int
    variant: str = "corrected"

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


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


def ts_predicate(spec: SSpec) -> Callable[[int, int], bool]:
    return lambda u, v: ts_adjacent(u, v, spec)


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
        for k in range(len(seq)):
            for l in range(k + 2, len(seq)):
                if seq[l] - seq[k] <= m:
                    clause_iii = {"pass": False, "witness": {"kind": "two_apart", "pair": [seq[l], seq[k]]}}
                    break
            else:
                continue
            break

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
# Graph-product words


@dataclass(frozen=True, slots=True)
class GPWord:
    """Word in the graph product: syllables (vertex, exponent mod n), n >= 2."""

    syllables: tuple[tuple[int, int], ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("modulus must be >= 2")
        for v, e in self.syllables:
            if not 1 <= e <= self.n - 1:
                raise ValueError(f"syllable exponent {e} out of range 1..{self.n - 1}")

    def __len__(self) -> int:
        return len(self.syllables)


def gp_empty(n: int) -> GPWord:
    return GPWord((), n)


def gp_syllable(vertex: int, exponent: int, n: int) -> GPWord:
    exponent %= n
    if exponent == 0:
        return gp_empty(n)
    return GPWord(((vertex, exponent),), n)


def gp_concat(u: GPWord, v: GPWord) -> GPWord:
    if u.n != v.n:
        raise ValueError("modulus mismatch")
    return GPWord(u.syllables + v.syllables, u.n)


def gp_inverse(u: GPWord) -> GPWord:
    return GPWord(tuple((v, u.n - e) for v, e in reversed(u.syllables)), u.n)


def gp_translate(u: GPWord, z: int) -> GPWord:
    return GPWord(tuple((v + z, e) for v, e in u.syllables), u.n)


def _check_adjacency(adjacent: Callable[[int, int], bool], vertices: set[int]) -> None:
    verts = sorted(vertices)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if adjacent(u, v) != adjacent(v, u):
                raise ValueError(f"adjacency predicate not symmetric on ({u}, {v})")


def gp_reduce(w: GPWord, adjacent: Callable[[int, int], bool]) -> GPWord:
    """Normal form: merge to a fixpoint, then canonical commuting order.

    Leftmost merge: the first syllable that can reach a same-vertex syllable
    across commuting material absorbs it (exponents mod n, zeros drop).
    The fixpoint is merge-free; ordering its syllables by greedily fronting
    the least (vertex, exponent) among those that commute to the front makes
    the form canonical (equal group elements give equal GPWords), which is
    what WElement equality relies on.
    """
    _check_adjacency(adjacent, {v for v, _ in w.syllables})
    n = w.n
    syl = [(v, e % n) for v, e in w.syllables]
    syl = [(v, e) for v, e in syl if e != 0]

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(syl):
            vi, ei = syl[i]
            k = i + 1
            while k < len(syl):
                vk, ek = syl[k]
                if vk == vi:
                    merged = (ei + ek) % n
                    del syl[k]
                    if merged == 0:
                        del syl[i]
                    else:
                        syl[i] = (vi, merged)
                    changed = True
                    break
                if not adjacent(vi, vk):
                    break
                k += 1
            if changed:
                break
            i += 1

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
    return GPWord(tuple(out), n)


# ---------------------------------------------------------------------------
# The extension W = K x| Z (shift acts by translation)


@dataclass(frozen=True, slots=True)
class WElement:
    """Element (word, shift) of the graph product extended by the shift."""

    word: GPWord
    shift: int


def w_identity(n: int) -> WElement:
    return WElement(gp_empty(n), 0)


def w_multiply(u: WElement, v: WElement, adjacent: Callable[[int, int], bool]) -> WElement:
    """(w1, z1)(w2, z2) = (w1 . translate(w2, z1), z1 + z2), reduced."""
    prod = gp_concat(u.word, gp_translate(v.word, u.shift))
    return WElement(gp_reduce(prod, adjacent), u.shift + v.shift)


def w_inverse(u: WElement, adjacent: Callable[[int, int], bool]) -> WElement:
    return WElement(gp_reduce(gp_translate(gp_inverse(u.word), -u.shift), adjacent), -u.shift)


def x_gen(n: int) -> WElement:
    """x: the vertex-0 generator of its Z_n."""
    return WElement(gp_syllable(0, 1, n), 0)


def y_gen(n: int) -> WElement:
    """y: the shift."""
    return WElement(gp_empty(n), 1)


def _conj(u: WElement, g: WElement, adjacent) -> WElement:
    return w_multiply(w_multiply(w_inverse(g, adjacent), u, adjacent), g, adjacent)


def _commutator(u: WElement, v: WElement, adjacent) -> WElement:
    return w_multiply(w_multiply(w_inverse(u, adjacent), w_inverse(v, adjacent), adjacent), w_multiply(u, v, adjacent), adjacent)


def commutator_trivial(i: int, spec: SSpec, n: int) -> bool:
    """Whether [x, x^{y^i}] dies in W; must match the T_S edge prediction."""
    if i == 0:
        raise ValueError("i must be nonzero")
    adjacent = ts_predicate(spec)
    x = x_gen(n)
    yi = WElement(gp_empty(n), i)
    x_conj = _conj(x, yi, adjacent)
    assert x_conj.shift == 0 and len(x_conj.word) == 1, "conjugate of x must be a single syllable"
    result = _commutator(x, x_conj, adjacent)
    verdict = result.shift == 0 and len(result.word) == 0
    predicted = ts_adjacent(0, x_conj.word.syllables[0][0], spec)
    assert verdict == predicted, f"reduction and T_S edge disagree at i={i}"
    assert predicted == in_difference_set(i, spec), "edge test must be translation invariant"
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
    adjacent = ts_predicate(spec)

    indices = range(1, window + 1)
    commutators = [{"i": i, "trivial": commutator_trivial(i, spec, n), "expected": i != m} for i in indices]
    grid_ok = all(row["trivial"] == row["expected"] for row in commutators)

    x = x_gen(n)
    power = x
    for _ in range(n - 1):
        power = w_multiply(power, x, adjacent)
    power_trivial = power.shift == 0 and len(power.word) == 0

    r_m_trivial = commutators[m - 1]["trivial"] if m <= window else commutator_trivial(m, spec, n)
    others_trivial = all(row["trivial"] for row in commutators if row["i"] != m)
    witness_ok = power_trivial and others_trivial and not r_m_trivial

    ok = diff_report["verdict"] == "pass" and grid_ok and witness_ok
    return {
        "schema": 1,
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
