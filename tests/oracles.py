"""Independent oracles and frozen constants for the test suite.

Nothing here imports the package under test. Everything is implemented the
slow, obvious way so that agreement with the fast implementations is
evidence, not circularity. Frozen constants were computed from these oracles
(or by hand) before the main implementations existed.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

# ---------------------------------------------------------------------------
# Frozen constants

KLEIN_CASES = [
    ("adabbda", "adada"),
    ("dabd", "dac"),
    ("bcd", ""),
    ("bb", ""),
    ("bc", "d"),
    ("db", "c"),
    ("", ""),
]

FREE_COUNTS_K2 = (1, 5, 17, 53)  # ball sizes in F_2
GAMMA_G012 = (1, 5, 11)  # 4-generator tree group, first sequence
GAMMA_LAMP = (1, 4, 10)  # wreath model on (s, t)
ORDER_AD_012 = 4
ORDER_AB_012 = 16
S_PREFIX_M2_ORIGINAL = (0, 1, 4, 7, 9, 13)
S_PREFIX_M2_CORRECTED = (0, 1, 5, 8, 11, 15)
DIFFERENCE_WITNESS_ORIGINAL = {1: (3, 2), 2: (9, 7), 3: (18, 15)}
LAMP_RELATION_SET_L2 = {"", "ss", "SS"}
SEPARATOR_LAMP_VS_FREE = "ss"
SEPARATOR_012_VS_021 = "abababababababab"

# Spin table: which of the three index-2 letters acts at a given symbol.
# Independent copy; the letter is "dead" at a symbol where its entry is "e".
ORACLE_SPIN = {
    "b": ("a", "a", "e"),
    "c": ("a", "e", "a"),
    "d": ("e", "a", "a"),
}


# ---------------------------------------------------------------------------
# Klein-reduction oracle: exhaustive rewriting, all orders

_PAIR_PRODUCT = {
    ("b", "c"): "d",
    ("c", "b"): "d",
    ("b", "d"): "c",
    ("d", "b"): "c",
    ("c", "d"): "b",
    ("d", "c"): "b",
}


def _rewrites(word: str) -> set[str]:
    out = set()
    for i in range(len(word) - 1):
        u, v = word[i], word[i + 1]
        if u == v:
            out.add(word[:i] + word[i + 2 :])
        elif (u, v) in _PAIR_PRODUCT:
            out.add(word[:i] + _PAIR_PRODUCT[(u, v)] + word[i + 2 :])
    return out


@lru_cache(maxsize=None)
def _normal_forms(word: str) -> frozenset[str]:
    steps = _rewrites(word)
    if not steps:
        return frozenset({word})
    forms: set[str] = set()
    for nxt in steps:
        forms |= _normal_forms(nxt)
    return frozenset(forms)


def klein_oracle(word: str) -> str:
    """Unique irreducible form under every rewriting order; asserts uniqueness."""
    forms = _normal_forms(word)
    assert len(forms) == 1, f"rewriting of {word!r} is not confluent: {sorted(forms)}"
    return next(iter(forms))


# ---------------------------------------------------------------------------
# Tree-action oracle: leaf permutations built recursively, plain lists

def _omega_at(omega: tuple[tuple[int, ...], tuple[int, ...]], i: int) -> int:
    pre, per = omega
    if i < len(pre):
        return pre[i]
    return per[(i - len(pre)) % len(per)]


def _omega_shift(omega):
    pre, per = omega
    if pre:
        return (pre[1:], per)
    return ((), per[1:] + per[:1])


@lru_cache(maxsize=None)
def oracle_letter_perm(letter: str, omega, depth: int) -> tuple[int, ...]:
    """Permutation of the 2^depth leaves, first tree letter as the top bit."""
    size = 1 << depth
    if depth == 0:
        return (0,)
    half = size >> 1
    if letter == "a":
        return tuple(i ^ half for i in range(size))
    spin = ORACLE_SPIN[letter][_omega_at(omega, 0)]
    left = oracle_letter_perm("a", omega, depth - 1) if spin == "a" else tuple(range(half))
    right = oracle_letter_perm(letter, _omega_shift(omega), depth - 1)
    return tuple(left[i] if i < half else half + right[i - half] for i in range(size))


def oracle_word_perm(word: str, omega, depth: int) -> list[int]:
    """Left-to-right action of the word on the depth-level leaves."""
    cur = list(range(1 << depth))
    for letter in word:
        p = oracle_letter_perm(letter, omega, depth)
        cur = [p[c] for c in cur]
    return cur


def oracle_acts_trivially(word: str, omega, depth: int) -> bool:
    size = 1 << depth
    cur = list(range(size))
    for letter in word:
        p = oracle_letter_perm(letter, omega, depth)
        cur = [p[c] for c in cur]
    return cur == list(range(size))


OMEGA_012 = ((), (0, 1, 2))
OMEGA_021 = ((), (0, 2, 1))


# ---------------------------------------------------------------------------
# Brute-force growth oracles

def _tree_words_no_repeat(max_len: int):
    """All words over a,b,c,d without immediate letter repeats (involutive)."""
    frontier = [""]
    yield ""
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in "abcd":
                if w and w[-1] == g:
                    continue
                nxt.append(w + g)
                yield w + g
        frontier = nxt


def brute_gamma_tree(omega, n_max: int, depth: int) -> list[int]:
    """Ball sizes by classifying words through their leaf permutations."""
    seen: dict[tuple[int, ...], int] = {}
    gamma = []
    count_by_len: dict[int, set[int]] = {}
    next_id = 0
    for w in _tree_words_no_repeat(n_max):
        perm = tuple(oracle_word_perm(w, omega, depth))
        if perm not in seen:
            seen[perm] = next_id
            next_id += 1
        count_by_len.setdefault(len(w), set()).add(seen[perm])
    known: set[int] = set()
    for n in range(n_max + 1):
        known |= count_by_len.get(n, set())
        gamma.append(len(known))
    return gamma


def _lamp_mult(u, v):
    """Independent wreath-product multiplication: (lamps, shift) pairs, mod 2."""
    lamps1, z1 = u
    lamps2, z2 = v
    lamps = dict(lamps1)
    for pos, val in lamps2.items():
        lamps[pos + z1] = (lamps.get(pos + z1, 0) + val) % 2
    return ({p: v for p, v in lamps.items() if v}, z1 + z2)


def brute_gamma_lamp(n_max: int) -> list[int]:
    """Ball sizes of the (s, t) marking by word enumeration over 4 letters."""
    s = ({0: 1}, 0)
    t = ({}, 1)
    t_inv = ({}, -1)
    gens = [s, t, t_inv, s]  # s is its own inverse

    def freeze(e):
        lamps, z = e
        return (tuple(sorted(lamps.items())), z)

    ident = ({}, 0)
    layer = [ident]
    seen = {freeze(ident)}
    gamma = [1]
    for _ in range(n_max):
        nxt = []
        for e in layer:
            for g in gens:
                prod = _lamp_mult(e, g)
                key = freeze(prod)
                if key not in seen:
                    seen.add(key)
                    nxt.append(prod)
        layer = nxt
        gamma.append(len(seen))
    return gamma


def lamp_word_element(letters) -> tuple:
    """Element of an (s, t) word, given as (index, sign) pairs, in Z_2 wr Z:
    its lit lamps, sorted, and its cursor."""
    gens = {(0, 1): ({0: 1}, 0), (0, -1): ({0: 1}, 0), (1, 1): ({}, 1), (1, -1): ({}, -1)}
    e = ({}, 0)
    for letter in letters:
        e = _lamp_mult(e, gens[letter])
    lamps, z = e
    return (tuple(sorted(lamps.items())), z)


def free_normal_form(letters) -> tuple:
    """Freely reduced form of a word of (index, sign) pairs, by a stack."""
    out: list = []
    for idx, sign in letters:
        if out and out[-1] == (idx, -sign):
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


def lamp_gamma_closed_form(n_max: int) -> list[int]:
    """Ball sizes of Z_2 wr Z marked (s, t), counted without enumeration.

    An element (lit lamp set A, cursor z) has length |A| plus the shortest
    cursor walk from 0 to z that visits every lit lamp: with lo and hi the
    ends of A, 0 and z, that walk costs 2 (hi - lo) - |z| (Cleary-Taback,
    Dead end words in lamplighter groups, 2005). So sum over (lo, hi, z):
    an end away from both 0 and z must itself be lit, and each of the other
    ``free`` positions of [lo, hi] is lit or not, C(free, i) ways for i lit.
    """
    counts = [0] * (n_max + 1)  # counts[n]: elements of length exactly n
    for lo in range(-n_max, 1):
        for hi in range(n_max + lo + 1):
            for z in range(lo, hi + 1):
                walk = 2 * (hi - lo) - abs(z)
                forced = (lo < min(0, z)) + (hi > max(0, z))
                free = hi - lo + 1 - forced
                for i in range(n_max - walk - forced + 1):
                    counts[walk + forced + i] += comb(free, i)
    gamma, total = [], 0
    for c in counts:
        total += c
        gamma.append(total)
    return gamma


def brute_free_counts(rank: int, n_max: int) -> list[int]:
    """Ball sizes in the free group: direct non-backtracking enumeration."""
    counts = [1]
    layer = 2 * rank
    total = 1
    for i in range(1, n_max + 1):
        total += layer
        counts.append(total)
        layer *= 2 * rank - 1
    return counts


# ---------------------------------------------------------------------------
# Reflection-matrix oracle for right-angled Coxeter groups

def racg_matrix_oracle(syllables, adjacent, window: tuple[int, int]) -> bool:
    """True iff the product of the vertex involutions is the identity.

    ``syllables`` are (vertex, exponent) pairs with exponent 1 (modulus 2);
    ``adjacent(v1, v2)`` says whether two vertices commute. Vertices inside
    the window index coordinates; the bilinear form has 1 on the diagonal, 0
    for adjacent pairs and -1 otherwise, and each vertex acts by an exact
    integer reflection. The representation is faithful for right-angled
    Coxeter groups, so the verdict does not depend on any rewriting.

    The reflection of vertex v is the identity with row v replaced by
    e_v - 2 B[v], so multiplying by it on the right changes each row of the
    product by a multiple of B[v]: row[j] -= 2 row[v] B[v][j].
    """
    lo, hi = window
    for v, e in syllables:
        assert e == 1, "the matrix oracle is for involutions (modulus 2) only"
        if not lo <= v <= hi:
            raise ValueError(f"vertex {v} outside window [{lo}, {hi}]")
    verts = range(lo, hi + 1)
    bform = [[1 if a == b else 0 if adjacent(a, b) else -1 for b in verts] for a in verts]
    identity = [[int(i == j) for j in range(len(verts))] for i in range(len(verts))]
    prod = [row[:] for row in identity]
    for v, _ in syllables:
        brow = bform[v - lo]
        for row in prod:
            c = 2 * row[v - lo]
            if c:
                for j, bj in enumerate(brow):
                    row[j] -= c * bj
    return prod == identity


# ---------------------------------------------------------------------------
# Extension-model oracle: (Z_2 wr Z) x| Z_2 with lamps as a set of positions

# Images of a..d when d is the dead letter, as (lit lamps, shift, flip)
# standing for (lamps, shift) . a^flip; worked out by hand from a = flip,
# d = the lamp at 0, b = a t and c = b d.
ORACLE_EXT_IMAGES = {
    "a": (frozenset(), 0, 1),
    "b": (frozenset(), -1, 1),
    "c": (frozenset({0}), -1, 1),
    "d": (frozenset({0}), 0, 0),
}


def _ext_oracle_mult(u, v):
    """(A, z, f)(B, y, g): a^f reflects B through 1/2 and negates y first."""
    lamps_u, z, f = u
    lamps_v, y, g = v
    if f:
        lamps_v, y = {1 - p for p in lamps_v}, -y
    return (frozenset(lamps_u ^ {z + p for p in lamps_v}), z + y, f ^ g)


def ext_model_oracle(word: str, dead: str = "d"):
    """Value of an a..d word in the extension model, letter by letter.

    The dead letter is the one whose spin entry is e at some symbol; it plays
    d, and the two letters active at that symbol play b and c in
    alphabetical order. Whitespace is skipped and upper case letters are the
    same involutions.
    """
    symbol = ORACLE_SPIN[dead].index("e")
    actives = sorted(x for x in ORACLE_SPIN if ORACLE_SPIN[x][symbol] == "a")
    role = {"a": "a", dead: "d", actives[0]: "b", actives[1]: "c"}
    acc = (frozenset(), 0, 0)
    for ch in word:
        if not ch.isspace():
            acc = _ext_oracle_mult(acc, ORACLE_EXT_IMAGES[role[ch.lower()]])
    return acc
