"""A family of binary-rooted-tree automorphism groups with decidable word problem.

Each group in the family is generated by four involutions a, b, c, d acting on
the infinite binary tree, parameterized by an eventually periodic sequence
omega over {0, 1, 2}. The letter a swaps the two level-1 subtrees; each of
b, c, d fixes level 1, acts on the 0-subtree through a spin table entry
(either a or the identity, selected by the first symbol of omega) and acts on
the 1-subtree as the same letter for the shifted sequence.

Spin tables (asserted at import):

    symbol   0  1  2
    b        a  a  e
    c        a  e  a
    d        e  a  a

Words act left to right: act("ab", omega, v) applies a first, then b.
Conjugation is h^g = g^{-1} h g throughout the package.

The word problem is solved by contraction: Klein-reduce, kill odd a-parity,
and recurse on the two level-1 sections, whose lengths drop below the parent's.
It runs on (word, id) pairs: each omega's shift orbit is interned once into
tables indexed by an int id, with one memo of verdicts per id, and one scan
upper-cases the letters after an odd number of a's so that each section is
one ``str.translate``. This
requires omega not eventually constant (the tree action is not faithful
there); a constant sequence (s) is served by the wreath model of
:func:`markedgroups.handles.ext_model_handle` for its symbol s.

Every element also has an exact key (:class:`TreeKeys`): the interned triple
(root parity, key of section 0, key of section 1). A key is multiplied by a
letter through its sections, and the recursion closes off at the minimized
automaton of the Klein forms of length <= 2, which are closed under sections.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .words import _Frozen, klein_reduce

__all__ = [
    "SPIN",
    "OmegaWord",
    "parse_omega",
    "EventuallyConstantError",
    "act",
    "root_parity",
    "sections",
    "is_trivial",
    "TreeKeys",
    "order_of",
    "translate_L_word",
    "limit_trivial",
]


SPIN: dict[str, tuple[str, str, str]] = {
    "b": ("a", "a", "e"),
    "c": ("a", "e", "a"),
    "d": ("e", "a", "a"),
}

# Startup sanity: each symbol kills exactly one of b, c, d.
for _sym in range(3):
    assert sorted(SPIN[x][_sym] for x in "bcd") == ["a", "a", "e"]


class EventuallyConstantError(ValueError):
    """Raised when an operation needs a faithful tree action but omega is
    eventually constant."""


class OmegaWord(_Frozen):
    """Eventually periodic sequence over {0,1,2}: preperiod then repeated period.

    Canonicalized on construction: the period is made primitive (shortest),
    and any preperiod tail that merely repeats the periodic part is absorbed
    into a rotation of the period. Two OmegaWords are equal iff they denote
    the same infinite sequence.
    """

    __slots__ = ("preperiod", "period")
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]) -> None:
        pre, per = tuple(preperiod), tuple(period)
        if not per:
            raise ValueError("period must be nonempty")
        for sym in pre + per:
            if sym not in (0, 1, 2):
                raise ValueError("symbols must be 0, 1 or 2")
        # primitive period
        n = len(per)
        for d in range(1, n + 1):
            if n % d == 0 and per == per[:d] * (n // d):
                per = per[:d]
                break
        # absorb preperiod tail into the period by rotating
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = (per[-1],) + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def at(self, i: int) -> int:
        """Symbol at 0-based position i (the paper-style omega_{i+1})."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    @property
    def first(self) -> int:
        return self.at(0)

    def shift(self) -> "OmegaWord":
        """Drop the first symbol (the tau map)."""
        if self.preperiod:
            return OmegaWord(self.preperiod[1:], self.period)
        return OmegaWord((), self.period[1:] + self.period[:1])

    @property
    def eventually_constant(self) -> bool:
        return len(self.period) == 1

    @property
    def constant(self) -> bool:
        return len(self.period) == 1 and not self.preperiod

    def __str__(self) -> str:
        return "".join(map(str, self.preperiod)) + "(" + "".join(map(str, self.period)) + ")"


_OMEGA_RE = re.compile(r"^([012]*)\(([012]+)\)$")


def parse_omega(text: str) -> OmegaWord:
    """Parse the text form "<preperiod>(<period>)", e.g. "000(012)" or "(0)"."""
    m = _OMEGA_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad omega string {text!r}; expected like '01(012)' or '(0)'")
    return OmegaWord(tuple(map(int, m.group(1))), tuple(map(int, m.group(2))))


def root_parity(w: str) -> int:
    """Parity of the a-count: 1 means the word swaps the level-1 subtrees."""
    return w.count("a") % 2


# per interned omega id: the id of its shift, its two section tables and the
# contraction's memo of verdicts on Klein-reduced words of length >= 2 and
# even a-parity; a memo that reaches _MEMO_BOUND entries is cleared
_OMEGA_IDS: dict[OmegaWord, int] = {}
_NEXT: list[int] = []
_TABLES: list[tuple[dict[int, str], dict[int, str]]] = []
_MEMOS: list[dict[str, bool]] = []
_MEMO_BOUND = 1 << 20


def _omega_id(omega: OmegaWord, faithful: bool = True) -> int:
    """Id of omega. The first call interns omega, omega.shift(), ... until the
    orbit closes on its period start or on an orbit interned before. Unless
    faithful is False, an eventually constant omega raises: its tree action is
    not faithful, so the contraction would answer for the wrong group."""
    if faithful and omega.eventually_constant:
        raise EventuallyConstantError(
            f"omega {omega} is eventually constant; use the wreath model (handles.ext_model_handle) or limit_trivial instead"
        )
    om = omega
    while om not in _OMEGA_IDS:
        _OMEGA_IDS[om] = len(_NEXT)
        # the scan writes a letter in lower case on side 0, in upper case on side 1
        spin = {x: SPIN[x][om.first].replace("e", "") for x in "bcd"}
        t0 = {**spin, "B": "b", "C": "c", "D": "d"}
        t1 = {x.upper(): y for x, y in spin.items()}
        _TABLES.append((str.maketrans(t0), str.maketrans(t1)))
        _MEMOS.append({})
        om = om.shift()
        _NEXT.append(_OMEGA_IDS.get(om, len(_NEXT) + 1))
    return _OMEGA_IDS[omega]


def _level1_words(w: str, omega_id: int) -> tuple[str, str]:
    """The one section scan: the words w_0, w_1 on the subtrees, not reduced.

    The letters after an odd number of a's are upper-cased, then one translate
    per side maps the letters of its own side to their spin entries and the
    others to themselves. With p the a-parity, w sends y v to (y ^ p) w_y(v),
    so this holds for odd words too, such as TreeKeys' single "a"."""
    parts = w.split("a")
    parts[1::2] = map(str.upper, parts[1::2])
    marked = "".join(parts)
    t0, t1 = _TABLES[omega_id]
    return marked.translate(t0), marked.translate(t1)


def sections(w: str, omega: OmegaWord) -> tuple[str, str]:
    """The pair (w0, w1) of level-1 sections, Klein-reduced, over the shifted omega.

    Requires even a-parity (odd-parity words do not stabilize level 1).
    """
    if root_parity(w) != 0:
        raise ValueError("sections are defined for even a-parity words only")
    w0, w1 = _level1_words(w, _omega_id(omega, faithful=False))
    return klein_reduce(w0), klein_reduce(w1)


def act(w: str, omega: OmegaWord, v: str) -> str:
    """Image of the vertex v (a string over 01) under w, first letter first.

    The section scan applied level by level: with p the a-parity of w, w
    sends x u to (x ^ p) w_x(u), so each letter of v is flipped by p and w
    moves on to its section at that letter, over the shifted omega.
    """
    if v.strip("01"):
        raise ValueError(f"vertex {v!r} is not a string over 01")
    w = klein_reduce(w)
    omega_id = _omega_id(omega, faithful=False)
    image = []
    for x in map(int, v):
        image.append("01"[x ^ root_parity(w)])
        w = klein_reduce(_level1_words(w, omega_id)[x])
        omega_id = _NEXT[omega_id]
    return "".join(image)


def _is_trivial_reduced(w: str, omega_id: int) -> bool:
    if not w:
        return True
    # b, c and d are nontrivial, since omega is not eventually constant
    if len(w) == 1 or w.count("a") & 1:
        return False
    memo = _MEMOS[omega_id]
    out = memo.get(w)
    if out is None:
        w0, w1 = _level1_words(w, omega_id)
        tau = _NEXT[omega_id]
        out = _is_trivial_reduced(klein_reduce(w0), tau) and _is_trivial_reduced(klein_reduce(w1), tau)
        if len(memo) >= _MEMO_BOUND:
            memo.clear()
        memo[w] = out
    return out


def is_trivial(w: str, omega: OmegaWord) -> bool:
    """Decide whether w represents the identity, by contraction (eventually
    constant omega raises: this procedure would answer for the wrong group)."""
    omega_id = _omega_id(omega)
    return _is_trivial_reduced(klein_reduce(w), omega_id)


# ---------------------------------------------------------------------------
# Exact element keys


class TreeKeys:
    """Exact integer keys for the elements of one G_omega: equal iff equal elements.

    An element is determined by its root parity and its two level-1
    sections over the shifted omega, so its key is the interned triple
    (root parity, key of section 0, key of section 1). With the convention
    g(xv) = (x ^ p) g_x(v) and words acting left to right, the product of
    g = (p; g_0, g_1) and h = (q; h_0, h_1) is (p ^ q; g_0 h_p, g_1 h_{1-p}).

    The tree handles use a key as the element itself and multiply it by one
    letter at a time (:meth:`mul`). The sections of an element whose
    shortest word has n >= 2 letters have shortest words of fewer letters,
    so the recursion of a product ends at e or a letter times a letter: a
    Klein form of length <= 2, whose sections have length <= 1. These forms
    at each shift of omega make a finite automaton, since omega is eventually
    periodic, with transitions from the word problem's section scan. It is
    minimized once by Moore partition refinement (two shifts with the same
    successor can carry one element: c at 0(012) and at (201) is (a, c) over
    (012)), and each class's triple is registered up front, so a product that
    equals a short form gets that form's key.

    Keys compare only within one table, and a table serves one omega: make
    one per handle and never share it across omegas. Products grow the
    table without a lock, so use each table from one thread.
    """

    def __init__(self, omega: OmegaWord):
        # the interned shift orbit of omega, and the shift index of omega.shift()
        orbit = [_omega_id(omega)]
        while _NEXT[orbit[-1]] not in orbit:
            orbit.append(_NEXT[orbit[-1]])
        self._next = [orbit.index(_NEXT[i]) for i in orbit]

        # the automaton: state -> (parity, section state 0, section state 1).
        # A state (w, j) is a Klein form of length <= 2 at shift j; its
        # sections have length <= 1, so the states are closed under sections
        states = [(w, j) for j in range(len(orbit)) for w in ("", *"abcd", "ab", "ac", "ad", "ba", "ca", "da")]
        succ = {}
        for w, j in states:
            w0, w1 = _level1_words(w, orbit[j])
            succ[w, j] = (root_parity(w), (w0, self._next[j]), (w1, self._next[j]))
        # Moore refinement: split blocks by (parity, block of each section)
        block = {s: succ[s][0] for s in states}
        while True:
            ids: dict[tuple[int, int, int], int] = {}
            refined = {s: ids.setdefault((block[s], block[succ[s][1]], block[succ[s][2]]), len(ids)) for s in states}
            stable = len(ids) == len(set(block.values()))
            block = refined
            if stable:
                break
        # one triple per class, since distinct classes are distinct elements
        self._intern: dict[tuple[int, int, int], int] = {}
        self._triples: list[tuple[int, int, int]] = [(0, 0, 0)] * len(ids)
        for s in states:
            triple = (succ[s][0], block[succ[s][1]], block[succ[s][2]])
            self._intern[triple] = block[s]
            self._triples[block[s]] = triple
        self.identity = block["", 0]
        # a letter's transition, and the products of e or a letter with a
        # letter, which end the recursion of mul
        self._letters = {s: (succ[s][0], succ[s][1][0], succ[s][2][0]) for s in states if len(s[0]) == 1}
        self._memo = {
            (block[u, j], x, j): block[klein_reduce(u + x), j] for u, j in states if len(u) < 2 for x in "abcd"
        }

    def mul(self, k: int, letter: str, j: int = 0) -> int:
        """Key of (element k) . letter, both over omega shifted j times."""
        out = self._memo.get((k, letter, j))
        if out is None:
            p, k0, k1 = self._triples[k]
            q, s0, s1 = self._letters[letter, j]
            if p:
                s0, s1 = s1, s0
            nj = self._next[j]
            triple = (p ^ q, self.mul(k0, s0, nj) if s0 else k0, self.mul(k1, s1, nj) if s1 else k1)
            out = self._intern.get(triple)
            if out is None:
                out = self._intern[triple] = len(self._triples)
                self._triples.append(triple)
            self._memo[k, letter, j] = out
        return out


# ---------------------------------------------------------------------------
# Orders, the index-2 subgroup dictionary, limits, constant routing


def order_of(w: str, omega: OmegaWord, max_exp: int = 10) -> int | None:
    """Order of w when it is a power of two <= 2^max_exp, else None.

    Repeated squaring. G_omega is a 2-group exactly when each of 0, 1 and 2
    occurs in the period of omega (Grigorchuk 1984); only then does None
    signal just that max_exp was too small. Otherwise None may mean infinite
    order: in G_(01), b = (a, b) at every level, so (ab)^2 = (ba, ab) over
    the shifted sequence and ab has infinite order.
    """
    omega_id = _omega_id(omega)
    cur = klein_reduce(w)
    for k in range(max_exp + 1):
        if k:
            cur = klein_reduce(cur + cur)
        if _is_trivial_reduced(cur, omega_id):
            return 1 << k
    return None


_L_LETTERS = str.maketrans({"x": "d", "X": "d", "y": "ab", "Y": "ba"})


def translate_L_word(w: str) -> str:
    """Rewrite a word over x, y (uppercase = inverse) into the a..d alphabet.

    x maps to d (an involution) and y to ab, so the image generates the
    index-2 subgroup <d, ab>. The result is Klein-reduced.
    """
    if bad := re.search("[^xyXY]", w):
        raise ValueError(f"unknown L-generator {bad.group()!r}; expected x, y, X or Y")
    return klein_reduce(w.translate(_L_LETTERS))


@lru_cache(maxsize=128)
def _window_id(k: int) -> int:
    """Interned id of the sequence 0^k(012)... of the limit window."""
    return _omega_id(OmegaWord((0,) * k, (0, 1, 2)))


def limit_trivial(w: str, k_range: range | None = None) -> bool | None:
    """Stabilized verdict for the limit of the all-zero-prefix subfamily.

    Evaluates is_trivial(w) in the groups for 0^k(012)... with k running over
    the window; returns the common verdict when all agree and None (unstable)
    otherwise. The default window is k = b + 2, ..., b + 6, for b the bit
    length of the reduced word's length: the contraction reads omega only
    below position b, where every k in the window has zeros. w is reduced
    once, and each 0^k(012) maps to an interned id whose shift orbit runs
    through the ids of 0^{k-1}(012), ..., so the window's contractions share
    the per-id memos of the shifts they pass through: 0^k(012) at depth j
    uses the memo of 0^{k-j}(012), which is the root memo of the window's
    k - j if in range.
    """
    w = klein_reduce(w)
    if k_range is None:
        base = len(w).bit_length() + 2
        k_range = range(base, base + 5)
    if len(k_range) < 3:
        raise ValueError("stability window needs at least 3 values")
    verdicts = {_is_trivial_reduced(w, _window_id(k)) for k in k_range}
    if len(verdicts) == 1:
        return verdicts.pop()
    return None

