"""Exact normal forms for the lamplighter group Z_n wr Z and its Z_2 extension.

A ``LampElement`` is a finitely supported lamp configuration f: Z -> Z_n
together with a shift z. Multiplication follows

    (f1, z1)(f2, z2) = (f1 + shift_{z1}(f2), z1 + z2),   shift_z(f)(i) = f(i - z),

with the marked generators s = one lamp at position 0 and t = bare shift 1.
Under this law s conjugated by t^i is the lamp at position -i.

The extension is built over Z_2 wr Z only, since the lamp generator stands
for the involution d. It adjoins an involution acting by the automorphism
alpha with alpha(s) = t s t^{-1} and alpha(t) = t^{-1}. On normal forms this
is the reflection alpha(f, z) = (i -> f(1 - i), -z): the unique involutive
companion of t -> t^{-1} consistent with the a..d generator dictionary below
(the other candidate reflection, f(-1-i), would send s to t^{-1} s t and
break c^2 = e).

Generator dictionary for the tree-family letters of the constant sequence
(0), where d is the dead letter (its spin entry is e):

    a -> (identity, flip)      d -> (s, no flip)
    b -> a . t                 c -> b . d

so that the product ab evaluates to (t, no flip). The constant sequence (s)
for symbol s = 1, 2 gets the same images relabelled from ``grigorchuk.SPIN``:
the letter dead at s takes d's image and the two letters active at s take
b's and c's, in alphabetical order. Any assignment of the two actives works:
the model has an automorphism swapping its b and c images while fixing the
other two generators. The three dictionaries, indexed by symbol, are built
once at import, where all five defining relations a^2, b^2, c^2, d^2, bcd
are verified for each of them.

The extension has no element type: it works on one normal form, a state
tuple (mask, low, shift, flip) standing for (lamps, shift) . a^flip. Bit i
of mask is the lamp at low + i, and mask is odd, or mask and low are both
0, so equal elements are equal tuples. Right multiplication by (base, f)
adds twist^flip(base) at the cursor: the masks are aligned and XORed, the
shifts added and the flips XORed. The twist is ``alpha``, which acts on
states directly: it reverses the mask, moves low to the reflected end and
negates the shift. It is read as the module global when a product or report
is set up (the identity for the structure report's negative control), so no
``LampElement`` is built for it.

Every a..d word is one fold: one ``ext_state_mul`` per letter, by the
letter's image twisted ahead of time for the current flip. The tables of
twisted images, one pair per symbol over the four lower-case letters, are
built once at import; the structure report builds its own pair from its
twist. ``eval_abcd_state`` folds a word over these tables, and the
extension-model handle multiplies by them one letter at a time.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .grigorchuk import SPIN
from .words import FreeWord, _Frozen

__all__ = [
    "LampElement",
    "EXT_STATE_IDENTITY",
    "ext_state_mul",
    "ext_pretwisted_images",
    "eval_abcd_state",
    "lamp_identity",
    "lamp_s",
    "lamp_t",
    "lamp_multiply",
    "lamp_inverse",
    "alpha",
    "eval_st_word",
    "t_n_word",
    "structure_report",
]


class LampElement(_Frozen):
    """Normal form (lamps, shift) in Z_n wr Z; lamps store nonzero values only."""

    __slots__ = ("n", "lamps", "shift")
    n: int
    lamps: tuple[tuple[int, int], ...]  # sorted (position, value), value in 1..n-1
    shift: int

    def __init__(self, n: int, lamps: tuple[tuple[int, int], ...], shift: int) -> None:
        if n < 2:
            raise ValueError("modulus must be >= 2")
        positions = [p for p, _ in lamps]
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            raise ValueError("lamps must be sorted by position with unique positions")
        for _, v in lamps:
            if not 0 < v < n:
                raise ValueError("lamp values must be nonzero residues")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lamps", lamps)
        object.__setattr__(self, "shift", shift)


def _from_dict(n: int, lamps: dict[int, int], shift: int) -> LampElement:
    items = tuple(sorted((p, v % n) for p, v in lamps.items() if v % n))
    return LampElement(n, items, shift)


def lamp_identity(n: int = 2) -> LampElement:
    return LampElement(n, (), 0)


def lamp_s(n: int = 2) -> LampElement:
    return _from_dict(n, {0: 1}, 0)


def lamp_t(n: int = 2) -> LampElement:
    return LampElement(n, (), 1)


def lamp_multiply(u: LampElement, v: LampElement) -> LampElement:
    if u.n != v.n:
        raise ValueError("modulus mismatch")
    lamps = dict(u.lamps)
    for p, val in v.lamps:
        q = p + u.shift
        lamps[q] = lamps.get(q, 0) + val
    return _from_dict(u.n, lamps, u.shift + v.shift)


def lamp_inverse(u: LampElement) -> LampElement:
    return _from_dict(u.n, {p - u.shift: -v for p, v in u.lamps}, -u.shift)


ExtState = tuple[int, int, int, int]  # (mask, low, shift, flip); see the module docstring
EXT_STATE_IDENTITY: ExtState = (0, 0, 0, 0)


def _state(positions: Iterable[int], shift: int, flip: int) -> ExtState:
    """The state with lamps at the given distinct positions."""
    positions = list(positions)
    if not positions:
        return (0, 0, shift, flip)
    low = min(positions)
    return (sum(1 << (p - low) for p in positions), low, shift, flip)


def ext_state_mul(u: ExtState, v: ExtState) -> ExtState:
    """u . v for a v whose base is already twisted when u is flipped."""
    m1, l1, z1, f1 = u
    m2, l2, z2, f2 = v
    if not m2:
        return (m1, l1, z1 + z2, f1 ^ f2)
    l2 += z1
    if not m1:
        return (m2, l2, z1 + z2, f1 ^ f2)
    if l1 < l2:
        return (m1 ^ (m2 << (l2 - l1)), l1, z1 + z2, f1 ^ f2)
    if l2 < l1:
        return ((m1 << (l1 - l2)) ^ m2, l2, z1 + z2, f1 ^ f2)
    # equal lows: the low bits cancel, so drop the trailing zeros
    mask = m1 ^ m2
    if not mask:
        return (0, 0, z1 + z2, f1 ^ f2)
    tz = (mask & -mask).bit_length() - 1
    return (mask >> tz, l1 + tz, z1 + z2, f1 ^ f2)


def alpha(s: ExtState) -> ExtState:
    """The involutive automorphism with alpha(s) = t s t^{-1}, alpha(t) = t^{-1}.

    On states: reflect the lamp positions through the point 1/2, so the mask
    is read backwards, negate the shift and keep the flip. Re-derived rather
    than assumed; see the module docstring.
    """
    mask, low, shift, flip = s
    if not mask:
        return (0, 0, -shift, flip)
    return (int(f"{mask:b}"[::-1], 2), 2 - low - mask.bit_length(), -shift, flip)


def _state_multiply(twist: Callable[[ExtState], ExtState], u: ExtState, v: ExtState) -> ExtState:
    return ext_state_mul(u, twist(v) if u[3] else v)


def _state_inverse(twist: Callable[[ExtState], ExtState], s: ExtState) -> ExtState:
    mask, low, shift, flip = s
    inv = (mask, low - shift if mask else 0, -shift, flip)
    return twist(inv) if flip else inv


def eval_st_word(w: FreeWord, n: int = 2) -> LampElement:
    """The element of a rank-2 free word over s, t, walked by a cursor.

    t^{+-1} moves the cursor and s^{+-1} adds +-1 to the lamp under it. No
    ``lamp_multiply``: as the lamp handles' oracle it is independent of ``mul``.
    """
    if w.rank != 2:
        raise ValueError("expected a rank-2 word over s, t")
    lamps: dict[int, int] = {}
    cursor = 0
    for idx, sign in w.letters:
        if idx == 0:
            lamps[cursor] = lamps.get(cursor, 0) + sign
        else:
            cursor += sign
    return _from_dict(n, lamps, cursor)


_S: ExtState = (1, 0, 0, 0)  # the lamp at position 0
_T: ExtState = (0, 0, 1, 0)  # the bare shift


def _abcd_states(twist: Callable[[ExtState], ExtState]) -> dict[str, ExtState]:
    """Images of a, b, c, d with d dead, from s and t through the twist."""
    a_img = (0, 0, 0, 1)
    b_img = _state_multiply(twist, a_img, _T)  # b = a.t since t = ab and a is an involution
    c_img = _state_multiply(twist, b_img, _S)  # c = b.d since bcd = e
    return {"a": a_img, "b": b_img, "c": c_img, "d": _S}


LetterTables = tuple[Mapping[str, ExtState], Mapping[str, ExtState]]


def _letter_tables(twist: Callable[[ExtState], ExtState], images: Mapping[str, ExtState]) -> LetterTables:
    """Each letter's image, twisted ahead for a left factor of flip 0 and of flip 1."""
    return MappingProxyType(images), MappingProxyType({letter: twist(s) for letter, s in images.items()})


def _pretwisted_tables() -> tuple[LetterTables, ...]:
    """Letter tables for each symbol, relabelled from the images at symbol 0."""
    canonical = _abcd_states(alpha)
    tables = []
    for symbol in range(3):
        dead = next(x for x in "bcd" if SPIN[x][symbol] == "e")
        active_b, active_c = (x for x in "bcd" if x != dead)
        images = {"a": canonical["a"], active_b: canonical["b"], active_c: canonical["c"], dead: canonical["d"]}
        tables.append(_letter_tables(alpha, images))
    return tuple(tables)


def _fold(tables: LetterTables, w: str) -> ExtState:
    """The product of the letters of w, each read from the table for the current flip."""
    acc = EXT_STATE_IDENTITY
    for ch in w:
        image = tables[acc[3]].get(ch)
        if image is None:
            raise ValueError(f"letter {ch!r} not in alphabet abcd")
        acc = ext_state_mul(acc, image)
    return acc


def ext_pretwisted_images(symbol: int = 0) -> LetterTables:
    """States of the a..d images in the model of the constant sequence
    (symbol), twisted ahead for the flip of the left factor.

    ``ext_state_mul(u, ext_pretwisted_images(symbol)[u[3]][letter])`` is u
    times the letter, with no twist applied at multiplication time.
    """
    if symbol not in (0, 1, 2):
        raise ValueError(f"symbol must be 0, 1 or 2, got {symbol!r}")
    return _PRETWISTED[symbol]


def eval_abcd_state(w: str, symbol: int = 0) -> ExtState:
    """The state of a word over the lower-case letters a..d in the model of
    the constant sequence (symbol)."""
    return _fold(ext_pretwisted_images(symbol), w)


_RELATIONS = ("aa", "bb", "cc", "dd", "bcd")
_PRETWISTED = _pretwisted_tables()


def _verify_dictionaries() -> None:
    for symbol in range(3):
        for rel in _RELATIONS:
            val = eval_abcd_state(rel, symbol)
            assert val == EXT_STATE_IDENTITY, f"relation {rel} fails in the model of ({symbol}): {val}"
        # the pre-twisted tables agree with twisting at product time, from either flip
        images = _PRETWISTED[symbol][0]
        for x in "abcd":
            for y in "abcd":
                val = eval_abcd_state(x + y, symbol)
                want = _state_multiply(alpha, images[x], images[y])
                assert val == want, f"step {x}{y} fails in the model of ({symbol}): {val}"
    # the product ab must land on the bare shift in the standard dictionary
    assert eval_abcd_state("ab") == _T
    # alpha really is the stated automorphism on the generators
    t_inv = _state_inverse(alpha, _T)
    assert alpha(_T) == t_inv
    assert alpha(_S) == _state_multiply(alpha, _state_multiply(alpha, _T, _S), t_inv)


_verify_dictionaries()


def t_n_word(i: int) -> str:
    """Defining word for t_i: d conjugated by (ab)^i, with negative indices
    conjugated once more by a."""
    if i >= 0:
        return "ba" * i + "d" + "ab" * i
    m = -i - 1
    return "a" + "ba" * m + "d" + "ab" * m + "a"


def structure_report(window: int, corrupt_alpha: bool = False, sample_count: int = 100, seed: int = 1729) -> dict:
    """Normal-form verification of the model's internal structure.

    Checks, for |i|, |j| <= window: the t_i are pairwise distinct commuting
    involutions forming the lamp row; conjugation by ab steps the index; no
    t-product meets a nonzero power of ab; random elements factor as
    u = a^f . k with k in the lamp part, through the twist (so a
    non-involutive twist fails to rebuild u). ``corrupt_alpha`` replaces the
    twist by the identity map, a negative control that must break the
    conjugation check. ``sample_count`` must be at least 1, since the sampled
    checks would pass vacuously on no samples.
    """
    from .sampling import Lcg  # local import to keep module deps one-way

    if window < 1:
        raise ValueError("window must be >= 1")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    twist = (lambda s: s) if corrupt_alpha else alpha
    mult = lambda u, v: _state_multiply(twist, u, v)
    tables = _letter_tables(twist, _abcd_states(twist))

    def conj(u: ExtState, g: ExtState) -> ExtState:
        return mult(mult(_state_inverse(twist, g), u), g)

    ident = EXT_STATE_IDENTITY
    indices = range(-window, window + 1)
    t_vals = {i: _fold(tables, t_n_word(i)) for i in indices}
    ab_val = _fold(tables, "ab")

    checks: dict[str, dict] = {}

    distinct = len(set(t_vals.values())) == len(t_vals)
    checks["t_distinct"] = {"pass": distinct}

    commute_fail = None
    for i in indices:
        for j in indices:
            if mult(t_vals[i], t_vals[j]) != mult(t_vals[j], t_vals[i]):
                commute_fail = [i, j]
                break
        if commute_fail:
            break
    checks["t_commute"] = {"pass": commute_fail is None, "witness": commute_fail}

    conj_fail = None
    for i in range(-window, window):
        if conj(t_vals[i], ab_val) != t_vals[i + 1]:
            conj_fail = i
            break
    checks["conjugation_steps_index"] = {"pass": conj_fail is None, "witness": conj_fail}

    # shift separation: t-products stay at shift 0, (ab)^k moves by k
    shift_ok = all(v[2] == 0 and v[3] == 0 for v in t_vals.values())
    power = ident
    for k in range(1, window + 1):
        power = mult(power, ab_val)
        if power[2] == 0:
            shift_ok = False
            break
    checks["shift_separates_ab_powers"] = {"pass": shift_ok}

    rng = Lcg(seed)
    factor_ok = True
    for _ in range(sample_count):
        lamps = {rng.randrange(2 * window + 1) - window for _ in range(rng.randrange(4))}
        u = _state(lamps, rng.randrange(7) - 3, rng.randrange(2))
        a_f = (0, 0, 0, u[3])
        k_part = mult(_state_inverse(twist, a_f), u)
        if k_part[3] != 0 or mult(a_f, k_part) != u:
            factor_ok = False
            break
    checks["unique_factorization"] = {"pass": factor_ok}

    relations_ok = all(_fold(tables, rel) == ident for rel in _RELATIONS)
    checks["defining_relations"] = {"pass": relations_ok}

    # metabelian evidence: lamp commutators drop to shift 0 and commute
    def commutator(u: ExtState, v: ExtState) -> ExtState:
        return mult(mult(_state_inverse(twist, u), _state_inverse(twist, v)), mult(u, v))

    meta_ok = True
    for _ in range(sample_count):
        es = []
        for _ in range(4):
            lamps = {rng.randrange(9) - 4 for _ in range(rng.randrange(3))}
            es.append(_state(lamps, rng.randrange(9) - 4, 0))
        c1 = commutator(es[0], es[1])
        c2 = commutator(es[2], es[3])
        if c1[2] != 0 or c2[2] != 0 or commutator(c1, c2) != ident:
            meta_ok = False
            break
    checks["metabelian_commutators"] = {"pass": meta_ok}

    verdict = "pass" if all(c["pass"] for c in checks.values()) else "fail"
    return {
        "window": window,
        "modulus": 2,
        "negative_control": corrupt_alpha,
        "checks": checks,
        "verdict": verdict,
    }
