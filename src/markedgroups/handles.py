"""Ready-made marked-group handles for the experiments.

Each factory wires a triviality oracle and the element protocol (identity
and mul; see :mod:`~markedgroups.marked_space`) into a MarkedGroupHandle.
Every element is an exact normal form, so it is its own key. The elements
are:

- lamplighter: a ``LampElement``, multiplied by a precomputed generator image
- extension model: the (mask, low, shift, flip) state tuple of
  :mod:`~markedgroups.lamplighter`, multiplied by one ``ext_state_mul`` with
  the letter's image twisted ahead of time for the element's flip
- free group: the reduced letter tuple
- trivial group: 0
- tree groups: an int key of a :class:`~markedgroups.grigorchuk.TreeKeys`
  table that the handle owns (so a table serves one omega only), multiplied
  by one ``TreeKeys.mul`` per letter
- marked subgroups, the x/y subgroups <d, ab> among them: a
  :func:`subgroup_handle` over the parent, whose element is the parent's
  element, multiplied one parent letter at a time along the letter's spelling

The oracles do not go through the protocol: they evaluate the whole word
(contraction for the tree groups; a subgroup asks its parent's oracle about
the spelled word).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .grigorchuk import (
    OmegaWord,
    TreeKeys,
    is_trivial,
    parse_omega,
    translate_L_word,
)
from .lamplighter import (
    EXT_STATE_IDENTITY,
    eval_abcd_state,
    eval_st_word,
    ext_pretwisted_images,
    ext_state_mul,
    lamp_identity,
    lamp_inverse,
    lamp_multiply,
    lamp_s,
    lamp_t,
)
from .marked_space import MarkedGroupHandle, make_handle
from .words import FreeWord, free_reduce, gen_word_from_free, word_from_str

__all__ = [
    "subgroup_handle",
    "grig_handle",
    "l_subgroup_handle",
    "lamplighter_handle",
    "ext_model_handle",
    "free_handle",
    "trivial_handle",
]


def _as_omega(omega: OmegaWord | str) -> OmegaWord:
    return parse_omega(omega) if isinstance(omega, str) else omega


def _letter_images(gens, inverse) -> dict:
    """Image of every letter (index, sign) under the marking."""
    return {(i, s): g if s == 1 else inverse(g) for i, g in enumerate(gens) for s in (1, -1)}


def subgroup_handle(
    parent: MarkedGroupHandle, spellings: Sequence[FreeWord], names: Sequence[str], label: str
) -> MarkedGroupHandle:
    """The subgroup of parent generated by the words spellings over its
    generators, the i-th marked with names[i].

    An element is the parent's element: a letter multiplies by its spelling
    one parent letter at a time, the inverse letter by the inverse spelling.
    A word is trivial iff the parent calls its spelling trivial.
    """
    if len(spellings) != len(names):
        raise ValueError("need one spelling per generator name")
    images = {letter: w.letters for letter, w in _letter_images(spellings, FreeWord.inverse).items()}
    parent_mul, parent_trivial = parent.mul, parent.trivial

    def trivial(w: FreeWord) -> bool:
        return parent_trivial(FreeWord(tuple(x for letter in w.letters for x in images[letter]), parent.k))

    def mul(elem: Hashable, letter) -> Hashable:
        for x in images[letter]:
            elem = parent_mul(elem, x)
        return elem

    return make_handle(label, names, trivial, parent.identity, mul)


def grig_handle(omega: OmegaWord | str) -> MarkedGroupHandle:
    """G_omega marked with (a, b, c, d)."""
    om = _as_omega(omega)
    keys = TreeKeys(om)

    def trivial(w: FreeWord) -> bool:
        return is_trivial(gen_word_from_free(w), om)

    def mul(elem: int, letter) -> int:
        # every letter is an involution, so a letter and its inverse act alike
        return keys.mul(elem, "abcd"[letter[0]])

    return make_handle(f"G_{om}", ("a", "b", "c", "d"), trivial, keys.identity, mul)


# x and y, the generators of L_omega, spelled over (a, b, c, d) as translate_L_word spells them
_L_SPELLINGS = tuple(word_from_str(translate_L_word(x), ("a", "b", "c", "d")) for x in "xy")


def l_subgroup_handle(omega: OmegaWord | str) -> MarkedGroupHandle:
    """The subgroup <d, ab> of G_omega marked with (x, y) = (d, ab)."""
    om = _as_omega(omega)
    return subgroup_handle(grig_handle(om), _L_SPELLINGS, ("x", "y"), f"L_{om}")


def lamplighter_handle(n: int = 2) -> MarkedGroupHandle:
    """The wreath product Z_n wr Z marked with (s, t); normal forms are exact."""
    ident = lamp_identity(n)
    images = _letter_images((lamp_s(n), lamp_t(n)), lamp_inverse)

    def trivial(w: FreeWord) -> bool:
        return eval_st_word(w, n) == ident

    def mul(elem, letter):
        return lamp_multiply(elem, images[letter])

    return make_handle(f"lamp{n}", ("s", "t"), trivial, ident, mul)


def ext_model_handle(symbol: int) -> MarkedGroupHandle:
    """The extension model of the constant sequence (symbol), marked (a, b, c, d).

    The letter dead at the symbol plays the s role; evaluation lands in
    (Z_2 wr Z) x| Z_2 where comparison is exact.
    """
    # every letter is an involution, so a letter and its inverse share an image
    by_flip = [
        {(i, sign): images[ch] for i, ch in enumerate("abcd") for sign in (1, -1)}
        for images in ext_pretwisted_images(symbol)
    ]

    def trivial(w: FreeWord) -> bool:
        return eval_abcd_state(gen_word_from_free(w), symbol) == EXT_STATE_IDENTITY

    def mul(elem, letter):
        return ext_state_mul(elem, by_flip[elem[3]][letter])

    return make_handle(f"G_({symbol})[model]", ("a", "b", "c", "d"), trivial, EXT_STATE_IDENTITY, mul)


def _formal_names(k: int) -> tuple[str, ...]:
    """The generator names s, t, u, ... of a group with no names of its own."""
    if k > 8:
        raise ValueError(f"at most 8 formal generators (s..z), got {k}")
    return tuple("stuvwxyz"[:k])


def free_handle(k: int) -> MarkedGroupHandle:
    """Free group of rank k <= 8, marked with s, t, u, ..."""

    def trivial(w: FreeWord) -> bool:
        return len(free_reduce(w)) == 0

    def mul(elem: tuple, letter) -> tuple:
        if elem and elem[-1] == (letter[0], -letter[1]):
            return elem[:-1]
        return elem + (letter,)

    return make_handle(f"F{k}", _formal_names(k), trivial, (), mul)


def trivial_handle(k: int) -> MarkedGroupHandle:
    """The trivial group with k <= 8 formal generators s, t, u, ..."""
    return make_handle("1", _formal_names(k), lambda w: True, 0, lambda elem, letter: 0)
