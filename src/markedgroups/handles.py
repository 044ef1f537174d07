"""Ready-made marked-group handles for the experiments.

Each factory wires a triviality oracle and the element protocol (identity,
mul, key; see :mod:`~markedgroups.marked_space`) into a MarkedGroupHandle.
The elements are:

- lamplighter: a ``LampElement``, multiplied by a precomputed generator image
- extension model: an ``ExtLampElement``, likewise
- free group: the reduced letter tuple
- trivial group: 0
- tree groups and their x/y subgroups: the Klein-reduced a..d string, keyed
  by a :class:`~markedgroups.grigorchuk.TreeKeys` table that the handle owns,
  so a table serves one omega only

Normal forms are their own keys. The oracles do not go through the protocol:
they evaluate the whole word (contraction for the tree groups).
"""

from __future__ import annotations

from typing import Callable

from .grigorchuk import (
    OmegaWord,
    TreeKeys,
    dead_letter_for,
    is_trivial,
    parse_omega,
    translate_L_word,
)
from .lamplighter import (
    abcd_images,
    eval_abcd_word,
    eval_st_word,
    ext_identity,
    ext_inverse,
    ext_multiply,
    lamp_identity,
    lamp_inverse,
    lamp_multiply,
    lamp_s,
    lamp_t,
)
from .marked_space import MarkedGroupHandle, make_handle
from .words import FreeWord, free_reduce, gen_inverse, gen_word_from_free, klein_reduce, word_to_str

__all__ = [
    "grig_handle",
    "l_subgroup_handle",
    "lamplighter_handle",
    "ext_model_handle",
    "free_handle",
    "trivial_handle",
]


def _as_omega(omega: OmegaWord | str) -> OmegaWord:
    return parse_omega(omega) if isinstance(omega, str) else omega


def _normal_form(elem):
    """Key of an element that is already a normal form: the element itself."""
    return elem


def _letter_images(gens, inverse) -> dict:
    """Image of every letter (index, sign) under the marking."""
    return {(i, s): g if s == 1 else inverse(g) for i, g in enumerate(gens) for s in (1, -1)}


def _tree_handle(label: str, om: OmegaWord, names: tuple[str, ...], to_tree: Callable[[FreeWord], str]) -> MarkedGroupHandle:
    """A marked subgroup of G_omega; to_tree spells a word over a..d."""
    keys = TreeKeys(om)
    images = _letter_images([to_tree(FreeWord(((i, 1),), len(names))) for i in range(len(names))], gen_inverse)

    def trivial(w: FreeWord) -> bool:
        return is_trivial(to_tree(w), om)

    def mul(elem: str, letter) -> str:
        # elem is reduced, and each appended letter cancels or merges with at
        # most one letter before it, so only the last len(img) letters change
        img = images[letter]
        cut = max(0, len(elem) - len(img))
        return elem[:cut] + klein_reduce(elem[cut:] + img)

    return make_handle(label, names, trivial, "", mul, keys.key)


def grig_handle(omega: OmegaWord | str) -> MarkedGroupHandle:
    """G_omega marked with (a, b, c, d)."""
    om = _as_omega(omega)
    return _tree_handle(f"G_{om}", om, ("a", "b", "c", "d"), gen_word_from_free)


def l_subgroup_handle(omega: OmegaWord | str) -> MarkedGroupHandle:
    """The subgroup <d, ab> of G_omega marked with (x, y) = (d, ab)."""
    om = _as_omega(omega)
    return _tree_handle(f"L_{om}", om, ("x", "y"), lambda w: translate_L_word(word_to_str(w, ("x", "y"))))


def lamplighter_handle(n: int = 2) -> MarkedGroupHandle:
    """The wreath product Z_n wr Z marked with (s, t); normal forms are exact."""
    ident = lamp_identity(n)
    images = _letter_images((lamp_s(n), lamp_t(n)), lamp_inverse)

    def trivial(w: FreeWord) -> bool:
        return eval_st_word(w, n) == ident

    def mul(elem, letter):
        return lamp_multiply(elem, images[letter])

    return make_handle(f"lamp{n}", ("s", "t"), trivial, ident, mul, _normal_form)


def ext_model_handle(symbol: int, n: int = 2) -> MarkedGroupHandle:
    """The extension model of the constant-sequence group, marked (a, b, c, d).

    The dead letter for the symbol plays the s role; evaluation lands in
    L x| Z_2 where comparison is exact.
    """
    dead = dead_letter_for(symbol)
    ident = ext_identity(n)
    gens = abcd_images(dead, n)
    images = _letter_images([gens[ch] for ch in "abcd"], ext_inverse)

    def trivial(w: FreeWord) -> bool:
        return eval_abcd_word(gen_word_from_free(w), dead, n) == ident

    def mul(elem, letter):
        return ext_multiply(elem, images[letter])

    return make_handle(f"G_({symbol})[model]", ("a", "b", "c", "d"), trivial, ident, mul, _normal_form)


def free_handle(k: int, names: tuple[str, ...] | None = None) -> MarkedGroupHandle:
    """Free group of rank k: only the empty word is trivial."""
    if names is None:
        names = tuple("stuvwxyz"[:k]) if k <= 8 else tuple(f"x{i}" for i in range(1, k + 1))

    def trivial(w: FreeWord) -> bool:
        return len(free_reduce(w)) == 0

    def mul(elem: tuple, letter) -> tuple:
        if elem and elem[-1] == (letter[0], -letter[1]):
            return elem[:-1]
        return elem + (letter,)

    return make_handle(f"F{k}", names, trivial, (), mul, _normal_form)


def trivial_handle(k: int, names: tuple[str, ...] | None = None) -> MarkedGroupHandle:
    """The trivial group with k formal generators."""
    if names is None:
        names = tuple(f"g{i}" for i in range(1, k + 1))
    return make_handle("1", names, lambda w: True, 0, lambda elem, letter: 0, _normal_form)
