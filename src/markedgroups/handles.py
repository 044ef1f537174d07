"""Ready-made marked-group handles for the experiments.

Each factory wires a triviality oracle and an exact fingerprinter into a
MarkedGroupHandle: equal fingerprints if and only if equal elements. Tree
groups use interned section keys (:class:`~markedgroups.grigorchuk.TreeKeys`),
with a fresh key table for every fingerprinter call, so a table never
outlives one ball or lockstep side and never mixes two omegas; the wreath
models and the free group use exact normal forms.
"""

from __future__ import annotations

from .grigorchuk import (
    OmegaWord,
    TreeKeys,
    dead_letter_for,
    is_trivial,
    parse_omega,
    translate_L_word,
)
from .lamplighter import eval_abcd_word, eval_st_word, ext_identity, lamp_identity
from .marked_space import Fingerprint, MarkedGroupHandle, make_handle
from .words import FreeWord, free_reduce, gen_word_from_free, word_to_str

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


def grig_handle(omega: OmegaWord | str) -> MarkedGroupHandle:
    """G_omega marked with (a, b, c, d)."""
    om = _as_omega(omega)

    def trivial(w: FreeWord) -> bool:
        return is_trivial(gen_word_from_free(w), om)

    def fingerprinter(max_len: int) -> Fingerprint:
        keys = TreeKeys(om)
        return Fingerprint(lambda w: keys.key(gen_word_from_free(w)), True)

    return make_handle(f"G_{om}", ("a", "b", "c", "d"), trivial, fingerprinter)


def l_subgroup_handle(omega: OmegaWord | str) -> MarkedGroupHandle:
    """The subgroup <d, ab> of G_omega marked with (x, y) = (d, ab)."""
    om = _as_omega(omega)

    def to_tree(w: FreeWord) -> str:
        return translate_L_word(word_to_str(w, ("x", "y")))

    def trivial(w: FreeWord) -> bool:
        return is_trivial(to_tree(w), om)

    def fingerprinter(max_len: int) -> Fingerprint:
        keys = TreeKeys(om)
        return Fingerprint(lambda w: keys.key(to_tree(w)), True)

    return make_handle(f"L_{om}", ("x", "y"), trivial, fingerprinter)


def lamplighter_handle(n: int = 2) -> MarkedGroupHandle:
    """The wreath product Z_n wr Z marked with (s, t); normal forms are exact."""
    ident = lamp_identity(n)

    def trivial(w: FreeWord) -> bool:
        return eval_st_word(w, n) == ident

    def fingerprinter(max_len: int) -> Fingerprint:
        def fp(w: FreeWord):
            return eval_st_word(w, n)

        return Fingerprint(fp, True)

    return make_handle(f"lamp{n}", ("s", "t"), trivial, fingerprinter)


def ext_model_handle(symbol: int, n: int = 2) -> MarkedGroupHandle:
    """The extension model of the constant-sequence group, marked (a, b, c, d).

    The dead letter for the symbol plays the s role; evaluation lands in
    L x| Z_2 where comparison is exact.
    """
    dead = dead_letter_for(symbol)
    ident = ext_identity(n)

    def trivial(w: FreeWord) -> bool:
        return eval_abcd_word(gen_word_from_free(w), dead, n) == ident

    def fingerprinter(max_len: int) -> Fingerprint:
        def fp(w: FreeWord):
            return eval_abcd_word(gen_word_from_free(w), dead, n)

        return Fingerprint(fp, True)

    return make_handle(f"G_({symbol})[model]", ("a", "b", "c", "d"), trivial, fingerprinter)


def free_handle(k: int, names: tuple[str, ...] | None = None) -> MarkedGroupHandle:
    """Free group of rank k: only the empty word is trivial."""
    if names is None:
        names = tuple("stuvwxyz"[:k]) if k <= 8 else tuple(f"x{i}" for i in range(1, k + 1))

    def trivial(w: FreeWord) -> bool:
        return len(free_reduce(w)) == 0

    def fingerprinter(max_len: int) -> Fingerprint:
        def fp(w: FreeWord):
            return free_reduce(w).letters

        return Fingerprint(fp, True)

    return make_handle(f"F{k}", names, trivial, fingerprinter)


def trivial_handle(k: int, names: tuple[str, ...] | None = None) -> MarkedGroupHandle:
    """The trivial group with k formal generators."""
    if names is None:
        names = tuple(f"g{i}" for i in range(1, k + 1))
    return make_handle("1", names, lambda w: True, lambda max_len: Fingerprint(lambda w: 0, True))
