"""Free-group and Klein-four word algebra shared by every group implementation.

Two word kinds live here. ``FreeWord`` is an honest element of the free group
F_k, stored as a tuple of (generator index, sign) pairs; it is the currency of
the marked-space machinery, where triviality oracles are functions
FreeWord -> bool. ``GenWord`` is a plain string over the alphabet "abcd" used
by the tree-automorphism groups, where all four generators are involutions and
b, c, d generate a Klein four-group (bc = cb = d and cyclic variants).

Equality at this level is syntactic after reduction. Group-level equality
belongs to the group modules.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Sequence

__all__ = [
    "FreeWord",
    "empty_word",
    "free_reduce",
    "is_square",
    "word_to_str",
    "word_from_str",
    "GEN_ALPHABET",
    "klein_reduce",
    "gen_word_from_free",
]


class _Frozen:
    """Value semantics shared by the value types, derived from ``__slots__``.

    Fields are set once, with ``object.__setattr__`` in ``__init__``, and
    cannot be assigned or deleted afterwards. A value equals only a value of
    its own class whose fields are equal, in slot order; it hashes as the
    tuple of its fields; it pickles, copies and prints as its constructor
    call. ``_key`` reads the field tuple, one ``attrgetter`` per class, so a
    value type has at least two slots.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), self._key(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# FreeWord


class FreeWord(_Frozen):
    """A word in the free group of rank ``rank``.

    ``letters`` is a tuple of (index, sign) with 0 <= index < rank and
    sign in {+1, -1}. The word is not reduced automatically; call
    :func:`free_reduce` when a reduced representative is needed.
    """

    __slots__ = ("letters", "rank")
    letters: tuple[tuple[int, int], ...]
    rank: int

    def __init__(self, letters: tuple[tuple[int, int], ...], rank: int) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        for idx, sign in letters:
            if not 0 <= idx < rank:
                raise ValueError(f"generator index {idx} out of range for rank {rank}")
            if sign not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {sign}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((i, -s) for i, s in reversed(self.letters)), self.rank)


def empty_word(rank: int) -> FreeWord:
    return FreeWord((), rank)


def free_reduce(w: FreeWord) -> FreeWord:
    """Unique freely reduced form of ``w``; idempotent."""
    stack: list[tuple[int, int]] = []
    for idx, sign in w.letters:
        if stack and stack[-1][0] == idx and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((idx, sign))
    return FreeWord(tuple(stack), w.rank)


def _cyclic_reduce(letters: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == (letters[hi - 1][0], -letters[hi - 1][1]):
        lo += 1
        hi -= 1
    return letters[lo:hi]


def is_square(w: FreeWord) -> bool:
    """True iff w equals v*v for some v, as an element of the free group.

    An element is a square iff its cyclic reduction is; a cyclically reduced
    word is a square iff it has even length and equal halves.
    """
    core = _cyclic_reduce(free_reduce(w).letters)
    n = len(core)
    if n % 2:
        return False
    return core[: n // 2] == core[n // 2 :]


def _check_names(names: Sequence[str]) -> None:
    if not all(len(n) == 1 and n.islower() for n in names):
        raise ValueError("generator names must be single lowercase characters")
    if len(set(names)) != len(names):
        raise ValueError("generator names must be distinct")


def word_to_str(w: FreeWord, names: tuple[str, ...]) -> str:
    """Letters as characters, one name per generator; inverse letters are
    uppercased. ``names`` must be distinct single lowercase characters."""
    _check_names(names)
    if len(names) != w.rank:
        raise ValueError("need one name per generator")
    return "".join(names[idx] if sign == 1 else names[idx].upper() for idx, sign in w.letters)


def word_from_str(text: str, names: tuple[str, ...]) -> FreeWord:
    """Parse a word; lowercase letter = generator, uppercase = inverse.

    Whitespace is ignored. ``names`` must be distinct single lowercase characters.
    """
    _check_names(names)
    lookup = {}
    for i, n in enumerate(names):
        lookup[n] = (i, 1)
        lookup[n.upper()] = (i, -1)
    letters = []
    for ch in text:
        if ch.isspace():
            continue
        if ch not in lookup:
            raise ValueError(f"unknown letter {ch!r} (expected one of {''.join(names)} or uppercase inverses)")
        letters.append(lookup[ch])
    return FreeWord(tuple(letters), len(names))


# ---------------------------------------------------------------------------
# GenWord: strings over {a, b, c, d}

GEN_ALPHABET = "abcd"

# Multiplication table of the Klein four-group {e, b, c, d}: the product of
# two distinct non-a letters is the third one.
_KLEIN_PAIR = {(x, y): z for x, y, z in itertools.permutations("bcd")}
_DROP_GEN = str.maketrans(dict.fromkeys(GEN_ALPHABET))
_ALTERNATING = re.compile("a?(?:[bcd]a)*[bcd]?")


def klein_reduce(w: str) -> str:
    """Alternating normal form modulo a^2=b^2=c^2=d^2=e and bc=d, bd=c, cd=b.

    Idempotent and length-nonincreasing; the result never has two adjacent
    letters from {b,c,d} nor two adjacent equal letters.
    """
    if _ALTERNATING.fullmatch(w):
        return w
    bad = w.translate(_DROP_GEN)
    if bad:
        raise ValueError(f"letter {bad[0]!r} not in alphabet {GEN_ALPHABET!r}")
    # the stack stays alternating, so a letter cancels or merges with the top
    # alone; the bottom "" is a sentinel that does neither
    stack = [""]
    for ch in w:
        top = stack[-1]
        if top == ch:
            stack.pop()
        elif top == "a" or ch == "a" or not top:
            stack.append(ch)
        else:
            stack[-1] = _KLEIN_PAIR[top, ch]
    return "".join(stack)


def gen_word_from_free(w: FreeWord) -> str:
    """Interpret a rank-4 FreeWord over involutive generators a,b,c,d."""
    if w.rank != 4:
        raise ValueError("expected rank 4")
    return "".join(GEN_ALPHABET[i] for i, _sign in w.letters)
