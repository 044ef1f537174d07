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
import re
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FreeWord",
    "free_reduce",
    "free_concat",
    "enumerate_reduced",
    "free_ball_count",
    "is_square",
    "word_to_str",
    "word_from_str",
    "GEN_ALPHABET",
    "klein_reduce",
    "gen_inverse",
]


# ---------------------------------------------------------------------------
# FreeWord


@dataclass(frozen=True, slots=True)
class FreeWord:
    """A word in the free group of rank ``rank``.

    ``letters`` is a tuple of (index, sign) with 0 <= index < rank and
    sign in {+1, -1}. The word is not reduced automatically; call
    :func:`free_reduce` when a reduced representative is needed.
    """

    letters: tuple[tuple[int, int], ...]
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        for idx, sign in self.letters:
            if not 0 <= idx < self.rank:
                raise ValueError(f"generator index {idx} out of range for rank {self.rank}")
            if sign not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {sign}")

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


def free_concat(u: FreeWord, v: FreeWord) -> FreeWord:
    """Reduced product u * v."""
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    return free_reduce(FreeWord(u.letters + v.letters, u.rank))


def enumerate_reduced(rank: int, max_len: int) -> Iterator[FreeWord]:
    """Yield every freely reduced word of length <= max_len exactly once.

    Order is length first, then lexicographic with letter order
    (0,+1) < (0,-1) < (1,+1) < (1,-1) < ... so downstream searches are
    deterministic. Count matches 1 + sum_{l=1..L} 2k(2k-1)^(l-1).
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    directions = [(i, s) for i in range(rank) for s in (1, -1)]
    yield empty_word(rank)

    def extend(prefix: list[tuple[int, int]], remaining: int) -> Iterator[FreeWord]:
        for idx, sign in directions:
            if prefix and prefix[-1] == (idx, -sign):
                continue
            prefix.append((idx, sign))
            if remaining == 1:
                yield FreeWord(tuple(prefix), rank)
            else:
                yield from extend(prefix, remaining - 1)
            prefix.pop()

    for length in range(1, max_len + 1):
        yield from extend([], length)


def free_ball_count(rank: int, max_len: int) -> int:
    """Closed-form count of reduced words of length <= max_len in F_rank."""
    k2 = 2 * rank
    total = 1
    for length in range(1, max_len + 1):
        total += k2 * (k2 - 1) ** (length - 1)
    return total


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


def word_to_str(w: FreeWord, names: tuple[str, ...] | None = None) -> str:
    """Letters as characters; inverse letters are uppercased.

    Rank 2 defaults to ("s", "t"); other ranks fall back to x1..xk and are
    space-separated, so pass explicit names for readable output.
    """
    if names is None:
        names = ("s", "t") if w.rank == 2 else tuple(f"x{i+1}" for i in range(w.rank))
    if len(names) != w.rank:
        raise ValueError("need one name per generator")
    parts = []
    for idx, sign in w.letters:
        name = names[idx]
        parts.append(name if sign == 1 else name.upper())
    return "".join(parts) if all(len(n) == 1 for n in names) else " ".join(parts)


def word_from_str(text: str, names: tuple[str, ...]) -> FreeWord:
    """Parse a word; lowercase letter = generator, uppercase = inverse.

    Whitespace is ignored. ``names`` must be single characters.
    """
    lookup = {}
    for i, n in enumerate(names):
        if len(n) != 1 or not n.islower():
            raise ValueError("generator names must be single lowercase characters")
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


def gen_inverse(w: str) -> str:
    # every letter is an involution, so the inverse is the reversal
    return w[::-1]


def gen_word_from_free(w: FreeWord) -> str:
    """Interpret a rank-4 FreeWord over involutive generators a,b,c,d."""
    if w.rank != 4:
        raise ValueError("expected rank 4")
    return "".join(GEN_ALPHABET[i] for i, _sign in w.letters)


def alternating_words(max_len: int) -> Iterator[str]:
    """All Klein-reduced (alternating) nonempty words of length <= max_len.

    Useful for exhaustive sweeps: these are exactly the normal forms, so no
    two of them are equal modulo the Klein relations.
    """
    bcd = "bcd"
    for length in range(1, max_len + 1):
        # an alternating word is determined by whether position 0 holds 'a'
        # and by the choice of letter in each {b,c,d} slot
        for a_phase in (0, 1):
            a_positions = [i for i in range(length) if i % 2 == a_phase]
            x_positions = [i for i in range(length) if i % 2 != a_phase]
            for combo in itertools.product(bcd, repeat=len(x_positions)):
                chars = [""] * length
                for i in a_positions:
                    chars[i] = "a"
                for i, ch in zip(x_positions, combo):
                    chars[i] = ch
                yield "".join(chars)
