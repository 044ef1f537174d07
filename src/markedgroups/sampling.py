"""Deterministic cross-platform sampling.

Everything random in this package flows through ``Lcg``, a 64-bit linear
congruential generator with fixed constants, so identical seeds give
identical experiments on every platform and thread count. The stdlib
``random`` module is avoided on purpose: its float pathway is not part of
any determinism guarantee we want to lean on.
"""

from __future__ import annotations

from .grigorchuk import OmegaWord

__all__ = [
    "DEFAULT_SEED",
    "Lcg",
    "sample_alternating_word",
    "sample_omega",
    "sample_gp_syllables",
]

DEFAULT_SEED = 1729

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """Knuth-style 64-bit LCG; top bits feed range reduction."""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def randrange(self, n: int) -> int:
        """Uniform-enough integer in [0, n) via the multiply-shift trick."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.next_u64() * n) >> 64


def sample_alternating_word(rng: Lcg, max_len: int) -> str:
    """Random Klein-reduced word: uniform length, uniform phase, uniform slots.

    The word alternates between 'a' and letters from {b,c,d}; the pattern is
    fixed by the starting phase and each {b,c,d} slot is drawn independently.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    length = 1 + rng.randrange(max_len)
    a_phase = rng.randrange(2)
    out = []
    for i in range(length):
        if i % 2 == a_phase:
            out.append("a")
        else:
            out.append("bcd"[rng.randrange(3)])
    return "".join(out)


def sample_omega(rng: Lcg, pre_max: int = 4, period_max: int = 4) -> OmegaWord:
    """Random eventually periodic sequence (canonicalized on construction)."""
    pre = tuple(rng.randrange(3) for _ in range(rng.randrange(pre_max + 1)))
    period = tuple(rng.randrange(3) for _ in range(1 + rng.randrange(period_max)))
    return OmegaWord(pre, period)


def sample_gp_syllables(rng: Lcg, count: int, vertex_window: int, modulus: int) -> tuple[tuple[int, int], ...]:
    """Random syllable sequence for graph-product words: vertices in
    [-vertex_window//2, vertex_window//2], nonzero exponents mod modulus."""
    half = vertex_window // 2
    out = []
    for _ in range(count):
        v = rng.randrange(vertex_window) - half
        e = 1 + rng.randrange(modulus - 1)
        out.append((v, e))
    return tuple(out)
