"""Desk-scale geometry of the space of marked groups.

A marked group is a pair (G, S) of a group with an ordered generating tuple;
here it is represented by a :class:`MarkedGroupHandle` carrying a triviality
oracle FreeWord -> bool. Distance between two marked groups with the same
generator count is 2^{-N} where N is the largest radius at which the Cayley
balls agree; ball-N agreement is equivalent to both groups deciding every
freely reduced word of length <= 2N+1 the same way, which is the contract the
code below certifies.

Ball construction is BFS over freely reduced words with two accelerators that
do not affect answers: an involutive-generator hint (restricts candidates to
the sublanguage where class-minimal representatives provably live) and
fingerprints. A handle's ``fingerprinter`` returns an exact element key
(equal keys if and only if equal elements), so classes are found by one dict
lookup per candidate. A handle without one falls back to a single bucket in
which the triviality oracle compares the candidate with every class. The
``threads`` parameters are accepted for compatibility and ignored: a key
lookup is interpreter work that a thread pool only slows down, and key tables
must not be shared between threads.

Comparison of two handles runs the same BFS on joint classes (equal in both
groups). Two classes sharing one coordinate but not the other exhibit a word
trivial in exactly one group; the minimal such total length lambda pins the
agreement radius exactly: verdicts agree on all words of length < lambda and
disagree at lambda.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from .words import FreeWord, empty_word, enumerate_reduced, free_concat, is_square

__all__ = [
    "MarkedGroupHandle",
    "make_handle",
    "Fingerprint",
    "CayleyBall",
    "build_ball",
    "growth_sequence",
    "relation_agreement",
    "relation_agreement_exhaustive",
    "AgreeRadius",
    "agree_radius",
    "relation_set",
    "convergence_table",
    "SeparatorReport",
    "find_separating_word",
    "write_growth_csv",
    "write_convergence_csv",
]


@dataclass(frozen=True, slots=True)
class Fingerprint:
    """Element invariant: map(word) equal for equal group elements.

    ``exact`` means the invariant is a complete key (equality both ways);
    otherwise every match is confirmed by the triviality oracle.
    """

    map: Callable[[FreeWord], Hashable]
    exact: bool


@dataclass(frozen=True, slots=True)
class MarkedGroupHandle:
    """A marked group: label, generator count, triviality oracle, hints.

    ``involutive[i]`` promises trivial(g_i^2); it is asserted by
    :func:`make_handle`, and lets ball searches skip redundant inverse
    letters. ``fingerprinter(max_len)`` returns a Fingerprint valid for
    words up to max_len, or None for the slow single-bucket path. Each call
    may return a fingerprint with its own state (a key table); a ball or a
    lockstep side calls it once and uses the result from one thread.
    """

    label: str
    k: int
    gen_names: tuple[str, ...]
    trivial: Callable[[FreeWord], bool]
    involutive: tuple[bool, ...]
    fingerprinter: Callable[[int], Fingerprint] | None = None


def make_handle(
    label: str,
    gen_names: Sequence[str],
    trivial: Callable[[FreeWord], bool],
    fingerprinter: Callable[[int], Fingerprint] | None = None,
) -> MarkedGroupHandle:
    """Build a handle, measuring the involutive flags instead of trusting them."""
    k = len(gen_names)
    assert trivial(empty_word(k)), "oracle must accept the empty word"
    flags = []
    for i in range(k):
        square = FreeWord(((i, 1), (i, 1)), k)
        flags.append(bool(trivial(square)))
    return MarkedGroupHandle(label, k, tuple(gen_names), trivial, tuple(flags), fingerprinter)


# ---------------------------------------------------------------------------
# Shared BFS plumbing


def _directions(k: int) -> list[tuple[int, int]]:
    return [(i, s) for i in range(k) for s in (1, -1)]


def _candidate_letters(rep: FreeWord, directions: list[tuple[int, int]], invol: tuple[bool, ...]) -> Iterable[tuple[int, int]]:
    """Extensions of a representative that can still be class-minimal.

    Skips free cancellation always; for involutive generators also skips the
    inverse letter (g^{-1} = g in the group, and the positive letter sorts
    first) and the immediate repeat (gg = e).
    """
    last = rep.letters[-1] if rep.letters else None
    for idx, sign in directions:
        if invol[idx] and sign == -1:
            continue
        if last is not None:
            if last == (idx, -sign):
                continue
            if invol[idx] and last == (idx, sign):
                continue
        yield (idx, sign)


class _ClassTable:
    """Classes found so far for one side of a BFS: fingerprints plus buckets.

    With an exact fingerprint a bucket holds exactly the classes equal to
    its key. Otherwise (no fingerprinter: everything shares one bucket) the
    oracle confirms each class in the bucket.
    """

    def __init__(self, handle: MarkedGroupHandle, max_len: int):
        self.handle = handle
        fp = handle.fingerprinter(max_len) if handle.fingerprinter is not None else None
        self.fp = fp if fp is not None else Fingerprint(lambda w: 0, False)
        self.buckets: dict[Hashable, list[int]] = {}
        self.reps: list[FreeWord] = []
        self.fp_vals: list[Hashable] = []

    def fingerprint(self, w: FreeWord) -> Hashable:
        return self.fp.map(w)

    def matches(self, w: FreeWord, fp_val: Hashable) -> list[int]:
        """Indices of classes equal to w in this group. Exact."""
        bucket = self.buckets.get(fp_val)
        if not bucket:
            return []
        if self.fp.exact:
            return list(bucket)
        return [idx for idx in bucket if self.handle.trivial(free_concat(w, self.reps[idx].inverse()))]

    def admit(self, w: FreeWord, fp_val: Hashable) -> int:
        idx = len(self.reps)
        self.reps.append(w)
        self.fp_vals.append(fp_val)
        self.buckets.setdefault(fp_val, []).append(idx)
        return idx

    def group_ids(self) -> list[int]:
        """For each class, the least class index equal to it in this group.

        In a single-group table this is the identity map; in a lockstep table
        two joint classes may coincide on one side (that is what a conflict
        is), and this partition names the side's true elements.
        """
        ids = []
        for idx, rep in enumerate(self.reps):
            ids.append(min(self.matches(rep, self.fp_vals[idx])))
        return ids


# ---------------------------------------------------------------------------
# Single-group Cayley balls


@dataclass(frozen=True, slots=True)
class CayleyBall:
    """Radius-N ball: canonical representatives, edges, and growth counts.

    ``elements[i]`` is the length-then-lex minimal word for element i.
    ``edges[(i, d)]`` maps element i under direction d (directions enumerate
    (generator, sign) pairs as in `_directions`) to the target element index;
    the key is absent when the product leaves the ball. ``gamma[n]`` counts
    elements of length <= n.
    """

    radius: int
    elements: tuple[FreeWord, ...]
    edges: dict[tuple[int, int], int]
    gamma: tuple[int, ...]


def build_ball(handle: MarkedGroupHandle, radius: int, threads: int = 1) -> CayleyBall:
    """Deterministic BFS ball of the marked group."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    table = _ClassTable(handle, radius + 1)
    directions = _directions(handle.k)

    ident = empty_word(handle.k)
    table.admit(ident, table.fingerprint(ident))
    layer = [0]
    gamma = [1]
    for _ in range(radius):
        candidates: list[FreeWord] = []
        for rep_idx in layer:
            rep = table.reps[rep_idx]
            for letter in _candidate_letters(rep, directions, handle.involutive):
                candidates.append(FreeWord(rep.letters + (letter,), handle.k))
        next_layer: list[int] = []
        for w in candidates:
            fp_val = table.fingerprint(w)
            matched = table.matches(w, fp_val)
            assert len(matched) <= 1, "distinct classes were jointly equal"
            if matched:
                continue
            next_layer.append(table.admit(w, fp_val))
        layer = next_layer
        gamma.append(len(table.reps))

    # edges, including boundary identification one step past the radius
    edges: dict[tuple[int, int], int] = {}
    for i, rep in enumerate(table.reps):
        for d, (idx, sign) in enumerate(directions):
            if rep.letters and rep.letters[-1] == (idx, -sign):
                target = FreeWord(rep.letters[:-1], handle.k)
            else:
                target = FreeWord(rep.letters + ((idx, sign),), handle.k)
            fp_val = table.fingerprint(target)
            matched = table.matches(target, fp_val)
            if matched:
                edges[(i, d)] = matched[0]
    return CayleyBall(radius, tuple(table.reps), edges, tuple(gamma))


def growth_sequence(handle: MarkedGroupHandle, n_max: int, threads: int = 1) -> list[int]:
    """gamma(0..n_max): element counts of the balls; nondecreasing."""
    return list(build_ball(handle, n_max).gamma)


# ---------------------------------------------------------------------------
# Lockstep comparison of two marked groups


@dataclass(frozen=True, slots=True)
class _Conflict:
    total: int
    word: FreeWord  # candidate
    other: FreeWord  # earlier representative equal in exactly one group
    trivial_in: int  # 0 or 1: which handle kills word . other^{-1}


@dataclass(slots=True)
class _LockstepResult:
    certified: int  # all words of length <= certified have consistent verdicts checked
    conflict: "_Conflict | None"  # minimal-total conflict, ties broken by discovery order
    conflict_count: int
    reps: list[FreeWord]  # joint-class representatives, admission order
    t1: _ClassTable
    t2: _ClassTable
    invol_both: tuple[bool, ...]

    @property
    def class_count(self) -> int:
        return len(self.reps)


def _lockstep(h1: MarkedGroupHandle, h2: MarkedGroupHandle, target_len: int) -> _LockstepResult:
    """Joint BFS certifying verdict agreement up to a word length.

    Processes candidate layers 1..M+1 where 2M+2 >= target_len; every pair of
    joint classes with representative lengths <= M+1 is cross-checked, which
    covers the balanced split of any disagreeing word of length <= 2M+2.
    """
    if h1.k != h2.k:
        raise ValueError("generator counts differ")
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    steps = max(0, -(-target_len // 2) - 1)  # ceil(target/2) - 1
    max_len = steps + 1
    t1 = _ClassTable(h1, max_len)
    t2 = _ClassTable(h2, max_len)
    directions = _directions(h1.k)
    invol_both = tuple(a and b for a, b in zip(h1.involutive, h2.involutive))

    ident = empty_word(h1.k)
    t1.admit(ident, t1.fingerprint(ident))
    t2.admit(ident, t2.fingerprint(ident))
    reps: list[FreeWord] = [ident]
    layer = [0]
    best: _Conflict | None = None
    count = 0

    for _ in range(max_len):
        candidates: list[FreeWord] = []
        for rep_idx in layer:
            rep = reps[rep_idx]
            for letter in _candidate_letters(rep, directions, invol_both):
                candidates.append(FreeWord(rep.letters + (letter,), h1.k))
        next_layer: list[int] = []
        for w in candidates:
            fp1, fp2 = t1.fingerprint(w), t2.fingerprint(w)
            eq1 = t1.matches(w, fp1)
            eq2 = t2.matches(w, fp2)
            set1, set2 = set(eq1), set(eq2)
            for idx in sorted(set1 ^ set2):
                count += 1
                conflict = _Conflict(
                    total=len(w) + len(reps[idx]),
                    word=w,
                    other=reps[idx],
                    trivial_in=0 if idx in set1 else 1,
                )
                if best is None or conflict.total < best.total:
                    best = conflict
            same = set1 & set2
            assert len(same) <= 1, "distinct joint classes were equal in both groups"
            if same:
                continue
            t1.admit(w, fp1)
            t2.admit(w, fp2)
            reps.append(w)
            next_layer.append(len(reps) - 1)
        layer = next_layer

    return _LockstepResult(2 * steps + 2, best, count, reps, t1, t2, invol_both)


def relation_agreement(h1: MarkedGroupHandle, h2: MarkedGroupHandle, max_len: int, threads: int = 1) -> bool:
    """True iff every freely reduced word of length <= max_len gets the same
    triviality verdict from both handles."""
    if max_len == 0:
        return True
    result = _lockstep(h1, h2, max_len)
    return result.conflict is None or result.conflict.total > max_len


def relation_agreement_exhaustive(h1: MarkedGroupHandle, h2: MarkedGroupHandle, max_len: int) -> bool:
    """Specification-of-record slow path: literal enumeration of all words."""
    if h1.k != h2.k:
        raise ValueError("generator counts differ")
    for w in enumerate_reduced(h1.k, max_len):
        if h1.trivial(w) != h2.trivial(w):
            return False
    return True


@dataclass(frozen=True, slots=True)
class AgreeRadius:
    """Largest N with ball-N agreement, and whether that is exact.

    ``exact`` False means the search hit its horizon: N is a lower bound and
    the distance report is the upper bound 2^{-N}. n = -1 means even the
    length-1 words disagree (some generator is trivial on one side only).
    """

    n: int
    exact: bool

    def distance_str(self) -> str:
        return f"2^-{self.n}" if self.exact else f"<= 2^-{self.n}"


def agree_radius(h1: MarkedGroupHandle, h2: MarkedGroupHandle, n_max: int, threads: int = 1) -> AgreeRadius:
    """Largest N <= n_max such that all words of length <= 2N+1 agree."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    result = _lockstep(h1, h2, 2 * n_max + 2)
    if result.conflict is None:
        return AgreeRadius(n_max, False)
    lam = result.conflict.total
    return AgreeRadius(min((lam - 2) // 2, n_max), True)


def relation_set(handle: MarkedGroupHandle, max_len: int) -> set[FreeWord]:
    """Exactly the trivial freely reduced words of length <= max_len."""
    return {w for w in enumerate_reduced(handle.k, max_len) if handle.trivial(w)}


def convergence_table(
    targets: Sequence[tuple[int, MarkedGroupHandle]],
    limit_handle: MarkedGroupHandle,
    n_max: int,
    threads: int = 1,
) -> list[dict]:
    """agree_radius of each (prefix_len, handle) against the limit handle."""
    rows = []
    for index, (prefix_len, handle) in enumerate(targets):
        r = agree_radius(handle, limit_handle, n_max)
        rows.append({"index": index, "prefix_len": prefix_len, "agree_N": r.n, "exact": r.exact})
    return rows


@dataclass(frozen=True, slots=True)
class SeparatorReport:
    """A word telling two marked groups apart, if one was found.

    ``word`` is None when no separator exists within the length bound;
    otherwise it is the first word in enumeration order (length-then-lex)
    with differing verdicts. ``square`` states whether it is a square in the
    free group (cyclic reduction with equal halves).
    """

    word: FreeWord | None
    length: int | None
    square: bool | None
    trivial_in: str | None


def _restricted_words(k: int, length: int, invol: tuple[bool, ...]):
    """All reduced words of a given length avoiding inverse letters and
    repeats of involutive generators, in enumeration (lex) order."""
    directions = _directions(k)
    word: list[tuple[int, int]] = []

    def rec():
        if len(word) == length:
            yield FreeWord(tuple(word), k)
            return
        last = word[-1] if word else None
        for idx, sign in directions:
            if invol[idx] and sign == -1:
                continue
            if last is not None:
                if last == (idx, -sign):
                    continue
                if invol[idx] and last == (idx, sign):
                    continue
            word.append((idx, sign))
            yield from rec()
            word.pop()

    yield from rec()


def _locate(res: _LockstepResult, w: FreeWord) -> int:
    """Joint class index of an arbitrary word within the lockstep horizon."""
    m1 = res.t1.matches(w, res.t1.fingerprint(w))
    m2 = res.t2.matches(w, res.t2.fingerprint(w))
    both = set(m1) & set(m2)
    assert len(both) == 1, f"word {w} not covered by the lockstep tables"
    return both.pop()


def _first_separator(res: _LockstepResult, lam: int) -> tuple[FreeWord, int]:
    """First word of length lam (enumeration order) with differing verdicts.

    Any minimal-length separator lies in the restricted language: flipping an
    involutive inverse letter preserves both verdicts and moves the word
    earlier, and a word with an involutive repeat equals a shorter word in
    both groups, where verdicts already agree. Each candidate u = p . q
    (balanced split) is a separator iff the joint classes of p and q^{-1}
    coincide in exactly one group, so the scan costs two class lookups per
    word instead of two oracle calls.
    """
    ids1 = res.t1.group_ids()
    ids2 = res.t2.group_ids()

    # classes that coincide with some other class in exactly one group
    by_g1: dict[int, list[int]] = {}
    by_g2: dict[int, list[int]] = {}
    for idx in range(len(res.reps)):
        by_g1.setdefault(ids1[idx], []).append(idx)
        by_g2.setdefault(ids2[idx], []).append(idx)
    has_partner = [
        any(ids2[j] != ids2[i] for j in by_g1[ids1[i]]) or any(ids1[j] != ids1[i] for j in by_g2[ids2[i]])
        for i in range(len(res.reps))
    ]

    k = res.t1.handle.k
    h = (lam + 1) // 2
    inv_class: dict[FreeWord, int] = {}
    suffixes = None  # built lazily: most prefixes have no conflict partner
    for p in _restricted_words(k, h, res.invol_both):
        cp = _locate(res, p)
        if not has_partner[cp]:
            continue
        if suffixes is None:
            suffixes = list(_restricted_words(k, lam - h, res.invol_both))
        p_last = p.letters[-1]
        for q in suffixes:
            if q.letters:
                first = q.letters[0]
                if first == (p_last[0], -p_last[1]):
                    continue
                if res.invol_both[first[0]] and first == p_last:
                    continue
            cq = inv_class.get(q)
            if cq is None:
                cq = _locate(res, q.inverse())
                inv_class[q] = cq
            same1 = ids1[cp] == ids1[cq]
            same2 = ids2[cp] == ids2[cq]
            if same1 != same2:
                u = FreeWord(p.letters + q.letters, k)
                return u, 0 if same1 else 1
    raise AssertionError(f"lockstep reported a conflict at total {lam} but no separator was reconstructed")


def find_separating_word(h1: MarkedGroupHandle, h2: MarkedGroupHandle, max_len: int, threads: int = 1) -> SeparatorReport:
    """First word (enumeration order) trivial in exactly one group, length <= max_len."""
    result = _lockstep(h1, h2, max_len)
    c = result.conflict
    if c is None or c.total > max_len:
        return SeparatorReport(None, None, None, None)
    word, side = _first_separator(result, c.total)
    label = (h1 if side == 0 else h2).label
    return SeparatorReport(word, len(word), is_square(word), label)


# ---------------------------------------------------------------------------
# CSV surfaces


def _open_out(out) -> tuple[io.TextIOBase, bool]:
    if hasattr(out, "write"):
        return out, False
    return open(out, "w", newline=""), True


def write_growth_csv(gamma: Sequence[int], out) -> None:
    """Rows n,gamma with a header; deterministic byte output."""
    fh, close = _open_out(out)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "gamma"])
        for n, g in enumerate(gamma):
            writer.writerow([n, g])
    finally:
        if close:
            fh.close()


def write_convergence_csv(rows: Sequence[dict], out) -> None:
    """Rows index,prefix_len,agree_N,exact with a header."""
    fh, close = _open_out(out)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "prefix_len", "agree_N", "exact"])
        for row in rows:
            writer.writerow([row["index"], row["prefix_len"], row["agree_N"], str(row["exact"]).lower()])
    finally:
        if close:
            fh.close()
