"""Value semantics of the package's types, swept exhaustively over small spaces.

The four validated value types (FreeWord, OmegaWord, LampElement, SSpec) are
immutable slotted classes and the five records are named tuples. For every
value: equality holds exactly when all fields are equal, a value hashes as
the tuple of its fields, the repr evaluates back to an equal value, fields can be neither
assigned nor deleted, and each invalid input raises its ValueError message.
"""

import copy
import pickle
from itertools import product

import pytest

import oracles
from markedgroups.circle_product import VARIANTS, SSpec
from markedgroups.grigorchuk import OmegaWord
from markedgroups.handles import lamplighter_handle
from markedgroups.lamplighter import LampElement, lamp_identity, lamp_inverse, lamp_multiply, lamp_s, lamp_t
from markedgroups.marked_space import (
    AgreeRadius,
    CayleyBall,
    MarkedGroupHandle,
    SeparatorReport,
    _LockstepResult,
    _lockstep,
    build_ball,
    find_separating_word,
)
from markedgroups.words import FreeWord

FIELDS = {
    FreeWord: ("letters", "rank"),
    OmegaWord: ("preperiod", "period"),
    LampElement: ("n", "lamps", "shift"),
    SSpec: ("m", "variant"),
}
NAMESPACE = {cls.__name__: cls for cls in [*FIELDS, AgreeRadius, CayleyBall, SeparatorReport, _LockstepResult]}


def _words(alphabet, max_len):
    return [w for n in range(max_len + 1) for w in product(alphabet, repeat=n)]


def _free_words():
    # every word of at most 3 letters in ranks 2 and 3; a rank-2 word and the
    # same letters in rank 3 are different values
    return [
        FreeWord(letters, rank)
        for rank in (2, 3)
        for letters in _words([(i, s) for i in range(rank) for s in (1, -1)], 3)
    ]


def _omega_words():
    return [OmegaWord(pre, per) for pre in _words((0, 1, 2), 2) for per in _words((0, 1, 2), 3) if per]


def _lamp_elements(n):
    gens = {"s": lamp_s(n), "S": lamp_inverse(lamp_s(n)), "t": lamp_t(n), "T": lamp_inverse(lamp_t(n))}
    out = []
    for word in _words("sStT", 4):
        elem = lamp_identity(n)
        for ch in word:
            elem = lamp_multiply(elem, gens[ch])
        out.append((word, elem))
    return out


def _sspecs():
    return [SSpec(m, variant) for m in range(1, 5) for variant in VARIANTS]


VALUES = {
    "FreeWord": _free_words(),
    "OmegaWord": _omega_words(),
    "LampElement": [elem for n in (2, 3) for _, elem in _lamp_elements(n)],
    "SSpec": _sspecs(),
}


def _fields(x):
    return tuple(getattr(x, name) for name in FIELDS[type(x)])


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_equal_exactly_when_fields_equal_and_hash_agrees(kind):
    values = VALUES[kind]
    for x in values:
        assert x == x and not x != x
        assert hash(x) == hash(_fields(x))  # pins set and dict orders
        assert x != _fields(x)  # a value never equals a bare tuple of its fields
        for y in values:
            same = _fields(x) == _fields(y)
            assert (x == y) is same and (x != y) is not same, (x, y)
            if same:
                assert hash(x) == hash(y), (x, y)
    assert len(set(values)) == len({_fields(x) for x in values})


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_repr_evaluates_to_an_equal_value(kind):
    for x in VALUES[kind]:
        assert eval(repr(x), NAMESPACE) == x, repr(x)
        assert repr(x).startswith(f"{kind}({FIELDS[type(x)][0]}=")


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_fields_cannot_be_assigned_or_deleted(kind):
    # fresh copies, so that a value this test manages to change is no other test's input
    for x in [type(v)(*_fields(v)) for v in VALUES[kind]]:
        before = _fields(x)
        for name in FIELDS[type(x)]:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = None
        assert _fields(x) == before


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_values_copy_and_pickle_to_equal_values(kind):
    for x in VALUES[kind]:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x


def test_omega_words_are_equal_exactly_when_their_sequences_are():
    # canonical forms: a preperiod of <= 2 and a period of <= 3 are decided
    # by the first 2 + lcm(1, 2, 3) * 2 symbols
    values = VALUES["OmegaWord"]
    seqs = [tuple(x.at(i) for i in range(14)) for x in values]
    for x, sx in zip(values, seqs):
        assert OmegaWord(x.preperiod, x.period) == x
        for y, sy in zip(values, seqs):
            assert (x == y) is (sx == sy), (x, y)


def test_lamp2_elements_are_equal_exactly_when_the_group_elements_are():
    letter = {"s": (0, 1), "S": (0, -1), "t": (1, 1), "T": (1, -1)}
    pairs = [(oracles.lamp_word_element([letter[ch] for ch in word]), elem) for word, elem in _lamp_elements(2)]
    for ox, x in pairs:
        for oy, y in pairs:
            assert (x == y) is (ox == oy), (x, y)


def _free_word_message(letters, rank):
    if rank < 1:
        return "rank must be >= 1"
    for idx, sign in letters:
        if not 0 <= idx < rank:
            return f"generator index {idx} out of range for rank {rank}"
        if sign not in (1, -1):
            return f"sign must be +1 or -1, got {sign}"
    return None


def _omega_message(pre, per):
    if not per:
        return "period must be nonempty"
    if any(sym not in (0, 1, 2) for sym in pre + per):
        return "symbols must be 0, 1 or 2"
    return None


def _lamp_message(n, lamps):
    if n < 2:
        return "modulus must be >= 2"
    positions = [p for p, _ in lamps]
    if positions != sorted(positions) or len(set(positions)) != len(positions):
        return "lamps must be sorted by position with unique positions"
    if any(not 0 < v < n for _, v in lamps):
        return "lamp values must be nonzero residues"
    return None


def _sspec_message(m, variant):
    if m < 1:
        return "m must be >= 1"
    if variant not in VARIANTS:
        return "variant must be one of ('original', 'corrected')"
    return None


def _invalid_inputs():
    for rank in (0, 1, 2):
        for letters in _words([(i, s) for i in (-1, 0, 2) for s in (1, -1, 0, 2)], 2):
            yield FreeWord, (letters, rank), _free_word_message(letters, rank)
    for pre in _words((0, 3, -1), 2):
        for per in _words((1, 3, -1), 2):
            yield OmegaWord, (pre, per), _omega_message(pre, per)
    for n in (1, 2, 3):
        for lamps in _words([(p, v) for p in (0, 1) for v in (-1, 0, 1, 2, 3)], 2):
            yield LampElement, (n, lamps, 0), _lamp_message(n, lamps)
    for m in (-1, 0, 1):
        for variant in (*VARIANTS, "Corrected", ""):
            yield SSpec, (m, variant), _sspec_message(m, variant)


def test_invalid_inputs_raise_their_messages():
    checked = 0
    for cls, args, message in _invalid_inputs():
        if message is None:
            cls(*args)
            continue
        with pytest.raises(ValueError) as exc:
            cls(*args)
        assert str(exc.value) == message, (cls, args)
        checked += 1
    assert checked > 900
    assert SSpec(2) == SSpec(2, "corrected") == SSpec(m=2, variant="corrected")


# -- records ------------------------------------------------------------------

LAMP = lamplighter_handle(2)


def _records():
    return [
        build_ball(LAMP, 2),
        _lockstep(LAMP, lamplighter_handle(3), 4),
        AgreeRadius(7, True),
        find_separating_word(LAMP, lamplighter_handle(3), 8),
        SeparatorReport(None, None),
    ]


def test_records_are_named_tuples_with_value_semantics():
    for x in [LAMP, *_records()]:
        assert isinstance(x, tuple) and x == tuple(x) and x == type(x)(*x)
        fields = type(x)._fields
        assert repr(x).startswith(f"{type(x).__name__}({fields[0]}=")
        assert type(x)._make(getattr(x, name) for name in fields) == x
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = None
    assert isinstance(LAMP, MarkedGroupHandle) and LAMP.involutive == (True, False)
    assert hash(AgreeRadius(7, True)) == hash(AgreeRadius(n=7, exact=True)) == hash((7, True))
    assert AgreeRadius(7, True) != AgreeRadius(7, False)


def test_record_reprs_evaluate_to_equal_records():
    # a handle's fields include functions, whose reprs do not evaluate
    for x in _records():
        assert eval(repr(x), NAMESPACE) == x, repr(x)
    assert repr(AgreeRadius(7, True)) == "AgreeRadius(n=7, exact=True)"
    report = find_separating_word(LAMP, lamplighter_handle(3), 8)
    assert report.word is not None and report.trivial_in == "lamp2"
