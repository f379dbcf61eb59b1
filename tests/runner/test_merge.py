"""The one-pass canonical writer against the two-pass reference.

``repro.runner.merge.digest`` must hash exactly the bytes the earlier
``json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))``
hashed: every committed fleet, soak and findings digest depends on it.
The property draws nested values from every shape ``canonical``
accepts; the examples pin the cases a plausible slip would get wrong
(``bool`` spelled as ``int``, dict items ordered by raw key, set
elements left unsorted, non-ASCII text left unescaped).
"""

import enum
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runner import merge

from . import reference_merge as reference


class Color(enum.IntEnum):
    RED = 1
    BLUE = 10


class Label(str):
    pass


class Weight(float):
    pass


class Mode(enum.Enum):
    ON = "on"


Pair = namedtuple("Pair", "left right")


@dataclass(frozen=True)
class Frozen:
    name: str
    value: object


@dataclass
class Plain:
    items: object
    flag: bool = False


_NAN = float("nan")
_INF = float("inf")

texts = st.one_of(
    st.text(max_size=6),
    st.text(alphabet=' !"\\\x00\x1f\x7fé☃\U0001d11e/az',
            max_size=6))
integers = st.one_of(
    st.integers(-1_000, 1_000),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-(2 ** 200), max_value=-(2 ** 64)))
floats = st.one_of(st.floats(),
                   st.sampled_from([0.0, -0.0, _NAN, _INF, -_INF, 1e16]))
scalars = st.one_of(
    st.none(), st.booleans(), integers, floats, texts, st.binary(max_size=4),
    st.sampled_from(Color), texts.map(Label), floats.map(Weight))
hashables = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.builds(Pair, inner, inner),
        st.builds(Frozen, texts, inner),
        st.frozensets(inner, max_size=3)),
    max_leaves=6)
values = st.recursive(
    st.one_of(hashables, st.binary(max_size=4).map(bytearray)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(Pair, inner, inner),
        st.dictionaries(hashables, inner, max_size=4),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.builds(Plain, inner, st.booleans()),
        st.builds(Frozen, texts, inner)),
    max_leaves=20)


class TestWriterMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(values)
    @example([True, False, 1, 0])
    @example({9: "nine", 10: "ten"})
    @example({"é": 1, "z": 2})
    @example(frozenset({9, 10}))
    @example({"café": ("☃", b"\x00\xff")})
    @example([[], (), {}, set(), frozenset(), b"", bytearray(), ""])
    @example({Frozen("a", 1): Plain([1.5, -0.0]), (1, "x"): None,
              b"k": Color.BLUE, True: Label("l"), 3: Pair(_NAN, -_INF)})
    def test_digest_equals_the_reference(self, value):
        assert merge.digest(value) == reference.digest(value)

    def test_equal_key_texts_keep_insertion_order(self):
        first, second = float("nan"), float("nan")
        for mapping in ({first: 1, second: 2}, {second: 2, first: 1}):
            assert merge.digest(mapping) == reference.digest(mapping)
        assert merge.digest({first: 1, second: 2}) != \
            merge.digest({second: 2, first: 1})


class TestUnknownTypes:
    @pytest.mark.parametrize("value", [
        object(), 1j, Decimal("1.5"), memoryview(b"x"), Mode.ON, Plain,
        [1, object()], {"k": (1, {2: 1j})}, {object(): 1},
        Plain([Decimal(1)]), {frozenset({1j})},
    ], ids=["object", "complex", "Decimal", "memoryview", "Enum",
            "dataclass-type", "in-list", "in-dict-value", "dict-key",
            "dataclass-field", "set-element"])
    def test_raise_type_error_on_both_sides(self, value):
        with pytest.raises(TypeError):
            reference.digest(value)
        with pytest.raises(TypeError):
            merge.digest(value)
