"""The canonical JSON renderer against ``json.dumps``, its oracle.

``document._canonical(value, indent)`` must write exactly
``json.dumps(value, indent=2, ensure_ascii=False)`` with every line after
the first indented by ``indent`` more, for any JSON-encodable tree: the
types it writes itself and the ones it hands to ``json.dumps``. Its
string encoder ``_encode`` must write what ``encode_basestring``, the
encoder ``json.dumps(ensure_ascii=False)`` uses, writes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring, encode_basestring_ascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import document
from dynsurvey.document import Reference, SurveyDocument, serialize_document


class Text(str):
    pass


class Number(int):
    pass


class Mapping(dict):
    pass


class Items(list):
    pass


def oracle(value, indent: str = "") -> str:
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + indent)


# Every C0 control, U+007F, the escaped ASCII characters, letters outside
# ASCII, U+2028/9, an astral character and both halves of a surrogate pair
# standing alone, next to any code point (surrogates included).
_SPECIAL = st.sampled_from(
    [chr(c) for c in range(0x20)] + ["\x7f", '"', "\\", "/", "\xe9", "\xdf", "\u0416", "\u6f22",
                                     "\u2028", "\u2029", "\U0001f600", "\ud800", "\udfff",
                                     "\ufeff"])
_CHARACTERS = st.one_of(st.characters(min_codepoint=0, max_codepoint=0x7f), _SPECIAL,
                        st.characters(exclude_categories=()))
_STRINGS = st.text(_CHARACTERS, max_size=12)
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"),
                                                  float("nan"), 1e300, 5e-324]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _STRINGS,
                     _STRINGS.map(Text), st.integers().map(Number))
# Mostly str keys, the renderer's own case; int, bool, float and None keys
# send their dict to ``json.dumps``.
_KEYS = st.one_of(_STRINGS, _STRINGS, _STRINGS, st.integers(), st.booleans(), _FLOATS,
                  st.none())
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(_STRINGS, children, max_size=3).map(Mapping),
        st.lists(children, max_size=3).map(Items),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES, st.sampled_from(["", "  ", "    ", "      "]))
def test_the_renderer_writes_what_json_dumps_writes(value, indent):
    assert document._canonical(value, indent) == oracle(value, indent)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], {"": ""}, True, False, None, 0, -1,
    {"n": 1, "b": True, "z": 0, "f": False, "x": None},
    [1, True, 0, False, None, 1.0, -0.0],
    {1: "int key"}, {True: "bool key"}, {None: "null key"}, {1.5: "float key"},
    {"a": 1, 2: "a str key then an int key"},
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "neg zero": -0.0},
    {"nested": {"deep": [{"k": [1, {"x": {"y": ["\x7f", "é", "\ud800"]}}]}]}},
    Text("a subclass"), Number(7), Mapping(a=1), Items([1, 2]),
    {"s": Text("x"), Text("k"): 1, "m": Mapping(b=[1.5])},
], ids=repr)
def test_pinned_values_render_as_json_dumps_writes_them(value):
    for indent in ("", "    "):
        assert document._canonical(value, indent) == oracle(value, indent)


def test_bool_never_renders_as_int():
    assert document._canonical([True, False, 1, 0], "") == '[\n  true,\n  false,\n  1,\n  0\n]'
    assert document._canonical({"v": True}, "") == '{\n  "v": true\n}'


def test_a_value_json_cannot_encode_raises_its_error():
    for value in ({"a": {1, 2}}, [object()], {(1, 2): "tuple key"}):
        with pytest.raises(TypeError):
            oracle(value)
        with pytest.raises(TypeError):
            document._canonical(value, "")


@settings(max_examples=1000, deadline=None)
@given(st.text(_CHARACTERS, max_size=40))
def test_encode_matches_encode_basestring(text):
    assert document._encode(text) == encode_basestring(text)


def test_encode_matches_encode_basestring_on_every_ascii_code_point():
    for code in range(128):
        char = chr(code)
        for text in (char, f"a{char}b", char * 3, f"é{char}"):
            assert document._encode(text) == encode_basestring(text), hex(code)


def test_the_two_encoders_differ_on_ascii_only_at_u007f():
    differ = [code for code in range(128)
              if encode_basestring_ascii(chr(code)) != encode_basestring(chr(code))]
    assert differ == [0x7F]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_STRINGS, _VALUES, max_size=3), _SCALARS, _SCALARS,
       st.dictionaries(_STRINGS, _VALUES, max_size=3))
def test_a_document_with_any_metadata_and_reference_serializes_as_json_dumps(metadata, key,
                                                                             number, bib):
    # A reference built directly may hold a key and a number of any type.
    doc = SurveyDocument(metadata, (), (), (Reference(key, number, bib),))
    assert serialize_document(doc) == json.dumps(
        document.document_to_dict(doc), indent=2, ensure_ascii=False) + "\n"
