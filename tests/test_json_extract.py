"""Differential tests: JSON extraction against the bracket-scanning reference.

The reference below strips reasoning blocks and code fences from the
whole response, walks it one character at a time to cut out the first
balanced value, drops every comma before a closing bracket and decodes
the slice. On inputs where that stripping and dropping touch nothing
inside the value's strings, the library's single decode must give the
same value, or fail likewise.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynsurvey import demo, parsing
from dynsurvey.agents import run_section_routing
from dynsurvey.document import serialize_document
from dynsurvey.parsing import ParseFailure, extract_json_value, interpret_json_value

from conftest import make_generator, make_summary

# --- reference implementation -----------------------------------------------

_THINK_BLOCK = re.compile(r"<think>.*?</think>", re.DOTALL | re.IGNORECASE)
_CODE_FENCE = re.compile(r"```[a-zA-Z0-9_-]*\n?|```")
_TRAILING_COMMA = re.compile(r",(\s*[}\]])")


def _string_positions(text: str) -> list[bool]:
    """Per character: whether the scan from ``text[0]`` is inside a string."""
    inside = []
    in_string = False
    escaped = False
    for char in text:
        inside.append(in_string)
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
        elif char == '"':
            in_string = True
    return inside


def _balanced_slice(text: str, start: int) -> str | None:
    opener = text[start]
    closer = {"{": "}", "[": "]"}[opener]
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        char = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
        elif char in "{[":
            depth += 1
        elif char in "}]":
            depth -= 1
            if depth == 0:
                if char != closer and opener in "{[":
                    return None
                return text[start:i + 1]
    return None


def reference_extract(text: str):
    cleaned = _CODE_FENCE.sub("", _THINK_BLOCK.sub("", text)).strip()
    starts = [i for i in (cleaned.find("{"), cleaned.find("[")) if i >= 0]
    if not starts:
        raise ParseFailure("response contains no JSON object or array")
    candidate = _balanced_slice(cleaned, min(starts))
    if candidate is None:
        raise ParseFailure("JSON payload is not balanced; close all brackets")
    candidate = _TRAILING_COMMA.sub(r"\1", candidate)
    try:
        return json.loads(candidate)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"JSON payload failed to parse: {exc.msg}") from exc


def _reference_drops_a_comma_in_a_string(text: str) -> bool:
    starts = [i for i in (text.find("{"), text.find("[")) if i >= 0]
    if not starts:
        return False
    value = text[min(starts):]
    inside = _string_positions(value)
    return any(inside[m.start()] for m in _TRAILING_COMMA.finditer(value))


def _outcome(extract, text: str):
    try:
        return "value", repr(extract(text))
    except ParseFailure:
        return "failure", None


# --- inputs -------------------------------------------------------------------

_SOUP_TOKENS = ("{", "}", "[", "]", '"', "\\", ",", ":", " ", "\n", "\t", "\u00a0",
                "1", "-", ".", "e", "a", "u", "/", "`", "true", "null", '"k"',
                '"v"', "Sure", "0.5")

_json_text = st.text(max_size=8)
_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False, allow_infinity=False) | _json_text)
_json_values = st.recursive(
    _json_scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_json_text, children, max_size=4)),
    max_leaves=8)
_json_containers = (st.lists(_json_values, max_size=4)
                    | st.dictionaries(_json_text, _json_values, max_size=4))


@st.composite
def _near_json(draw):
    """A dumped JSON value with trailing commas and soup tokens inserted."""
    text = json.dumps(draw(_json_containers), indent=draw(st.sampled_from([None, 1])))
    closers = [i for i, char in enumerate(text) if char in "}]"]
    commas = draw(st.sets(st.sampled_from(closers), max_size=2)) if closers else set()
    for at in sorted(commas, reverse=True):
        text = text[:at] + "," + text[at:]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_SOUP_TOKENS)) + text[at:]
    return text


_token_soup = st.lists(st.sampled_from(_SOUP_TOKENS), max_size=40).map("".join)


# --- properties -------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(_token_soup | _near_json())
def test_single_decode_matches_bracket_scanner(text):
    assume("```" not in text and "<think>" not in text.lower())
    assume(not _reference_drops_a_comma_in_a_string(text))
    assert _outcome(extract_json_value, text) == _outcome(reference_extract, text)


@settings(max_examples=150, deadline=None)
@given(
    value=_json_containers,
    indent=st.sampled_from([None, 2]),
    ensure_ascii=st.booleans(),
    before=st.text(st.characters(blacklist_characters="{[<")),
    reasoning=st.sampled_from(["", "<think>first {draft} [1,</think>\n"]),
    fenced=st.booleans(),
    after=st.text(),
)
def test_dumped_value_round_trips_through_prose_and_fences(
        value, indent, ensure_ascii, before, reasoning, fenced, after):
    payload = json.dumps(value, indent=indent, ensure_ascii=ensure_ascii)
    if fenced:
        payload = f"```json\n{payload}\n```"
    assert extract_json_value(before + reasoning + payload + after) == value


# --- the string pattern of the repair scans ---------------------------------------
#
# The repair scans once used the plain alternation for a string literal;
# they now use its unrolled form. Both must give the same ``sub`` output
# and the same ``findall`` tokens on any text.

_OLD_STRING = r'"(?:[^"\\]|\\.)*"'
_OLD_STRING_OR_TRAILING_COMMA = re.compile(rf"({_OLD_STRING})|,(?=\s*[}}\]])", re.DOTALL)
_OLD_STRING_OR_BRACKET = re.compile(rf'{_OLD_STRING}|["{{}}\[\]]', re.DOTALL)

_STRING_SOUP = st.lists(st.sampled_from(
    ('"', "\\", '\\"', "\\\\", '"abc', 'x"', "\n", "\r\n", "\t", " ", ",", "}", "]", "{", "[",
     ":", "a", "é", "\u2028", "\\u00e9", "\\n", "\\\n", '"\\\r', '\\"\n')), max_size=60).map("".join)


@st.composite
def _truncated_survey(draw):
    text = serialize_document(demo.demo_full_document())
    return text[:draw(st.integers(0, len(text)))] + draw(st.sampled_from(["", "\\", '"', ",\n"]))


def _same_scans(text):
    assert parsing._STRING_OR_TRAILING_COMMA.sub(r"\1", text) == \
        _OLD_STRING_OR_TRAILING_COMMA.sub(r"\1", text)
    assert parsing._STRING_OR_BRACKET.findall(text) == _OLD_STRING_OR_BRACKET.findall(text)


@settings(max_examples=500, deadline=None)
@given(_STRING_SOUP | _token_soup | _near_json())
def test_unrolled_string_pattern_scans_as_the_plain_one(text):
    _same_scans(text)
    _same_scans(text + "\\")


@settings(max_examples=100, deadline=None)
@given(_truncated_survey())
def test_unrolled_string_pattern_scans_a_truncated_survey_as_the_plain_one(text):
    _same_scans(text)


@pytest.mark.parametrize("text, hint", [
    ('{"sections": [{"id": "1", "text": "A cat', "JSON payload is not balanced; close all brackets"),
    ('{"a": [1, 2}', "JSON payload is not balanced; close all brackets"),
    ('{"a": [1, 2,], "b": tru,}', "JSON payload failed to parse: Expecting value"),
])
def test_repair_hints_are_pinned(text, hint):
    with pytest.raises(ParseFailure) as failure:
        extract_json_value(text)
    assert failure.value.hint == hint


def test_a_trailing_comma_reply_is_repaired():
    assert extract_json_value('Sure: {"a": [1, 2,], "b": {"c": "x,]\\\\", "d": "\\",}"},}') == \
        {"a": [1, 2], "b": {"c": "x,]\\", "d": '",}'}}


# --- an agent reads past a bracket in its prose ---------------------------------
#
# An agent reply is read by ``interpret_json_value``, which tries each
# ``{``/``[`` in turn; a baseline's whole-document reply by
# ``extract_json_value``, which tries only the first.


def _three(value):
    if not isinstance(value, list) or len(value) != 3:
        raise ParseFailure("return a JSON array of exactly 3 section IDs")
    return value


def test_a_bracketed_citation_before_the_ranking_is_read_past():
    text = 'Based on [1], my ranking: ["s1", "s2", "s3"]'
    assert extract_json_value(text) == [1]
    assert interpret_json_value(text, _three) == ["s1", "s2", "s3"]


def test_a_brace_in_the_prose_that_does_not_decode_is_read_past():
    text = 'Sections {see outline}: ["s1", "s2", "s3"]'
    with pytest.raises(ParseFailure):
        extract_json_value(text)
    assert interpret_json_value(text, _three) == ["s1", "s2", "s3"]


def test_section_routing_takes_the_ranking_after_a_bracketed_citation():
    state = demo.demo_full_state()
    generator = make_generator({
        "section_routing|p1|0": 'Based on [1], my ranking: ["2", "1", "3"]',
        "insertion_point|p1|0": "append",
    }, max_retries=0)
    decision = run_section_routing(make_summary("p1"), state.outline, state.document, generator)
    assert decision.ranked_sections == ("2", "1", "3")


@pytest.mark.parametrize("text, hint", [
    ("Based on [1], then [2, 3]", "return a JSON array of exactly 3 section IDs"),
    ('Sections {see outline}: ["s1", "s2"',
     "JSON payload failed to parse: Expecting property name enclosed in double quotes"),
    ("no value", "response contains no JSON object or array"),
])
def test_with_no_value_accepted_the_first_hint_is_reported(text, hint):
    with pytest.raises(ParseFailure) as failure:
        interpret_json_value(text, _three)
    assert failure.value.hint == hint


def _first_outcome(text):
    """What extract_json_value and then _three give: the value, or the hint."""
    try:
        return "value", repr(_three(extract_json_value(text)))
    except ParseFailure as exc:
        return "failure", exc.hint


@settings(max_examples=300, deadline=None)
@given(_token_soup | _near_json())
def test_an_agent_reads_the_first_value_as_before_and_reads_on_only_past_a_failure(text):
    first = _first_outcome(text)
    try:
        outcome = "value", repr(interpret_json_value(text, _three))
    except ParseFailure as exc:
        outcome = "failure", exc.hint
    if first[0] == "value" or outcome[0] == "failure":
        assert outcome == first


# --- a value cut off where the text ends ----------------------------------------
#
# ``_decode_at`` reports a value whose decode runs out of text as not
# balanced without the repair. ``old_decode_at`` is the function as it was
# before: every failed decode went through the repair and the bracket
# count. Both must give the same value, or the same hint, on every text.


def old_decode_at(text, start):
    try:
        return parsing._DECODER.raw_decode(text, start)[0]
    except json.JSONDecodeError:
        pass
    repaired = parsing._STRING_OR_TRAILING_COMMA.sub(r"\1", text[start:])
    try:
        return parsing._DECODER.raw_decode(repaired)[0]
    except json.JSONDecodeError as exc:
        if not parsing._brackets_pair_up(repaired):
            raise ParseFailure("JSON payload is not balanced; close all brackets") from exc
        raise ParseFailure(f"JSON payload failed to parse: {exc.msg}") from exc


def old_extract(text):
    start = parsing.json_value_start(text)
    if start is None:
        raise ParseFailure("response contains no JSON object or array")
    return old_decode_at(text, start)


def old_interpret(text, interpret):
    first = None
    for match in parsing._VALUE_START.finditer(text):
        if match.group(1):
            try:
                return interpret(old_decode_at(text, match.start()))
            except ParseFailure as exc:
                first = first or exc
    if first is None:
        raise ParseFailure("response contains no JSON object or array")
    raise first


def _hinted(read, *args):
    """The value ``read`` gives, or its hint."""
    try:
        return "value", repr(read(*args))
    except ParseFailure as exc:
        return "failure", exc.hint


CUT_KINDS = ("string", "escape", "comma", "colon", "number", "bracket", "anywhere")
_NUMBER_OR_LITERAL = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|true|false|null")
_ESCAPE = re.compile(r"\\(?:u[0-9a-fA-F]{4}|.)")


def cut_points(text: str) -> dict[str, list[int]]:
    """For each kind of point, every ``i`` where ``text[:i]`` ends at such a point.

    ``text`` is a JSON value as ``json.dumps`` writes it.
    """
    inside = _string_positions(text)
    points = {kind: [] for kind in CUT_KINDS}
    points["anywhere"] = list(range(1, len(text)))
    for i, char in enumerate(text):
        if inside[i]:
            points["string"].append(i)
        elif char == ",":
            points["comma"].append(i + 1)
        elif char == ":":
            points["colon"] += [i + 1, i + 2]
        elif char in "}]":
            points["bracket"] = [i]
    for match in _ESCAPE.finditer(text):
        if inside[match.start()]:
            points["escape"] += range(match.start() + 1, match.end())
    for match in _NUMBER_OR_LITERAL.finditer(text):
        if not inside[match.start()]:
            points["number"] += range(match.start() + 1, match.end())
    return points


_SURVEY = serialize_document(demo.demo_full_document())
_SURVEY_ASCII = json.dumps(json.loads(_SURVEY), indent=2, ensure_ascii=True)


@st.composite
def _cut_reply(draw):
    """A JSON value cut at a point of a drawn kind, perhaps with prose and reasoning around it."""
    value = draw(st.sampled_from([_SURVEY, _SURVEY_ASCII]) | _json_containers.map(
        lambda v: json.dumps(v, ensure_ascii=False)) | _json_containers.map(
        lambda v: json.dumps(v, indent=2, ensure_ascii=True)))
    points = cut_points(value)
    kind = draw(st.sampled_from([k for k in CUT_KINDS if points[k]] or ["anywhere"]))
    cut = value[:draw(st.sampled_from(points[kind]))] if points[kind] else value
    before = draw(st.sampled_from(["", "Here is the survey:\n```json\n",
                                   "<think>draft {a: [1,</think>\n", "Based on [1], then {x}: "]))
    after = draw(st.sampled_from(["", "", "\n```", " (cut)", "<think>more</think>"]))
    return before + cut + after


def _accept(value):
    return value


@settings(max_examples=1500, deadline=None)
@given(_cut_reply())
def test_a_cut_value_reads_as_the_repair_read_it(text):
    assert _hinted(extract_json_value, text) == _hinted(old_extract, text)
    for interpret in (_accept, _three):
        assert _hinted(interpret_json_value, text, interpret) == \
            _hinted(old_interpret, text, interpret)


@settings(max_examples=500, deadline=None)
@given(_token_soup | _near_json() | _STRING_SOUP)
def test_any_text_reads_as_the_repair_read_it(text):
    assert _hinted(extract_json_value, text) == _hinted(old_extract, text)
    assert _hinted(interpret_json_value, text, _three) == _hinted(old_interpret, text, _three)


@pytest.mark.parametrize("kind", CUT_KINDS)
def test_every_cut_of_the_survey_reads_as_the_repair_read_it(kind):
    for text in (_SURVEY, _SURVEY_ASCII):
        points = cut_points(text)[kind]
        for i in points[::max(1, len(points) // 150)]:
            assert _hinted(extract_json_value, text[:i]) == _hinted(old_extract, text[:i])


@pytest.fixture
def repairs(monkeypatch):
    """The texts the trailing-comma repair scanned."""
    scanned = []
    pattern = parsing._STRING_OR_TRAILING_COMMA

    class Recording:
        def sub(self, replacement, text):
            scanned.append(text)
            return pattern.sub(replacement, text)

    monkeypatch.setattr(parsing, "_STRING_OR_TRAILING_COMMA", Recording())
    return scanned


@pytest.mark.parametrize("text, message", [
    ('Sure: {"sections": [{"id": "1", "text": "A cat', "Unterminated string starting at"),
    ('{"text": "a \\', "Unterminated string starting at"),
    ('[1, ', "Expecting value"),
    ('{"a": ', "Expecting value"),
    ('{"a": [1, 22', "Expecting ',' delimiter"),
    ('{"a": 1}\n  ]', None),
    ('{"a"', "Expecting ':' delimiter"),
    ('{"a": 1, ', "Expecting property name enclosed in double quotes"),
    ('{', "Expecting property name enclosed in double quotes"),
])
def test_a_value_that_runs_out_of_text_is_not_balanced_without_the_repair(
        repairs, text, message):
    if message is None:  # a complete value: decoded, no repair
        assert extract_json_value(text) == {"a": 1}
        assert repairs == []
        return
    start = parsing.json_value_start(text)
    with pytest.raises(json.JSONDecodeError) as error:
        json.JSONDecoder().raw_decode(text, start)
    assert error.value.msg == message
    with pytest.raises(ParseFailure) as failure:
        extract_json_value(text)
    assert failure.value.hint == "JSON payload is not balanced; close all brackets"
    assert repairs == []


@pytest.mark.parametrize("text, hint", [
    # Errors before the end of the text: the repair runs.
    ('{"a": [1, 2,], "b": 3}', None),
    ('{"a": tru, "b": 1}', "JSON payload failed to parse: Expecting value"),
    ('{"a": [1, 2}', "JSON payload is not balanced; close all brackets"),
    ('{"a": [1, 2] (cut)}', "JSON payload failed to parse: Expecting ',' delimiter"),
    ('{"a": [1, 2] (cut)', "JSON payload is not balanced; close all brackets"),
    ('{"a": "caf\\u00', "JSON payload is not balanced; close all brackets"),
    ('{"a": 1.', "JSON payload is not balanced; close all brackets"),
    ('[tru', "JSON payload is not balanced; close all brackets"),
])
def test_an_error_before_the_end_still_takes_the_repair(repairs, text, hint):
    if hint is None:
        assert extract_json_value(text) == {"a": [1, 2], "b": 3}
    else:
        with pytest.raises(ParseFailure) as failure:
            extract_json_value(text)
        assert failure.value.hint == hint
    assert repairs == [text[parsing.json_value_start(text):]]
    assert _hinted(extract_json_value, text) == _hinted(old_extract, text)
