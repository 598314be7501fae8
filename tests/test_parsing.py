"""Defensive parsing of agent responses."""

from __future__ import annotations

import pytest

from dynsurvey.parsing import (
    ParseFailure,
    extract_json_value,
    extract_single_paragraph,
    extract_true_false,
    extract_yes_no,
    parse_headed_summary,
    strip_reasoning,
)


def test_plain_json_object():
    assert extract_json_value('{"a": 1}') == {"a": 1}


def test_json_with_surrounding_prose():
    raw = 'Sure, here is the result:\n{"a": [1, 2]}\nHope that helps!'
    assert extract_json_value(raw) == {"a": [1, 2]}


def test_json_in_code_fence():
    raw = "```json\n{\"a\": 1}\n```"
    assert extract_json_value(raw) == {"a": 1}


def test_trailing_comma_is_repaired():
    assert extract_json_value('{"a": 1, "b": [1, 2,],}') == {"a": 1, "b": [1, 2]}


@pytest.mark.parametrize("raw, expected", [
    ('{"a": "x, ]"}', {"a": "x, ]"}),
    ('```json\n{"a": "run ```pip install x``` first"}\n```',
     {"a": "run ```pip install x``` first"}),
    ('{"a": "<think>x</think>"}', {"a": "<think>x</think>"}),
])
def test_string_contents_are_never_altered(raw, expected):
    assert extract_json_value(raw) == expected


@pytest.mark.parametrize("raw, hint", [
    ('{"a": "never closed}', "not balanced"),
    ('{"a": [1, 2]]', "not balanced"),
    ('{"a" 1} and [', "failed to parse"),
])
def test_failure_hints(raw, hint):
    with pytest.raises(ParseFailure, match=hint):
        extract_json_value(raw)


def test_array_payload():
    assert extract_json_value("ranked: [1, 2, 3]") == [1, 2, 3]


def test_no_json_rejected():
    with pytest.raises(ParseFailure, match="no JSON"):
        extract_json_value("there is nothing structured here")


def test_unbalanced_json_rejected():
    with pytest.raises(ParseFailure, match="not balanced"):
        extract_json_value('{"a": [1, 2}')


def test_reasoning_blocks_are_stripped():
    raw = "<think>first I consider {not json}</think>{\"a\": 1}"
    assert extract_json_value(raw) == {"a": 1}
    assert strip_reasoning("<think>x</think>rest") == "rest"


def test_true_false_extraction():
    assert extract_true_false("TRUE") is True
    assert extract_true_false("FALSE") is False
    assert extract_true_false("The answer is TRUE.") is True
    assert extract_true_false("Answer: false") is False
    assert extract_true_false("maybe") is None


def test_true_false_last_occurrence_wins():
    assert extract_true_false("TRUE or FALSE? I say FALSE") is False


def test_yes_no_extraction():
    assert extract_yes_no("yes") is True
    assert extract_yes_no("No.") is False
    assert extract_yes_no("I would answer yes here") is True
    assert extract_yes_no("unclear") is None


def test_headed_summary_happy_path():
    raw = "### Methods\nM text\n### Novelty\nN text\n### Results\nR text"
    fields = parse_headed_summary(raw, ("Methods", "Novelty", "Results"))
    assert fields == {"Methods": "M text", "Novelty": "N text", "Results": "R text"}


def test_headed_summary_missing_heading():
    raw = "### Methods\nM text\n### Novelty\nN text"
    with pytest.raises(ParseFailure, match="Results"):
        parse_headed_summary(raw, ("Methods", "Novelty", "Results"))


def test_headed_summary_empty_body_rejected():
    raw = "### Methods\n\n### Novelty\nN\n### Results\nR"
    with pytest.raises(ParseFailure, match="Methods"):
        parse_headed_summary(raw, ("Methods", "Novelty", "Results"))


def test_single_paragraph_accepted_and_joined():
    raw = "Name: line one\ncontinues here."
    assert extract_single_paragraph(raw) == "Name: line one continues here."


def test_multiple_paragraphs_rejected():
    with pytest.raises(ParseFailure, match="multiple paragraphs"):
        extract_single_paragraph("First paragraph.\n\nSecond paragraph.")


def test_header_line_rejected():
    with pytest.raises(ParseFailure, match="header"):
        extract_single_paragraph("## Update\nName: text.")


def test_empty_synthesis_rejected():
    with pytest.raises(ParseFailure, match="empty"):
        extract_single_paragraph("  \n ")
