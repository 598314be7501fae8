"""Sentence segmentation and tokenization."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey.text import (
    _ABBREVIATIONS,
    _BOUNDARY,
    _is_initial,
    normalize_whitespace,
    segment_sentences,
    tokenize,
)


def test_two_plain_sentences():
    assert segment_sentences("A cat. A dog.") == ["A cat.", "A dog."]


def test_abbreviation_is_not_a_boundary():
    # Derived by hand against the fixed abbreviation list.
    assert segment_sentences("See Fig. 3 for details. Next point.") == [
        "See Fig. 3 for details.", "Next point."]


def test_no_terminator_is_one_sentence():
    assert segment_sentences("One sentence only") == ["One sentence only"]


def test_whitespace_only_yields_empty_list():
    assert segment_sentences("   \n\t ") == []


def test_et_al_and_eg_are_not_boundaries():
    text = "Smith et al. Proposed this. It works, e.g. On benchmarks."
    assert segment_sentences(text) == [
        "Smith et al. Proposed this.", "It works, e.g. On benchmarks."]


def test_initials_are_not_boundaries():
    assert segment_sentences("Written by J. Smith. Reviewed later.") == [
        "Written by J. Smith.", "Reviewed later."]


def test_question_and_exclamation_terminators():
    assert segment_sentences("Does it work? It does! Good.") == [
        "Does it work?", "It does!", "Good."]


def test_lowercase_after_terminator_is_not_a_boundary():
    assert segment_sentences("released v1.2 today. next item follows") == [
        "released v1.2 today. next item follows"]


def test_segmentation_normalizes_whitespace():
    assert segment_sentences("A  cat.\n\nA dog.") == ["A cat.", "A dog."]


# A constrained text alphabet that still exercises boundaries, digits and
# abbreviations.
_words = st.sampled_from(
    ["The", "model", "Fig.", "works", "fails", "e.g.", "On", "3", "data",
     "A", "update?", "done!", "results."])
_texts = st.lists(_words, min_size=0, max_size=30).map(" ".join)


@given(_texts)
def test_join_reconstructs_normalized_input(text):
    joined = " ".join(segment_sentences(text))
    assert joined == normalize_whitespace(text)


@given(_texts)
def test_segmentation_is_idempotent_per_sentence(text):
    for sentence in segment_sentences(text):
        assert segment_sentences(sentence) == [sentence]


@given(_texts)
def test_segmentation_is_deterministic(text):
    assert segment_sentences(text) == segment_sentences(text)


def test_tokenize_plain_words():
    assert tokenize("a b c") == ["a", "b", "c"]


def test_tokenize_punctuation_is_separate():
    # Golden: hand application of the word/punctuation split rule.
    assert tokenize("Faster R-CNN [cite].") == [
        "Faster", "R", "-", "CNN", "[", "cite", "]", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_numeric_markers():
    assert tokenize("see [12].") == ["see", "[", "12", "]", "."]


@given(st.text(max_size=80))
def test_tokenize_covers_all_non_whitespace(text):
    assert "".join(tokenize(text)) == "".join(text.split())


@given(st.text(max_size=80))
def test_tokenize_deterministic(text):
    assert tokenize(text) == tokenize(text)


def old_segment_sentences(text: str) -> list[str]:
    """``segment_sentences`` as it read the closing word before: from a copy
    of all the text before the terminator."""
    normalized = normalize_whitespace(text)
    if not normalized:
        return []
    sentences: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(normalized):
        end = match.end(1)
        word = normalized[:end].rsplit(" ", 1)[-1]
        if word.lower() in _ABBREVIATIONS or _is_initial(word):
            continue
        sentences.append(normalized[start:end])
        start = match.end()
    tail = normalized[start:]
    if tail:
        sentences.append(tail)
    return sentences


# Every abbreviation in both cases, initials, terminators glued to words,
# and whitespace runs, so closing words start at the text's start, after a
# space and after a run of them.
_closing_words = st.sampled_from(
    sorted(_ABBREVIATIONS) + [a.upper() for a in _ABBREVIATIONS]
    + ["J.", "a.", "Q.", "AB.", "x!", "Y?", "3.", "v1.2.", ".", "?!", "End.", "e.g.,"])
_pieces = st.lists(_words | _closing_words | st.sampled_from([" ", "\n\t ", "Zeta"]),
                   max_size=60)


@settings(max_examples=300, deadline=None)
@given(_pieces, st.booleans())
def test_segmentation_matches_the_copying_word_lookup(pieces, spaced):
    text = (" " if spaced else "").join(pieces)
    assert segment_sentences(text) == old_segment_sentences(text)


@settings(max_examples=20, deadline=None)
@given(st.lists(_words | _closing_words, min_size=200, max_size=800))
def test_segmentation_of_long_texts_matches_the_copying_word_lookup(words):
    text = " ".join(words)
    assert segment_sentences(text) == old_segment_sentences(text)
