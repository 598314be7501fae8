"""Deterministic sentence segmentation and tokenization.

Every component that touches survey text goes through these two
functions, so segmentation and token counts are comparable across the
update engine, the benchmark harness, and the metric suite. Both are
pure string functions with no configuration and no model assets; the
tokenizer identity is exported so reports can record it. This module
imports nothing from the package, so the document model can tokenize.
"""

from __future__ import annotations

import functools
import re
from itertools import chain
from typing import Iterable

TOKENIZER_ID = "whitespace-punct-v1"
# Distinct texts whose tokens stay memoised; room for every sentence of
# a 120k-word survey plus its table cells.
TOKEN_MEMO_SIZE = 2 ** 14

# Trailing abbreviations that never end a sentence, even when followed by
# whitespace and a capitalized word or a digit.
_ABBREVIATIONS = frozenset({
    "al.", "cf.", "e.g.", "eq.", "eqs.", "et.", "etc.", "fig.", "figs.",
    "i.e.", "no.", "ref.", "refs.", "sec.", "secs.", "vs.",
})

_BOUNDARY = re.compile(r"([.?!])\s+(?=[A-Z0-9])")
_TOKEN = re.compile(r"\w+|[^\w\s]")


def normalize_whitespace(text: str) -> str:
    """Collapse all whitespace runs to single spaces and trim the ends."""
    return " ".join(text.split())


def _is_initial(word: str) -> bool:
    # "J." in "J. Smith" marks an initial, not a sentence end.
    return len(word) == 2 and word[0].isalpha() and word[0].isupper() and word[1] == "."


def segment_sentences(text: str) -> list[str]:
    """Split text into sentences at ``.``, ``?`` or ``!`` boundaries.

    A terminator ends a sentence when it is followed by whitespace and an
    uppercase letter or digit, unless the word it closes is a known
    abbreviation or a single-letter initial. Whitespace is normalized
    first, so joining the result with single spaces reconstructs the
    normalized input. Whitespace-only input yields an empty list.
    """
    normalized = normalize_whitespace(text)
    if not normalized:
        return []
    sentences: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(normalized):
        end = match.end(1)
        word = normalized[normalized.rfind(" ", 0, end) + 1:end]
        if word.lower() in _ABBREVIATIONS or _is_initial(word):
            continue
        sentences.append(normalized[start:end])
        start = match.end()
    tail = normalized[start:]
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(text: str) -> list[str]:
    """Split text into word tokens and single punctuation tokens.

    Tokens are maximal runs of word characters or single non-word,
    non-space characters; all non-whitespace content is covered.
    """
    return _TOKEN.findall(text)


@functools.lru_cache(maxsize=TOKEN_MEMO_SIZE)
def memo_tokens(text: str) -> tuple[str, ...]:
    """``tokenize`` memoised per text; a tuple, so callers cannot alter it."""
    return tuple(tokenize(text))


def joined_tokens(texts: Iterable[str]) -> tuple[str, ...]:
    """The memoised tokens of ``texts``, chained into one tuple.

    No token spans whitespace, so this is ``tokenize(" ".join(texts))``.
    """
    return tuple(chain.from_iterable(map(memo_tokens, texts)))
