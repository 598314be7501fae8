"""Defensive parsing of structured agent output.

Accepted irregularities: prose, markdown code fences and ``<think>``
reasoning blocks around a JSON payload, which are skipped, not stripped,
and trailing commas outside string literals. An agent reply may also
hold brackets in the prose before its payload. String contents are never
altered. Anything else is rejected with a correction hint that the
retry machinery feeds back into the prompt.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Callable, TypeVar


class ParseFailure(Exception):
    """An agent response could not be interpreted.

    ``hint`` is a machine-readable correction appended to the prompt on
    retry.
    """

    def __init__(self, hint: str):
        super().__init__(hint)
        self.hint = hint


_THINK_BLOCK = re.compile(r"<think>.*?</think>", re.DOTALL | re.IGNORECASE)
_VALUE_START = re.compile(_THINK_BLOCK.pattern + r"|([{\[])", re.DOTALL | re.IGNORECASE)
# A JSON string literal, "unrolled" (Friedl, *Mastering Regular
# Expressions*, ch. 6): ``re`` takes each run of plain characters between
# escapes in one repeat of a character class, where the plain alternation
# ``"(?:[^"\\]|\\.)*"`` enters its group, and saves a backtrack point,
# once per character. Both match the same language, and both end a
# literal at its first unescaped quote, so every ``sub`` and ``findall``
# below gives the same result with either.
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_STRING_OR_TRAILING_COMMA = re.compile(rf"({_STRING})|,(?=\s*[}}\]])", re.DOTALL)
_STRING_OR_BRACKET = re.compile(rf'{_STRING}|["{{}}\[\]]', re.DOTALL)
_DECODER = json.JSONDecoder()
_NOT_BALANCED = "JSON payload is not balanced; close all brackets"
_TRUE_FALSE = re.compile(r"\b(TRUE|FALSE)\b", re.IGNORECASE)
_YES_NO = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_T = TypeVar("_T")


def strip_reasoning(text: str) -> str:
    return _THINK_BLOCK.sub("", text)


def _brackets_pair_up(text: str) -> bool:
    """Whether the value opening ``text`` closes, bracket for bracket."""
    expected = []
    for token in _STRING_OR_BRACKET.findall(text):
        if token == '"':  # a string literal that never closes
            return False
        if token in ("{", "["):
            expected.append("}" if token == "{" else "]")
        elif token in ("}", "]"):
            if not expected or expected.pop() != token:
                return False
            if not expected:
                return True
    return False


def json_value_start(text: str) -> int | None:
    """Where the first ``{`` or ``[`` outside a reasoning block is, if any."""
    return next((m.start() for m in _VALUE_START.finditer(text) if m.group(1)), None)


def extract_json_value(text: str):
    """Decode the first JSON object or array of a response.

    Text around the value is never read. A value cut off where the text
    ends (a reply cut off at the model's output limit) is reported as not
    balanced as soon as the decode reaches the end. Only when the value
    fails to decode anywhere else are its trailing commas dropped and the
    decode tried again; if that fails too, a value whose brackets do not
    close is reported as not balanced. The repair and the bracket count
    each scan the text once, in time linear in its length. Only the first
    ``{`` or ``[`` is tried, so a truncated whole-document reply fails
    here rather than decoding some entry after it. A baseline step reads
    a reply in the canonical document layout with
    ``document.revise_document`` and calls this only for any other reply;
    an agent reads its reply with ``interpret_json_value``.
    """
    start = json_value_start(text)
    if start is None:
        raise ParseFailure("response contains no JSON object or array")
    return _decode_at(text, start)


def interpret_json_value(text: str, interpret: Callable[[object], _T]) -> _T:
    """``interpret`` of the first JSON object or array of an agent reply that it accepts.

    Each ``{`` or ``[`` outside a reasoning block is tried in turn, read
    as ``extract_json_value`` reads the first, until one decodes to a
    value that ``interpret`` returns for instead of raising
    ``ParseFailure``. So a bracket in the prose before the value (``Based
    on [1], ...``) does not hide it. When none is accepted, the failure
    of the first is raised, the one ``extract_json_value`` and then
    ``interpret`` would give, so the correction hint stays that of the
    first value. A reply that decodes and is accepted at its first
    bracket costs what ``extract_json_value`` does; a rejected one costs
    up to one read of the rest of the text per bracket.
    """
    first: ParseFailure | None = None
    for match in _VALUE_START.finditer(text):
        if match.group(1):
            try:
                return interpret(_decode_at(text, match.start()))
            except ParseFailure as exc:
                first = first or exc
    if first is None:
        raise ParseFailure("response contains no JSON object or array")
    raise first


def _decode_at(text: str, start: int):
    """The JSON value at ``start``; see ``extract_json_value``.

    A decode that fails where the text ends, at ``len(text)`` or in a
    string that never closes (the decoder reports an unterminated string
    only there), accepted every byte before: there is no trailing comma
    outside a string to drop, and the open value cannot close. The repair
    would decode no further and the bracket count would find the value
    open, so the hint is raised at once. Any other failure takes the
    repair.
    """
    try:
        return _DECODER.raw_decode(text, start)[0]
    except json.JSONDecodeError as exc:
        if exc.pos == len(text) or exc.msg == "Unterminated string starting at":
            raise ParseFailure(_NOT_BALANCED) from exc
    repaired = _STRING_OR_TRAILING_COMMA.sub(r"\1", text[start:])
    try:
        return _DECODER.raw_decode(repaired)[0]
    except json.JSONDecodeError as exc:
        if not _brackets_pair_up(repaired):
            raise ParseFailure(_NOT_BALANCED) from exc
        raise ParseFailure(f"JSON payload failed to parse: {exc.msg}") from exc


def _last_answer(pattern: re.Pattern, text: str, positive: str) -> bool | None:
    """Lenient keyword extraction; the last occurrence wins."""
    matches = pattern.findall(strip_reasoning(text))
    return matches[-1].lower() == positive if matches else None


def extract_true_false(text: str) -> bool | None:
    return _last_answer(_TRUE_FALSE, text, "true")


def extract_yes_no(text: str) -> bool | None:
    return _last_answer(_YES_NO, text, "yes")


@functools.cache
def _heading_pattern(headings: tuple[str, ...]) -> re.Pattern:
    """The pattern of a heading line naming one of ``headings``, compiled once per tuple."""
    return re.compile(
        r"^\s{0,3}#{2,4}\s*(" + "|".join(re.escape(h) for h in headings) + r")\s*$",
        re.MULTILINE | re.IGNORECASE,
    )


def parse_headed_summary(text: str, headings: tuple[str, ...]) -> dict[str, str]:
    """Split ``### Heading`` structured output into a heading -> body map.

    Every requested heading must be present with a non-empty body.
    """
    cleaned = strip_reasoning(text)
    matches = list(_heading_pattern(headings).finditer(cleaned))
    found: dict[str, str] = {}
    for index, match in enumerate(matches):
        body_end = matches[index + 1].start() if index + 1 < len(matches) else len(cleaned)
        name = match.group(1).capitalize()
        found[name] = cleaned[match.end():body_end].strip()
    for heading in headings:
        if not found.get(heading, ""):
            raise ParseFailure(f'missing or empty "### {heading}" section')
    return {h: found[h] for h in headings}


def extract_single_paragraph(text: str) -> str:
    """Validate and normalize a one-paragraph synthesis response.

    Rejects empty output, multiple paragraphs, and header or meta lines.
    Line wraps within the paragraph are joined with single spaces.
    """
    cleaned = strip_reasoning(text).strip()
    if not cleaned:
        raise ParseFailure("response is empty; write exactly one paragraph")
    blocks = [b for b in re.split(r"\n\s*\n", cleaned) if b.strip()]
    if len(blocks) > 1:
        raise ParseFailure("response has multiple paragraphs; write exactly one")
    lines = [line.strip() for line in blocks[0].splitlines()]
    for line in lines:
        if line.startswith("#"):
            raise ParseFailure("response contains a header line; emit prose only")
        if re.match(r"^(OUTPUT|CONTINUATION PARAGRAPH)\s*:?\s*$", line, re.IGNORECASE):
            raise ParseFailure("response contains a meta label; emit prose only")
    return " ".join(lines)
