"""Test-only helpers: the flat token stream, replaying an edit script,
scoring coherence with an embedder, and reading citation markers."""

from __future__ import annotations

import itertools
import re
from typing import Sequence

from dynsurvey.document import Sentence, SurveyDocument, document_regions
from dynsurvey.endpoints import TextEmbedder
from dynsurvey.engine import CITE_PLACEHOLDER
from dynsurvey.metrics import EditOp, coherence_windows, embed, local_coherence

_NUMERIC_MARKER = re.compile(r"\[(\d+)\]")


def document_token_stream(
    doc: SurveyDocument,
) -> tuple[list[str], tuple[list[tuple[str, ...]], list[str], list[int]]]:
    """The maintained body of a document as one token stream, with its regions.

    The token tuples of ``document_regions`` joined: the whole-document
    stream the region-wise metrics are checked against; and the regions
    themselves, which ``delta_out`` reads.
    """
    regions = document_regions(doc)
    return list(itertools.chain.from_iterable(regions[0])), regions


def apply_edit_script(before: Sequence[str], ops: Sequence[EditOp]) -> list[str]:
    """Replay an edit script's ops over the before stream."""
    out: list[str] = []
    cursor = 0
    for op in ops:
        out.extend(before[cursor:op.before_pos])
        cursor = op.before_pos
        if op.op == "insert":
            out.append(op.token)
        else:
            cursor += 1
    out.extend(before[cursor:])
    return out


def embedded_local_coherence(
    update: Sequence[Sentence],
    doc: SurveyDocument,
    window: int,
    embedder: TextEmbedder,
) -> float | None:
    """Local coherence with the windows' vectors taken from ``embedder``."""
    windows = coherence_windows(update, doc, window)
    texts = [text for u, neighborhood in windows for text in (u, *neighborhood)]
    return local_coherence(windows, embed(texts, embedder))


def count_unresolved_placeholders(doc: SurveyDocument) -> int:
    total = 0
    for section in doc.sections:
        for sentence in section.sentences:
            total += sentence.text.count(CITE_PLACEHOLDER)
    return total


def cited_numbers(doc: SurveyDocument) -> set[int]:
    """All numeric citation markers appearing in section text."""
    found: set[int] = set()
    for section in doc.sections:
        for sentence in section.sentences:
            for match in _NUMERIC_MARKER.finditer(sentence.text):
                found.add(int(match.group(1)))
    return found
