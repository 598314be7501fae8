"""Evaluation metrics over update steps: similarity, quality, disruption.

All metric functions are pure. Token-level disruption runs over a
combined stream of section and table content; the reference list and
document metadata are bookkeeping maintained programmatically and are
not part of the edit accounting. Embedding-backed metrics return None
when no embedder is available; absent values are never replaced by
zeros.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .document import Sentence, SurveyDocument
from .endpoints import TextEmbedder
from .errors import EvaluationError, MetricUnavailableError
from .text import tokenize

logger = logging.getLogger(__name__)

BLEU_SMOOTHING_ID = "add-one-zero-orders"
DEFAULT_ROUGE_BETA = 1.0
DEFAULT_COHERENCE_WINDOW = 2
DEFAULT_FIDELITY_TAU = 0.6

# Distinct texts whose tokens stay memoised; room for every sentence of
# a 120k-word survey plus its table cells.
_TOKEN_MEMO_SIZE = 2 ** 14
# First slice length a diagonal run is compared in.
_SNAKE_CHUNK = 16


# ---------------------------------------------------------------------------
# Token diff and disruption


@dataclass(frozen=True)
class EditOp:
    """One token edit. Deletes carry a before-stream index; inserts carry
    the before-stream gap they land in plus their after-stream index."""

    op: str  # "insert" | "delete"
    before_pos: int
    after_pos: int
    token: str


@dataclass(frozen=True)
class EditScript:
    ops: tuple[EditOp, ...]


@dataclass(frozen=True)
class TokenRegion:
    region_id: str  # "section:<id>" or "table:<id>"
    start: int
    end: int  # exclusive


def _snake(a: Sequence[str], b: Sequence[str], x: int, y: int) -> int:
    """Follow the diagonal from ``(x, y)`` while ``a[x] == b[y]``; return the end x.

    Compares whole slices, doubling the span while they match and halving
    it after a mismatch, so a long common run costs a few C-level
    comparisons instead of one Python iteration per token.
    """
    n, m = len(a), len(b)
    step, grow = _SNAKE_CHUNK, True
    while step and x < n and y < m:
        span = min(step, n - x, m - y)
        if a[x:x + span] == b[y:y + span]:
            x += span
            y += span
            if grow:
                step *= 2
        else:
            grow = False
            step = span // 2
    return x


def _shortest_edit_trace(a: Sequence[str], b: Sequence[str]) -> list[dict[int, int]]:
    """Forward pass of the greedy shortest-edit-script search.

    The d=0 snake is the common prefix of ``a`` and ``b``, so that prefix
    is skipped by chunked slice comparisons before any edit is considered.
    """
    n, m = len(a), len(b)
    trace: list[dict[int, int]] = []
    prev: dict[int, int] = {1: 0}
    for d in range(n + m + 1):
        current: dict[int, int] = {}
        for k in range(-d, d + 1, 2):
            if k == -d:
                x = prev.get(k + 1, 0)
            elif k == d:
                x = prev.get(k - 1, 0) + 1
            else:
                if prev[k - 1] < prev[k + 1]:
                    x = prev[k + 1]
                else:
                    x = prev[k - 1] + 1
            y = x - k
            if x < n and y < m and a[x] == b[y]:
                x = _snake(a, b, x + 1, y + 1)
                y = x - k
            current[k] = x
            if x >= n and y >= m:
                trace.append(current)
                return trace
        trace.append(current)
        prev = current
    raise AssertionError("shortest edit search must terminate within n+m steps")


def token_edit_script(before: Sequence[str], after: Sequence[str]) -> EditScript:
    """Minimal token edit script turning ``before`` into ``after``.

    Only insert and delete operations are emitted; a substitution appears
    as one delete plus one insert. The script length equals
    ``len(before) + len(after) - 2 * LCS``.

    The common prefix is skipped before the search (it is the search's
    own first diagonal run), but the common suffix is not trimmed: the
    search breaks ties between equally short scripts using the tokens
    after the edit, so trimming the suffix can pick another script,
    moving op positions and with them the regions ``delta_out`` charges.
    ``['b','a','a','a'] -> ['a','a']`` gives ``delete@0, delete@3`` here
    but ``delete@0, delete@1`` once the suffix is trimmed.
    """
    if type(before) is not type(after):
        # Slice comparison in ``_snake`` needs both sides of one type.
        before, after = list(before), list(after)
    if before == after:
        # Cheaper than the search for the many unchanged sections that
        # derive_inserted_sentences diffs; no cost when the lengths differ.
        return EditScript(ops=())
    trace = _shortest_edit_trace(before, after)
    ops: list[EditOp] = []
    x, y = len(before), len(after)
    for d in range(len(trace) - 1, 0, -1):
        prev = trace[d - 1]
        k = x - y
        # Arriving from diagonal k+1 is an insert, from k-1 a delete; the
        # diagonal run between that edit and (x, y) needs no walking.
        inserted = k == -d or (k != d and prev.get(k - 1, -1) < prev.get(k + 1, -1))
        prev_k = k + 1 if inserted else k - 1
        prev_x = prev[prev_k]
        prev_y = prev_x - prev_k
        if inserted:
            ops.append(EditOp("insert", prev_x, prev_y, after[prev_y]))
        else:
            ops.append(EditOp("delete", prev_x, prev_y, before[prev_x]))
        x, y = prev_x, prev_y
    ops.reverse()
    return EditScript(ops=tuple(ops))


def apply_edit_script(before: Sequence[str], script: EditScript) -> list[str]:
    """Replay an edit script over the before stream."""
    out: list[str] = []
    cursor = 0
    for op in script.ops:
        out.extend(before[cursor:op.before_pos])
        cursor = op.before_pos
        if op.op == "insert":
            out.append(op.token)
        else:
            cursor += 1
    out.extend(before[cursor:])
    return out


@functools.lru_cache(maxsize=_TOKEN_MEMO_SIZE)
def _memo_tokens(text: str) -> tuple[str, ...]:
    """``tokenize`` memoised per text; a tuple, so callers cannot alter it."""
    return tuple(tokenize(text))


def document_token_stream(doc: SurveyDocument) -> tuple[list[str], list[TokenRegion]]:
    """Tokenize the maintained body of a document with region boundaries.

    Sections contribute their sentence text; tables contribute their
    title and cell values in schema order. References and metadata are
    excluded from the stream.
    """
    tokens: list[str] = []
    regions: list[TokenRegion] = []
    for section in doc.sections:
        start = len(tokens)
        for sentence in section.sentences:
            tokens.extend(_memo_tokens(sentence.text))
        regions.append(TokenRegion(f"section:{section.id}", start, len(tokens)))
    for table in doc.tables:
        start = len(tokens)
        tokens.extend(_memo_tokens(table.title))
        for row in table.rows:
            for column in table.schema:
                tokens.extend(_memo_tokens(str(row.get(column.name, ""))))
        regions.append(TokenRegion(f"table:{table.id}", start, len(tokens)))
    return tokens, regions


def token_diff(before: SurveyDocument, after: SurveyDocument) -> EditScript:
    """Minimal token edit script between two documents' body streams."""
    before_tokens, _ = document_token_stream(before)
    after_tokens, _ = document_token_stream(after)
    return token_edit_script(before_tokens, after_tokens)


def delta_tokens(script: EditScript) -> int:
    """Total edit magnitude: insertions plus deletions."""
    return len(script.ops)


def _region_at(position: int, regions: list[TokenRegion]) -> str | None:
    for region in regions:
        if region.start <= position < region.end:
            return region.region_id
    return None


def delta_out(
    script: EditScript,
    scope: set[str],
    before_regions: list[TokenRegion],
    after_regions: list[TokenRegion],
) -> int:
    """Count edit operations that fall outside the scope regions.

    Deletions are attributed by their before-stream position, insertions
    by their after-stream position. With scope covering every region the
    count is zero; with an empty scope it equals ``delta_tokens``.
    """
    outside = 0
    for op in script.ops:
        if op.op == "delete":
            region = _region_at(op.before_pos, before_regions)
        else:
            region = _region_at(op.after_pos, after_regions)
        if region not in scope:
            outside += 1
    return outside


def derive_inserted_sentences(
    before: SurveyDocument,
    after: SurveyDocument,
) -> list[Sentence]:
    """Sentences of ``after`` that are new or changed relative to ``before``.

    Alignment is a per-section minimal sentence-level diff over sentence
    texts; after-side sentences that do not match are returned in
    document order. Sections absent from ``before`` count entirely.
    """
    before_sections = {s.id: s for s in before.sections}
    inserted: list[Sentence] = []
    for section in after.sections:
        old = before_sections.get(section.id)
        old_texts = [s.text for s in old.sentences] if old else []
        new_texts = [s.text for s in section.sentences]
        script = token_edit_script(old_texts, new_texts)
        new_positions = {op.after_pos for op in script.ops if op.op == "insert"}
        inserted.extend(s for i, s in enumerate(section.sentences) if i in new_positions)
    return inserted


# ---------------------------------------------------------------------------
# Lexical similarity


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(current[j - 1], previous[j]))
        previous = current
    return previous[len(b)]


def rouge_l(candidate: str, reference: str, beta: float = DEFAULT_ROUGE_BETA) -> float:
    """Longest-common-subsequence F score between two texts.

    Recall is LCS over the reference length, precision LCS over the
    candidate length, combined with the weighted harmonic mean. Empty
    candidate or reference scores 0 by convention.
    """
    candidate_tokens = tokenize(candidate)
    reference_tokens = tokenize(reference)
    if not candidate_tokens or not reference_tokens:
        logger.info("rouge_l over an empty side scores 0 by convention")
        return 0.0
    lcs = _lcs_length(candidate_tokens, reference_tokens)
    recall = lcs / len(reference_tokens)
    precision = lcs / len(candidate_tokens)
    denominator = recall + beta * beta * precision
    if denominator == 0.0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denominator


def _ngram_counts(tokens: Sequence[str], order: int) -> Counter:
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


def bleu_4(candidate: str, reference: str) -> float:
    """BLEU-4 with brevity penalty and add-one smoothing on zero orders.

    Modified n-gram precisions are clipped against the reference counts.
    An order with zero matches is smoothed to ``1 / (total + 1)``; orders
    the candidate is too short to populate contribute a factor of one.
    An empty candidate scores 0.
    """
    candidate_tokens = tokenize(candidate)
    reference_tokens = tokenize(reference)
    if not candidate_tokens:
        return 0.0
    log_sum = 0.0
    for order in range(1, 5):
        counts = _ngram_counts(candidate_tokens, order)
        total = max(len(candidate_tokens) - order + 1, 0)
        if total == 0:
            continue  # factor of one after smoothing over an empty order
        reference_counts = _ngram_counts(reference_tokens, order)
        matched = sum(min(count, reference_counts[gram]) for gram, count in counts.items())
        if matched == 0:
            precision = 1.0 / (total + 1)
        else:
            precision = matched / total
        log_sum += math.log(precision)
    c, r = len(candidate_tokens), len(reference_tokens)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum / 4.0)


# ---------------------------------------------------------------------------
# Embedding-based metrics


def embed(texts: Sequence[str], embedder: TextEmbedder) -> list[list[float]]:
    """Batch texts through an embedder; transport failures surface as
    MetricUnavailableError so callers report the metric absent."""
    if not texts:
        return []
    try:
        return embedder.embed(list(texts))
    except MetricUnavailableError:
        raise
    except Exception as exc:
        raise MetricUnavailableError(f"embedding backend failed: {exc}") from exc


def cosine(x: Sequence[float], y: Sequence[float]) -> float:
    """Inner product over the product of norms."""
    if len(x) != len(y):
        raise EvaluationError(f"cosine over mismatched dimensions {len(x)} and {len(y)}")
    norm_x = math.sqrt(math.fsum(v * v for v in x))
    norm_y = math.sqrt(math.fsum(v * v for v in y))
    if norm_x == 0.0 or norm_y == 0.0:
        raise EvaluationError("cosine similarity is undefined for a zero vector")
    return math.fsum(a * b for a, b in zip(x, y)) / (norm_x * norm_y)


def bert_similarity(update_text: str, reference_text: str, embedder: TextEmbedder) -> float:
    """Cosine similarity of the pooled embeddings of two texts."""
    vectors = embed([update_text, reference_text], embedder)
    return cosine(vectors[0], vectors[1])


def semantic_alignment(
    update_sentences: Sequence[str],
    paper_repr: str,
    embedder: TextEmbedder,
) -> float | None:
    """Mean cosine between each inserted sentence and the paper representation.

    Returns None for an empty update; an absent value is reported, never
    a fabricated zero.
    """
    if not update_sentences:
        logger.info("semantic alignment undefined for an empty update")
        return None
    vectors = embed(list(update_sentences) + [paper_repr], embedder)
    paper_vector = vectors[-1]
    scores = [cosine(v, paper_vector) for v in vectors[:-1]]
    return sum(scores) / len(scores)


def local_coherence(
    update_sentences: Sequence[Sentence],
    post_document: SurveyDocument,
    window: int,
    embedder: TextEmbedder,
) -> float | None:
    """Mean neighborhood cosine of each inserted sentence in its section.

    The window spans up to ``window`` sentences before and after the
    inserted sentence in document order, truncated at section boundaries
    and excluding only the sentence itself. Sentences with an empty
    window are skipped; if every window is empty the score is absent.
    """
    if not update_sentences:
        return None
    positions: dict[str, tuple[list[Sentence], int]] = {}
    for section in post_document.sections:
        siblings = list(section.sentences)
        for index, sentence in enumerate(siblings):
            positions[sentence.id] = (siblings, index)
    pairs: list[tuple[str, list[str]]] = []
    for sentence in update_sentences:
        if sentence.id not in positions:
            raise EvaluationError(
                f"inserted sentence {sentence.id!r} not found in the post-update document")
        siblings, index = positions[sentence.id]
        neighborhood = siblings[max(0, index - window):index] + siblings[index + 1:index + 1 + window]
        if neighborhood:
            pairs.append((sentence.text, [n.text for n in neighborhood]))
    if not pairs:
        return None
    unique_texts = sorted({text for u, neigh in pairs for text in [u, *neigh]})
    vectors = dict(zip(unique_texts, embed(unique_texts, embedder)))
    scores = []
    for update_text, neighborhood in pairs:
        neighbor_scores = [cosine(vectors[update_text], vectors[t]) for t in neighborhood]
        scores.append(sum(neighbor_scores) / len(neighbor_scores))
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# Routing, abstention, table fidelity


def routing_accuracy(hits: Sequence[tuple[int, int]]) -> tuple[float | None, float | None]:
    """Average (hit@1, hit@3) indicator pairs over in-scope steps."""
    if not hits:
        return None, None
    acc1 = sum(h1 for h1, _ in hits) / len(hits)
    acc3 = sum(h3 for _, h3 in hits) / len(hits)
    return acc1, acc3


def abstention_precision_recall(
    labels: Sequence[tuple[int, int]],
) -> tuple[float | None, float | None]:
    """Precision and recall of abstentions over (y, abstained) label pairs.

    ``y`` is 1 for out-of-scope inputs. Precision is absent when nothing
    was abstained; recall is absent when no input was out of scope.
    """
    abstained = [(y, a) for y, a in labels if a == 1]
    out_of_scope = [(y, a) for y, a in labels if y == 1]
    true_positives = sum(1 for y, a in labels if y == 1 and a == 1)
    precision = true_positives / len(abstained) if abstained else None
    recall = true_positives / len(out_of_scope) if out_of_scope else None
    if precision is None:
        logger.info("abstention precision undefined: no abstentions")
    return precision, recall


def normalize_field(value: object) -> str:
    return " ".join(str(value).split()).casefold()


def table_row_fidelity(
    predicted: dict,
    gold: dict,
    embedder: TextEmbedder | None,
    tau: float = DEFAULT_FIDELITY_TAU,
) -> tuple[float, float]:
    """Dual-criterion row score: per-field exact match or embedding match.

    A field is correct when its normalized value matches exactly or when
    the embedding cosine of the two values exceeds ``tau``. Returns the
    fraction of correct fields and the fraction of exact matches. Without
    an embedder only the exact-match route applies.
    """
    if not gold:
        raise EvaluationError("gold row is empty")
    correct = 0
    exact = 0
    for name, gold_value in gold.items():
        predicted_value = predicted.get(name)
        is_exact = predicted_value is not None and \
            normalize_field(predicted_value) == normalize_field(gold_value)
        is_correct = is_exact
        if not is_correct and predicted_value is not None and embedder is not None:
            vectors = embed([str(predicted_value), str(gold_value)], embedder)
            is_correct = cosine(vectors[0], vectors[1]) > tau
        correct += int(is_correct)
        exact += int(is_exact)
    return correct / len(gold), exact / len(gold)
