"""Evaluation metrics over update steps: similarity, quality, disruption.

All metric functions are pure. Token-level disruption runs over a
combined stream of section and table content; the reference list and
document metadata are bookkeeping maintained programmatically and are
not part of the edit accounting. Embedding-backed metrics read their
texts' vectors from the mapping ``embed`` returns, so one step can score
all of them from a single embedder call. They are absent (None) when no
embedder is available; absent values are never replaced by zeros.
"""

from __future__ import annotations

import bisect
import logging
import math
import operator
from itertools import accumulate, repeat
from typing import Mapping, NamedTuple, Sequence

from .document import Sentence, SurveyDocument
from .endpoints import TextEmbedder
from .errors import EvaluationError, MetricUnavailableError

logger = logging.getLogger(__name__)

BLEU_SMOOTHING_ID = "add-one-zero-orders"
DEFAULT_ROUGE_BETA = 1.0
DEFAULT_COHERENCE_WINDOW = 2
DEFAULT_FIDELITY_TAU = 0.6

# First slice length a diagonal run is compared in.
_SNAKE_CHUNK = 16
# The region starts of a stream of one region.
_ONE_START = (0,)

# Text -> embedding, as ``embed`` returns it.
Vectors = Mapping[str, Sequence[float]]


# ---------------------------------------------------------------------------
# Token diff and disruption


class EditOp(NamedTuple):
    """One token edit. Deletes carry a before-stream index; inserts carry
    the before-stream gap they land in plus their after-stream index.

    A named tuple, not a frozen dataclass: a step builds one per edited
    token, and a tuple costs about half as much to build. So an op also
    equals the plain tuple of its fields and unpacks like one.
    """

    op: str  # "insert" | "delete"
    before_pos: int
    after_pos: int
    token: str


def _common_run(a: tuple[str, ...], i: int, b: tuple[str, ...], j: int, limit: int) -> int:
    """Length of the common run of ``a[i:]`` and ``b[j:]``, at most ``limit``.

    Compares whole slices, doubling the span while they match and halving
    it after a mismatch, so a long common run costs a few C-level
    comparisons instead of one Python iteration per token.
    """
    run, step, grow = 0, _SNAKE_CHUNK, True
    while step and run < limit:
        span = limit - run
        if step < span:
            span = step
        if a[i + run:i + run + span] == b[j + run:j + run + span]:
            run += span
            if grow:
                step *= 2
        else:
            grow = False
            step = span // 2
    return run


class _Stream:
    """One side of a diff after the shared leading regions are skipped.

    Positions count from the end of the skipped regions. Every region is
    read where it lies, never joined: the first is the ``window``, read by
    index up to ``split``; past it, a region is found by bisection over
    the region starts. ``jumps`` (see ``_pair_equal_regions``) says, for
    each region of the before side, how far a diagonal run that enters
    it at its partner's offset must reach.
    """

    __slots__ = ("window", "split", "chunks", "starts", "length", "jumps")

    def __init__(self, regions: Sequence[Sequence[str]]):
        # Tuples, so that slices of two regions compare equal.
        first = regions[0] if regions else ()
        self.window = first if type(first) is tuple else tuple(first)
        self.split = self.length = len(self.window)
        self.jumps: list[tuple[int, int] | None] | None = None
        if len(regions) < 2:
            self.chunks: Sequence[tuple[str, ...]] = (self.window,)
            self.starts: Sequence[int] = _ONE_START
            return
        self.chunks = [self.window]
        self.chunks += [region if type(region) is tuple else tuple(region)
                        for region in regions[1:]]
        self.starts = list(accumulate(map(len, self.chunks), initial=0))
        self.length = self.starts.pop()

    def chunk(self, x: int) -> int:
        """The index of the region holding position ``x``.

        Regions sharing a start are all empty but the last, which is the
        one bisection lands on.
        """
        if x < self.split:
            return 0
        return bisect.bisect_right(self.starts, x) - 1

    def locate(self, x: int) -> tuple[tuple[str, ...], int]:
        """The tuple holding position ``x`` and the index of ``x`` in it."""
        chunk = self.chunk(x)
        return self.chunks[chunk], x - self.starts[chunk]

    def token(self, x: int) -> str:
        tokens, index = self.locate(x)
        return tokens[index]


def _pair_equal_regions(a: _Stream, b: _Stream) -> None:
    """Fill ``a.jumps``: for each region of ``a`` equal to its partner in ``b``,
    the diagonal it shares with the partner and the end of their run.

    Region ``i`` of ``a`` is partnered with region ``i + len(b) - len(a)``
    of ``b``: by position when both sides have as many regions, equal
    middle regions included, and counted from the end otherwise, which
    pairs the trailing regions. A diagonal run that stands in an equal
    pair at the same offset in both (on its diagonal, ``x - y ==
    shift``) agrees to the end of the pair, and on through each
    consecutive equal pair after it: to ``end``.
    """
    delta = len(b.chunks) - len(a.chunks)
    jumps: list[tuple[int, int] | None] = [None] * len(a.chunks)
    end = None
    for i in range(len(a.chunks) - 1, max(-delta, 0) - 1, -1):
        region, partner = a.chunks[i], b.chunks[i + delta]
        if region is partner or region == partner:
            if end is None:
                end = a.starts[i] + len(region)
            jumps[i] = (a.starts[i] - b.starts[i + delta], end)
        else:
            end = None
    a.jumps = jumps


def _snake(a: _Stream, b: _Stream, x: int, y: int) -> int:
    """Follow the diagonal from ``(x, y)`` while the tokens agree; return the end x.

    The run is compared tuple by tuple, and never copied past a slice. A
    run that enters a pair of equal regions at the same offset in both
    jumps to the end of their run of equal pairs in one step.
    """
    n, m = a.length, b.length
    jumps = a.jumps
    while x < n and y < m:
        if x < a.split and y < b.split:
            limit = min(a.split - x, b.split - y)
            run = _common_run(a.window, x, b.window, y, limit)
        else:
            chunk = a.chunk(x)
            jump = jumps[chunk] if jumps is not None else None
            if jump is not None and x - y == jump[0]:
                run = limit = jump[1] - x
            else:
                i = x - a.starts[chunk]
                tokens_a = a.chunks[chunk]
                tokens_b, j = b.locate(y)
                limit = min(len(tokens_a) - i, len(tokens_b) - j)
                run = _common_run(tokens_a, i, tokens_b, j, limit)
        x += run
        y += run
        if run < limit:
            break
    return x


def _shortest_edit_trace(a: _Stream, b: _Stream) -> list[dict[int, int]]:
    """Forward pass of the greedy shortest-edit-script search (Myers, 1986).

    The d=0 snake is the common prefix of ``a`` and ``b``, so that prefix
    is skipped by chunked slice comparisons before any edit is considered.
    A position inside both windows is read by index; others go through
    ``_Stream.token``.
    """
    n, m = a.length, b.length
    window_a, window_b = a.window, b.window
    split_a, split_b = a.split, b.split
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
            if x < split_a and y < split_b:
                if window_a[x] == window_b[y]:
                    x = _snake(a, b, x + 1, y + 1)
                    y = x - k
            elif x < n and y < m and a.token(x) == b.token(y):
                x = _snake(a, b, x + 1, y + 1)
                y = x - k
            current[k] = x
            if x >= n and y >= m:
                trace.append(current)
                return trace
        trace.append(current)
        prev = current
    raise AssertionError("shortest edit search must terminate within n+m steps")


def _insertion_walk(a: _Stream, b: _Stream, offset: int) -> list[EditOp] | None:
    """The search's edit script when ``a`` is a subsequence of ``b``, else None.

    Walks the search's boundary diagonals: from the common run at
    (0, 0), each mismatch at (x, y) inserts ``b[y]`` and compares
    ``a[x]`` with ``b[y + 1]``, for at most ``m - n`` inserts. A run of
    inserts is taken at once. In the region of ``b`` holding ``y``, the
    next match is the first ``b[k] == a[x]`` with ``k > y``, found by
    ``tuple.index`` no further than the region's last token or the last
    one the budget reaches; the ``k - y`` inserts are emitted with one
    C-level ``extend`` and the run from ``(x + 1, k + 1)`` is followed.
    If ``a[x]`` is not there (or ``x == n``), the walk fails when the
    budget ends inside the region; otherwise it inserts to the region's
    end and compares ``a[x]`` once with the next region's first token.
    Each run costs a few region lookups and one ``index`` call, not one
    Python iteration per inserted token.

    This is exact. In the search the furthest point on diagonal -d
    depends only on diagonal -(d - 1) (its ``k == -d`` branch), and the
    walk computes those points, one per d, the same way: every token it
    skips is a mismatch the search makes too. If ``a`` is a subsequence
    of ``b``, the shortest script has d = m - n edits, and the search
    stops at that d on its first diagonal, k = -d, the only one ending
    at (n, m). Its backtrack then takes the ``k == -d`` branch at every
    d and reads only those points, so it emits these inserts in this
    order. Otherwise the point on diagonal -(m - n) stops short of
    (n, m), the walk returns None, and the caller runs the search, which
    needs at least m - n rounds anyway.
    """
    n, m = a.length, b.length
    budget = m - n
    if budget < 0:
        return None
    ops: list[EditOp] = []
    x = y = 0
    matched = n > 0 and m > 0 and a.token(0) == b.token(0)
    while True:
        if matched:
            d = y - x
            x = _snake(a, b, x + 1, y + 1)
            y = x + d
        d = y - x
        if d == budget:
            return ops if x == n else None
        tokens_b, j = b.locate(y)
        end = k = len(tokens_b)
        if x < n:
            token = a.token(x)
            last = j + budget - d  # the index in ``tokens_b`` the budget ends at
            try:
                k = tokens_b.index(token, j + 1, min(last + 1, end))
            except ValueError:
                if last < end:
                    return None
        ops.extend(map(EditOp, repeat("insert"), repeat(offset + x),
                       range(offset + y, offset + y + k - j), tokens_b[j:k]))
        y += k - j
        matched = k < end or (x < n and token == b.token(y))


def region_edit_script(
    before: Sequence[tuple[str, ...]],
    after: Sequence[tuple[str, ...]],
) -> tuple[EditOp, ...]:
    """Minimal token edit script between two streams given as token regions.

    Each stream is its regions joined in order, and the script is the one
    ``token_edit_script`` gives for the joined streams, op for op. No
    region is joined or copied:
    - leading regions equal in pairs are skipped, because the search's
      first diagonal run would cross them anyway;
    - every other region is read where it lies (``_Stream``). Regions
      equal in pairs (``_pair_equal_regions``) are crossed in one step
      by a diagonal run that enters them at the same offset on both
      sides: the run the search would follow, which reads every token of
      the pair equal. Between two changed regions that is each equal
      middle region; past the last, the trailing regions, which take a
      run to the end of both streams. So this is not trimming the
      suffix, which can change the script (see ``token_edit_script``).

    When the before regions are a subsequence of the after ones, as for
    every insertion-only step, the script comes from one walk along the
    search's boundary diagonal (``_insertion_walk``), which gives the
    search's script op for op in O(n + D) instead of O(D²) iterations;
    otherwise the search runs.
    """
    shared = min(len(before), len(after))
    head = 0
    while head < shared and (before[head] is after[head] or before[head] == after[head]):
        head += 1
    if head == len(before) == len(after):
        return ()
    offset = sum(map(len, before[:head]))
    a = _Stream(before[head:])
    b = _Stream(after[head:])
    if len(a.chunks) > 1 and len(b.chunks) > 1:
        _pair_equal_regions(a, b)
    inserts = _insertion_walk(a, b, offset)
    if inserts is not None:
        return tuple(inserts)
    trace = _shortest_edit_trace(a, b)
    ops: list[EditOp] = []
    x, y = a.length, b.length
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
            ops.append(EditOp("insert", offset + prev_x, offset + prev_y, b.token(prev_y)))
        else:
            ops.append(EditOp("delete", offset + prev_x, offset + prev_y, a.token(prev_x)))
        x, y = prev_x, prev_y
    ops.reverse()
    return tuple(ops)


def token_edit_script(before: Sequence[str], after: Sequence[str]) -> tuple[EditOp, ...]:
    """Minimal token edit script turning ``before`` into ``after``.

    Only insert and delete operations are emitted; a substitution appears
    as one delete plus one insert. The script length equals
    ``len(before) + len(after) - 2 * LCS``. This is ``region_edit_script``
    with one region per side.

    The common prefix is skipped before the search (it is the search's
    own first diagonal run), but the common suffix is not trimmed: the
    search breaks ties between equally short scripts using the tokens
    after the edit, so trimming the suffix can pick another script,
    moving op positions and with them the regions ``delta_out`` charges.
    ``['b','a','a','a'] -> ['a','a']`` gives ``delete@0, delete@3`` here
    but ``delete@0, delete@1`` once the suffix is trimmed.
    """
    return region_edit_script((before,), (after,))


def delta_tokens(ops: Sequence[EditOp]) -> int:
    """Total edit magnitude: insertions plus deletions."""
    return len(ops)


def delta_out(
    ops: Sequence[EditOp],
    scope: set[str],
    before_regions: tuple[list, list[str], list[int]],
    after_regions: tuple[list, list[str], list[int]],
) -> int:
    """Count edit operations that fall outside the scope regions.

    The regions are the streams' ``SurveyDocument.regions``, of which the
    ids and starts are read. Deletions are attributed by their
    before-stream position, insertions by their after-stream position,
    each to the region whose start bisection lands on: every position
    lies inside its stream, and regions sharing a start are all empty but
    the last. With scope covering every region the count is zero; with
    an empty scope it equals ``delta_tokens``.
    """
    _, before_ids, before_starts = before_regions
    _, after_ids, after_starts = after_regions
    outside = 0
    for kind, before_pos, after_pos, _ in ops:
        if kind == "delete":
            region = before_ids[bisect.bisect_right(before_starts, before_pos) - 1]
        else:
            region = after_ids[bisect.bisect_right(after_starts, after_pos) - 1]
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
    document order. Sections absent from ``before`` count entirely; a
    section object both documents share has nothing inserted.
    """
    before_sections = {s.id: s for s in before.sections}
    inserted: list[Sentence] = []
    for section in after.sections:
        old = before_sections.get(section.id)
        if old is section:
            continue
        old_texts = [s.text for s in old.sentences] if old else []
        new_texts = [s.text for s in section.sentences]
        ops = token_edit_script(old_texts, new_texts)
        new_positions = {op.after_pos for op in ops if op.op == "insert"}
        inserted.extend(s for i, s in enumerate(section.sentences) if i in new_positions)
    return inserted


# ---------------------------------------------------------------------------
# Lexical similarity


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, by bit-parallel dynamic programming.

    Bit ``i`` of ``v`` stands for token ``a[i]``, and one Python integer
    holds a whole row of the LCS table: after each token ``y`` of ``b``,
    the zero bits of ``v`` mark the positions where the row steps up, so
    the LCS is ``len(a)`` minus the ones of ``v`` (Allison and Dix, 1986;
    Hyyrö, 2004). A token of ``b`` that ``a`` lacks leaves ``v`` as it is.
    """
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        mask = masks.get(y)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str],
            beta: float = DEFAULT_ROUGE_BETA) -> float:
    """Longest-common-subsequence F score between two token sequences.

    The sequences are ``tokenize``'s tokens of the two texts. Recall is
    LCS over the reference length, precision LCS over the candidate
    length, combined with the weighted harmonic mean. An empty candidate
    or reference scores 0 by convention.
    """
    if not candidate or not reference:
        logger.info("rouge_l over an empty side scores 0 by convention")
        return 0.0
    lcs = _lcs_length(candidate, reference)
    recall = lcs / len(reference)
    precision = lcs / len(candidate)
    denominator = recall + beta * beta * precision
    if denominator == 0.0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denominator


def bleu_4(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """BLEU-4 of two token sequences, with brevity penalty and add-one smoothing on zero orders.

    The sequences are ``tokenize``'s tokens of the two texts. Modified
    n-gram precisions are clipped against the reference counts: only the
    n-grams both sides hold match, each up to the smaller of its two
    counts. An order with zero matches is smoothed to ``1 / (total + 1)``;
    orders the candidate is too short to populate contribute a factor of
    one. An empty candidate scores 0.

    The n-grams are counted as integers. The reference's distinct tokens
    are numbered in first-seen order, and a candidate token the reference
    lacks gets one more id, ``absent``. An n-gram's key is its ids as the
    digits of a number in base ``absent + 1``, so two n-grams of one order
    share a key exactly when they hold the same tokens. A key holding the
    ``absent`` digit is in no reference count, so it counts only toward
    ``total``. Each candidate key the reference still holds matches and
    uses one of the reference's counts up, which sums the same smaller
    counts. The float operations are those of counting the token tuples,
    in the same order, so the score is the same to the last bit.
    """
    if not candidate:
        return 0.0
    ids = {token: i for i, token in enumerate(dict.fromkeys(reference))}
    absent = len(ids)
    base = absent + 1
    candidate_ids = [ids.get(token, absent) for token in candidate]
    reference_ids = [ids[token] for token in reference]
    keys, reference_keys = candidate_ids, reference_ids
    log_sum = 0.0
    for order in range(1, 5):
        total = len(candidate) - order + 1
        if total <= 0:
            break  # factor of one after smoothing over this and every longer order
        if order > 1:
            keys = [key * base + i for key, i in zip(keys, candidate_ids[order - 1:])]
            reference_keys = [key * base + i
                              for key, i in zip(reference_keys, reference_ids[order - 1:])]
        reference_counts: dict[int, int] = {}
        for key in reference_keys:
            reference_counts[key] = reference_counts.get(key, 0) + 1
        matched = 0
        for key in keys:
            left = reference_counts.get(key)
            if left:
                reference_counts[key] = left - 1
                matched += 1
        if matched == 0:
            precision = 1.0 / (total + 1)
        else:
            precision = matched / total
        log_sum += math.log(precision)
    c, r = len(candidate), len(reference)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum / 4.0)


# ---------------------------------------------------------------------------
# Embedding-based metrics


class _Vector(list):
    """An embedding that carries its Euclidean norm, computed once."""

    __slots__ = ("norm",)

    def __init__(self, values: Sequence[float]):
        super().__init__(values)
        try:
            self.norm = _norm(self)
        except OverflowError:  # the squares sum past the largest double
            self.norm = math.inf


def _norm(x: Sequence[float]) -> float:
    return math.sqrt(math.fsum(map(operator.mul, x, x)))


def embed(texts: Sequence[str], embedder: TextEmbedder) -> dict[str, list[float]]:
    """Vectors of the distinct ``texts``, keyed by text, from one embedder call.

    Each text is sent once, in first-seen order, which is exact only for
    an embedder that meets the ``TextEmbedder`` contract. Transport
    failures, a reply that is not a sized sequence (named by its type),
    short replies and vectors no cosine is defined on (a component that
    is not a real number, a norm that is zero or not finite, or a length
    other than the first vector's; named by the text's batch position)
    surface as MetricUnavailableError, so callers report the metric
    absent. Each vector comes with its norm, which ``cosine`` then reads
    instead of computing it on every call.
    """
    distinct = list(dict.fromkeys(texts))
    if not distinct:
        return {}
    try:
        vectors = embedder.embed(distinct)
    except MetricUnavailableError:
        raise
    except Exception as exc:
        raise MetricUnavailableError(f"embedding backend failed: {exc}") from exc
    try:
        count = len(vectors)
    except TypeError as exc:
        raise MetricUnavailableError(
            f"the embedding reply is a {type(vectors).__name__}, not a sequence of vectors"
        ) from exc
    if count != len(distinct):
        raise MetricUnavailableError(f"{count} embeddings for {len(distinct)} texts")
    embedded: dict[str, list[float]] = {}
    for position, (text, values) in enumerate(zip(distinct, vectors)):
        where = f"the vector of text {position} of {len(distinct)}"
        try:
            vector = embedded[text] = _Vector(values)
        except TypeError as exc:
            raise MetricUnavailableError(
                f"{where} is not a sequence of real numbers: {exc}") from exc
        if not 0.0 < vector.norm < math.inf:
            raise MetricUnavailableError(f"{where} has norm {vector.norm}")
        first = embedded[distinct[0]]
        if len(vector) != len(first):
            raise MetricUnavailableError(
                f"{where} has {len(vector)} components, the first has {len(first)}")
    return embedded


def cosine(x: Sequence[float], y: Sequence[float]) -> float:
    """Inner product over the product of norms.

    A vector from ``embed`` brings its norm; another sequence's is
    computed here.
    """
    if len(x) != len(y):
        raise EvaluationError(f"cosine over mismatched dimensions {len(x)} and {len(y)}")
    norm_x = x.norm if type(x) is _Vector else _norm(x)
    norm_y = y.norm if type(y) is _Vector else _norm(y)
    if norm_x == 0.0 or norm_y == 0.0:
        raise EvaluationError("cosine similarity is undefined for a zero vector")
    return math.fsum(map(operator.mul, x, y)) / (norm_x * norm_y)


def bert_similarity(update_text: str, reference_text: str, vectors: Vectors) -> float:
    """Cosine similarity of the pooled embeddings of two texts."""
    return cosine(vectors[update_text], vectors[reference_text])


def semantic_alignment(
    update_sentences: Sequence[str],
    paper_repr: str,
    vectors: Vectors,
) -> float | None:
    """Mean cosine between each inserted sentence and the paper representation.

    Returns None for an empty update; an absent value is reported, never
    a fabricated zero.
    """
    if not update_sentences:
        logger.info("semantic alignment undefined for an empty update")
        return None
    paper_vector = vectors[paper_repr]
    scores = [cosine(vectors[text], paper_vector) for text in update_sentences]
    return sum(scores) / len(scores)


def coherence_windows(
    update_sentences: Sequence[Sentence],
    post_document: SurveyDocument,
    window: int,
) -> list[tuple[str, list[str]]]:
    """Each inserted sentence's text with the texts of its neighborhood.

    The window spans up to ``window`` sentences before and after the
    inserted sentence in document order, truncated at section boundaries
    and excluding only the sentence itself. Sentences with an empty
    window are left out.

    Only the sections that hold inserted sentences are read: a sentence
    id is ``"{section_id}:{counter}"`` (``document.make_section``), so
    the text before its last colon names its section.
    """
    touched = {sentence.id.rsplit(":", 1)[0] for sentence in update_sentences}
    positions: dict[str, tuple[tuple[Sentence, ...], int]] = {}
    for section in post_document.sections:
        if section.id in touched:
            for index, sentence in enumerate(section.sentences):
                positions[sentence.id] = (section.sentences, index)
    windows: list[tuple[str, list[str]]] = []
    for sentence in update_sentences:
        if sentence.id not in positions:
            raise EvaluationError(
                f"inserted sentence {sentence.id!r} not found in the post-update document")
        siblings, index = positions[sentence.id]
        neighborhood = siblings[max(0, index - window):index] + siblings[index + 1:index + 1 + window]
        if neighborhood:
            windows.append((sentence.text, [n.text for n in neighborhood]))
    return windows


def local_coherence(
    windows: Sequence[tuple[str, Sequence[str]]],
    vectors: Vectors,
) -> float | None:
    """Mean neighborhood cosine of each inserted sentence in its section.

    ``windows`` comes from ``coherence_windows``; with no window the
    score is absent.
    """
    if not windows:
        return None
    scores = []
    for update_text, neighborhood in windows:
        neighbor_scores = [cosine(vectors[update_text], vectors[t]) for t in neighborhood]
        scores.append(sum(neighbor_scores) / len(neighbor_scores))
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# Abstention, table fidelity


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
            texts = [str(predicted_value), str(gold_value)]
            vectors = embed(texts, embedder)
            is_correct = cosine(vectors[texts[0]], vectors[texts[1]]) > tau
        correct += int(is_correct)
        exact += int(is_exact)
    return correct / len(gold), exact / len(gold)
