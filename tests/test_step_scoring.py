"""Differential tests: step scoring against the plain versions it replaced.

Each reference is the straightforward version of a scoring step: the
O(n·m) LCS table, a token stream tokenized sentence by sentence
(``test_edit_script.reference_stream``), a local coherence that maps
every sentence of the document, BLEU-4 and ROUGE-L as they were when
they took the two texts and tokenized them, and an ``evaluate_step``
that calls the embedder once per embedding metric. The library versions
must give exactly the same values, or raise the same errors.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import random
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import demo, metrics, text
from dynsurvey.benchmark import FRAMEWORK, METHODS, GroundTruthSpan, StepResult, run_method
from dynsurvey.document import (
    ColumnSpec,
    Section,
    Sentence,
    SurveyDocument,
    SurveyTable,
    document_regions,
    make_section,
)
from dynsurvey.engine import insert_paragraph
from dynsurvey.errors import EvaluationError, MetricUnavailableError
from dynsurvey.evaluation import StepEvaluation, _step_scope, evaluate_step
from dynsurvey.metrics import (
    _lcs_length,
    bleu_4,
    cosine,
    delta_out,
    delta_tokens,
    embed,
    rouge_l,
    token_edit_script,
)
from dynsurvey.mock import HashEmbedding, ScriptedGeneration
from dynsurvey.text import tokenize

from helpers import document_token_stream, embedded_local_coherence
from test_edit_script import reference_stream

# --- reference implementations -------------------------------------------------


def reference_lcs_length(a, b) -> int:
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


def string_rouge_l(candidate: str, reference: str, beta: float = 1.0) -> float:
    """``metrics.rouge_l`` as it was when it took two texts and tokenized both."""
    candidate_tokens = tokenize(candidate)
    reference_tokens = tokenize(reference)
    if not candidate_tokens or not reference_tokens:
        return 0.0
    lcs = reference_lcs_length(candidate_tokens, reference_tokens)
    recall = lcs / len(reference_tokens)
    precision = lcs / len(candidate_tokens)
    denominator = recall + beta * beta * precision
    if denominator == 0.0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denominator


def string_bleu_4(candidate: str, reference: str) -> float:
    """``metrics.bleu_4`` as it was when it took two texts and clipped each candidate n-gram."""
    candidate_tokens = tokenize(candidate)
    reference_tokens = tokenize(reference)
    if not candidate_tokens:
        return 0.0
    log_sum = 0.0
    for order in range(1, 5):
        counts = Counter(zip(*(candidate_tokens[i:] for i in range(order))))
        total = max(len(candidate_tokens) - order + 1, 0)
        if total == 0:
            continue
        reference_counts = Counter(zip(*(reference_tokens[i:] for i in range(order))))
        matched = sum(min(count, reference_counts[gram]) for gram, count in counts.items())
        if matched == 0:
            precision = 1.0 / (total + 1)
        else:
            precision = matched / total
        log_sum += math.log(precision)
    c, r = len(candidate_tokens), len(reference_tokens)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum / 4.0)


def reference_embed(texts, embedder):
    if not texts:
        return []
    try:
        return embedder.embed(list(texts))
    except MetricUnavailableError:
        raise
    except Exception as exc:
        raise MetricUnavailableError(f"embedding backend failed: {exc}") from exc


def reference_bert_similarity(update_text, reference_text, embedder):
    vectors = reference_embed([update_text, reference_text], embedder)
    return cosine(vectors[0], vectors[1])


def reference_semantic_alignment(update_sentences, paper_repr, embedder):
    if not update_sentences:
        return None
    vectors = reference_embed(list(update_sentences) + [paper_repr], embedder)
    paper_vector = vectors[-1]
    scores = [cosine(v, paper_vector) for v in vectors[:-1]]
    return sum(scores) / len(scores)


def reference_local_coherence(update_sentences, post_document, window, embedder):
    if not update_sentences:
        return None
    positions = {}
    for section in post_document.sections:
        siblings = list(section.sentences)
        for index, sentence in enumerate(siblings):
            positions[sentence.id] = (siblings, index)
    pairs = []
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
    vectors = dict(zip(unique_texts, reference_embed(unique_texts, embedder)))
    scores = []
    for update_text, neighborhood in pairs:
        neighbor_scores = [cosine(vectors[update_text], vectors[t]) for t in neighborhood]
        scores.append(sum(neighbor_scores) / len(neighbor_scores))
    return sum(scores) / len(scores)


def reference_evaluate_step(result, survey, embedder=None, coherence_window=2, rouge_beta=1.0):
    """The step scorer with one embedder call per embedding metric."""
    before_tokens, before_regions = reference_stream(result.before)
    after_tokens, after_regions = reference_stream(result.after)
    script = token_edit_script(before_tokens, after_tokens)
    d_tokens = delta_tokens(script)
    d_out = delta_out(script, _step_scope(result), before_regions, after_regions)

    update_text = " ".join(s.text for s in result.inserted)
    bleu = rouge = bert = align = coherence = None
    if result.gt_span is not None:
        reference = result.gt_span.text
        bleu = string_bleu_4(update_text, reference)
        rouge = string_rouge_l(update_text, reference, beta=rouge_beta)
        if embedder is not None and update_text:
            try:
                bert = reference_bert_similarity(update_text, reference, embedder)
            except MetricUnavailableError:
                pass
    if embedder is not None and result.inserted and result.paper_repr:
        try:
            align = reference_semantic_alignment(
                [s.text for s in result.inserted], result.paper_repr, embedder)
            coherence = reference_local_coherence(
                result.inserted, result.after, coherence_window, embedder)
        except MetricUnavailableError:
            pass

    hit1 = hit3 = None
    if result.gt_span is not None and not result.out_of_scope:
        target = result.gt_span.section_id
        ranked = list(result.ranked_sections)
        if result.method == FRAMEWORK:
            hit1 = int(bool(ranked) and ranked[0] == target)
            hit3 = int(target in ranked[:3])
    return StepEvaluation(
        survey=survey, method=result.method, paper_id=result.paper_id,
        out_of_scope=int(result.out_of_scope), abstained=int(result.abstained),
        delta_tokens=d_tokens, delta_out=d_out, bleu4=bleu, rouge_l_f=rouge,
        bert_sim=bert, semantic_align=align, local_coherence=coherence,
        routing_hit1=hit1, routing_hit3=hit3,
    )


# --- LCS length ------------------------------------------------------------------

_tokens = st.lists(st.sampled_from(["a", "b", "c", "d", "the", "."]), max_size=150)


@settings(max_examples=300, deadline=None)
@given(_tokens, _tokens)
def test_lcs_length_matches_reference(a, b):
    assert _lcs_length(a, b) == reference_lcs_length(a, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=3), max_size=80), st.lists(st.text(max_size=3), max_size=80))
def test_lcs_length_matches_reference_on_any_tokens(a, b):
    assert _lcs_length(a, b) == reference_lcs_length(a, b)


def test_lcs_length_pinned_cases():
    assert _lcs_length([], ["a"]) == 0
    assert _lcs_length(["a"], []) == 0
    assert _lcs_length(list("abcbdab"), list("bdcaba")) == 4
    # Carries run across more than one machine word.
    long_a = ["x"] * 200 + ["y"]
    assert _lcs_length(long_a, ["y"] + ["x"] * 150) == 150
    assert _lcs_length(["a", "b"] * 100, ["b", "a"] * 100) == 199


# --- BLEU-4 and ROUGE-L over tokens ---------------------------------------------

# Words that repeat, so n-grams repeat and clipping binds; unicode letters,
# digits, underscores, a combining mark and punctuation, each a token or
# part of one.
_SCORED_WORDS = ["model", "noise", "model noise", "naïve", "Ünïcode", "日本語", "x_1", "42",
                 "e.g.", "(deep)", "[1]", "—", "…", "’s", "e\u0301", "a", "a a"]
# A 220-word passage over up to 150 words, drawn log-uniformly as in
# prose: a few words recur often, the first of a slice included, and most
# are rare. Slices of it are long and share runs of four and more over
# many distinct tokens.
_PASSAGE = [f"w{int(150 ** random.Random(i).random())}" for i in range(220)]


@st.composite
def _passage_text(draw, absent: bool) -> str:
    """A slice of up to 200 words of ``_PASSAGE``; with ``absent``, about three
    in four of its words get a suffix, so most are words no plain slice holds."""
    start = draw(st.integers(0, len(_PASSAGE)))
    words = _PASSAGE[start:start + draw(st.integers(0, 200))]
    if absent:
        swaps = draw(st.lists(st.integers(0, 3), min_size=len(words), max_size=len(words)))
        words = [f"{word}_{swap}" if swap else word for word, swap in zip(words, swaps)]
    return " ".join(words)


_scored_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_SCORED_WORDS), max_size=14).map(" ".join),
    st.lists(st.sampled_from(_SCORED_WORDS), max_size=3).map("".join),
    _passage_text(absent=False),
    _passage_text(absent=True),
)


@settings(max_examples=500, deadline=None)
@given(_scored_text, _scored_text, st.sampled_from([0.5, 1.0, 2.0]))
def test_token_scores_equal_the_string_scores(candidate, reference, beta):
    want_bleu = string_bleu_4(candidate, reference)
    want_rouge = string_rouge_l(candidate, reference, beta)
    assert bleu_4(tokenize(candidate), tokenize(reference)) == want_bleu
    assert rouge_l(tokenize(candidate), tokenize(reference), beta) == want_rouge
    # The memoised tuples the step scorer reads score alike.
    memo = text.memo_tokens
    assert bleu_4(memo(candidate), memo(reference)) == want_bleu
    assert rouge_l(memo(candidate), memo(reference), beta) == want_rouge


@settings(max_examples=300, deadline=None)
@given(st.lists(_scored_text, max_size=6))
def test_chained_text_tokens_equal_the_joined_text_tokens(texts):
    assert text.joined_tokens(texts) == tuple(tokenize(" ".join(texts)))


def test_token_scores_pinned_cases():
    assert bleu_4((), ("a",)) == string_bleu_4("", "a") == 0.0
    assert bleu_4(("a",), ()) == string_bleu_4("a", "")
    assert rouge_l((), ("a",)) == rouge_l(("a",), ()) == 0.0
    # Fewer than four tokens: the empty orders are left out.
    assert bleu_4(tokenize("a b"), tokenize("a b")) == string_bleu_4("a b", "a b") == 1.0
    # A repeated n-gram is clipped at the reference's count.
    assert bleu_4(tokenize("a a a a"), tokenize("a a b")) == string_bleu_4("a a a a", "a a b")


# --- token stream over kept section tuples -------------------------------------

_WORDS = ["Model", "noise", "prior", "patch", "7", "e.g.", "filter", "(deep)", "[1]"]
_sentence_text = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(
    lambda words: " ".join(words) + ".")
_section_text = st.lists(_sentence_text, max_size=5).map(" ".join)
_TABLE = SurveyTable(id="t1", title="Methods (table)",
                     schema=(ColumnSpec("name"), ColumnSpec("year")))


def _document(sections: tuple[Section, ...], rows: tuple[dict, ...] = ()) -> SurveyDocument:
    table = dataclasses.replace(_TABLE, rows=rows)
    return SurveyDocument(metadata={}, sections=sections, tables=(table,), references=())


@st.composite
def _document_versions(draw):
    """A document, then versions of it that each change one section or add a row.

    Unchanged sections are the same objects in every version, as in an
    update stream, so their kept token tuples are reused.
    """
    count = draw(st.integers(1, 4))
    sections = tuple(make_section(str(i), f"S{i}", draw(_section_text)) for i in range(count))
    rows: tuple[dict, ...] = ()
    versions = [_document(sections, rows)]
    for _ in range(draw(st.integers(0, 4))):
        index = draw(st.integers(0, count - 1))
        kind = draw(st.sampled_from(["insert", "reparse", "row"]))
        section = sections[index]
        if kind == "insert":
            anchor = draw(st.sampled_from(["append", *section.sentence_ids()]))
            section, _ = insert_paragraph(section, anchor, draw(_section_text))
        elif kind == "reparse":
            section = make_section(section.id, section.title, draw(_section_text))
        else:
            rows += ({"name": draw(_sentence_text), "year": draw(st.integers(1990, 2030))},)
        sections = sections[:index] + (section,) + sections[index + 1:]
        versions.append(_document(sections, rows))
    return versions


@settings(max_examples=200, deadline=None)
@given(_document_versions())
def test_token_stream_matches_reference_across_versions(versions):
    for doc in versions:
        assert document_token_stream(doc) == reference_stream(doc)
    # A second stream of the same objects reads the kept tuples.
    for doc in versions:
        assert document_token_stream(doc) == reference_stream(doc)


def test_kept_tokens_do_not_change_equality_hash_or_repr():
    section = make_section("k1", "Kept", "Alpha beta. Gamma delta.")
    fresh = Section(id=section.id, title=section.title, sentences=section.sentences)
    document_token_stream(_document((section,)))
    assert section._tokens is not None and fresh._tokens is None
    assert section == fresh
    assert hash(section) == hash(fresh)
    assert repr(section) == repr(fresh)
    assert "_tokens" not in repr(section)


def test_replaced_section_starts_without_kept_tokens():
    section = make_section("k2", "Kept", "Alpha beta. Gamma delta.")
    document_token_stream(_document((section,)))
    changed = dataclasses.replace(section, sentences=section.sentences[:1])
    assert changed._tokens is None
    tokens, (_, _, starts) = document_token_stream(_document((changed,)))
    assert tokens[starts[0]:starts[1]] == tokenize("Alpha beta.")


def test_shared_section_keeps_the_tokens_of_its_sentences():
    text = "Shared section text. It is parsed once, e.g. twice."
    first = make_section("k3", "Shared", text)
    document_token_stream(_document((first,)))
    second = make_section("k3", "Shared", text)
    assert second is first
    expected = tuple(token for s in second.sentences for token in tokenize(s.text))
    assert second._tokens == expected


def test_a_document_keeps_its_regions():
    doc = _document((make_section("k4", "Kept", "Alpha beta. Gamma delta."),))
    regions = document_regions(doc)
    assert document_regions(doc) is regions
    assert doc.regions() is regions
    assert dataclasses.replace(doc)._regions is None


# --- local coherence over the touched sections ---------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvaluationError as exc:
        return EvaluationError, str(exc)




@st.composite
def _coherence_cases(draw):
    """A document, some of its sentences as the update, and maybe a sentence it lacks."""
    count = draw(st.integers(1, 4))
    # A section id may itself hold a colon; its sentence ids then hold two.
    prefix = draw(st.sampled_from(["s", "s:"]))
    sections = tuple(make_section(f"{prefix}{i}", "S", draw(_section_text)) for i in range(count))
    doc = _document(sections)
    sentences = [s for section in sections for s in section.sentences]
    update = draw(st.lists(st.sampled_from(sentences), max_size=6)) if sentences else []
    ghost = draw(st.sampled_from([None, "missing counter", "missing section", "no colon"]))
    if ghost == "missing counter":
        # The id names a section that exists but does not hold it.
        update.insert(draw(st.integers(0, len(update))), Sentence(id=f"{prefix}0:99", text="Ghost."))
    elif ghost == "missing section":
        update.insert(draw(st.integers(0, len(update))), Sentence(id=f"{prefix}9:1", text="Ghost."))
    elif ghost == "no colon":
        update.insert(draw(st.integers(0, len(update))), Sentence(id=f"{prefix}0", text="Ghost."))
    window = draw(st.integers(0, 3))
    embedder = HashEmbedding(seed=draw(st.integers(0, 3)), dimension=draw(st.sampled_from([3, 16])))
    return update, doc, window, embedder


@settings(max_examples=300, deadline=None)
@given(_coherence_cases())
def test_local_coherence_matches_whole_document_reference(case):
    update, doc, window, embedder = case
    assert _outcome(embedded_local_coherence, update, doc, window, embedder) == \
        _outcome(reference_local_coherence, update, doc, window, embedder)



# --- one embedding batch per step ------------------------------------------------


class FailingEmbedder:
    """Raises on every call, as an unreachable embedding server does."""

    model_id = "failing"
    dimension = 8

    def __init__(self):
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        raise ConnectionError("embedding server unreachable")


class CountingEmbedder:
    def __init__(self, inner):
        self.inner = inner
        self.model_id, self.dimension = inner.model_id, inner.dimension
        self.batches = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return self.inner.embed(texts)


@st.composite
def _step_results(draw, texts=_section_text):
    """One step that inserts a paragraph into a section, or changes nothing."""
    count = draw(st.integers(1, 3))
    sections = tuple(make_section(f"s{i}", "S", draw(texts)) for i in range(count))
    before = _document(sections)
    index = draw(st.integers(0, count - 1))
    section = sections[index]
    anchor = draw(st.sampled_from(["append", *section.sentence_ids()]))
    new_section, inserted_ids = insert_paragraph(section, anchor, draw(texts))
    after = before.with_additions(new_section, ())
    inserted = tuple(s for s in new_section.sentences if s.id in inserted_ids)
    gt_span = draw(st.one_of(
        st.none(), texts.map(lambda text: GroundTruthSpan(section.id, text))))
    return StepResult(
        method=draw(st.sampled_from(METHODS)), paper_id="p", out_of_scope=gt_span is None,
        abstained=not inserted, before=before, after=after, gt_span=gt_span,
        paper_repr=draw(st.sampled_from(["", "Paper title. Model noise prior."])),
        ranked_sections=tuple(s.id for s in sections), routed_section=section.id,
        inserted=inserted)


_embedders = st.one_of(
    st.none(),
    st.builds(HashEmbedding, seed=st.integers(0, 3), dimension=st.sampled_from([1, 5, 64])),
    st.builds(FailingEmbedder))


@settings(max_examples=200, deadline=None)
@given(_step_results(), _embedders, st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.0]))
def test_evaluate_step_matches_three_call_reference(result, embedder, window, beta):
    assert evaluate_step(result, "s", embedder, window, beta) == \
        reference_evaluate_step(result, "s", embedder, window, beta)


@settings(max_examples=200, deadline=None)
@given(_step_results(_scored_text), st.none() | st.lists(_scored_text, max_size=4),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_evaluate_step_matches_the_string_scores_on_any_text(result, texts, beta):
    if texts is not None:
        # Inserted sentences as a reply may scatter them, one ending in a
        # word character before another: only the joining space parts them.
        result = dataclasses.replace(
            result, inserted=tuple(Sentence(id=f"s0:{90 + i}", text=t) for i, t in enumerate(texts)))
    assert evaluate_step(result, "s", rouge_beta=beta) == \
        reference_evaluate_step(result, "s", rouge_beta=beta)


def test_evaluate_step_matches_three_call_reference_on_demo_streams(hash_embedder):
    instance = demo.demo_instance()
    scenario = demo.demo_scenario()
    for method in METHODS:
        generator = ScriptedGeneration.from_flat(scenario["generation"])
        for result in run_method(method, instance, generator):
            assert evaluate_step(result, "demo", hash_embedder) == \
                reference_evaluate_step(result, "demo", hash_embedder)


def test_evaluate_step_makes_one_embedding_call_of_distinct_texts(hash_embedder):
    instance = demo.demo_instance()
    generator = ScriptedGeneration.from_flat(demo.demo_scenario()["generation"])
    scored = 0
    for result in run_method(FRAMEWORK, instance, generator):
        counting = CountingEmbedder(hash_embedder)
        evaluation = evaluate_step(result, "demo", counting)
        assert len(counting.batches) <= 1
        for batch in counting.batches:
            assert len(batch) == len(set(batch))
        scored += evaluation.semantic_align is not None
    assert scored > 0


def test_failed_batch_leaves_all_embedding_metrics_absent_with_one_warning(caplog):
    instance = demo.demo_instance()
    generator = ScriptedGeneration.from_flat(demo.demo_scenario()["generation"])
    result = next(r for r in run_method(FRAMEWORK, instance, generator) if r.inserted)
    failing = FailingEmbedder()
    with caplog.at_level(logging.WARNING, logger="dynsurvey.evaluation"):
        evaluation = evaluate_step(result, "demo", failing)
    assert failing.calls == 1
    assert (evaluation.bert_sim, evaluation.semantic_align, evaluation.local_coherence) == \
        (None, None, None)
    assert evaluation.bleu4 is not None and evaluation.rouge_l_f is not None
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "embedding server unreachable" in warnings[0].getMessage()


def test_short_embedding_reply_is_unavailable():
    class ShortEmbedder(HashEmbedding):
        def embed(self, texts):
            return super().embed(texts)[:-1]

    with pytest.raises(MetricUnavailableError, match="1 embeddings for 2 texts"):
        embed(["a", "b", "a"], ShortEmbedder())


@pytest.mark.parametrize("vectors, message", [
    ([[1.0, 2.0], [0.0, 0.0]], "text 1 of 2 has norm 0.0"),
    ([[1.0, 2.0], []], "text 1 of 2 has norm 0.0"),
    ([[1.0, math.nan], [1.0, 2.0]], "text 0 of 2 has norm nan"),
    ([[1.0, 2.0], [math.inf, 2.0]], "text 1 of 2 has norm inf"),
    ([[1.0, 2.0], [1e200, 2.0]], "text 1 of 2 has norm inf"),
    ([[1.0, 2.0], [1e154, 1e154]], "text 1 of 2 has norm inf"),
    ([[1.0, 2.0], [1.0, 2.0, 3.0]], "text 1 of 2 has 3 components, the first has 2"),
    ([[1.0, None], [1.0, 2.0]], "text 0 of 2 is not a sequence of real numbers"),
    ([[1.0, 2.0], ["x", 1.0]], "text 1 of 2 is not a sequence of real numbers"),
])
def test_embed_rejects_a_vector_no_cosine_is_defined_on(vectors, message):
    with pytest.raises(MetricUnavailableError, match=message):
        embed(["0", "1"], ListEmbedder(vectors))


@pytest.mark.parametrize("reply, kind", [
    (None, "NoneType"),
    (iter([[1.0, 2.0]]), "list_iterator"),
    (3, "int"),
])
def test_embed_rejects_a_reply_that_is_not_a_sequence(reply, kind):
    class ReplyEmbedder:
        def embed(self, texts):
            return reply

    with pytest.raises(MetricUnavailableError,
                       match=f"the embedding reply is a {kind}, not a sequence of vectors"):
        embed(["a"], ReplyEmbedder())


def reference_norm(x):
    """``metrics._norm`` as a generator over the squares."""
    return math.sqrt(math.fsum(v * v for v in x))


def reference_cosine(x, y):
    """``metrics.cosine`` as it was before ``embed`` kept each vector's norm."""
    if len(x) != len(y):
        raise EvaluationError(f"cosine over mismatched dimensions {len(x)} and {len(y)}")
    norm_x = reference_norm(x)
    norm_y = reference_norm(y)
    if norm_x == 0.0 or norm_y == 0.0:
        raise EvaluationError("cosine similarity is undefined for a zero vector")
    return math.fsum(a * b for a, b in zip(x, y)) / (norm_x * norm_y)


class ListEmbedder:
    """Hands back the vectors it was given, one per text, in order."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts):
        return [self.vectors[int(text)] for text in texts]


def _cosine_outcome(cosine_of, x, y):
    try:
        return "value", cosine_of(x, y)
    except EvaluationError as exc:
        return "error", str(exc)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(_FLOATS, st.just(0.0)), max_size=4), min_size=1, max_size=4),
       st.data())
def test_cosine_of_embedded_vectors_matches_the_plain_cosine(vectors, data):
    texts = [str(i) for i in range(len(vectors))]
    x, y = data.draw(st.sampled_from(texts)), data.draw(st.sampled_from(texts))
    want = _cosine_outcome(reference_cosine, vectors[int(x)], vectors[int(y)])
    assert _cosine_outcome(cosine, vectors[int(x)], vectors[int(y)]) == want
    # A zero vector, or one of another length than the first, has no
    # cosine; ``embed`` names the first such vector instead of returning it.
    undefined = [i for i, vector in enumerate(vectors)
                 if len(vector) != len(vectors[0]) or reference_norm(vector) == 0.0]
    if undefined:
        with pytest.raises(MetricUnavailableError, match=f"text {undefined[0]} of "):
            embed(texts, ListEmbedder(vectors))
        return
    embedded = embed(texts, ListEmbedder(vectors))
    assert _cosine_outcome(cosine, embedded[x], embedded[y]) == want
    assert _cosine_outcome(cosine, embedded[x], vectors[int(y)]) == want
    assert embedded[x] == vectors[int(x)]


def _bits_outcome(kernel, *vectors):
    """The value's bit pattern, or the error a kernel raises."""
    try:
        return "value", struct.pack("<d", kernel(*vectors))
    except (ArithmeticError, ValueError, EvaluationError) as exc:
        return "error", type(exc), str(exc)


@st.composite
def _wide_vectors(draw):
    """Two vectors of 1 to 3072 components over an exponent range Hypothesis draws."""
    dimension = draw(st.sampled_from([1, 3072]) | st.integers(1, 3072))
    low = draw(st.integers(-1074, 1024))
    high = draw(st.integers(low, 1024))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.9]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def vector():
        return [0.0 if rng.random() < zeros else math.ldexp(rng.uniform(-1.0, 1.0),
                                                            rng.randint(low, high))
                for _ in range(dimension)]

    return vector(), vector()


_any_floats = st.lists(st.floats(), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_wide_vectors(), st.tuples(_any_floats, _any_floats)))
def test_metric_kernels_are_bit_equal_to_the_generator_kernels(vectors):
    x, y = vectors
    for vector in vectors:
        want = _bits_outcome(reference_norm, vector)
        assert _bits_outcome(metrics._norm, vector) == want
        # The one difference: a norm whose squares sum past the largest
        # double is infinite, not an error, so ``embed`` can reject it.
        assert _bits_outcome(lambda v: metrics._Vector(v).norm, vector) == \
            (("value", struct.pack("<d", math.inf)) if want[1] is OverflowError else want)
    for pair in ((x, y), (x, x), (y, x)):
        assert _bits_outcome(cosine, *pair) == _bits_outcome(reference_cosine, *pair)


def test_evaluate_step_takes_one_norm_per_distinct_text(hash_embedder, monkeypatch):
    norms = []
    plain = metrics._norm
    monkeypatch.setattr(metrics, "_norm", lambda x: norms.append(x) or plain(x))
    embedder = CountingEmbedder(hash_embedder)
    instance = demo.demo_instance()
    generator = ScriptedGeneration.from_flat(demo.demo_scenario()["generation"])
    for result in run_method(FRAMEWORK, instance, generator):
        evaluate_step(result, "demo", embedder)
    assert len(norms) == sum(len(batch) for batch in embedder.batches) > 0
