"""Metric suite against independent brute-force oracles and pinned examples."""

from __future__ import annotations

import math
import random
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynsurvey.document import document_from_dict, make_section
from dynsurvey.errors import EvaluationError
from dynsurvey.evaluation import StepEvaluation, aggregate
from dynsurvey.metrics import (
    EditOp,
    bleu_4,
    cosine,
    delta_out,
    delta_tokens,
    derive_inserted_sentences,
    embed,
    rouge_l,
    semantic_alignment,
    table_row_fidelity,
    token_edit_script,
    abstention_precision_recall,
)
from dynsurvey.text import tokenize

from helpers import apply_edit_script, document_token_stream, embedded_local_coherence

# --- independent oracles ----------------------------------------------------


def oracle_lcs_length(a: list[str], b: list[str]) -> int:
    """Exhaustive LCS: enumerate all subsequences of the shorter side."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    for mask in range(1 << len(short)):
        subseq = [short[i] for i in range(len(short)) if mask >> i & 1]
        it = iter(long_)
        if all(token in it for token in subseq):
            best = max(best, len(subseq))
    return best


def oracle_rouge_l(candidate: str, reference: str, beta: float = 1.0) -> float:
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = oracle_lcs_length(cand, ref)
    recall, precision = lcs / len(ref), lcs / len(cand)
    if recall + beta * beta * precision == 0.0:
        return 0.0
    return (1 + beta * beta) * precision * recall / (recall + beta * beta * precision)


def oracle_bleu_4(candidate: str, reference: str) -> float:
    """Direct clipped n-gram counting with add-one smoothing on zero orders."""
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand:
        return 0.0
    log_sum = 0.0
    for order in (1, 2, 3, 4):
        grams = [tuple(cand[i:i + order]) for i in range(len(cand) - order + 1)]
        if not grams:
            continue
        ref_grams = [tuple(ref[i:i + order]) for i in range(len(ref) - order + 1)]
        budget: dict[tuple, int] = {}
        for gram in ref_grams:
            budget[gram] = budget.get(gram, 0) + 1
        matched = 0
        for gram in grams:
            if budget.get(gram, 0) > 0:
                budget[gram] -= 1
                matched += 1
        precision = matched / len(grams) if matched else 1.0 / (len(grams) + 1)
        log_sum += math.log(precision)
    if len(cand) >= len(ref):
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - len(ref) / len(cand))
    return brevity * math.exp(log_sum / 4.0)


VOCAB = ["model", "noise", "image", "patch", "filter", "deep", "prior", "test"]


def _random_sentence(rng: random.Random) -> str:
    return " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 10)))


def test_rouge_and_bleu_match_oracles_on_200_random_pairs():
    rng = random.Random(20240810)
    for _ in range(200):
        candidate, reference = _random_sentence(rng), _random_sentence(rng)
        candidate_tokens, reference_tokens = tokenize(candidate), tokenize(reference)
        assert abs(rouge_l(candidate_tokens, reference_tokens)
                   - oracle_rouge_l(candidate, reference)) < 1e-9
        assert abs(bleu_4(candidate_tokens, reference_tokens)
                   - oracle_bleu_4(candidate, reference)) < 1e-9


# --- ROUGE-L ---------------------------------------------------------------


def test_rouge_identical_strings():
    assert rouge_l(tokenize("the cat sat"), tokenize("the cat sat")) == pytest.approx(1.0)


def test_rouge_hand_computed_example():
    # LCS("the cat sat", "the cat") = 2, P = 2/3, R = 1, F(beta=1) = 0.8.
    assert rouge_l(tokenize("the cat sat"), tokenize("the cat")) == pytest.approx(0.8)


def test_rouge_disjoint_tokens():
    assert rouge_l(tokenize("alpha beta"), tokenize("gamma delta")) == 0.0


def test_rouge_empty_sides():
    assert rouge_l(tokenize(""), tokenize("words here")) == 0.0
    assert rouge_l(tokenize("words here"), tokenize("")) == 0.0


@given(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12).map(" ".join))
def test_rouge_self_similarity_is_one(text):
    assert rouge_l(tokenize(text), tokenize(text)) == pytest.approx(1.0)


# --- BLEU-4 ----------------------------------------------------------------


def test_bleu_identical_ten_tokens():
    text = "one two three four five six seven eight nine ten"
    assert bleu_4(tokenize(text), tokenize(text)) == pytest.approx(1.0)


def test_bleu_golden_value():
    # Pinned by the counting oracle before the implementation was written:
    # p1 = 3/4, p2 = 2/3, p3 = 1/2, p4 smoothed to 1/2, BP = 1.
    assert bleu_4(tokenize("a b c d"), tokenize("a b c e")) == \
        pytest.approx(0.5946035575013605, abs=1e-12)


def test_bleu_brevity_penalty_applied():
    # A clean prefix at half the reference length has every precision at 1,
    # so the score is exactly BP = exp(1 - r/c) = exp(-1).
    reference = "alpha beta gamma delta epsilon zeta eta theta"
    candidate = "alpha beta gamma delta"
    value = bleu_4(tokenize(candidate), tokenize(reference))
    assert value == pytest.approx(math.exp(1.0 - 8 / 4), abs=1e-12)
    assert value == pytest.approx(oracle_bleu_4(candidate, reference), abs=1e-12)


def test_bleu_empty_candidate():
    assert bleu_4(tokenize(""), tokenize("something")) == 0.0


@given(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12).map(" ".join))
def test_bleu_self_similarity_is_one(text):
    assert bleu_4(tokenize(text), tokenize(text)) == pytest.approx(1.0)


# --- token edit scripts -----------------------------------------------------

_tokens = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=12)


@given(_tokens, _tokens)
def test_script_length_matches_exhaustive_lcs(before, after):
    script = token_edit_script(before, after)
    expected = len(before) + len(after) - 2 * oracle_lcs_length(before, after)
    assert delta_tokens(script) == expected


@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=40),
       st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=40))
def test_script_round_trips(before, after):
    script = token_edit_script(before, after)
    assert apply_edit_script(before, script) == after


def test_substitution_is_delete_plus_insert():
    script = token_edit_script(["the", "model", "works", "well"],
                               ["the", "model", "works", "badly"])
    kinds = sorted(op.op for op in script)
    assert kinds == ["delete", "insert"]
    assert delta_tokens(script) == 2


# --- document diff and disruption -------------------------------------------


def _doc(sections: dict[str, str], tables=None):
    data = {
        "metadata": {"title": "T"},
        "sections": [{"id": k, "title": f"S{k}", "text": v} for k, v in sections.items()],
        "tables": tables or [],
        "references": [],
    }
    return document_from_dict(data)


def token_diff(before, after):
    """Edit script between two documents' body token streams."""
    return token_edit_script(document_token_stream(before)[0], document_token_stream(after)[0])


def test_identical_documents_have_empty_script():
    doc = _doc({"1": "Alpha beta gamma."})
    assert token_diff(doc, doc) == ()


def test_inserted_sentence_counts_as_pure_inserts():
    before = _doc({"1": "Alpha beta gamma."})
    after = _doc({"1": "Alpha beta gamma. Totally fresh words arrive."})
    script = token_diff(before, after)
    assert all(op.op == "insert" for op in script)
    assert delta_tokens(script) == 5


def test_single_token_replacement_counts_two():
    before = _doc({"1": "The model works well."})
    after = _doc({"1": "The model works badly."})
    assert delta_tokens(token_diff(before, after)) == 2


def test_delta_out_scope_boundaries():
    before = _doc({
        "x": "alpha beta gamma delta epsilon zeta eta.",
        "y": "stable text stays here.",
    })
    after = _doc({
        "x": "one two three four five six seven.",
        "y": "stable text stays here.",
    })
    before_tokens, before_regions = document_token_stream(before)
    after_tokens, after_regions = document_token_stream(after)
    script = token_edit_script(before_tokens, after_tokens)
    # Seven distinct words replaced: 7 deletions plus 7 insertions.
    assert delta_tokens(script) == 14
    assert delta_out(script, {"section:y"}, before_regions, after_regions) == 14
    assert delta_out(script, {"section:x"}, before_regions, after_regions) == 0
    assert delta_out(script, {"section:x", "section:y"},
                     before_regions, after_regions) == 0
    assert delta_out(script, set(), before_regions, after_regions) == delta_tokens(script)


def _ops_at(*positions: int) -> tuple[EditOp, ...]:
    return tuple(EditOp("insert", 0, p, "t") for p in positions)


def _regions(lengths: dict[str, int]):
    """Section regions of these names and lengths, in order, as
    ``SurveyDocument.regions`` keeps them."""
    parts = [("t",) * length for length in lengths.values()]
    return (parts, [f"section:{name}" for name in lengths],
            list(accumulate(lengths.values(), initial=0)))


def test_delta_out_charges_an_empty_region_nothing():
    # Empty x and y share their start with z; every op there belongs to z.
    regions = _regions({"w": 2, "x": 0, "y": 0, "z": 3})
    script = _ops_at(0, 1, 2, 4)
    assert delta_out(script, {"section:z"}, regions, regions) == 2
    assert delta_out(script, {"section:x", "section:y"}, regions, regions) == 4
    # The tokens on both edges of the empty middle regions.
    assert delta_out(_ops_at(1, 2), {"section:w", "section:z"}, regions, regions) == 0
    # An op on the last token lies in the last region.
    assert delta_out(_ops_at(4), {"section:z"}, regions, regions) == 0
    # A leading empty region: the first token lies in the region after it.
    leading = _regions({"x": 0, "w": 3})
    assert delta_out(_ops_at(0, 2), {"section:w"}, leading, leading) == 0
    assert delta_out(_ops_at(0, 2), {"section:x"}, leading, leading) == 2
    # Trailing empty regions: the last token lies in the region before them.
    trailing = _regions({"w": 3, "x": 0, "y": 0})
    assert delta_out(_ops_at(0, 2), {"section:w"}, trailing, trailing) == 0
    assert delta_out(_ops_at(2), {"section:x", "section:y"}, trailing, trailing) == 1


@given(st.lists(st.integers(0, 3), max_size=8), st.lists(st.integers(0, 12), max_size=10))
def test_delta_out_matches_a_linear_region_scan(lengths, positions):
    regions = _regions({str(i): length for i, length in enumerate(lengths)})
    _, ids, starts = regions
    # Every op position lies inside its stream.
    positions = [p for p in positions if p < starts[-1]]
    script = _ops_at(*positions)
    for scope in ({"section:0"}, {"section:1", "section:3"}):
        outside = sum(next(ids[i] for i in range(len(ids)) if starts[i] <= p < starts[i + 1])
                      not in scope for p in positions)
        assert delta_out(script, scope, regions, regions) == outside


def test_table_rows_are_inside_their_table_region():
    table = [{
        "id": "t1", "title": "Methods",
        "schema": [{"name": "Method", "kind": "text"}],
        "rows": [{"Method": "old entry"}],
    }]
    before = _doc({"1": "Alpha beta."}, tables=table)
    grown = [dict(table[0], rows=[{"Method": "old entry"}, {"Method": "brand new"}])]
    after = _doc({"1": "Alpha beta."}, tables=grown)
    before_tokens, before_regions = document_token_stream(before)
    after_tokens, after_regions = document_token_stream(after)
    script = token_edit_script(before_tokens, after_tokens)
    assert delta_tokens(script) == 2
    assert delta_out(script, {"table:t1"}, before_regions, after_regions) == 0
    assert delta_out(script, {"section:1"}, before_regions, after_regions) == 2


def test_derive_inserted_sentences_finds_new_material():
    before = _doc({"1": "Alpha stays. Beta stays."})
    after = _doc({"1": "Alpha stays. Fresh arrives. Beta stays."})
    inserted = derive_inserted_sentences(before, after)
    assert [s.text for s in inserted] == ["Fresh arrives."]


# --- cosine and embedding metrics -------------------------------------------


def test_cosine_basics():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_zero_vector_is_undefined():
    with pytest.raises(EvaluationError, match="zero vector"):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_cosine_dimension_mismatch():
    with pytest.raises(EvaluationError, match="mismatched dimensions"):
        cosine([1.0], [1.0, 2.0])


_vectors = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False).filter(lambda v: abs(v) > 1e-6),
    min_size=2, max_size=8)


@given(_vectors, _vectors)
def test_cosine_symmetry_and_bounds(x, y):
    if len(x) != len(y):
        x, y = x[:min(len(x), len(y))], y[:min(len(x), len(y))]
    assert cosine(x, y) == pytest.approx(cosine(y, x), abs=1e-12)
    assert abs(cosine(x, y)) <= 1.0 + 1e-12


def test_bert_similarity_identity(hash_embedder):
    from dynsurvey.metrics import bert_similarity
    text = "the update matches its reference"
    assert bert_similarity(text, text, embed([text], hash_embedder)) == pytest.approx(1.0)


def test_bert_similarity_pinned_fixture(hash_embedder):
    # Golden computed once under seed 7, dimension 64, then frozen.
    from dynsurvey.metrics import bert_similarity
    texts = ["the benchmark scores raw outputs", "the benchmark scores processed outputs"]
    value = bert_similarity(*texts, embed(texts, hash_embedder))
    assert value == pytest.approx(0.8100667500488653, abs=1e-12)


def test_alignment_identical_sentence_scores_one(hash_embedder):
    text = "residual refinement recovers texture"
    assert semantic_alignment([text], text, embed([text], hash_embedder)) == pytest.approx(1.0)


def test_alignment_mean_of_two_sentences(hash_embedder):
    paper = "a benchmark of paired bursts for denoising"
    s1 = "the benchmark collects paired bursts"
    s2 = "orbital mechanics of stars"
    vectors = hash_embedder.embed([s1, s2, paper])
    expected = (cosine(vectors[0], vectors[2]) + cosine(vectors[1], vectors[2])) / 2
    assert semantic_alignment([s1, s2], paper, embed([s1, s2, paper], hash_embedder)) == \
        pytest.approx(expected)


def test_alignment_empty_update_is_absent(hash_embedder):
    assert semantic_alignment([], "paper", embed(["paper"], hash_embedder)) is None


def test_coherence_uniform_section_scores_one(hash_embedder):
    section = make_section("1", "S", "Same words here. Same words here. Same words here.")
    doc = document_from_dict({
        "metadata": {}, "sections": [], "tables": [], "references": []})
    doc = type(doc)(metadata=doc.metadata, sections=(section,), tables=(), references=())
    target = section.sentences[1]
    assert embedded_local_coherence([target], doc, 2, hash_embedder) == pytest.approx(1.0)


def test_coherence_window_truncates_at_section_start(hash_embedder):
    section = make_section(
        "1", "S",
        "Inserted sentence sits first. Neighbor one follows. Neighbor two follows. Far away text.")
    doc = document_from_dict({"metadata": {}, "sections": [], "tables": [], "references": []})
    doc = type(doc)(metadata=doc.metadata, sections=(section,), tables=(), references=())
    target = section.sentences[0]
    texts = [s.text for s in section.sentences]
    vectors = dict(zip(texts, hash_embedder.embed(texts)))
    expected = (cosine(vectors[texts[0]], vectors[texts[1]])
                + cosine(vectors[texts[0]], vectors[texts[2]])) / 2
    assert embedded_local_coherence([target], doc, 2, hash_embedder) == pytest.approx(expected)


def test_coherence_hand_computed_window(hash_embedder):
    section = make_section(
        "1", "S",
        "Alpha one here. Beta two here. Inserted update lands. Gamma three here. Delta four here.")
    doc = document_from_dict({"metadata": {}, "sections": [], "tables": [], "references": []})
    doc = type(doc)(metadata=doc.metadata, sections=(section,), tables=(), references=())
    target = section.sentences[2]
    texts = [s.text for s in section.sentences]
    vectors = dict(zip(texts, hash_embedder.embed(texts)))
    neighbors = [texts[0], texts[1], texts[3], texts[4]]
    expected = sum(cosine(vectors[target.text], vectors[t]) for t in neighbors) / 4
    assert embedded_local_coherence([target], doc, 2, hash_embedder) == pytest.approx(expected)


def test_coherence_missing_sentence_is_an_error(hash_embedder):
    from dynsurvey.document import Sentence
    doc = document_from_dict({
        "metadata": {}, "sections": [{"id": "1", "title": "S", "text": "Only text."}],
        "tables": [], "references": []})
    ghost = Sentence(id="1:99", text="not there")
    with pytest.raises(EvaluationError, match="1:99"):
        embedded_local_coherence([ghost], doc, 2, hash_embedder)


def test_coherence_empty_update_is_absent(hash_embedder):
    doc = document_from_dict({
        "metadata": {}, "sections": [{"id": "1", "title": "S", "text": "Only text."}],
        "tables": [], "references": []})
    assert embedded_local_coherence([], doc, 2, hash_embedder) is None


# --- routing, abstention, fidelity -------------------------------------------


def _routing_accuracy(hits: list[tuple[int, int]]) -> tuple[float | None, float | None]:
    """Acc@1 and Acc@3 as the report aggregates them from per-step hits.

    One out-of-scope step, which has no routing hits, rides along and must
    not count.
    """
    evals = [StepEvaluation(
        survey="s1", method="framework", paper_id=f"p{i}", out_of_scope=0, abstained=0,
        delta_tokens=0, delta_out=0, routing_hit1=h1, routing_hit3=h3)
        for i, (h1, h3) in enumerate(hits)]
    evals.append(StepEvaluation(
        survey="s1", method="framework", paper_id="oos", out_of_scope=1, abstained=1,
        delta_tokens=0, delta_out=0))
    micro = aggregate(evals)["framework"]["micro"]
    acc1, acc3 = micro["routing_hit1"], micro["routing_hit3"]
    return (acc1.mean if acc1 else None), (acc3.mean if acc3 else None)


def test_routing_all_correct():
    assert _routing_accuracy([(1, 1), (1, 1)]) == (1.0, 1.0)


def test_routing_rank_two_hit_counts_for_top3_only():
    hits = [(0, 1), (0, 0), (0, 0)]
    acc1, acc3 = _routing_accuracy(hits)
    assert acc1 == 0.0
    assert acc3 == pytest.approx(1 / 3)


def test_routing_empty_is_absent():
    assert _routing_accuracy([]) == (None, None)


def test_abstention_precision_recall_from_confusions():
    # 15 correct abstentions, 1 wrong one.
    labels = [(1, 1)] * 15 + [(0, 1)] * 1
    precision, recall = abstention_precision_recall(labels)
    assert precision == pytest.approx(0.9375)
    # 13 TP, 3 FP, 1 FN.
    labels = [(1, 1)] * 13 + [(0, 1)] * 3 + [(1, 0)] * 1 + [(0, 0)] * 28
    precision, recall = abstention_precision_recall(labels)
    assert precision == pytest.approx(0.8125)
    assert recall == pytest.approx(13 / 14)


def test_abstention_no_abstentions_has_absent_precision():
    precision, recall = abstention_precision_recall([(1, 0), (0, 0)])
    assert precision is None
    assert recall == 0.0


def test_fidelity_identical_rows():
    row = {"Method": "CNN", "Score": 4}
    assert table_row_fidelity(row, row, None) == (1.0, 1.0)


class _PinnedEmbedder:
    """Stub embedder with vectors chosen so CNN and ConvNet sit close."""

    model_id = "pinned"
    dimension = 2

    def embed(self, texts):
        table = {"CNN": [1.0, 0.1], "ConvNet": [1.0, 0.2]}
        return [table.get(t, [0.0, 1.0]) for t in texts]


def test_fidelity_embedding_route_without_exact_match():
    fidelity, exact = table_row_fidelity(
        {"Method": "ConvNet"}, {"Method": "CNN"}, _PinnedEmbedder(), tau=0.6)
    assert fidelity == 1.0
    assert exact == 0.0


def test_fidelity_overlapping_values_under_hash_embedding(hash_embedder):
    # "White box" vs "White box setting" has cosine above the 0.6 threshold.
    fidelity, exact = table_row_fidelity(
        {"Box": "White box setting"}, {"Box": "White box"}, hash_embedder, tau=0.6)
    assert fidelity == 1.0
    assert exact == 0.0


def test_fidelity_without_embedder_uses_exact_match_only():
    fidelity, exact = table_row_fidelity(
        {"Method": "ConvNet"}, {"Method": "CNN"}, None)
    assert fidelity == 0.0
    assert exact == 0.0


def test_fidelity_normalizes_case_and_spacing():
    fidelity, exact = table_row_fidelity(
        {"Method": "  white   BOX "}, {"Method": "White box"}, None)
    assert fidelity == 1.0 and exact == 1.0


# --- aggregation -------------------------------------------------------------


def _eval(survey: str, method: str, value: float) -> StepEvaluation:
    return StepEvaluation(
        survey=survey, method=method, paper_id="p", out_of_scope=0, abstained=0,
        delta_tokens=int(value), delta_out=0, bleu4=value)


def test_single_survey_macro_equals_micro():
    evals = [_eval("s1", "framework", 2.0), _eval("s1", "framework", 4.0)]
    report = aggregate(evals)["framework"]
    assert report["macro"]["bleu4"].mean == pytest.approx(report["micro"]["bleu4"].mean)
    assert report["macro"]["bleu4"].mean == pytest.approx(3.0)


def test_macro_vs_micro_weighting():
    # Survey means {4.0, 2.0} with sizes {1, 3}: macro 3.0, micro 2.5.
    evals = [_eval("s1", "framework", 4.0)] + [_eval("s2", "framework", 2.0)] * 3
    report = aggregate(evals)["framework"]
    assert report["macro"]["bleu4"].mean == pytest.approx(3.0)
    assert report["micro"]["bleu4"].mean == pytest.approx(2.5)


def test_absent_metrics_stay_absent():
    evals = [StepEvaluation(
        survey="s1", method="framework", paper_id="p", out_of_scope=0, abstained=0,
        delta_tokens=3, delta_out=0)]
    report = aggregate(evals)["framework"]
    assert report["s1"]["bert_sim"] is None
    assert report["macro"]["bert_sim"] is None
    assert report["s1"]["delta_tokens"].mean == 3.0
