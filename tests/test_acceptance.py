"""Acceptance suite: one check per release criterion, at pinned tolerances.

Criteria either reproduce published aggregate figures from their
per-survey fixture data or exercise system properties under scripted
mock providers. Every check prints one PASS/FAIL line.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

from conftest import make_paper
from dynsurvey import demo
from dynsurvey.benchmark import (
    BenchmarkInstance,
    FRAMEWORK,
    ONE_STEP,
    GroundTruthSpan,
    run_method,
)
from dynsurvey.document import (
    document_from_dict,
    outline_fingerprint,
    serialize_document,
)
from dynsurvey.engine import apply_update
from dynsurvey.evaluation import evaluate_step, summarize
from dynsurvey.metrics import (
    abstention_precision_recall,
    bleu_4,
    delta_out,
    rouge_l,
    token_edit_script,
)
from dynsurvey.mock import ScriptedGeneration
from dynsurvey.text import tokenize

from helpers import apply_edit_script, count_unresolved_placeholders, document_token_stream
from test_metrics import oracle_bleu_4, oracle_rouge_l


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# Published figures reproduced by the arithmetic criteria (fixture data).

PUBLISHED_ABSTENTION_CONFUSIONS = {
    # survey: (total, tp, tn, fp, fn)
    "object-detection": (45, 13, 28, 3, 1),
    "adversarial-attacks": (45, 15, 29, 1, 0),
    "remote-sensing-sr": (45, 23, 20, 1, 1),
    "robotic-arms": (78, 17, 61, 0, 0),
    "video-anomaly": (78, 16, 62, 0, 0),
}
PUBLISHED_ABSTENTION_PRECISION_PCT = [81.0, 93.75, 95.83, 100.0, 100.0]

PUBLISHED_SECTION_ROUTING = [(0.89, 0.94), (0.87, 0.93), (0.90, 0.95),
                             (0.90, 0.95), (0.92, 0.97)]
PUBLISHED_TABLE_ROUTING = [(0.72, 0.87), (0.80, 0.92), (0.93, 0.97),
                           (0.95, 0.98), (0.93, 0.98)]
PUBLISHED_SECTION_ROUTING_AVG = (0.90, 0.95)
PUBLISHED_TABLE_ROUTING_AVG = (0.88, 0.93)

PUBLISHED_TABLE_FIDELITY = [
    # (samples, total fidelity, exact match)
    (11, 0.91, 0.55),
    (21, 0.86, 0.62),
    (132, 0.90, 0.68),
    (2, 1.00, 0.50),
    (14, 0.88, 0.57),
]
PUBLISHED_TABLE_FIDELITY_AVG = (0.90, 0.65)

# Per-survey means: BLEU, ROUGE, BERT, alignment, coherence, token delta.
PUBLISHED_SURVEY_METRICS = [
    (7.74, 0.216, 0.867, 0.809, 0.787, 233.3),
    (4.83, 0.191, 0.855, 0.823, 0.792, 225.3),
    (2.22, 0.149, 0.849, 0.804, 0.777, 224.2),
    (4.98, 0.189, 0.862, 0.803, 0.775, 216.1),
    (1.61, 0.158, 0.847, 0.791, 0.787, 229.9),
]
PUBLISHED_MACRO_ROW = (4.28, 0.181, 0.856, 0.806, 0.783, 225.8)
MACRO_ROW_DECIMALS = (2, 3, 3, 3, 3, 1)


# ---------------------------------------------------------------------------
# Criterion 1: locality by construction over a 50-step mock stream.


def _fifty_step_setup() -> tuple[BenchmarkInstance, ScriptedGeneration]:
    early = demo.demo_instance().early_state
    sections = ["2", "3", "1"]
    tables_for_section = {"2": "t1", "3": "t2", "1": "t1"}
    script: dict[str, str] = {}
    late, oos = [], []
    for i in range(50):
        paper_id = f"s{i:02d}"
        paper = make_paper(paper_id, bib={"key": f"key_{paper_id}",
                                          "title": f"Stream paper {i}", "year": "2025"})
        kind = i % 5
        script[f"analysis|{paper_id}|0"] = (
            f"### Methods\nApproach {i} filters noise.\n### Novelty\nVariant {i}."
            f"\n### Results\nGain {i} on benchmarks.")
        if kind == 0:
            script[f"abstention|{paper_id}|0"] = "FALSE"
            oos.append(paper)
            continue
        if kind == 3:
            # In scope, but the answer never parses: parse-abstain.
            script[f"abstention|{paper_id}|0"] = "hard to tell"
            script[f"abstention|{paper_id}|1"] = "still unclear"
            late.append((paper, GroundTruthSpan(
                section_id="2", text=f"Reference description {i}.")))
            continue
        section = sections[i % 3]
        others = [s for s in sections if s != section]
        script[f"abstention|{paper_id}|0"] = "TRUE"
        script[f"section_routing|{paper_id}|0"] = json.dumps([section, *others])
        script[f"insertion_point|{paper_id}|0"] = "append" if i % 2 else f"{section}:2"
        with_table = kind == 1
        for table_id in ("t1", "t2"):
            answer = "yes" if with_table and tables_for_section[section] == table_id else "no"
            script[f"table_routing|{paper_id}:{table_id}|0"] = answer
        script[f"text_synthesis|{paper_id}|0"] = (
            f"Method{i} [cite]: It reduces noise on benchmark {i}. "
            f"It preserves edges while smoothing flat regions.")
        if with_table:
            table_id = tables_for_section[section]
            if table_id == "t1":
                row = {"Method": f"Method{i}", "Domain": "Hybrid",
                       "Supervision": "Supervised", "Score": i % 5 + 1}
            else:
                row = {"Dataset": f"Set{i}", "Scenes": 10 + i, "Noise": "Real"}
            script[f"table_synthesis|{paper_id}:{table_id}|0"] = json.dumps(row)
        late.append((paper, GroundTruthSpan(
            section_id=section, text=f"Reference description {i}.")))
    instance = BenchmarkInstance(
        name="stream-50",
        early_state=early,
        late_papers=tuple(late),
        out_of_scope_papers=tuple(oos),
    )
    return instance, ScriptedGeneration.from_flat(script)


def test_c1_locality_by_construction_over_fifty_steps():
    with criterion("C1 locality-by-construction"):
        started = time.perf_counter()
        instance, generator = _fifty_step_setup()
        results = run_method(FRAMEWORK, instance, generator)
        assert len(results) == 50
        updated = [r for r in results if r.record and r.record.decision == "updated"]
        abstained = [r for r in results if r.abstained]
        table_routed = [r for r in updated if r.routed_table]
        assert len(updated) == 30
        assert len(abstained) == 20
        assert len(table_routed) == 10
        for result in results:
            before_tokens, before_regions = document_token_stream(result.before)
            after_tokens, after_regions = document_token_stream(result.after)
            script = token_edit_script(before_tokens, after_tokens)
            scope = set()
            if result.routed_section:
                scope.add(f"section:{result.routed_section}")
            if result.routed_table:
                scope.add(f"table:{result.routed_table}")
            assert delta_out(script, scope, before_regions, after_regions) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"50-step stream took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 2: abstention arithmetic on the published confusion matrices.


def test_c2_abstention_precision_reproduced():
    with criterion("C2 abstention-arithmetic"):
        computed = []
        for survey, (total, tp, tn, fp, fn) in PUBLISHED_ABSTENTION_CONFUSIONS.items():
            assert tp + tn + fp + fn == total, survey
            labels = ([(1, 1)] * tp + [(0, 0)] * tn + [(0, 1)] * fp + [(1, 0)] * fn)
            precision, _ = abstention_precision_recall(labels)
            computed.append(precision * 100.0)
        for value, published in zip(computed, PUBLISHED_ABSTENTION_PRECISION_PCT):
            assert abs(value - published) <= 0.5, (value, published)


# ---------------------------------------------------------------------------
# Criterion 3: routing aggregation from per-survey values.


def test_c3_section_routing_macro_matches_published():
    with criterion("C3 routing-aggregation-section"):
        macro1 = summarize([t1 for t1, _ in PUBLISHED_SECTION_ROUTING]).mean
        macro3 = summarize([t3 for _, t3 in PUBLISHED_SECTION_ROUTING]).mean
        assert abs(macro1 - PUBLISHED_SECTION_ROUTING_AVG[0]) <= 0.005, macro1
        assert abs(macro3 - PUBLISHED_SECTION_ROUTING_AVG[1]) <= 0.005, macro3


def test_c3_table_routing_macro_matches_published():
    with criterion("C3 routing-aggregation-table"):
        macro1 = summarize([t1 for t1, _ in PUBLISHED_TABLE_ROUTING]).mean
        macro3 = summarize([t3 for _, t3 in PUBLISHED_TABLE_ROUTING]).mean
        assert abs(macro1 - PUBLISHED_TABLE_ROUTING_AVG[0]) <= 0.005, (
            f"macro Top-1 {macro1} vs published {PUBLISHED_TABLE_ROUTING_AVG[0]}")
        assert abs(macro3 - PUBLISHED_TABLE_ROUTING_AVG[1]) <= 0.005, (
            f"macro Top-3 {macro3} vs published {PUBLISHED_TABLE_ROUTING_AVG[1]}")


# ---------------------------------------------------------------------------
# Criterion 4: table-fidelity weighted averages.


def test_c4_table_fidelity_weighted_average():
    with criterion("C4 table-fidelity-aggregation"):
        total = sum(n for n, _, _ in PUBLISHED_TABLE_FIDELITY)
        assert total == 180
        fidelity = sum(n * f for n, f, _ in PUBLISHED_TABLE_FIDELITY) / total
        exact = sum(n * e for n, _, e in PUBLISHED_TABLE_FIDELITY) / total
        assert abs(fidelity - PUBLISHED_TABLE_FIDELITY_AVG[0]) <= 0.005, fidelity
        assert abs(exact - PUBLISHED_TABLE_FIDELITY_AVG[1]) <= 0.005, exact


# ---------------------------------------------------------------------------
# Criterion 5: macro row over the per-survey metric means.


def test_c5_macro_row_reproduced():
    with criterion("C5 macro-row"):
        for column, (published, decimals) in enumerate(
                zip(PUBLISHED_MACRO_ROW, MACRO_ROW_DECIMALS)):
            values = [row[column] for row in PUBLISHED_SURVEY_METRICS]
            macro = summarize(values).mean
            # The published row carries `decimals` digits; compare at that
            # precision with the +-0.01 tolerance on top.
            assert abs(round(macro, decimals) - published) <= 0.01, (
                f"column {column}: macro {macro} vs published {published}")


# ---------------------------------------------------------------------------
# Criterion 6: ROUGE-L and BLEU-4 against brute-force oracles.

_VOCAB = ["model", "noise", "image", "patch", "filter", "deep", "prior",
          "sensor", "scene", "edge"]


def test_c6_metric_oracles_on_200_pairs():
    with criterion("C6 metric-oracles"):
        started = time.perf_counter()
        rng = random.Random(1729)
        for _ in range(200):
            candidate = " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(1, 10)))
            reference = " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(1, 10)))
            candidate_tokens, reference_tokens = tokenize(candidate), tokenize(reference)
            assert abs(rouge_l(candidate_tokens, reference_tokens)
                       - oracle_rouge_l(candidate, reference)) < 1e-9
            assert abs(bleu_4(candidate_tokens, reference_tokens)
                       - oracle_bleu_4(candidate, reference)) < 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 7: diff soundness and the baseline disruption ordering.


def _random_document(rng: random.Random):
    sections = []
    for sid in ("1", "2", "3"):
        n_sentences = rng.randint(1, 6)
        sentences = []
        for _ in range(n_sentences):
            words = " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(2, 7)))
            sentences.append(words.capitalize() + ".")
        sections.append({"id": sid, "title": f"S{sid}", "text": " ".join(sentences)})
    return document_from_dict({
        "metadata": {"title": "R"}, "sections": sections, "tables": [], "references": []})


def _perturb(doc, rng: random.Random):
    data = json.loads(serialize_document(doc))
    for section in data["sections"]:
        roll = rng.random()
        if roll < 0.3:
            section["text"] += " " + " ".join(
                rng.choice(_VOCAB) for _ in range(rng.randint(2, 6))).capitalize() + "."
        elif roll < 0.5:
            words = section["text"].split()
            index = rng.randrange(len(words))
            words[index] = rng.choice(_VOCAB)
            section["text"] = " ".join(words)
    return document_from_dict(data)


def test_c7_diff_round_trip_and_baseline_ordering(demo_instance):
    with criterion("C7 diff-soundness-and-ordering"):
        started = time.perf_counter()
        rng = random.Random(31337)
        for _ in range(100):
            before = _random_document(rng)
            after = _perturb(before, rng)
            before_tokens, _ = document_token_stream(before)
            after_tokens, _ = document_token_stream(after)
            script = token_edit_script(before_tokens, after_tokens)
            assert apply_edit_script(before_tokens, script) == after_tokens

        # Framework scenario: the demo script inserts locally.
        framework = run_method(
            FRAMEWORK, demo_instance, ScriptedGeneration.from_flat(demo.demo_framework_script()))
        framework_eval = evaluate_step(framework[0], "demo")
        assert framework_eval.delta_out == 0

        # Global-rewrite scenario for the same first input.
        early = demo_instance.early_state.document
        data = json.loads(serialize_document(early))
        for section in data["sections"]:
            words = section["text"].split()
            words = ["revised" if i % 3 == 0 else w for i, w in enumerate(words)]
            section["text"] = " ".join(words) + " Extra commentary lands everywhere."
        rewrite = json.dumps(data)
        script = {f"one_step|{p}|0": rewrite for p in ("lateA", "lateB", "oosA", "oosB")}
        baseline = run_method(
            ONE_STEP, demo_instance, ScriptedGeneration.from_flat(script))
        baseline_eval = evaluate_step(baseline[0], "demo")
        assert baseline_eval.delta_tokens > framework_eval.delta_tokens
        assert baseline_eval.delta_out > framework_eval.delta_out
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"criterion 7 took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 8: update-loop semantics under scripted mocks.


def test_c8_update_loop_semantics():
    with criterion("C8 update-loop-semantics"):
        started = time.perf_counter()
        instance, generator = _fifty_step_setup()
        fingerprint = outline_fingerprint(instance.early_state.outline)
        papers = [p for p, _ in instance.late_papers] + list(instance.out_of_scope_papers)
        state = instance.early_state
        for paper in papers:
            new_state, record = apply_update(state, paper, generator)
            before_sections = {s.id: len(s.sentences) for s in state.document.sections}
            after_sections = {s.id: len(s.sentences) for s in new_state.document.sections}
            grown = [sid for sid in before_sections
                     if after_sections[sid] > before_sections[sid]]
            before_rows = {t.id: len(t.rows) for t in state.document.tables}
            after_rows = {t.id: len(t.rows) for t in new_state.document.tables}
            grown_tables = [tid for tid in before_rows if after_rows[tid] > before_rows[tid]]
            if record.decision == "abstained":
                assert serialize_document(state.document) == \
                    serialize_document(new_state.document)
                assert grown == [] and grown_tables == []
            else:
                assert record.decision == "updated"
                assert grown == [record.routed_section]
                if record.routed_table:
                    assert grown_tables == [record.routed_table]
                    assert after_rows[record.routed_table] == \
                        before_rows[record.routed_table] + 1
                else:
                    assert grown_tables == []
            assert outline_fingerprint(new_state.outline) == fingerprint
            state = new_state
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"criterion 8 took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 9: citation validity by construction.


def test_c9_citation_construction():
    with criterion("C9 citation-construction"):
        started = time.perf_counter()
        instance, generator = _fifty_step_setup()
        results = run_method(FRAMEWORK, instance, generator)
        final = results[-1].after
        assert count_unresolved_placeholders(final) == 0
        numbers = [r.number for r in final.references]
        assert numbers == list(range(1, len(numbers) + 1))
        keys = [r.key for r in final.references]
        assert len(keys) == len(set(keys))
        # Every updated step resolved its placeholder to its own bib key.
        for result in results:
            record = result.record
            if record and record.decision == "updated" and record.placeholder_count:
                assert set(record.resolved_citation_keys) == {f"key_{record.paper_id}"}
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"criterion 9 took {elapsed:.2f}s"


def test_demo_stream_publishes_clean_citations(demo_instance, demo_generator, tmp_path):
    results = run_method(FRAMEWORK, demo_instance, demo_generator)
    final = results[-1].after
    assert count_unresolved_placeholders(final) == 0
    assert [r.number for r in final.references] == list(range(1, 11))
    keys = {r.key for r in final.references}
    assert {"doe2024twostage", "kim2025burst"} <= keys
