"""Benchmark construction and the three method streams."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from conftest import RecordingGenerator, make_paper
from dynsurvey import demo, prompts
from dynsurvey.benchmark import (
    FRAMEWORK,
    ONE_STEP,
    ORACLE,
    SpanAnnotation,
    build_instance,
    run_method,
)
from dynsurvey.document import serialize_document
from dynsurvey.errors import BenchmarkConstructionError, OutlineNotApprovedError
from dynsurvey.evaluation import evaluate_step
from dynsurvey.metrics import derive_inserted_sentences
from dynsurvey.mock import ScriptedGeneration
from dynsurvey.text import tokenize

# Composition of the retrospective corpus this harness mirrors: sections,
# tables and withheld late papers per survey.
BENCHMARK_COMPOSITION = {
    "object-detection": (10, 2, 9),
    "adversarial-attacks": (7, 1, 15),
    "remote-sensing-sr": (9, 2, 20),
    "robotic-arms": (13, 2, 17),
    "video-anomaly": (6, 3, 16),
}


def test_benchmark_composition_fixture():
    late_counts = [late for _, _, late in BENCHMARK_COMPOSITION.values()]
    assert late_counts == [9, 15, 20, 17, 16]
    assert sum(late_counts) == 77
    assert [s for s, _, _ in BENCHMARK_COMPOSITION.values()] == [10, 7, 9, 13, 6]
    assert [t for _, t, _ in BENCHMARK_COMPOSITION.values()] == [2, 1, 2, 2, 3]


def test_build_instance_removes_spans_and_references(full_state):
    instance = demo.demo_instance()
    early = instance.early_state.document
    full = full_state.document
    assert len(early.section("2").sentences) == len(full.section("2").sentences) - 2
    assert len(early.section("3").sentences) == len(full.section("3").sentences) - 2
    assert early.section("1") == full.section("1")
    assert len(instance.late_papers) == 2
    spans = {paper.id: span for paper, span in instance.late_papers}
    assert spans["lateA"].section_id == "2"
    assert "Residual refinement stacks a second stage" in spans["lateA"].text
    early_keys = {r.key for r in early.references}
    assert "doe2024twostage" not in early_keys
    assert "kim2025burst" not in early_keys
    assert [r.number for r in early.references] == list(range(1, 9))


def test_two_spans_in_one_section_are_both_withheld(full_state):
    full = full_state.document
    section = full.section("3")
    # lateB's span is the section's last two sentences; lateC's is its
    # second, and lateC cites the survey's second reference.
    late = [*demo.demo_late_papers(), make_paper("lateC", bib={"key": "donoho1995shrink"})]
    annotations = [*demo.demo_span_annotations(),
                   SpanAnnotation("lateC", "3", section.sentences[1].text)]
    instance = build_instance("two-in-one", full_state, late, annotations, [])
    early = instance.early_state.document
    assert early.section("3").sentences == tuple(section.sentences[i] for i in (0, 2, 3, 4))
    assert len(early.section("2").sentences) == len(full.section("2").sentences) - 2
    assert [(paper.id, span.section_id) for paper, span in instance.late_papers] == \
        [("lateA", "2"), ("lateB", "3"), ("lateC", "3")]
    assert instance.late_papers[2][1].text == section.sentences[1].text
    withheld = {"doe2024twostage", "kim2025burst", "donoho1995shrink"}
    assert [r.key for r in early.references] == \
        [r.key for r in full.references if r.key not in withheld]
    assert [r.number for r in early.references] == list(range(1, 8))


def test_zero_late_refs_keeps_survey_intact(full_state):
    instance = build_instance("noop", full_state, [], [], demo.demo_out_of_scope_papers())
    assert serialize_document(instance.early_state.document) == \
        serialize_document(full_state.document)


def test_span_not_found_names_the_ref(full_state):
    annotation = SpanAnnotation(paper_id="ghost", section_id="2", text="Never written text.")
    with pytest.raises(BenchmarkConstructionError, match="ghost"):
        build_instance("bad", full_state, [make_paper("ghost")], [annotation], [])


def test_ambiguous_span_rejected(full_state):
    data = json.loads(serialize_document(full_state.document))
    for section in data["sections"]:
        if section["id"] == "1":
            section["text"] += " Repeated marker sentence. Repeated marker sentence."
    from dynsurvey.document import parse_document
    doc = parse_document(json.dumps(data))
    state = full_state.with_document(doc)
    annotation = SpanAnnotation(paper_id="dup", section_id="1", text="Repeated marker sentence.")
    with pytest.raises(BenchmarkConstructionError, match="ambiguous"):
        build_instance("bad", state, [make_paper("dup")], [annotation], [])


def test_missing_annotation_rejected(full_state):
    with pytest.raises(BenchmarkConstructionError, match="0 span annotations"):
        build_instance("bad", full_state, [make_paper("noann")], [], [])


def test_overlapping_late_and_oos_sets_rejected(full_state):
    annotation = SpanAnnotation(paper_id="lateA", section_id="2", text=demo.LATE_A_SPAN)
    with pytest.raises(BenchmarkConstructionError, match="overlap"):
        build_instance("bad", full_state, [make_paper("lateA")], [annotation],
                       [make_paper("lateA")])


def _all_abstain_generator(instance) -> ScriptedGeneration:
    script = {}
    papers = [p for p, _ in instance.late_papers] + list(instance.out_of_scope_papers)
    for paper in papers:
        script[f"analysis|{paper.id}|0"] = "### Methods\nM.\n### Novelty\nN.\n### Results\nR."
        script[f"abstention|{paper.id}|0"] = "FALSE"
    return ScriptedGeneration.from_flat(script)


def test_all_abstain_stream_leaves_document_unchanged(demo_instance):
    results = run_method(FRAMEWORK, demo_instance, _all_abstain_generator(demo_instance))
    assert all(r.abstained for r in results)
    final = results[-1].after
    assert serialize_document(final) == serialize_document(demo_instance.early_state.document)


def test_framework_stream_grows_document_monotonically(demo_instance, demo_generator):
    results = run_method(FRAMEWORK, demo_instance, demo_generator)
    assert len(results) == 4
    sizes = []
    for result in results:
        sizes.append(sum(len(s.sentences) for s in result.after.sections))
    assert sizes == sorted(sizes)
    updated = [r for r in results if not r.abstained]
    assert [r.paper_id for r in updated] == ["lateA", "lateB"]


def test_out_of_scope_step_records_label_pair(demo_instance, demo_generator):
    results = run_method(FRAMEWORK, demo_instance, demo_generator)
    oos = [r for r in results if r.paper_id == "oosA"][0]
    assert oos.out_of_scope and oos.abstained
    evaluation = evaluate_step(oos, "demo")
    assert (evaluation.out_of_scope, evaluation.abstained) == (1, 1)


def test_stream_determinism_under_identical_scripts(demo_instance):
    scenario = demo.demo_scenario()

    def fresh():
        return ScriptedGeneration.from_flat(scenario["generation"])

    first = run_method(FRAMEWORK, demo_instance, fresh())
    second = run_method(FRAMEWORK, demo_instance, fresh())
    assert [r.record for r in first] == [r.record for r in second]
    assert serialize_document(first[-1].after) == serialize_document(second[-1].after)


def test_framework_inserted_matches_alignment_reconstruction(demo_instance, demo_generator):
    results = run_method(FRAMEWORK, demo_instance, demo_generator)
    for result in results:
        if result.abstained:
            continue
        aligned = derive_inserted_sentences(result.before, result.after)
        assert [s.id for s in aligned] == [s.id for s in result.inserted]
        assert [s.text for s in aligned] == [s.text for s in result.inserted]


def test_framework_stream_continues_after_step_failure(demo_instance):
    scenario = demo.demo_scenario()
    script = dict(scenario["generation"])
    script["text_synthesis|lateA|0"] = "broken.\n\ntwo paragraphs."
    script["text_synthesis|lateA|1"] = "still.\n\nbroken."
    generator = ScriptedGeneration.from_flat(script)
    results = run_method(FRAMEWORK, demo_instance, generator)
    assert results[0].error is not None
    assert serialize_document(results[0].after) == \
        serialize_document(demo_instance.early_state.document)
    assert not results[1].abstained and results[1].error is None


def test_unknown_method_is_rejected_before_any_step(demo_instance, demo_generator):
    recorder = RecordingGenerator(demo_generator)
    with pytest.raises(ValueError, match="nonsense"):
        run_method("nonsense", demo_instance, recorder)
    assert recorder.requests == []


def test_framework_stream_requires_an_approved_outline(demo_instance, demo_generator):
    early = replace(demo_instance.early_state, outline=demo.demo_outline(approved=False))
    unapproved = replace(demo_instance, early_state=early)
    with pytest.raises(OutlineNotApprovedError):
        run_method(FRAMEWORK, unapproved, demo_generator)


def _echo_generator(instance, method: str) -> ScriptedGeneration:
    doc = serialize_document(instance.early_state.document)
    script = {}
    papers = [p for p, _ in instance.late_papers] + list(instance.out_of_scope_papers)
    for paper in papers:
        script[f"{method}|{paper.id}|0"] = doc
    return ScriptedGeneration.from_flat(script)


def test_one_step_echo_has_zero_delta(demo_instance):
    results = run_method(ONE_STEP, demo_instance, _echo_generator(demo_instance, "one_step"))
    evals = [evaluate_step(r, "demo") for r in results]
    assert all(e.delta_tokens == 0 for e in evals)
    assert all(r.abstained for r in results)


def test_one_step_off_target_rewrite_leaks_out_of_scope(demo_instance, demo_generator):
    results = run_method(ONE_STEP, demo_instance, demo_generator)
    evals = {r.paper_id: evaluate_step(r, "demo") for r in results}
    assert evals["lateA"].delta_out > 0
    assert evals["lateB"].delta_out == 0
    assert evals["lateB"].delta_tokens > 0


def test_one_step_append_counts_inserted_tokens(demo_instance):
    extra = "Completely original appended words."
    doc = demo_instance.early_state.document
    data = json.loads(serialize_document(doc))
    for section in data["sections"]:
        if section["id"] == "2":
            section["text"] += " " + extra
    script = {
        "one_step|lateA|0": json.dumps(data),
        "one_step|lateB|0": json.dumps(data),
        "one_step|oosA|0": json.dumps(data),
        "one_step|oosB|0": json.dumps(data),
    }
    results = run_method(ONE_STEP, demo_instance, ScriptedGeneration.from_flat(script))
    first = evaluate_step(results[0], "demo")
    assert first.delta_tokens == len(tokenize(extra))
    assert first.delta_out == 0  # lateA's ground-truth section is "2"


def test_unparseable_baseline_response_fails_closed(demo_instance):
    script = {
        "one_step|lateA|0": "I cannot do that.",
        "one_step|lateB|0": "Still refusing.",
        "one_step|oosA|0": "No.",
        "one_step|oosB|0": "No.",
    }
    results = run_method(ONE_STEP, demo_instance, ScriptedGeneration.from_flat(script))
    assert all(r.error is not None for r in results)
    assert not any(r.abstained for r in results)
    assert serialize_document(results[-1].after) == \
        serialize_document(demo_instance.early_state.document)


@pytest.mark.parametrize("method", [ONE_STEP, ORACLE])
def test_baseline_step_without_a_reply_fails_closed(demo_instance, method):
    # A missing reply is an AgentError like a transport failure: the
    # framework records such a step as failed, and so must a baseline.
    script = dict(demo.demo_scenario()["generation"])
    del script[f"{method}|lateB|0"]
    results = run_method(method, demo_instance, ScriptedGeneration.from_flat(script))
    assert [r.paper_id for r in results] == ["lateA", "lateB", "oosA", "oosB"]
    failed = results[1]
    assert "lateB" in failed.error and not failed.abstained
    assert failed.after is failed.before
    assert all(r.error is None for r in results if r is not failed)


@pytest.mark.parametrize("reply", [
    {"sections": ["x"]},
    {"sections": 5},
    {"tables": ["t"]},
    {"tables": [{"id": "t", "schema": ["c"]}]},
    {"tables": [{"id": "t", "schema": [{"name": "c", "kind": "categorical", "values": 5}]}]},
    {"tables": [{"id": "t", "schema": [{"name": "a"}], "rows": [5]}]},
    {"tables": [{"id": "t", "schema": [{"name": "n", "kind": "int", "min": "a"}],
                 "rows": [{"n": 1}]}]},
    {"metadata": "m"},
    {"references": 5},
    {"sections": [{"id": "1", "text": "A cat.", "non_maintained": "false"}]},
    {"references": [{"key": "a", "number": 1.9}]},
    {"references": [{"key": "a", "number": True}]},
])
def test_wrongly_shaped_baseline_reply_fails_closed(demo_instance, reply):
    papers = [p for p, _ in demo_instance.late_papers] + list(demo_instance.out_of_scope_papers)
    script = {f"one_step|{paper.id}|0": json.dumps(reply) for paper in papers}
    results = run_method(ONE_STEP, demo_instance, ScriptedGeneration.from_flat(script))
    assert all(r.error is not None and not r.abstained for r in results)
    assert serialize_document(results[-1].after) == \
        serialize_document(demo_instance.early_state.document)


def test_oracle_baseline_stays_in_named_scope(demo_instance, demo_generator):
    results = run_method(ORACLE, demo_instance, demo_generator)
    evals = [evaluate_step(r, "demo") for r in results]
    assert all(e.delta_out == 0 for e in evals)
    late = [e for e in evals if not e.out_of_scope]
    assert all(e.delta_tokens > 0 for e in late)


@pytest.mark.parametrize("method, oracle_keys", [
    (ONE_STEP, set()),
    (ORACLE, {"lateA", "lateB"}),  # out-of-scope papers have no target section
])
def test_baseline_prompt_renders_the_current_document(
        demo_instance, demo_generator, method, oracle_keys):
    recorder = RecordingGenerator(demo_generator)
    results = run_method(method, demo_instance, recorder)
    prompts_by_key = {r.key: r.prompt for r in recorder.requests}
    papers = {p.id: p for p, _ in demo_instance.late_papers}
    papers.update({p.id: p for p in demo_instance.out_of_scope_papers})
    assert [r.paper_id for r in results] == ["lateA", "lateB", "oosA", "oosB"]
    assert any(r.after != r.before for r in results)
    for result in results:
        paper = papers[result.paper_id]
        values = {"document": serialize_document(result.before),
                  "paper_title": paper.title, "paper_abstract": paper.abstract}
        if result.paper_id in oracle_keys:
            expected = prompts.render(prompts.ORACLE_UPDATE,
                                      target_section=result.gt_span.section_id, **values)
        else:
            expected = prompts.render(prompts.ONE_STEP_UPDATE, **values)
        assert prompts_by_key[result.paper_id] == expected


def test_routing_hit1_never_exceeds_hit3(demo_instance, demo_generator, hash_embedder):
    results = run_method(FRAMEWORK, demo_instance, demo_generator)
    for result in results:
        evaluation = evaluate_step(result, "demo", embedder=hash_embedder)
        if evaluation.routing_hit1 is not None:
            assert evaluation.routing_hit1 <= evaluation.routing_hit3


def test_framework_abstained_late_paper_scores_zero_similarity(demo_instance):
    scenario = demo.demo_scenario()
    script = dict(scenario["generation"])
    script["abstention|lateA|0"] = "FALSE"
    generator = ScriptedGeneration.from_flat(script)
    results = run_method(FRAMEWORK, demo_instance, generator)
    evaluation = evaluate_step(results[0], "demo")
    assert evaluation.abstained == 1 and evaluation.out_of_scope == 0
    assert evaluation.bleu4 == 0.0
    assert evaluation.rouge_l_f == 0.0
    assert evaluation.routing_hit1 == 0 and evaluation.routing_hit3 == 0
