"""Agent roles under scripted generation: parsing, validation, retries."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from conftest import RecordingGenerator, make_generator, make_paper, make_summary
from dynsurvey import demo
from dynsurvey.agents import (
    APPEND,
    _choose_insertion,
    approve_outline,
    run_abstention_agent,
    run_analysis_agent,
    run_outline_agent,
    run_section_routing,
    run_table_routing,
    run_table_synthesis,
    run_text_synthesis,
)
from dynsurvey.document import (
    ColumnSpec,
    SurveyState,
    SurveyTable,
    make_section,
    outline_fingerprint,
    outline_to_dict,
    serialize_outline,
)
from dynsurvey.engine import apply_update
from dynsurvey.errors import (
    AnalysisParseError,
    ConfigError,
    OutlineNotApprovedError,
    RoutingError,
    SchemaViolationError,
    SynthesisFormatError,
    TableSynthesisError,
)

XCEPTION_STYLE_ANALYSIS = """### Methods
The architecture replaces inception-style modules with
depthwise separable convolutions: a per-channel spatial convolution followed
by a pointwise convolution that mixes channels, arranged as a residual stack.

### Novelty
Depthwise separable convolutions serve as a complete drop-in replacement for
the previous module design, with no intermediate channel expansion.

### Results
Top-1 accuracy improves by 0.7 points on a large image classification
benchmark at a parameter count comparable to the baseline."""


def _outline_response() -> str:
    data = outline_to_dict(demo.demo_outline(approved=False))
    data.pop("approved")
    data.pop("scope", None)
    return json.dumps(data)


def test_outline_agent_builds_entries(full_state):
    generator = make_generator({"outline|survey|0": _outline_response()})
    outline = run_outline_agent(
        full_state.document, ["1", "2", "3"], ["t1", "t2"], generator,
        scope=demo.demo_scope())
    assert not outline.approved
    assert outline.section_ids() == ["1", "2", "3"]
    assert outline.table_ids() == ["t1", "t2"]
    assert outline.section_entries[0].page_numbers == "2-4"


def test_outline_agent_rejects_invented_section(full_state):
    data = json.loads(_outline_response())
    data["sections"][0]["id"] = "9.9"
    generator = make_generator({"outline|survey|0": json.dumps(data)}, max_retries=0)
    with pytest.raises(SchemaViolationError, match="section ids"):
        run_outline_agent(full_state.document, ["1", "2", "3"], ["t1", "t2"], generator)


def test_outline_agent_rejects_renamed_section(full_state):
    data = json.loads(_outline_response())
    data["sections"][1]["section_title"] = "Totally Different Title"
    generator = make_generator({"outline|survey|0": json.dumps(data)}, max_retries=0)
    with pytest.raises(SchemaViolationError, match="title must stay"):
        run_outline_agent(full_state.document, ["1", "2", "3"], ["t1", "t2"], generator)


def test_outline_agent_retries_malformed_entry_with_hint(full_state):
    data = json.loads(_outline_response())
    del data["sections"][1]["section_title"]
    generator = RecordingGenerator(make_generator({
        "outline|survey|0": json.dumps(data),
        "outline|survey|1": _outline_response(),
    }))
    outline = run_outline_agent(full_state.document, ["1", "2", "3"], ["t1", "t2"], generator)
    assert outline.section_ids() == ["1", "2", "3"]
    assert [r.attempt for r in generator.requests] == [0, 1]
    assert ("CORRECTION: malformed outline entry: outline section has no section_title"
            in generator.requests[1].prompt)


def test_outline_agent_repairs_trailing_comma(full_state):
    raw = _outline_response()
    assert raw.endswith("}")
    with_comma = raw[:-1] + ",}"
    generator = make_generator({"outline|survey|0": with_comma})
    outline = run_outline_agent(full_state.document, ["1", "2", "3"], ["t1", "t2"], generator)
    assert outline.section_ids() == ["1", "2", "3"]


def test_outline_agent_checks_allowed_ids_exist(full_state):
    generator = make_generator({})
    with pytest.raises(ConfigError, match="do not exist"):
        run_outline_agent(full_state.document, ["1", "404"], [], generator)


def test_approve_outline_sets_only_the_flag():
    outline = demo.demo_outline(approved=False)
    approved = approve_outline(outline)
    assert approved.approved
    assert approve_outline(approved) is approved
    before = json.loads(serialize_outline(outline))
    after = json.loads(serialize_outline(approved))
    before.pop("approved")
    after.pop("approved")
    assert before == after
    assert outline_fingerprint(outline) != outline_fingerprint(approved)


def test_analysis_agent_parses_headed_output():
    paper = make_paper("xc1")
    generator = make_generator({"analysis|xc1|0": XCEPTION_STYLE_ANALYSIS})
    summary = run_analysis_agent(paper, generator)
    assert "depthwise separable convolutions" in summary.methods
    assert summary.source_paper_id == "xc1"
    assert summary.novelty and summary.results


def test_analysis_agent_retries_then_fails_on_missing_heading():
    broken = "### Methods\nM\n### Novelty\nN"
    inner = make_generator({"analysis|p1|0": broken, "analysis|p1|1": broken}, max_retries=1)
    generator = RecordingGenerator(inner)
    with pytest.raises(AnalysisParseError, match="Results"):
        run_analysis_agent(make_paper("p1"), generator)
    assert len(generator.requests) == 2
    assert "CORRECTION:" in generator.requests[1].prompt


def test_analysis_agent_rejects_empty_full_text():
    generator = RecordingGenerator(make_generator({}))
    with pytest.raises(AnalysisParseError, match="'p1' has empty full_text"):
        run_analysis_agent(make_paper("p1", full_text="  "), generator)
    assert generator.requests == []


def test_abstention_true_and_false():
    scope = demo.demo_scope()
    assert run_abstention_agent(
        make_summary("p1"), scope, make_generator({"abstention|p1|0": "TRUE"})) is True
    assert run_abstention_agent(
        make_summary("p1"), scope, make_generator({"abstention|p1|0": "FALSE"})) is False


def test_abstention_lenient_keyword_extraction():
    scope = demo.demo_scope()
    generator = make_generator({"abstention|p1|0": "The answer is TRUE."})
    assert run_abstention_agent(make_summary("p1"), scope, generator) is True


def test_unparseable_abstention_becomes_abstain():
    scope = demo.demo_scope()
    generator = make_generator(
        {"abstention|p1|0": "unsure", "abstention|p1|1": "still unsure"}, max_retries=1)
    assert run_abstention_agent(make_summary("p1"), scope, generator) is False


def test_abstention_requires_core_criterion(full_state):
    # Checked where a step starts, before its analysis call.
    outline = full_state.outline
    empty = replace(outline, scope=replace(outline.scope, core_criterion=" "))
    generator = RecordingGenerator(make_generator({}))
    with pytest.raises(ConfigError, match="empty core criterion"):
        apply_update(SurveyState(full_state.document, empty), make_paper("p1"), generator)
    assert generator.requests == []


def test_section_routing_happy_path(full_state):
    generator = make_generator({
        "section_routing|p1|0": "[2, 1, 3]",
        "insertion_point|p1|0": "2:4",
    })
    decision = run_section_routing(
        make_summary("p1"), full_state.outline, full_state.document, generator)
    assert decision.ranked_sections == ("2", "1", "3")
    assert decision.insertion_sentence_id == "2:4"


def test_section_routing_duplicate_ids_retry_then_error(full_state):
    inner = make_generator({
        "section_routing|p1|0": "[2, 2, 3]",
        "section_routing|p1|1": "[2, 2, 3]",
    }, max_retries=1)
    generator = RecordingGenerator(inner)
    with pytest.raises(RoutingError, match="distinct"):
        run_section_routing(make_summary("p1"), full_state.outline,
                            full_state.document, generator)
    assert "CORRECTION:" in generator.requests[1].prompt


def test_section_routing_recovers_on_retry(full_state):
    generator = make_generator({
        "section_routing|p1|0": "no json here",
        "section_routing|p1|1": '["3", "2", "1"]',
        "insertion_point|p1|0": "append",
    }, max_retries=1)
    decision = run_section_routing(
        make_summary("p1"), full_state.outline, full_state.document, generator)
    assert decision.ranked_sections == ("3", "2", "1")


def test_section_routing_unknown_id_fails(full_state):
    generator = make_generator({"section_routing|p1|0": '["7", "1", "2"]'}, max_retries=0)
    with pytest.raises(RoutingError, match="unknown section IDs"):
        run_section_routing(make_summary("p1"), full_state.outline,
                            full_state.document, generator)


def test_unknown_insertion_sentence_falls_back_to_append(full_state):
    generator = make_generator({
        "section_routing|p1|0": '["2", "1", "3"]',
        "insertion_point|p1|0": "2:999",
    })
    decision = run_section_routing(
        make_summary("p1"), full_state.outline, full_state.document, generator)
    assert decision.insertion_sentence_id == APPEND


def test_insertion_point_reads_a_section_id_holding_a_colon():
    section = make_section("a:b", "Colon", "First sentence. Second sentence.")
    assert section.sentence_ids() == ("a:b:1", "a:b:2")
    assert _choose_insertion("after a:b:1", section) == "a:b:1"
    assert _choose_insertion("Insert after a:b:2.", section) == "a:b:2"
    assert _choose_insertion("after b:1", section) == APPEND
    # The last colon, not the first one followed by digits.
    numbered = make_section("v:2", "Numbered", "First sentence. Second sentence.")
    assert _choose_insertion("after v:2:1", numbered) == "v:2:1"


@pytest.mark.parametrize("written", ["`2:2`", '"2:2"', "**2:2**", "[2:2]", "(2:2)"])
def test_insertion_point_reads_a_decorated_id(written):
    section = make_section("2", "Two", "First sentence. Second sentence.")
    assert _choose_insertion(f"Insert after {written}.", section) == "2:2"
    assert _choose_insertion(f"{written}", section) == "2:2"


def test_insertion_point_prefers_the_id_as_written():
    section = make_section("_s", "Underscored", "First sentence. Second sentence.")
    assert _choose_insertion("after _s:2", section) == "_s:2"
    assert _choose_insertion("after __s:2", section) == APPEND


def test_routing_requires_approved_outline(full_state):
    outline = demo.demo_outline(approved=False)
    with pytest.raises(OutlineNotApprovedError):
        run_section_routing(make_summary("p1"), outline, full_state.document,
                            make_generator({}))
    with pytest.raises(OutlineNotApprovedError):
        run_table_routing(make_summary("p1"), outline, make_generator({}))


def test_table_routing_first_yes_wins(full_state):
    outline = full_state.outline
    no_yes = make_generator({
        "table_routing|p1:t1|0": "no",
        "table_routing|p1:t2|0": "yes",
    })
    result = run_table_routing(make_summary("p1"), outline, no_yes)
    assert result.table_id == "t2"
    assert result.votes == (("t1", False), ("t2", True))

    all_no = make_generator({
        "table_routing|p1:t1|0": "no",
        "table_routing|p1:t2|0": "no",
    })
    assert run_table_routing(make_summary("p1"), outline, all_no).table_id is None

    both_yes = make_generator({
        "table_routing|p1:t1|0": "yes",
        "table_routing|p1:t2|0": "yes",
    })
    assert run_table_routing(make_summary("p1"), outline, both_yes).table_id == "t1"


def test_unparseable_table_answer_counts_as_no(full_state):
    generator = make_generator({
        "table_routing|p1:t1|0": "hard to say",
        "table_routing|p1:t2|0": "yes",
    })
    result = run_table_routing(make_summary("p1"), full_state.outline, generator)
    assert result.votes[0] == ("t1", False)
    assert result.table_id == "t2"


FASTER_RCNN_STYLE_DRAFT = (
    "Faster R-CNN [cite] addressed the remaining bottleneck of region proposal "
    "generation by introducing a proposal network that shares convolutional "
    "features with the detector. Anchors at several scales and aspect ratios are "
    "classified and regressed in a single pass, making proposals nearly free at "
    "test time."
)


def test_text_synthesis_accepts_single_paragraph():
    generator = make_generator({"text_synthesis|p1|0": FASTER_RCNN_STYLE_DRAFT})
    draft = run_text_synthesis("Existing section text.", make_summary("p1"), generator)
    assert draft == FASTER_RCNN_STYLE_DRAFT
    assert "[cite]" in draft


def test_text_synthesis_rejects_two_paragraphs():
    two = "First paragraph here.\n\nSecond paragraph here."
    generator = make_generator(
        {"text_synthesis|p1|0": two, "text_synthesis|p1|1": two}, max_retries=1)
    with pytest.raises(SynthesisFormatError, match="multiple paragraphs"):
        run_text_synthesis("Section.", make_summary("p1"), generator)


def test_a_reply_with_a_lone_surrogate_is_retried_with_its_position():
    generator = RecordingGenerator(make_generator({
        "text_synthesis|p1|0": "Lone \ud800 Method [cite]: one claim.",
        "text_synthesis|p1|1": "Lône Method [cite]: one claim.",
    }))
    assert run_text_synthesis("Section.", make_summary("p1"), generator) == \
        "Lône Method [cite]: one claim."
    assert "CORRECTION: output holds a lone surrogate at character 5" in \
        generator.requests[1].prompt


def test_a_lone_surrogate_in_every_reply_fails_the_call():
    lone = "Method \udfff [cite]: one claim."
    generator = make_generator({"text_synthesis|p1|0": lone, "text_synthesis|p1|1": lone})
    with pytest.raises(SynthesisFormatError, match="lone surrogate at character 7"):
        run_text_synthesis("Section.", make_summary("p1"), generator)


def test_text_synthesis_accepts_zero_placeholders():
    draft = "Plain Method: a paragraph without any placeholder at all."
    generator = make_generator({"text_synthesis|p1|0": draft})
    assert run_text_synthesis("Section.", make_summary("p1"), generator) == draft


ATTACK_TABLE = SurveyTable(
    id="atk",
    title="Attack Methods",
    schema=(
        ColumnSpec(name="Method", kind="text"),
        ColumnSpec(name="Box", kind="categorical", values=("White box", "Black box")),
        ColumnSpec(name="Target", kind="categorical", values=("Targeted", "Non-targeted")),
        ColumnSpec(name="Scope", kind="categorical", values=("Image specific", "Universal")),
        ColumnSpec(name="Norm", kind="text"),
        ColumnSpec(name="Learning", kind="categorical", values=("One shot", "Iterative")),
        ColumnSpec(name="Strength", kind="int", minimum=1, maximum=5),
    ),
)

ATTACK_ROW_JSON = (
    '{"Method": "Adversarial Transformation Networks", "Box": "White box", '
    '"Target": "Targeted", "Scope": "Image specific", "Norm": "L_\\\\infty", '
    '"Learning": "Iterative", "Strength": 4}'
)


def test_table_synthesis_valid_row():
    generator = make_generator({"table_synthesis|p1:atk|0": ATTACK_ROW_JSON})
    row = run_table_synthesis(ATTACK_TABLE, make_summary("p1"), generator)
    assert row["Method"] == "Adversarial Transformation Networks"
    assert row["Box"] == "White box"
    assert row["Strength"] == 4
    assert ATTACK_TABLE.check_row(row) == []


def test_table_synthesis_rejects_bad_categorical():
    bad = ATTACK_ROW_JSON.replace("White box", "Gray box")
    generator = make_generator({"table_synthesis|p1:atk|0": bad}, max_retries=0)
    with pytest.raises(TableSynthesisError, match="Gray box"):
        run_table_synthesis(ATTACK_TABLE, make_summary("p1"), generator)


def test_table_synthesis_rejects_out_of_bounds_integer():
    bad = ATTACK_ROW_JSON.replace('"Strength": 4', '"Strength": 7')
    generator = make_generator({"table_synthesis|p1:atk|0": bad}, max_retries=0)
    with pytest.raises(TableSynthesisError, match="above maximum"):
        run_table_synthesis(ATTACK_TABLE, make_summary("p1"), generator)


def test_table_synthesis_accepts_fenced_object():
    fenced = "```json\n" + ATTACK_ROW_JSON + "\n```"
    generator = make_generator({"table_synthesis|p1:atk|0": fenced})
    row = run_table_synthesis(ATTACK_TABLE, make_summary("p1"), generator)
    assert row["Learning"] == "Iterative"


def test_table_synthesis_requires_nonempty_schema():
    empty = SurveyTable(id="e", title="E", schema=())
    generator = RecordingGenerator(make_generator({}))
    with pytest.raises(TableSynthesisError, match="empty schema"):
        run_table_synthesis(empty, make_summary("p1"), generator)
    assert generator.requests == []
