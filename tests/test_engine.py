"""Update engine: insertion, citation resolution, full steps, publishing."""

from __future__ import annotations

import copy
import json
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_generator, make_paper
from dynsurvey import demo, engine
from dynsurvey.corpus import CandidateFilter, ingest_feed, write_feed
from dynsurvey.document import (
    Section,
    SurveyState,
    SurveyTable,
    make_section,
    outline_fingerprint,
    parse_document,
    serialize_document,
)
from dynsurvey.engine import (
    UpdateRecord,
    apply_update,
    insert_paragraph,
    make_step_clock,
    publish,
    read_audit_log,
    replay_update,
    resolve_citations,
    update_record_from_dict,
    update_record_to_dict,
    write_audit_log,
)
from dynsurvey.errors import (
    CitationError,
    ConfigError,
    DocumentIntegrityError,
    DocumentParseError,
    OutlineNotApprovedError,
)
from helpers import cited_numbers, count_unresolved_placeholders


def _framework_script(paper_id: str, section: str, insertion: str,
                      tables: dict[str, str], draft: str,
                      row_json: str | None = None,
                      include: str = "TRUE") -> dict[str, str]:
    other = [s for s in ("1", "2", "3") if s != section]
    script = {
        f"analysis|{paper_id}|0": (
            f"### Methods\nMethod of {paper_id}.\n### Novelty\nNovelty of "
            f"{paper_id}.\n### Results\nResults of {paper_id}."),
        f"abstention|{paper_id}|0": include,
        f"section_routing|{paper_id}|0": json.dumps([section, *other]),
        f"insertion_point|{paper_id}|0": insertion,
        f"text_synthesis|{paper_id}|0": draft,
    }
    for table_id, answer in tables.items():
        script[f"table_routing|{paper_id}:{table_id}|0"] = answer
    if row_json is not None:
        routed = next(t for t, a in tables.items() if a == "yes")
        script[f"table_synthesis|{paper_id}:{routed}|0"] = row_json
    return script


# --- insert_paragraph ------------------------------------------------------


def test_insert_after_last_sentence_equals_append():
    section = make_section("s", "S", "First one. Second one. Third one.")
    appended, ids_a = insert_paragraph(section, "append", "New text here.")
    after_last, ids_b = insert_paragraph(section, "s:3", "New text here.")
    assert [x.text for x in appended.sentences] == [x.text for x in after_last.sentences]
    assert ids_a == ids_b == ("s:4",)


def test_insert_two_sentences_mid_section():
    section = make_section("s", "S", "Alpha here. Beta here. Gamma here.")
    updated, inserted = insert_paragraph(section, "s:1", "New one. New two.")
    assert inserted == ("s:4", "s:5")
    assert [x.id for x in updated.sentences] == ["s:1", "s:4", "s:5", "s:2", "s:3"]
    assert [x.text for x in updated.sentences] == [
        "Alpha here.", "New one.", "New two.", "Beta here.", "Gamma here."]


def test_insert_empty_paragraph_is_noop():
    section = make_section("s", "S", "Alpha here.")
    updated, inserted = insert_paragraph(section, "append", "   ")
    assert updated == section
    assert inserted == ()


def test_insert_unknown_anchor_rejected():
    section = make_section("s", "S", "Alpha here.")
    with pytest.raises(ValueError, match="s:9"):
        insert_paragraph(section, "s:9", "New.")


def test_inserted_ids_never_reuse_counters():
    section = make_section("s", "S", "Alpha here. Beta here.")
    grown, first = insert_paragraph(section, "append", "Gamma text.")
    grown, second = insert_paragraph(grown, "s:1", "Delta text.")
    assert first == ("s:3",)
    assert second == ("s:4",)


# --- resolve_citations -----------------------------------------------------


def _doc_with_refs(n: int):
    data = {
        "metadata": {"title": "T"},
        "sections": [{"id": "1", "title": "S", "text": "Body text."}],
        "tables": [],
        "references": [
            {"key": f"k{i}", "number": i, "bib": {"title": f"T{i}"}}
            for i in range(1, n + 1)
        ],
    }
    from dynsurvey.document import document_from_dict
    return document_from_dict(data)


def test_fresh_key_gets_next_number():
    doc = _doc_with_refs(57)
    text, tail, keys = resolve_citations(
        "X [cite] improves Y.", {"key": "new2024", "title": "New"}, doc)
    assert text == "X [58] improves Y."
    assert tail[-1].number == 58 and tail[-1].key == "new2024"
    assert keys == ("new2024",)


def test_no_placeholders_is_identity():
    doc = _doc_with_refs(3)
    text, tail, keys = resolve_citations("No markers here.", {"key": "a"}, doc)
    assert text == "No markers here."
    assert tail == ()
    assert keys == ()


def test_same_key_cited_twice_gets_one_entry():
    doc = _doc_with_refs(2)
    text, tail, keys = resolve_citations(
        "A [cite] and again [cite].", {"key": "dup", "title": "D"}, doc)
    assert text == "A [3] and again [3]."
    assert len(doc.references + tail) == 3
    assert keys == ("dup", "dup")


def test_existing_key_reuses_number():
    doc = _doc_with_refs(4)
    text, tail, _ = resolve_citations("Again [cite].", {"key": "k2"}, doc)
    assert text == "Again [2]."
    assert tail == ()


def test_placeholder_without_entry_is_an_error():
    doc = _doc_with_refs(1)
    with pytest.raises(CitationError, match="no bib entry"):
        resolve_citations("X [cite].", {}, doc)


# --- apply_update ----------------------------------------------------------


def test_abstained_step_leaves_document_byte_identical(full_state):
    script = {
        "analysis|pX|0": "### Methods\nM.\n### Novelty\nN.\n### Results\nR.",
        "abstention|pX|0": "FALSE",
    }
    state, record = apply_update(full_state, make_paper("pX"), make_generator(script))
    assert record.decision == "abstained"
    assert serialize_document(state.document) == serialize_document(full_state.document)
    assert record.routed_section is None and record.inserted_sentence_ids == ()


def test_update_step_is_local_to_routed_section(full_state):
    draft = "Routed Method [cite]: One new claim. Another new claim. A third new claim."
    script = _framework_script("pY", "2", "2:2", {"t1": "no", "t2": "no"}, draft)
    state, record = apply_update(full_state, make_paper("pY"), make_generator(script))
    assert record.decision == "updated"
    assert record.routed_section == "2"
    assert len(record.inserted_sentence_ids) == 3
    before = {s.id: s for s in full_state.document.sections}
    after = {s.id: s for s in state.document.sections}
    assert after["1"] == before["1"]
    assert after["3"] == before["3"]
    assert len(after["2"].sentences) == len(before["2"].sentences) + 3
    kept = [s for s in after["2"].sentences if s.id in {x.id for x in before["2"].sentences}]
    assert kept == list(before["2"].sentences)


def test_update_step_appends_one_table_row(full_state):
    draft = "Tabled Method [cite]: Adds a row."
    row = '{"Method": "Tabled Method", "Domain": "Spatial", "Supervision": "Supervised", "Score": 3}'
    script = _framework_script("pZ", "2", "append", {"t1": "yes", "t2": "no"}, draft, row)
    state, record = apply_update(full_state, make_paper("pZ"), make_generator(script))
    assert record.routed_table == "t1"
    assert record.inserted_row is not None
    assert len(state.document.table("t1").rows) == len(full_state.document.table("t1").rows) + 1
    assert state.document.table("t2").rows == full_state.document.table("t2").rows


def test_audit_row_stays_a_plain_dict_apart_from_the_table(full_state):
    draft = "Tabled Method [cite]: Adds a row."
    row = '{"Score": 3, "Method": "Tabled Method", "Domain": "Spatial", "Supervision": "None"}'
    script = _framework_script("pZ", "2", "append", {"t1": "yes", "t2": "no"}, draft, row)
    state, record = apply_update(full_state, make_paper("pZ"), make_generator(script))
    assert type(record.inserted_row) is dict
    assert copy.deepcopy(record) == record
    assert list(update_record_to_dict(record)["inserted_row"]) == list(json.loads(row))
    record.inserted_row["Method"] = "Changed after the step"
    appended = state.document.table("t1").rows[-1]
    assert appended["Method"] == "Tabled Method"
    with pytest.raises(TypeError):
        appended["Method"] = "Changed in the table"  # type: ignore[index]


def test_update_resolves_citations_and_appends_reference(full_state):
    draft = "Cited Method [cite]: Claims something."
    script = _framework_script("pC", "3", "append", {"t1": "no", "t2": "no"}, draft)
    paper = make_paper("pC", bib={"key": "cited2025", "title": "Cited", "year": "2025"})
    state, record = apply_update(full_state, paper, make_generator(script))
    assert record.placeholder_count == 1
    assert record.resolved_citation_keys == ("cited2025",)
    assert state.document.references[-1].key == "cited2025"
    assert state.document.references[-1].number == 11
    assert count_unresolved_placeholders(state.document) == 0
    assert 11 in cited_numbers(state.document)


def test_failed_synthesis_aborts_step_with_state_unchanged(full_state):
    script = _framework_script("pF", "2", "append", {"t1": "no", "t2": "no"},
                               "one.\n\ntwo.")
    script["text_synthesis|pF|1"] = "still.\n\nbroken."
    state, record = apply_update(full_state, make_paper("pF"), make_generator(script))
    assert record.decision == "failed"
    assert record.error and "text_synthesis" in record.error
    assert serialize_document(state.document) == serialize_document(full_state.document)


def test_failed_table_synthesis_keeps_text_update(full_state):
    draft = "Partial Method [cite]: Text lands anyway."
    bad_row = '{"Method": "Partial", "Domain": "Nowhere", "Supervision": "None", "Score": 3}'
    script = _framework_script("pT", "2", "append", {"t1": "yes", "t2": "no"}, draft, bad_row)
    script["table_synthesis|pT:t1|1"] = bad_row
    state, record = apply_update(full_state, make_paper("pT"), make_generator(script))
    assert record.decision == "updated"
    assert record.table_error is not None
    assert record.inserted_row is None
    assert len(state.document.table("t1").rows) == len(full_state.document.table("t1").rows)
    assert len(record.inserted_sentence_ids) == 1


def test_update_refuses_unapproved_outline(full_state):
    unapproved = SurveyState(
        document=full_state.document, outline=demo.demo_outline(approved=False))
    with pytest.raises(OutlineNotApprovedError):
        apply_update(unapproved, make_paper("p1"), make_generator({}))


def test_unresolvable_citation_fails_the_step_and_keeps_the_state(full_state):
    draft = "Unbacked Method [cite]: One claim."
    script = _framework_script("pB", "2", "append", {"t1": "no", "t2": "no"}, draft)
    paper = make_paper("pB", bib={})
    state, record = apply_update(full_state, paper, make_generator(script))
    assert record.decision == "failed"
    assert "no bib entry" in record.error
    assert state is full_state
    assert replay_update(full_state, record, paper) is full_state


def test_null_bib_keys_fail_their_steps_and_the_feed_goes_on(full_state, tmp_path):
    # Read as str(None), both keys were "None": the first paper was cited
    # as reference "None" and the second silently reused its number.
    papers = [make_paper("pN1", bib={"key": None, "title": "One"}),
              make_paper("pN2", bib={"key": None, "title": "Two"}),
              make_paper("pOk")]
    feed = tmp_path / "feed.ndjson"
    write_feed(papers, feed)
    script = {}
    for paper in papers:
        script.update(_framework_script(paper.id, "2", "append", {"t1": "no", "t2": "no"},
                                        f"Method {paper.id} [cite]: One claim."))
    state, decisions = full_state, []
    for paper in ingest_feed(feed, CandidateFilter()):
        state, record = apply_update(state, paper, make_generator(script))
        decisions.append((record.decision, record.error))
    assert decisions == [("failed", "bib entry has no citation key")] * 2 + [("updated", None)]
    keys = [r.key for r in state.document.references]
    assert "None" not in keys
    assert keys[-1] == "key_pOk"


@pytest.mark.parametrize("key", [7, True, ["k"], {"k": 1}])
def test_non_string_bib_key_is_a_citation_error(full_state, key):
    bib = {"key": key, "title": "T"}
    with pytest.raises(CitationError, match="must be a string"):
        resolve_citations("X [cite].", bib, full_state.document)
    with pytest.raises(CitationError, match="must be a string"):
        make_paper("pK", bib=bib).bib_key


def test_off_schema_row_fails_the_step_and_keeps_the_state(full_state, monkeypatch):
    draft = "Offschema Method [cite]: One claim."
    script = _framework_script("pS", "2", "append", {"t1": "yes", "t2": "no"}, draft)
    row = {"Method": "Offschema", "Domain": "Spatial", "Supervision": "Supervised",
           "Score": 1, "Venue": "CVPR"}
    monkeypatch.setattr(engine, "run_table_synthesis", lambda *args: row)
    state, record = apply_update(full_state, make_paper("pS"), make_generator(script))
    assert record.decision == "failed"
    assert "unknown columns ['Venue']" in record.error
    assert state is full_state


def test_update_steps_check_only_their_additions(full_state, monkeypatch, tmp_path):
    calls = []
    full_check = engine.validate_document
    monkeypatch.setattr(engine, "validate_document",
                        lambda doc: calls.append(doc) or full_check(doc))
    row = '{"Method": "Counted", "Domain": "Spatial", "Supervision": "Supervised", "Score": 2}'
    steps = [
        ("pK1", _framework_script("pK1", "1", "append", {"t1": "no", "t2": "no"},
                                  "First Method [cite]: One claim.")),
        ("pK2", _framework_script("pK2", "2", "2:1", {"t1": "yes", "t2": "no"},
                                  "Second Method [cite]: Two claims. Both new.", row)),
        ("pK3", _framework_script("pK3", "3", "append", {"t1": "no", "t2": "no"},
                                  "Third Method [cite]: Cites again.")),
    ]
    state = full_state
    for paper_id, script in steps:
        state, record = apply_update(state, make_paper(paper_id), make_generator(script))
        assert record.decision == "updated"
    assert len(state.document.references) == len(full_state.document.references) + 3
    assert calls == []
    publish(state, tmp_path / "survey.json")
    assert calls == [state.document]


def test_publish_reads_no_sentence_or_row_a_step_derived(full_state, monkeypatch, tmp_path):
    # A survey as ``update`` loads it, checked whole on the way in.
    loaded = parse_document(serialize_document(full_state.document))
    state = SurveyState(loaded, full_state.outline)
    row = '{{"Method": "M{0}", "Domain": "Spatial", "Supervision": "Supervised", "Score": 2}}'
    for n in range(48):
        section = "123"[n % 3]
        tables = {"t1": "yes" if n % 2 else "no", "t2": "no"}
        script = _framework_script(f"pL{n}", section, "append" if n % 4 < 2 else f"{section}:1",
                                   tables, f"Method {n} [cite]: One claim. Another claim.",
                                   row.format(n) if n % 2 else None)
        state, record = apply_update(state, make_paper(f"pL{n}"), make_generator(script))
        assert record.decision == "updated" and record.inserted_row == (
            json.loads(row.format(n)) if n % 2 else None)
    assert len(state.document.table("t1").rows) == len(loaded.table("t1").rows) + 24
    sentence_checks, row_checks = [], []
    check_sentences, check_row = Section._check_sentences, SurveyTable.check_row
    monkeypatch.setattr(Section, "_check_sentences",
                        lambda section: sentence_checks.append(section.id)
                        or check_sentences(section))
    monkeypatch.setattr(SurveyTable, "check_row",
                        lambda table, row: row_checks.append(table.id) or check_row(table, row))
    publish(state, tmp_path / "survey.json")
    assert (sentence_checks, row_checks) == ([], [])


def test_publish_refuses_an_invalid_document(full_state, tmp_path):
    doubled = full_state.document.references[0]
    broken = replace(full_state.document,
                     references=full_state.document.references + (doubled,))
    with pytest.raises(DocumentIntegrityError):
        publish(full_state.with_document(broken), tmp_path / "survey.json")
    assert not (tmp_path / "survey.json").exists()


def test_update_requires_scope():
    outline = demo.demo_outline(approved=True)
    bare = SurveyState(
        document=demo.demo_full_document(),
        outline=type(outline)(
            section_entries=outline.section_entries,
            table_entries=outline.table_entries,
            scope=None,
            approved=True,
        ))
    with pytest.raises(ConfigError, match="scope"):
        apply_update(bare, make_paper("p1"), make_generator({}))


def test_outline_is_untouched_by_updates(full_state):
    fingerprint = outline_fingerprint(full_state.outline)
    draft = "Frozen Method [cite]: Checks the outline."
    script = _framework_script("pO", "1", "append", {"t1": "no", "t2": "no"}, draft)
    state, _ = apply_update(full_state, make_paper("pO"), make_generator(script))
    assert state.outline is full_state.outline
    assert outline_fingerprint(state.outline) == fingerprint


def test_replay_reproduces_state_delta(full_state):
    draft = "Replayed Method [cite]: First claim. Second claim."
    row = '{"Method": "Replayed", "Domain": "Hybrid", "Supervision": "Supervised", "Score": 2}'
    script = _framework_script("pR", "2", "2:1", {"t1": "yes", "t2": "no"}, draft, row)
    paper = make_paper("pR")
    state, record = apply_update(full_state, paper, make_generator(script))
    replayed = replay_update(full_state, record, paper)
    assert serialize_document(replayed.document) == serialize_document(state.document)


def test_replay_of_abstained_step_is_identity(full_state):
    script = {
        "analysis|pA|0": "### Methods\nM.\n### Novelty\nN.\n### Results\nR.",
        "abstention|pA|0": "FALSE",
    }
    paper = make_paper("pA")
    _, record = apply_update(full_state, paper, make_generator(script))
    assert replay_update(full_state, record, paper) is full_state


def test_replay_of_updated_record_without_section_names_the_paper(full_state):
    draft = "Unrouted Method [cite]: One claim."
    script = _framework_script("pU", "2", "append", {"t1": "no", "t2": "no"}, draft)
    paper = make_paper("pU")
    _, record = apply_update(full_state, paper, make_generator(script))
    data = update_record_to_dict(record)
    data["routed_section"] = None
    with pytest.raises(DocumentIntegrityError, match="pU"):
        replay_update(full_state, update_record_from_dict(data), paper)


@pytest.mark.parametrize("field, value", [("routed_section", "nope"),
                                          ("routed_table", "nope")])
def test_replay_of_record_routed_outside_the_survey_names_the_paper(full_state, field, value):
    draft = "Rerouted Method [cite]: One claim."
    row = '{"Method": "Rerouted", "Domain": "Spatial", "Supervision": "None", "Score": 3}'
    script = _framework_script("pR", "2", "append", {"t1": "yes", "t2": "no"}, draft, row)
    paper = make_paper("pR")
    _, record = apply_update(full_state, paper, make_generator(script))
    data = update_record_to_dict(record)
    data[field] = value
    kind = field.removeprefix("routed_")
    with pytest.raises(DocumentIntegrityError) as failure:
        replay_update(full_state, update_record_from_dict(data), paper)
    assert str(failure.value) == f"audit record of pR does not replay: no {kind} 'nope'"


def test_replay_of_record_inserting_after_a_missing_sentence_names_the_paper(full_state):
    draft = "Misplaced Method [cite]: One claim."
    script = _framework_script("pI", "1", "append", {"t1": "no", "t2": "no"}, draft)
    paper = make_paper("pI")
    _, record = apply_update(full_state, paper, make_generator(script))
    data = update_record_to_dict(record)
    data["insertion_sentence_id"] = "1:9999"
    with pytest.raises(DocumentIntegrityError) as failure:
        replay_update(full_state, update_record_from_dict(data), paper)
    assert str(failure.value) == ("audit record of pI does not replay: "
                                  "insertion point '1:9999' does not exist in section '1'")


def test_replay_of_record_with_a_row_the_table_rejects_names_the_paper(full_state):
    draft = "Rowed Method [cite]: One claim."
    row = '{"Method": "Rowed", "Domain": "Spatial", "Supervision": "None", "Score": 3}'
    script = _framework_script("pW", "2", "append", {"t1": "yes", "t2": "no"}, draft, row)
    paper = make_paper("pW")
    _, record = apply_update(full_state, paper, make_generator(script))
    assert record.decision == "updated" and record.routed_table == "t1"
    data = update_record_to_dict(record)
    data["inserted_row"] = {"Method": "x"}
    with pytest.raises(DocumentIntegrityError) as failure:
        replay_update(full_state, update_record_from_dict(data), paper)
    assert str(failure.value) == (
        "audit record of pW does not replay: "
        "row missing columns ['Domain', 'Supervision', 'Score'] of table 't1'")


@pytest.mark.parametrize("row", ["row", 1, ["Method", "M"], True])
def test_audit_inserted_row_must_be_an_object_or_null(row):
    data = update_record_to_dict(
        UpdateRecord(paper_id="pI", decision="updated", routed_section="2", routed_table="t1"))
    data["inserted_row"] = row
    with pytest.raises(DocumentParseError, match="inserted_row must be a JSON object or null"):
        update_record_from_dict(data)


def test_audit_inserted_row_needs_a_routed_table():
    # Replay used to drop such a row without a word.
    data = update_record_to_dict(UpdateRecord(
        paper_id="pI", decision="updated", routed_section="2", inserted_row={"Method": "M"}))
    with pytest.raises(DocumentParseError, match="inserted_row but no routed_table"):
        update_record_from_dict(data)


# --- publish and audit log -------------------------------------------------


def test_publish_twice_is_byte_identical(full_state, tmp_path):
    first = publish(full_state, tmp_path / "a.json")
    second = publish(full_state, tmp_path / "b.json")
    assert first.read_bytes() == second.read_bytes()


def test_publish_around_abstained_step_is_identical(full_state, tmp_path):
    script = {
        "analysis|pA|0": "### Methods\nM.\n### Novelty\nN.\n### Results\nR.",
        "abstention|pA|0": "FALSE",
    }
    state, _ = apply_update(full_state, make_paper("pA"), make_generator(script))
    before = publish(full_state, tmp_path / "before.json").read_bytes()
    after = publish(state, tmp_path / "after.json").read_bytes()
    assert before == after


def test_failed_publish_keeps_the_old_survey(full_state, tmp_path, monkeypatch):
    path = publish(full_state, tmp_path / "survey.json")
    before = path.read_bytes()
    original = Path.write_text

    def torn_write(self, data, *args, **kwargs):
        original(self, data[:100], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn_write)
    doc = full_state.document
    edited = doc.with_additions(replace(doc.sections[0], title="Renamed"), ())
    with pytest.raises(OSError, match="disk full"):
        publish(full_state.with_document(edited), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["survey.json"]


def test_publish_matches_golden_serialization(full_state, tmp_path):
    path = publish(full_state, tmp_path / "survey.json")
    assert path.read_text(encoding="utf-8") == serialize_document(full_state.document)


def test_audit_log_round_trip(full_state, tmp_path):
    draft = "Audited Method [cite]: One claim."
    script = _framework_script("pL", "2", "append", {"t1": "no", "t2": "no"}, draft)
    _, record = apply_update(
        full_state, make_paper("pL"), make_generator(script), clock=make_step_clock())
    path = tmp_path / "audit.ndjson"
    write_audit_log([record], path)
    loaded = read_audit_log(path)
    assert loaded == [record]
    assert update_record_from_dict(update_record_to_dict(record)) == record


def reference_update_record_to_dict(record: UpdateRecord) -> dict:
    data = asdict(record)
    data["table_votes"] = [[table_id, vote] for table_id, vote in record.table_votes]
    return data


# Text an audit file can hold: U+007F (which only the ASCII encoder
# escapes), U+2028, letters outside the BMP, quotes, backslashes and
# control characters. No lone surrogate: a step rejects a reply holding
# one, and no UTF-8 file can hold it.
_strs = st.text(st.sampled_from(["a", "Z", " ", "\x7f", "\u2028", "é", "東", "🙂", "𝔘", '"',
                                 "\\", "\n", "\x00", "\x1f"])
                | st.characters(exclude_categories=["Cs"]), max_size=6)
# Row values as a row can hold them, floats, lists and nested objects
# included; a drawn dict keeps its keys in the order drawn, not sorted.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _strs,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_strs, inner, max_size=3),
    max_leaves=8)
_records = st.builds(
    UpdateRecord,
    paper_id=_strs,
    decision=st.sampled_from(["updated", "abstained", "failed"]),
    routed_section=st.none() | _strs,
    routed_table=st.none() | _strs,
    ranked_sections=st.lists(_strs, max_size=3).map(tuple),
    table_votes=st.lists(st.tuples(_strs, st.booleans()), max_size=3).map(tuple),
    insertion_sentence_id=st.none() | _strs,
    inserted_sentence_ids=st.lists(_strs, max_size=3).map(tuple),
    draft_text=_strs,
    inserted_row=st.none() | st.dictionaries(_strs, _json_values, max_size=4),
    resolved_citation_keys=st.lists(_strs, max_size=3).map(tuple),
    placeholder_count=st.integers(0, 5),
    started_at=_strs,
    finished_at=_strs,
    error=st.none() | _strs,
    table_error=st.none() | _strs,
)


@settings(max_examples=200, deadline=None)
@given(_records)
def test_record_dict_equals_asdict_reference(record):
    data = update_record_to_dict(record)
    expected = reference_update_record_to_dict(record)
    assert data == expected
    assert list(data) == list(expected)
    assert json.dumps(data, ensure_ascii=False, sort_keys=True) == \
        json.dumps(expected, ensure_ascii=False, sort_keys=True)


def _old_audit_text(records) -> str:
    """The audit log as it was written with one ``json.dumps`` per record dict."""
    return "".join(json.dumps(update_record_to_dict(r), ensure_ascii=False, sort_keys=True) + "\n"
                   for r in records)


_RICH_ROW = {"Zeta": "Grüße, 東京", "Alpha": {"b": [1, "ü", {"y": None, "x": True}], "a": -2},
             "Mid": 3, "Émoji": "🙂", "Quote": 'a "q" \\ b\n'}


@settings(max_examples=150, deadline=None)
@given(st.lists(_records, max_size=4))
def test_audit_log_bytes_equal_one_dumps_per_record(records):
    records = [*records, UpdateRecord(paper_id="pR", decision="updated", routed_section="2",
                                      routed_table="t1", inserted_row=_RICH_ROW)]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "audit.ndjson"
        write_audit_log(records, path)
        assert path.read_bytes() == _old_audit_text(records).encode("utf-8")
    assert update_record_from_dict(json.loads(_old_audit_text(records[-1:]))).inserted_row == \
        _RICH_ROW


def test_audit_log_copies_no_row(tmp_path, monkeypatch):
    record = UpdateRecord(paper_id="pR", decision="updated", routed_table="t1",
                          inserted_row=_RICH_ROW)
    monkeypatch.setattr(engine.copy, "deepcopy", None)  # any copy would fail
    write_audit_log([record], tmp_path / "audit.ndjson")
    monkeypatch.undo()
    assert (tmp_path / "audit.ndjson").read_text(encoding="utf-8") == _old_audit_text([record])


def test_failed_audit_write_keeps_the_old_log(tmp_path, monkeypatch):
    path = tmp_path / "audit.ndjson"
    write_audit_log([UpdateRecord(paper_id="pA", decision="abstained")], path)
    before = path.read_bytes()
    original = Path.write_text

    def torn_write(self, data, *args, **kwargs):
        original(self, data[:10], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError, match="disk full"):
        write_audit_log([UpdateRecord(paper_id="pB", decision="updated", inserted_row=_RICH_ROW)],
                        path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["audit.ndjson"]


def test_record_dict_copies_the_nested_row():
    row = {"Method": "M", "Extra": {"tags": ["a", "b"]}}
    record = UpdateRecord(paper_id="p", decision="updated", inserted_row=row)
    data = update_record_to_dict(record)
    data["inserted_row"]["Extra"]["tags"].append("c")
    assert record.inserted_row == {"Method": "M", "Extra": {"tags": ["a", "b"]}}


@pytest.mark.parametrize("vote", ["false", "true", 0, 1, None])
def test_audit_table_vote_must_be_a_json_boolean(full_state, vote):
    draft = "Voted Method [cite]: One claim."
    script = _framework_script("pV", "2", "append", {"t1": "no", "t2": "no"}, draft)
    _, record = apply_update(full_state, make_paper("pV"), make_generator(script))
    data = update_record_to_dict(record)
    data["table_votes"][0][1] = vote
    with pytest.raises(DocumentParseError, match="t1"):
        update_record_from_dict(data)


@pytest.mark.parametrize("decision", ["update", "Updated", "", None, 1])
def test_audit_decision_outside_the_three_is_a_parse_error(full_state, tmp_path, decision):
    # An unknown decision used to read back as is, and replay skipped its step.
    data = update_record_to_dict(UpdateRecord(paper_id="pD", decision="updated"))
    data["decision"] = decision
    path = tmp_path / "audit.ndjson"
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    with pytest.raises(DocumentParseError, match="decision"):
        read_audit_log(path)


@pytest.mark.parametrize("draft", [None, 3, ["text"], {"t": "x"}])
def test_audit_draft_text_must_be_a_string(tmp_path, draft):
    # A null draft used to read back, and replay, as the text "None".
    data = update_record_to_dict(UpdateRecord(paper_id="pD", decision="updated"))
    data["draft_text"] = draft
    path = tmp_path / "audit.ndjson"
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    with pytest.raises(DocumentParseError, match="draft_text"):
        read_audit_log(path)


def test_audit_draft_text_may_be_absent(tmp_path):
    data = update_record_to_dict(UpdateRecord(paper_id="pD", decision="abstained"))
    del data["draft_text"]
    path = tmp_path / "audit.ndjson"
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    assert read_audit_log(path) == [UpdateRecord(paper_id="pD", decision="abstained")]


@pytest.mark.parametrize("bad", ['{"paper_id": "pT", "decis', "[1]", '"text"', "7"],
                         ids=["torn", "array", "string", "number"])
def test_read_audit_log_names_the_line_it_cannot_read(tmp_path, bad):
    # A run killed mid-write leaves a torn last line, without a newline.
    good = json.dumps(update_record_to_dict(UpdateRecord(paper_id="pG", decision="abstained")))
    path = tmp_path / "audit.ndjson"
    path.write_text(f"{good}\n\n{bad}", encoding="utf-8")
    with pytest.raises(DocumentParseError, match="line 3"):
        read_audit_log(path)


def test_audit_replay_reproduces_published_bytes(full_state, tmp_path):
    # The row lists its columns in neither schema nor sorted order; the
    # audit log stores it with sorted keys.
    draft = "Reordered Method [cite]: One claim."
    row = '{"Supervision": "Supervised", "Method": "Reordered", "Score": 1, "Domain": "Spatial"}'
    script = _framework_script("pO", "2", "append", {"t1": "yes", "t2": "no"}, draft, row)
    paper = make_paper("pO")
    state, record = apply_update(full_state, paper, make_generator(script))
    published = publish(state, tmp_path / "survey.json").read_text(encoding="utf-8")
    write_audit_log([record], tmp_path / "audit.ndjson")
    replayed = full_state
    for logged in read_audit_log(tmp_path / "audit.ndjson"):
        replayed = replay_update(replayed, logged, paper)
    assert serialize_document(replayed.document) == published
    assert list(state.document.table("t1").rows[-1]) == [
        "Method", "Domain", "Supervision", "Score"]


def test_replay_checks_each_row_once(full_state, tmp_path, monkeypatch):
    t1_row = '{"Method": "Counted", "Domain": "Spatial", "Supervision": "None", "Score": 3}'
    t2_row = '{"Dataset": "Counted", "Scenes": 3, "Noise": "Real"}'
    steps = [
        ("pC1", _framework_script("pC1", "1", "append", {"t1": "yes", "t2": "no"},
                                  "One Method [cite]: One claim.", t1_row)),
        ("pC2", _framework_script("pC2", "2", "2:1", {"t1": "no", "t2": "no"},
                                  "Two Method [cite]: Two claims. Both new.")),
        ("pC3", _framework_script("pC3", "3", "append", {"t1": "no", "t2": "yes"},
                                  "Three Method [cite]: One claim.", t2_row)),
    ]
    state, papers, records = full_state, {}, []
    for paper_id, script in steps:
        papers[paper_id] = make_paper(paper_id)
        state, record = apply_update(state, papers[paper_id], make_generator(script))
        records.append(record)
    assert [r.decision for r in records] == ["updated"] * 3
    write_audit_log(records, tmp_path / "audit.ndjson")
    checked = []
    check_row = SurveyTable.check_row
    monkeypatch.setattr(SurveyTable, "check_row",
                        lambda table, row: checked.append(table.id) or check_row(table, row))
    replayed = full_state
    for logged in read_audit_log(tmp_path / "audit.ndjson"):
        replayed = replay_update(replayed, logged, papers[logged.paper_id])
    assert serialize_document(replayed.document) == serialize_document(state.document)
    assert checked == ["t1", "t2"]


def test_step_clock_is_deterministic():
    one, two = make_step_clock(), make_step_clock()
    assert [one() for _ in range(3)] == [two() for _ in range(3)]
