"""Document model: parsing, serialization, integrity, outline handling."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynsurvey import demo
from dynsurvey.document import (
    load_document,
    make_section,
    outline_fingerprint,
    outline_from_dict,
    outline_to_dict,
    parse_document,
    parse_outline,
    serialize_document,
    serialize_outline,
    validate_state,
)
from dynsurvey.errors import DocumentIntegrityError, DocumentParseError


def _minimal_doc_dict():
    return {
        "metadata": {"title": "Tiny"},
        "sections": [{"id": "1", "title": "Only", "text": "A cat. A dog."}],
        "tables": [],
        "references": [],
    }


def test_parse_minimal_document():
    doc = parse_document(json.dumps(_minimal_doc_dict()))
    assert len(doc.sections) == 1
    section = doc.sections[0]
    assert [s.text for s in section.sentences] == ["A cat.", "A dog."]
    assert section.sentence_ids() == ["1:1", "1:2"]
    assert doc.tables == ()


def test_row_missing_a_column_is_an_integrity_error():
    data = _minimal_doc_dict()
    data["tables"] = [{
        "id": "t1", "title": "T",
        "schema": [{"name": "A", "kind": "text"}, {"name": "B", "kind": "text"}],
        "rows": [{"A": "x"}],
    }]
    with pytest.raises(DocumentIntegrityError, match="missing columns"):
        parse_document(json.dumps(data))


def test_duplicate_section_ids_rejected():
    data = _minimal_doc_dict()
    data["sections"].append({"id": "1", "title": "Again", "text": "More."})
    with pytest.raises(DocumentIntegrityError, match="duplicate section ids"):
        parse_document(json.dumps(data))


def test_non_dense_reference_numbers_rejected():
    data = _minimal_doc_dict()
    data["references"] = [{"key": "a", "number": 2, "bib": {}}]
    with pytest.raises(DocumentIntegrityError, match="dense"):
        parse_document(json.dumps(data))


def test_invalid_json_is_a_parse_error():
    with pytest.raises(DocumentParseError, match="not valid JSON"):
        parse_document("{nope")


def test_categorical_and_bounds_validation():
    data = _minimal_doc_dict()
    data["tables"] = [{
        "id": "t1", "title": "T",
        "schema": [
            {"name": "Kind", "kind": "categorical", "values": ["x", "y"]},
            {"name": "Level", "kind": "int", "min": 1, "max": 5},
        ],
        "rows": [{"Kind": "z", "Level": 9}],
    }]
    with pytest.raises(DocumentIntegrityError) as excinfo:
        parse_document(json.dumps(data))
    message = str(excinfo.value)
    assert "'z'" in message or "z" in message


def test_fixture_survey_round_trips_byte_identically(tmp_path):
    # 3 sections, 2 tables, 10 references.
    doc = demo.demo_full_document()
    assert len(doc.sections) == 3
    assert len(doc.tables) == 2
    assert len(doc.references) == 10
    path = tmp_path / "survey.json"
    path.write_text(serialize_document(doc), encoding="utf-8")
    raw = path.read_text(encoding="utf-8")
    assert serialize_document(parse_document(raw)) == raw
    assert serialize_document(load_document(path)) == raw


def test_serialization_is_deterministic():
    doc = demo.demo_full_document()
    assert serialize_document(doc) == serialize_document(doc)


def test_sentence_counter_skips_used_ids():
    section = make_section("2", "S", "One here. Two here. Three here.")
    assert section.next_sentence_counter() == 4


@given(st.text(max_size=6), st.text(max_size=12),
       st.text(alphabet=st.sampled_from("ab .!?\n"), max_size=40), st.booleans())
def test_memoised_make_section_equals_the_plain_build(section_id, title, text, non_maintained):
    built = make_section.__wrapped__(section_id, title, text, non_maintained)
    assert make_section(section_id, title, text, non_maintained) == built
    assert make_section(section_id, title, text, non_maintained) is \
        make_section(section_id, title, text, non_maintained)


def test_section_memo_is_bounded():
    assert 0 < make_section.cache_info().maxsize < 2 ** 16


def test_outline_round_trip_and_fingerprint():
    outline = demo.demo_outline(approved=True)
    raw = serialize_outline(outline)
    parsed = parse_outline(raw)
    assert parsed == outline
    assert outline_fingerprint(parsed) == outline_fingerprint(outline)


def test_outline_field_names_match_contract():
    data = outline_to_dict(demo.demo_outline())
    entry = data["sections"][0]
    assert set(entry) == {"id", "section_title", "page_numbers", "table_relevant", "summary"}
    table_entry = data["tables"][0]
    assert set(table_entry) == {"id", "title", "page_numbers", "summary"}
    assert "approved" in data


def test_outline_table_relevant_length_checked():
    data = outline_to_dict(demo.demo_outline())
    data["sections"][0]["table_relevant"] = [1]
    with pytest.raises(DocumentIntegrityError, match="table_relevant"):
        outline_from_dict(data)


def test_outline_malformed_entry_is_parse_error():
    data = outline_to_dict(demo.demo_outline())
    del data["sections"][1]["section_title"]
    with pytest.raises(DocumentParseError, match="malformed outline entry: 'section_title'"):
        outline_from_dict(data)


def test_validate_state_rejects_unlisted_section(full_state):
    data = json.loads(serialize_document(full_state.document))
    data["sections"].append({"id": "9", "title": "Rogue", "text": "Rogue text."})
    rogue_doc = parse_document(json.dumps(data))
    with pytest.raises(DocumentIntegrityError, match="not in the outline"):
        validate_state(full_state.with_document(rogue_doc))


def test_validate_state_accepts_non_maintained_section(full_state):
    data = json.loads(serialize_document(full_state.document))
    data["sections"].append(
        {"id": "9", "title": "Appendix", "text": "Legacy text.", "non_maintained": True})
    doc = parse_document(json.dumps(data))
    validate_state(full_state.with_document(doc))
