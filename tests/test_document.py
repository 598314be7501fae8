"""Document model: parsing, serialization, integrity, outline handling."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import demo, document
from dynsurvey.document import (
    ColumnSpec,
    Reference,
    Section,
    Sentence,
    SurveyDocument,
    SurveyTable,
    document_from_dict,
    document_to_dict,
    load_document,
    make_reference,
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


def test_reference_memo_is_bounded():
    assert 0 < document._shared_reference.cache_info().maxsize < 2 ** 16


def test_equal_flat_bibs_share_one_reference():
    bib = {"title": "T", "year": 2001, "venue": None, "open": False}
    assert make_reference("k", 1, bib) is make_reference("k", 1, dict(bib))
    assert make_reference("k", 1, bib) == Reference("k", 1, bib)


@pytest.mark.parametrize("bib", [{"authors": ["A", "B"]}, {"venue": {"name": "V"}},
                                 {"score": 0.5}])
def test_a_bib_with_a_float_list_or_object_is_built_plainly(bib):
    assert make_reference("k", 1, bib) == Reference("k", 1, bib)
    assert make_reference("k", 1, bib) is not make_reference("k", 1, bib)


def _oracle(doc: SurveyDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2, ensure_ascii=False) + "\n"


# Quotes, backslashes, control characters, U+2028/9 and wide characters.
_SPECIAL = st.sampled_from('"\\/\u2028\u2029\x00\x1f\x7f\té漢😀')
_TEXT = st.text(st.one_of(st.characters(), _SPECIAL), max_size=12)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=4)
_BIB = st.dictionaries(_TEXT, _JSON, max_size=3)
_SECTIONS = st.builds(
    Section, id=_TEXT, title=_TEXT,
    sentences=st.lists(st.builds(Sentence, id=_TEXT, text=_TEXT), max_size=4).map(tuple),
    non_maintained=st.booleans())
_COLUMNS = st.builds(
    ColumnSpec, name=_TEXT, kind=st.sampled_from(document.COLUMN_KINDS),
    values=st.lists(_TEXT, max_size=3).map(tuple),
    minimum=st.none() | st.integers(), maximum=st.none() | st.integers())
_TABLES = st.builds(
    SurveyTable, id=_TEXT, title=_TEXT, schema=st.lists(_COLUMNS, max_size=2).map(tuple),
    rows=st.lists(st.dictionaries(_TEXT, _JSON, max_size=2), max_size=2).map(tuple))
_REFERENCES = st.one_of(
    st.builds(Reference, key=_TEXT, number=st.integers(), bib=_BIB),
    st.builds(make_reference, key=_TEXT, number=st.integers(), bib=_BIB))
_DOCUMENTS = st.builds(
    SurveyDocument, metadata=st.dictionaries(_TEXT, _JSON, max_size=2),
    sections=st.lists(_SECTIONS, max_size=4).map(tuple),
    tables=st.lists(_TABLES, max_size=1).map(tuple),
    references=st.lists(_REFERENCES, max_size=5).map(tuple))


@settings(max_examples=60, deadline=None)
@given(_DOCUMENTS)
def test_serialize_equals_json_dumps_of_the_dict_form(doc):
    expected = _oracle(doc)
    assert serialize_document(doc) == expected  # fresh objects, nothing rendered yet
    assert serialize_document(doc) == expected  # every entry rendered before
    rebuilt = SurveyDocument(doc.metadata, doc.sections[::-1], doc.tables, doc.references[1:])
    assert serialize_document(rebuilt) == _oracle(rebuilt)


def _one_reference_document(bib: dict) -> SurveyDocument:
    return SurveyDocument({}, (), (), (make_reference("k", 1, bib),))


def test_bib_values_that_differ_only_in_type_render_apart():
    values = (1, 1.0, True, 0.0, -0.0)
    texts = [serialize_document(_one_reference_document({"v": v})) for v in values]
    rendered = [t.split('"v": ')[1].split("\n")[0] for t in texts]
    assert rendered == ["1", "1.0", "true", "0.0", "-0.0"]
    assert texts == [_oracle(_one_reference_document({"v": v})) for v in values]


@pytest.mark.parametrize("doc", [
    SurveyDocument({}, (), (), ()),
    SurveyDocument({"title": "Ünïcode \"q\" \\ \u2028"}, (
        Section("9", "Legacy", (Sentence("9:1", "Old\ttext."),), non_maintained=True),
        Section("e", "", ())), (), ()),
    SurveyDocument({}, (), (SurveyTable("t", "T", ()),), (
        Reference("k", 1, {"authors": ["A", {"given": "B"}], "venue": {}, "pages": []}),
        Reference("j", 2, {}))),
], ids=["empty", "non_maintained", "nested_bib"])
def test_serialize_edge_cases_equal_json_dumps(doc):
    assert serialize_document(doc) == _oracle(doc)
    assert serialize_document(doc) == _oracle(doc)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
def test_non_boolean_non_maintained_is_a_parse_error(value):
    data = _minimal_doc_dict()
    data["sections"][0]["non_maintained"] = value
    with pytest.raises(DocumentParseError, match="non_maintained must be a JSON boolean"):
        document_from_dict(data)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_non_boolean_approved_is_a_parse_error(value):
    data = {"approved": value, "sections": [], "tables": []}
    with pytest.raises(DocumentParseError, match="approved must be a JSON boolean"):
        outline_from_dict(data)


@pytest.mark.parametrize("number", [1.9, 1.0, True, "1", None])
def test_reference_number_must_be_a_json_integer(number):
    data = _minimal_doc_dict()
    data["references"] = [{"key": "a", "number": number, "bib": {}}]
    with pytest.raises(DocumentParseError, match="is not an integer"):
        document_from_dict(data)


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
