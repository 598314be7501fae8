"""Document model: parsing, serialization, integrity, outline handling."""

from __future__ import annotations

import copy
import dataclasses
import json
import re

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
    make_table,
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
from dynsurvey.parsing import ParseFailure, extract_json_value


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
    assert section.sentence_ids() == ("1:1", "1:2")
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
# Column names from a few shared values, so that rows and schemas share
# some, or from any text; cells that are equal across types (1, True, 1.0;
# 0.0, -0.0), null, and nested values.
_NAMES = st.one_of(st.sampled_from(["A", "b", "é", ""]), _TEXT)
_CELLS = st.one_of(st.sampled_from([1, True, 1.0, 0.0, -0.0, 0, False, None, "1"]), _JSON)
_BOUNDS = st.one_of(st.none(), st.integers(), st.sampled_from([1.0, 0.0, -0.0, True]))
_COLUMNS = st.builds(
    ColumnSpec, name=_NAMES, kind=st.sampled_from(document.COLUMN_KINDS),
    values=st.lists(_TEXT, max_size=3).map(tuple), minimum=_BOUNDS, maximum=_BOUNDS)
_SCHEMAS = st.lists(_COLUMNS, max_size=3).map(tuple)
_ROWS = st.lists(st.dictionaries(_NAMES, _CELLS, max_size=3), max_size=3)
_TABLES = st.one_of(
    st.builds(make_table, table_id=_TEXT, title=_TEXT, schema=_SCHEMAS, rows=_ROWS),
    st.builds(SurveyTable, id=_TEXT, title=_TEXT, schema=_SCHEMAS, rows=_ROWS.map(tuple)))
_REFERENCES = st.one_of(
    st.builds(Reference, key=_TEXT, number=st.integers(), bib=_BIB),
    st.builds(make_reference, key=_TEXT, number=st.integers(), bib=_BIB))
_DOCUMENTS = st.builds(
    SurveyDocument, metadata=st.dictionaries(_TEXT, _JSON, max_size=2),
    sections=st.lists(_SECTIONS, max_size=4).map(tuple),
    tables=st.lists(_TABLES, max_size=3).map(tuple),
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


def _table_text(table: SurveyTable) -> str:
    return serialize_document(SurveyDocument({}, (), (table,), ()))


@settings(max_examples=100, deadline=None)
@given(_TEXT, _TEXT, _SCHEMAS, _ROWS)
def test_memoised_make_table_equals_the_plain_build(table_id, title, schema, rows):
    built = document._build_table(table_id, title, schema, rows)
    made = make_table(table_id, title, schema, rows)
    assert made == built
    assert _table_text(made) == _table_text(built) == \
        _oracle(SurveyDocument({}, (), (built,), ()))
    assert _table_text(make_table(table_id, title, schema, copy.deepcopy(rows))) == \
        _table_text(built)
    names = list(dict.fromkeys(column.name for column in schema))
    for row, frozen in zip(rows, made.rows):
        assert dict(frozen) == row
        assert list(frozen) == [n for n in names if n in row] + [k for k in row if k not in names]


@pytest.mark.parametrize("column", [ColumnSpec("v"), ColumnSpec("v", "int")])
def test_table_cells_that_differ_only_in_type_render_apart(column):
    values = (1, True, 1.0, 0.0, -0.0)
    texts = [_table_text(make_table("t", "T", (column,), [{"v": v}])) for v in values]
    rendered = [t.split('"v": ')[1].split("\n")[0] for t in texts]
    assert rendered == ["1", "true", "1.0", "0.0", "-0.0"]


def test_column_bounds_that_differ_only_in_type_render_apart():
    bounds = (1, True, 1.0, 0.0, -0.0)
    texts = [_table_text(make_table("t", "T", (ColumnSpec("v", "int", minimum=b),), []))
             for b in bounds]
    rendered = [t.split('"min": ')[1].split(",")[0] for t in texts]
    assert rendered == ["1", "true", "1.0", "0.0", "-0.0"]


def test_equal_flat_tables_share_one_object():
    schema = (ColumnSpec("Method"), ColumnSpec("Year", "int", minimum=2000))
    rows = [{"Method": "M", "Year": 2001}, {"Year": True, "Method": None}]
    assert make_table("t", "T", schema, rows) is make_table("t", "T", schema, copy.deepcopy(rows))
    assert make_table("t", "T", schema, rows) is not make_table("u", "T", schema, rows)


@pytest.mark.parametrize("cell, bound", [(0.5, None), (["a"], None), ({"k": 1}, None),
                                         ("x", 0.5), ("x", True)])
def test_a_table_with_a_float_list_or_object_cell_or_odd_bound_is_built_plainly(cell, bound):
    schema = (ColumnSpec("v", "int", minimum=bound),)
    made = make_table("t", "T", schema, [{"v": cell}])
    assert made == document._build_table("t", "T", schema, [{"v": cell}])
    assert made is not make_table("t", "T", schema, [{"v": cell}])


def test_table_memo_is_bounded():
    assert 0 < document._shared_table.cache_info().maxsize < 2 ** 16


def test_parsed_and_appended_rows_are_read_only():
    doc = parse_document(serialize_document(demo.demo_full_document()))
    grown = doc.with_additions(doc.sections[0], (), "t2",
                               {"Noise": "Real", "Dataset": "New", "Scenes": 3})
    for row in (doc.table("t1").rows[0], grown.table("t2").rows[-1]):
        with pytest.raises(TypeError):
            row["Method"] = "Changed"  # type: ignore[index]
        with pytest.raises(AttributeError):
            row.pop("Method")  # type: ignore[attr-defined]


def test_mutating_the_row_given_to_append_leaves_the_table_alone():
    row = {"Score": 4, "Method": "New", "Domain": "Hybrid", "Supervision": "Supervised"}
    doc = demo.demo_full_document()
    grown = doc.with_additions(doc.sections[0], (), "t1", row)
    text = serialize_document(grown)
    row["Method"] = "Mutated"
    row["Extra"] = 1
    appended = grown.table("t1").rows[-1]
    assert dict(appended) == {"Method": "New", "Domain": "Hybrid", "Supervision": "Supervised",
                              "Score": 4}
    assert list(appended) == ["Method", "Domain", "Supervision", "Score"]
    assert _oracle(grown) == text


def test_mutating_the_dict_form_leaves_the_tables_alone():
    doc = parse_document(serialize_document(demo.demo_full_document()))
    text = serialize_document(doc)
    data = document_to_dict(doc)
    for table in data["tables"]:
        for row in table["rows"]:
            assert type(row) is dict
            row.clear()
        table["rows"].append({"x": 1})
    assert document_to_dict(doc) == json.loads(text)
    assert _oracle(doc) == text


def _plain_row_check(doc: SurveyDocument) -> str | None:
    """The per-row pass of ``validate_document`` before tables were frozen."""
    for table in doc.tables:
        for index, row in enumerate(table.rows):
            problems = table.check_row(row)
            if problems:
                return f"table {table.id!r} row {index}: " + "; ".join(problems)
    return None


def _integrity_error(doc: SurveyDocument) -> str | None:
    try:
        document.validate_document(doc)
    except DocumentIntegrityError as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(st.lists(_TABLES, max_size=3, unique_by=lambda t: t.id))
def test_row_check_raises_as_the_plain_pass_does(tables):
    expected = _plain_row_check(SurveyDocument({}, (), tuple(tables), ()))
    for order in (tables, tables[::-1], tables):
        doc = SurveyDocument({}, (), tuple(order), ())
        assert _integrity_error(doc) == _plain_row_check(doc)
    assert _integrity_error(SurveyDocument({}, (), tuple(tables), ())) == expected


def test_an_unchanged_table_is_row_checked_once(monkeypatch):
    document._shared_table.cache_clear()
    text = serialize_document(demo.demo_full_document())
    checked = []
    plain = SurveyTable.check_row
    monkeypatch.setattr(SurveyTable, "check_row",
                        lambda table, row: checked.append(table.id) or plain(table, row))
    first = parse_document(text)
    assert checked == ["t1"] * 3 + ["t2"] * 2
    second = parse_document(text)
    assert all(a is b for a, b in zip(first.tables, second.tables))
    assert len(checked) == 5
    grown = json.loads(text)
    grown["tables"][1]["rows"].append({"Dataset": "New", "Scenes": 3, "Noise": "Real"})
    third = document_from_dict(grown)
    assert third.tables[0] is first.tables[0]
    assert checked[5:] == ["t2"] * 3


def test_a_directly_built_table_with_plain_rows_is_row_checked_every_time():
    row = {"Method": "M", "Year": 2001}
    table = SurveyTable("t", "T", (ColumnSpec("Method"), ColumnSpec("Year", "int")), (row,))
    doc = SurveyDocument({}, (), (table,), ())
    document.validate_document(doc)
    row["Year"] = "not a year"
    for _ in range(2):
        with pytest.raises(DocumentIntegrityError, match="row 0"):
            document.validate_document(doc)
    frozen = make_table("t", "T", table.schema, [{"Method": "M", "Year": 2001}])
    document.validate_document(SurveyDocument({}, (), (frozen,), ()))
    assert frozen._rows_checked and not table._rows_checked


def test_a_row_appended_to_an_unchecked_table_leaves_its_rows_to_the_whole_check():
    table = SurveyTable("t", "T", (ColumnSpec("Method"), ColumnSpec("Year", "int")),
                        ({"Method": "M", "Year": "not a year"},))
    section = Section("s", "S", (Sentence("s:1", "A cat."),))
    doc = SurveyDocument({}, (section,), (table,), ())
    grown = doc.with_additions(section, (), "t", {"Method": "N", "Year": 2002})
    assert not grown.table("t")._rows_checked
    with pytest.raises(DocumentIntegrityError, match="row 0"):
        document.validate_document(grown)


def test_an_unchanged_section_is_checked_once(monkeypatch):
    make_section.cache_clear()
    text = serialize_document(demo.demo_full_document())
    checked = []
    plain = Section.sentence_ids
    monkeypatch.setattr(Section, "sentence_ids",
                        lambda section: checked.append(section.id) or plain(section))
    first = parse_document(text)
    ids = [s.id for s in first.sections]
    assert checked == ids
    second = parse_document(text)
    assert all(a is b for a, b in zip(first.sections, second.sections))
    assert checked == ids
    grown = json.loads(text)
    grown["sections"][1]["text"] += " One more sentence."
    document_from_dict(grown)
    assert checked == ids + [ids[1]]
    # A checked section that gains a blank sentence is a new object, so
    # the document that introduces it still fails.
    section = second.sections[0]
    blank = dataclasses.replace(section, sentences=section.sentences + (
        Sentence(f"{section.id}:{section.next_sentence_counter()}", " "),))
    with pytest.raises(DocumentIntegrityError, match="empty sentence"):
        document.validate_document(second.with_additions(blank, ()))


def test_a_directly_built_section_keeps_its_sentences_as_a_tuple():
    sentences = [Sentence("s:1", "A cat.")]
    section = Section("s", "S", sentences)
    assert section.sentences == (Sentence("s:1", "A cat."),)
    assert section == Section("s", "S", (Sentence("s:1", "A cat."),))
    doc = SurveyDocument({}, (section,), (), ())
    document.validate_document(doc)
    # Changing the list later changes nothing the section holds or found.
    sentences.append(Sentence("s:2", " "))
    sentences[0] = Sentence("s:2", "A dog.")
    document.validate_document(doc)
    assert section._checked and section.sentence_ids() == ("s:1",)
    assert section.next_sentence_counter() == 2


def _valid_table_entry() -> dict:
    return {
        "id": "t1", "title": "T",
        "schema": [{"name": "Kind", "kind": "categorical", "values": ["x", "y"]},
                   {"name": "Level", "kind": "int", "min": 1, "max": 5}],
        "rows": [{"Kind": "x", "Level": 2}],
    }


# Where a table entry holds a string, and where it holds a bound.
_STRING_FIELDS = [("id",), ("title",), ("schema", 0, "name"), ("schema", 0, "kind"),
                  ("schema", 0, "values", 1), ("schema", 1, "name")]
_BOUND_FIELDS = [("schema", 1, "min"), ("schema", 1, "max")]


def _set(entry: dict, path: tuple, value: object) -> dict:
    target = entry
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return entry


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_STRING_FIELDS + _BOUND_FIELDS), _JSON)
def test_a_table_field_of_another_json_type_is_a_parse_error(path, value):
    data = _minimal_doc_dict()
    data["tables"] = [_set(_valid_table_entry(), path, value)]
    wrong = (not isinstance(value, str) if path in _STRING_FIELDS
             else isinstance(value, (bool, str, list, dict)))
    if wrong:
        with pytest.raises(DocumentParseError):
            document_from_dict(data)
    else:
        try:
            doc = document_from_dict(data)
        except (DocumentParseError, DocumentIntegrityError):
            return  # an unknown kind, a duplicate column or a row now out of bounds
        read = document_to_dict(doc)["tables"][0]
        for step in path:
            read = read[step]
        assert json.dumps(read) == json.dumps(value)  # the value read, never a coerced one


@pytest.mark.parametrize("path, value, message", [
    (("id",), None, "table entry id must be a JSON string, got None"),
    (("schema", 0, "name"), None, "table 't1' column name must be a JSON string, got None"),
    (("schema", 0, "values"), [1, 2], "column 'Kind' values[0] must be a JSON string, got 1"),
    (("schema", 1, "min"), True, "column 'Level' min must be a JSON number or null, got True"),
    (("schema", 1, "max"), False,
     "column 'Level' max must be a JSON number or null, got False"),
    (("schema", 0, "kind"), 1, "column kind must be a JSON string, got 1"),
    (("title",), ["T"], "table 't1' title must be a JSON string"),
])
def test_table_reader_rejects_what_it_used_to_coerce(path, value, message):
    data = _minimal_doc_dict()
    data["tables"] = [_set(_valid_table_entry(), path, value)]
    with pytest.raises(DocumentParseError, match=re.escape(message)):
        document_from_dict(data)


def test_table_entry_without_an_id_is_a_parse_error():
    data = _minimal_doc_dict()
    entry = _valid_table_entry()
    del entry["id"]
    data["tables"] = [entry]
    with pytest.raises(DocumentParseError, match="table entry has no id"):
        document_from_dict(data)


def test_a_column_named_null_no_longer_reads_as_none():
    data = _minimal_doc_dict()
    data["tables"] = [{"id": "t", "title": "T", "schema": [{"name": None}],
                       "rows": [{"None": "x"}]}]
    with pytest.raises(DocumentParseError, match="column name must be a JSON string"):
        document_from_dict(data)


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
    with pytest.raises(DocumentParseError, match="reference 'a' number must be a JSON integer"):
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
    with pytest.raises(DocumentParseError, match="outline section has no section_title"):
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


# A reference whose entry does not read back as itself: a bool number,
# a non-string bib key, a float or nested bib value.
_ODD_REFERENCES = st.builds(
    Reference, key=_TEXT, number=st.one_of(st.integers(1, 3), st.booleans()),
    bib=st.dictionaries(st.one_of(_TEXT, st.integers()),
                        st.one_of(st.sampled_from([1, True, "1", None, 1.5, -0.0]),
                                  st.lists(st.integers(), max_size=2)), max_size=2))
_REVISION_SECTIONS = st.one_of(
    st.builds(make_section, section_id=st.sampled_from(["1", "2", "3"]),
              title=st.sampled_from(["", "T"]),
              text=st.text(alphabet=st.sampled_from("ab .!?\n "), max_size=30),
              non_maintained=st.booleans()),
    _SECTIONS)


def _retyped(value):
    return bool(value) if type(value) is int else int(value) if type(value) is bool else value


def _reference_variants(reference: Reference) -> list[Reference]:
    return [Reference(reference.key, reference.number, dict(reversed(reference.bib.items()))),
            Reference(reference.key, reference.number,
                      {k: _retyped(v) for k, v in reference.bib.items()}),
            Reference(reference.key, _retyped(reference.number), reference.bib)]


def _parse_outcome(parse):
    """A parse's document, field by field with each value's type, or its error."""
    try:
        doc = parse()
    except (ParseFailure, DocumentParseError, DocumentIntegrityError) as exc:
        return type(exc), str(exc)
    if doc is None:
        return None
    return (serialize_document(doc), doc, [s.sentences for s in doc.sections],
            [(type(r.key), type(r.number), [(type(k), k, type(v), v) for k, v in r.bib.items()])
             for r in doc.references])


@settings(max_examples=150, deadline=None)
@given(st.lists(_REVISION_SECTIONS, max_size=3), st.lists(
    st.one_of(_ODD_REFERENCES, st.builds(make_reference, key=_TEXT, number=st.integers(1, 3),
                                         bib=st.dictionaries(_TEXT, _CELLS, max_size=2))),
    max_size=3), st.data())
def test_revision_parse_of_a_canonical_text_matches_the_full_parse(sections, references, data):
    tables = data.draw(st.lists(_TABLES, max_size=2))
    previous = SurveyDocument({"title": "T"}, tuple(sections), tuple(tables), tuple(references))
    serialize_document(previous)  # every entry of the previous document rendered
    # The reply keeps each entry of the previous document, or puts there
    # another one, or for a reference the same one with its bib keys
    # reversed, a value or the number retyped (1, True).
    revised = SurveyDocument(
        {"title": "T"},
        tuple(data.draw(st.sampled_from([s, *data.draw(st.lists(_REVISION_SECTIONS, max_size=1))]))
              for s in sections),
        tuple(data.draw(st.sampled_from([t, *data.draw(st.lists(_TABLES, max_size=1))]))
              for t in tables),
        tuple(data.draw(st.sampled_from([r, *_reference_variants(r),
                                             *data.draw(st.lists(_ODD_REFERENCES, max_size=1))]))
                  for r in references))
    text = serialize_document(revised)
    want = _parse_outcome(lambda: document_from_dict(extract_json_value(text)))
    # A second full parse, which the build memos serve, reads the same.
    assert _parse_outcome(lambda: document_from_dict(extract_json_value(text))) == want
    got = _parse_outcome(lambda: document.revise_document(text, previous))
    assert got is None or got == want
    if type(want[0]) is str:
        assert got is not None


_COLUMNS_AB = (ColumnSpec("A"), ColumnSpec("B", "int"))


@pytest.mark.parametrize("previous", [
    SurveyDocument({}, (), (), (Reference("k", True, {"t": "x"}),)),
    SurveyDocument({}, (), (), (Reference("k", 1, {1: "x"}),)),
    SurveyDocument({}, (), (), (Reference("k", 1, {"t": float("nan")}),)),
    SurveyDocument({}, (), (SurveyTable("t", "T", _COLUMNS_AB, ({"B": 1, "A": "x"},)),), ()),
    SurveyDocument({}, (), (SurveyTable("t", "T", (ColumnSpec("A", values=("x",)),),
                                        ({"A": "x"},)),), ()),
    SurveyDocument({}, (), (SurveyTable("t", "T", (ColumnSpec("B", "int", minimum=True),),
                                        ({"B": 1},)),), ()),
    SurveyDocument({}, (Section("s", "S", (Sentence("s:2", "A cat."),)),), (), ()),
    SurveyDocument({}, (make_section("s", "S", "A cat. A dog.").with_inserted(1, ["A cow."]),),
                   (), ()),
], ids=["bool_number", "int_bib_key", "nan_bib_value", "rows_out_of_schema_order",
        "text_column_values", "bool_bound", "gapped_section", "inserted_section"])
def test_revision_parse_decodes_an_entry_that_does_not_read_back(previous):
    text = serialize_document(previous)
    want = _parse_outcome(lambda: document_from_dict(extract_json_value(text)))
    got = _parse_outcome(lambda: document.revise_document(text, previous))
    assert got is None or got == want
    # A second full parse, which the build memos serve, reads the same.
    assert _parse_outcome(lambda: document_from_dict(extract_json_value(text))) == want
