"""The JSON input layer: every reader reads each field by its JSON type.

For each reader, one field of a valid input is replaced by a value of any
JSON type. The reader must return the value it was given (an integer as a
float where a float is expected) or raise its own error; it must never
return a coerced value.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import jsonio
from dynsurvey.benchmark import load_span_annotations
from dynsurvey.config import load_config
from dynsurvey.corpus import filter_from_dict, record_from_dict, record_to_dict
from dynsurvey.document import (
    document_from_dict,
    document_to_dict,
    outline_from_dict,
    outline_to_dict,
)
from dynsurvey.engine import update_record_from_dict, update_record_to_dict
from dynsurvey.errors import ConfigError, DocumentIntegrityError, DocumentParseError, FeedError
from dynsurvey.mock import hash_embedding_from_scenario, scripted_generation_from_scenario

# Strings without "$", so that no config string is an environment reference.
_TEXT = st.text(st.characters(blacklist_characters="$"), max_size=5)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6)


def _through_file(read):
    """``read`` of a file holding ``data`` as JSON."""
    def reader(data):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "input.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            return read(path)
    return reader


def _config():
    return {
        "generation": {"base_url": "http://localhost:1", "model_id": "m", "temperature": 0.5,
                       "max_output_tokens": 64, "timeout_s": 5.0, "max_retries": 0,
                       "api_key_env": None},
        "metrics": {"coherence_window": 2, "fidelity_tau": 0.6, "rouge_beta": 1.0},
        "allowed_sections": ["1", "2"],
        "scope": {"title": "T", "keywords": ["k"], "abstract": "A", "core_criterion": "C"},
    }


def _config_form(config):
    return {"generation": dataclasses.asdict(config.generation.endpoint),
            "metrics": dataclasses.asdict(config.metrics),
            "allowed_sections": config.allowed_sections,
            "scope": dataclasses.asdict(config.scope)}


def _filter():
    return {"allowed_categories": ["cs.CV"], "allowed_venues": ["CVPR"],
            "date_range": ["2020-01-01", "2024-12-31"], "require_peer_reviewed": False}


def _record():
    return {"id": "p1", "title": "T", "abstract": "A", "full_text": "F", "venue": "V",
            "date": "2024-01-01", "categories": ["cs.CV"], "bib": {"key": "k", "year": 2024}}


def _document(**entries):
    return {"metadata": {}, "sections": [], "tables": [], "references": [], **entries}


def _section_form(doc):
    data = document_to_dict(doc)
    data["sections"][0].setdefault("non_maintained", False)  # written only when true
    return data


def _outline():
    return {"approved": True,
            "sections": [{"id": "1", "section_title": "S", "page_numbers": "2",
                          "table_relevant": [1], "summary": "Sum"}],
            "tables": [{"id": "t1", "title": "T", "page_numbers": "", "summary": "Sum"}]}


def _audit():
    return {"paper_id": "p1", "decision": "updated", "routed_section": "2",
            "routed_table": "t1", "ranked_sections": ["2", "1", "3"],
            "table_votes": [["t1", True]], "insertion_sentence_id": None,
            "inserted_sentence_ids": ["2:5"], "draft_text": "D", "inserted_row": {"M": 1},
            "resolved_citation_keys": ["k"], "placeholder_count": 1, "started_at": "s",
            "finished_at": "f", "error": None, "table_error": None}


def _scenario():
    return {"generation": {"analysis|p1|0": "text"}, "generation_max_retries": 1,
            "embedding": {"seed": 7, "dimension": 8}}


def _read_scenario(data):
    return scripted_generation_from_scenario(data), hash_embedding_from_scenario(data)


def _scenario_form(read):
    generation, embedding = read
    return {"generation": {"|".join(map(str, key)): text
                           for key, text in generation.script.items()},
            "generation_max_retries": generation.max_retries,
            "embedding": {"seed": embedding.seed, "dimension": embedding.dimension}}


# Per reader: the errors it may raise, a valid input, the reader, the read
# value in the input's shape, and each field's path, JSON type and
# whether null is allowed.
READERS = {
    "config": (ConfigError, _config, _through_file(load_config), _config_form, [
        (("generation", "base_url"), str, False),
        (("generation", "model_id"), str, False),
        (("generation", "temperature"), float, False),
        (("generation", "max_output_tokens"), int, False),
        (("generation", "timeout_s"), float, False),
        (("generation", "max_retries"), int, False),
        (("generation", "api_key_env"), str, True),
        (("metrics", "coherence_window"), int, False),
        (("metrics", "fidelity_tau"), float, False),
        (("metrics", "rouge_beta"), float, False),
        (("allowed_sections", 1), str, False),
    ]),
    "filter": (ConfigError, _filter, filter_from_dict, dataclasses.asdict, [
        (("allowed_categories", 0), str, False),
        (("allowed_venues", 0), str, False),
        (("date_range", 0), str, False),
        (("date_range", 1), str, False),
        (("require_peer_reviewed",), bool, False),
    ]),
    "scope": (ConfigError, _config, _through_file(load_config), _config_form, [
        (("scope", "title"), str, False),
        (("scope", "keywords", 0), str, False),
        (("scope", "abstract"), str, False),
        (("scope", "core_criterion"), str, False),
    ]),
    "feed record": (FeedError, _record, record_from_dict, record_to_dict, [
        ((name,), str, False) for name in ("id", "title", "abstract", "full_text", "venue",
                                           "date")
    ] + [(("categories", 0), str, False), (("bib",), dict, False)]),
    "section": (
        (DocumentParseError, DocumentIntegrityError),
        lambda: _document(sections=[{"id": "1", "title": "S", "text": "A cat.",
                                     "non_maintained": False}]),
        document_from_dict, _section_form,
        [(("sections", 0, "id"), str, False), (("sections", 0, "title"), str, False),
         (("sections", 0, "non_maintained"), bool, False)]),
    "reference": (
        (DocumentParseError, DocumentIntegrityError),
        lambda: _document(references=[{"key": "k", "number": 1, "bib": {"year": 2024}}]),
        document_from_dict, document_to_dict,
        [(("references", 0, "key"), str, False), (("references", 0, "number"), int, False),
         (("references", 0, "bib"), dict, False)]),
    "outline": ((DocumentParseError, DocumentIntegrityError), _outline, outline_from_dict,
                outline_to_dict, [
        (("approved",), bool, False),
        (("sections", 0, "id"), str, False),
        (("sections", 0, "section_title"), str, False),
        (("sections", 0, "page_numbers"), str, False),
        (("sections", 0, "table_relevant", 0), int, False),
        (("sections", 0, "summary"), str, False),
        (("tables", 0, "id"), str, False),
        (("tables", 0, "title"), str, False),
        (("tables", 0, "summary"), str, False),
    ]),
    "audit record": (DocumentParseError, _audit, update_record_from_dict,
                     update_record_to_dict, [
        (("paper_id",), str, False),
        (("decision",), str, False),
        (("routed_section",), str, True),
        (("routed_table",), str, True),
        (("ranked_sections", 0), str, False),
        (("table_votes", 0, 0), str, False),
        (("table_votes", 0, 1), bool, False),
        (("insertion_sentence_id",), str, True),
        (("inserted_sentence_ids", 0), str, False),
        (("draft_text",), str, False),
        (("inserted_row",), dict, True),
        (("resolved_citation_keys", 0), str, False),
        (("placeholder_count",), int, False),
        (("started_at",), str, False),
        (("error",), str, True),
        (("table_error",), str, True),
    ]),
    "span": (DocumentParseError,
             lambda: {"spans": [{"paper_id": "p1", "section_id": "2", "text": "A cat."}]},
             _through_file(load_span_annotations),
             lambda spans: {"spans": [dataclasses.asdict(s) for s in spans]},
             [(("spans", 0, name), str, False) for name in ("paper_id", "section_id", "text")]),
    "scenario": (ConfigError, _scenario, _read_scenario, _scenario_form, [
        (("generation", "analysis|p1|0"), str, False),
        (("generation_max_retries",), int, False),
        (("embedding", "seed"), int, False),
        (("embedding", "dimension"), int, False),
    ]),
}

_REJECTED = object()


def _strict(value, kind, null):
    """What a strict reader returns for ``value``, or ``_REJECTED``."""
    if value is None:
        return None if null else _REJECTED
    if kind is float and type(value) is int:
        return float(value)
    return value if type(value) is kind else _REJECTED


def _at(data, path):
    for step in path:
        data = data[step]
    return data


def _set(data, path, value):
    _at(data, path[:-1])[path[-1]] = value
    return data


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_reads_its_valid_input_as_given(reader):
    _, valid, read, form, fields = READERS[reader]
    read_back = form(read(valid()))
    for path, _, _ in fields:
        assert json.dumps(_at(read_back, path)) == json.dumps(_at(valid(), path))


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_field_of_another_json_type_is_read_as_given_or_raises(reader, data):
    errors, valid, read, form, fields = READERS[reader]
    path, kind, null = data.draw(st.sampled_from(fields))
    value = data.draw(_JSON)
    expected = _strict(value, kind, null)
    try:
        result = read(_set(valid(), path, value))
    except errors:
        return  # a wrong type, or a value rule of the reader
    assert expected is not _REJECTED, f"{reader} read {path} = {value!r}"
    assert json.dumps(_at(form(result), path)) == json.dumps(expected)


def test_true_is_not_an_integer():
    data = _set(_config(), ("metrics", "coherence_window"), True)
    with pytest.raises(ConfigError, match="coherence_window must be a JSON integer, got True"):
        _through_file(load_config)(data)


def test_an_integer_temperature_reads_as_a_float():
    config = _through_file(load_config)(_set(_config(), ("generation", "temperature"), 0))
    assert type(config.generation.endpoint.temperature) is float
    assert config.generation.endpoint.temperature == 0.0


# Values each reader used to coerce: null read as "None", a string read as
# its characters, true as 1, 2.7 as 2, and shapes that raised TypeError.
@pytest.mark.parametrize("read, data, error, message", [
    (document_from_dict,
     _document(references=[{"key": None, "number": 1, "bib": {}}]),
     DocumentParseError, "reference key must be a JSON string, got None"),
    (record_from_dict, _set(_record(), ("id",), 7), FeedError, "id must be a JSON string"),
    (record_from_dict, _set(_record(), ("title",), None), FeedError, "title must be"),
    (record_from_dict, _set(_record(), ("categories",), "cs.CV"), FeedError,
     "categories must be a JSON array"),
    (_through_file(load_config), _set(_config(), ("allowed_sections",), "abc"), ConfigError,
     "allowed_sections must be a JSON array"),
    (_through_file(load_config), _set(_config(), ("metrics", "coherence_window"), 2.7),
     ConfigError, "coherence_window must be a JSON integer, got 2.7"),
    (_through_file(load_span_annotations),
     {"spans": [{"paper_id": "p", "section_id": None, "text": "t"}]},
     DocumentParseError, "section_id must be a JSON string, got None"),
    (outline_from_dict, _set(_outline(), ("sections", 0, "table_relevant"), [True]),
     DocumentParseError, r"table_relevant\[0\] must be a JSON integer, got True"),
    (update_record_from_dict, [1], DocumentParseError, "must be a JSON object"),
    (update_record_from_dict, _set(_audit(), ("table_votes", 0), ["t"]), DocumentParseError,
     "table vote must be a"),
])
def test_a_value_the_readers_used_to_coerce_raises_its_error(read, data, error, message):
    with pytest.raises(error, match=message):
        read(data)


@pytest.mark.parametrize("text", ["", "[]", '"text"', "{torn"])
def test_a_file_that_is_not_a_json_object_raises_the_callers_error(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="input.json"):
        jsonio.read_json(path, ConfigError, "config")


def test_an_unreadable_file_raises_the_callers_error(tmp_path):
    with pytest.raises(FeedError, match="cannot read feed"):
        jsonio.read_json(tmp_path / "absent.json", FeedError, "feed")
