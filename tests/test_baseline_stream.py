"""Baseline streams: one parse and render per changed section or table, one serialize per step.

``_reference_stream`` keeps the baseline loop as it was before sections
were memoised and each step's output text was handed to the next step:
every step serializes its input for the prompt and its output again,
builds every section and table afresh and diffs every section. The streams
``run_method`` gives must equal it field by field and byte by byte.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import benchmark, demo, document, prompts, text
from dynsurvey.benchmark import (
    ONE_STEP,
    ORACLE,
    StepResult,
    build_instance,
    paper_representation,
    run_method,
)
from dynsurvey.document import (
    SurveyTable,
    document_from_dict,
    document_to_dict,
    make_section,
    revise_document,
    serialize_document,
)
from dynsurvey.endpoints import GenerationRequest
from dynsurvey.errors import (
    DocumentIntegrityError,
    DocumentParseError,
    GenerationTransportError,
)
from dynsurvey.metrics import token_edit_script
from dynsurvey.mock import ScriptedGeneration
from dynsurvey.parsing import ParseFailure, extract_json_value

from test_document import _parse_outcome

REPLY_KINDS = ("unchanged", "one", "two", "row", "truncated", "shape")
# Replies that edit a reference or a flag in place, or change only the
# text's layout.
REVISION_KINDS = ("bib", "reorder", "renumber", "gap", "flag", "blank", "keys", "indent",
                  "ascii", "junk", "dupe")
FAILING_KINDS = ("truncated", "shape", "gap", "junk")


def _reference_inserted(before, after):
    before_sections = {s.id: s for s in before.sections}
    inserted = []
    for section in after.sections:
        old = before_sections.get(section.id)
        old_texts = [s.text for s in old.sentences] if old else []
        ops = token_edit_script(old_texts, [s.text for s in section.sentences])
        new_positions = {op.after_pos for op in ops if op.op == "insert"}
        inserted.extend(s for i, s in enumerate(section.sentences) if i in new_positions)
    return inserted


def _reference_stream(method, instance, generator) -> list[StepResult]:
    doc = instance.early_state.document
    results = []
    stream = [*instance.late_papers, *((paper, None) for paper in instance.out_of_scope_papers)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(document, "make_section", make_section.__wrapped__)
        patch.setattr(document, "make_table", document._build_table)
        for paper, span in stream:
            text = serialize_document(doc)
            oracle = method == ORACLE and span is not None
            prompt = prompts.render(
                prompts.ORACLE_UPDATE if oracle else prompts.ONE_STEP_UPDATE,
                target_section=span.section_id if oracle else "",
                document=text,
                paper_title=paper.title,
                paper_abstract=paper.abstract,
            )
            error = None
            try:
                raw = generator.generate(GenerationRequest(method, paper.id, 0, prompt))
                new_doc = document_from_dict(extract_json_value(raw))
            except (ParseFailure, DocumentParseError, DocumentIntegrityError,
                    GenerationTransportError) as exc:
                error = str(exc)
                new_doc = doc
            results.append(StepResult(
                method=method,
                paper_id=paper.id,
                out_of_scope=span is None,
                abstained=error is None and serialize_document(new_doc) == text,
                before=doc,
                after=new_doc,
                gt_span=span,
                paper_repr=paper_representation(paper),
                inserted=tuple(_reference_inserted(doc, new_doc)),
                error=error,
            ))
            doc = new_doc
    return results


def _papers(instance):
    return [p for p, _ in instance.late_papers] + list(instance.out_of_scope_papers)


def _dumps(reply, layout) -> str:
    """A reply dict as text: ``canonical`` is ``serialize_document``'s layout."""
    if layout == "canonical":
        return json.dumps(reply, indent=2, ensure_ascii=False) + "\n"
    return json.dumps(reply)


def _replies(doc, kinds, layout="tight"):
    """Whole-document reply texts, one per kind, each built on the last good one."""
    current = document_to_dict(doc)
    texts = []
    for step, kind in enumerate(kinds):
        reply = json.loads(json.dumps(current))
        touched = {"one": reply["sections"][step % 3:step % 3 + 1],
                   "two": reply["sections"][:2]}.get(kind, [])
        for section in touched:
            section["text"] += f" Step {step} adds words to {section['id']}."
        references = reply["references"]
        if kind == "row":
            table = reply["tables"][step % 2]
            row = dict(table["rows"][0])
            row[table["schema"][0]["name"]] = f"Step {step} method"
            table["rows"].append(row)
        elif kind == "bib":
            # A key whose value is 1, True or "1" by step: 1 == True, yet
            # each renders differently.
            references[0]["bib"]["flag"] = (1, True, "1")[step % 3]
        elif kind == "reorder":
            references[0]["bib"] = dict(reversed(references[0]["bib"].items()))
        elif kind == "renumber":
            references[0], references[1] = references[1], references[0]
            references[0]["number"], references[1]["number"] = 1, 2
        elif kind == "gap":
            references[-1]["number"] += 1
        elif kind == "flag":
            section = reply["sections"][step % 3]
            if section.pop("non_maintained", False) is False:
                section["non_maintained"] = True
        elif kind == "blank":
            # Whitespace never becomes a sentence of its own.
            reply["sections"][step % 3]["text"] += " \u00a0\u2003\t "
        text = _dumps(reply, layout)
        if kind == "truncated":
            text = text[:len(text) // 2]
        elif kind == "shape":
            text = json.dumps({"sections": 5})
        elif kind == "keys":
            text = json.dumps(dict(reversed(reply.items())), indent=2, ensure_ascii=False)
        elif kind == "indent":
            text = json.dumps(reply, indent=1, ensure_ascii=False)
        elif kind == "ascii":
            text = json.dumps(reply, indent=2, ensure_ascii=True)
        elif kind == "junk":  # not JSON: a stray character between two entries
            text = text.replace("\n    },\n    {", "\n    },#    {", 1)
        elif kind == "dupe":  # a repeated key, whose last value counts
            text = text.rstrip()[:-1] + ', "metadata": {"title": "Dupe"}}'
            reply["metadata"] = {"title": "Dupe"}
        if kind not in FAILING_KINDS:
            current = reply
        texts.append(text)
    return texts


def _scripted(instance, method, kinds, layout="tight") -> ScriptedGeneration:
    """Whole-document replies, one per paper, each built on the last good one."""
    replies = _replies(instance.early_state.document, kinds, layout)
    return ScriptedGeneration.from_flat({f"{method}|{paper.id}|0": text
                                         for paper, text in zip(_papers(instance), replies)})


def _assert_same_stream(new, old):
    assert len(new) == len(old)
    for got, want in zip(new, old):
        assert got == want
        assert serialize_document(got.before) == serialize_document(want.before)
        assert serialize_document(got.after) == serialize_document(want.after)


@pytest.mark.parametrize("method", [ONE_STEP, ORACLE])
def test_demo_stream_matches_the_reference_loop(method):
    instance = demo.demo_instance()
    scenario = demo.demo_scenario()
    fresh = lambda: ScriptedGeneration.from_flat(scenario["generation"])  # noqa: E731
    _assert_same_stream(run_method(method, instance, fresh()),
                        _reference_stream(method, instance, fresh()))


def _gapped_instance():
    """The demo instance with each withheld span followed by one more sentence.

    Its early state's sections 2 and 3 have sentence ids with a gap, which
    a parse of their text does not give back (it numbers from 1 on).
    """
    full = demo.demo_full_state()
    doc = full.document
    for section in doc.sections[1:]:
        closed = section.body_text() + " A closing sentence stays here."
        doc = doc.with_additions(make_section(section.id, section.title, closed), ())
    instance = build_instance("gapped", full.with_document(doc), demo.demo_late_papers(),
                              demo.demo_span_annotations(), demo.demo_out_of_scope_papers())
    ids = [int(s.id.rsplit(":", 1)[1]) for s in instance.early_state.document.sections[1].sentences]
    assert ids != list(range(1, len(ids) + 1))
    return instance


_INSTANCES = {"demo": demo.demo_instance, "gapped": _gapped_instance}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([ONE_STEP, ORACLE]), st.sampled_from(sorted(_INSTANCES)),
       st.sampled_from(["tight", "canonical"]),
       st.lists(st.sampled_from(REPLY_KINDS + REVISION_KINDS), min_size=4, max_size=4))
def test_scripted_stream_matches_the_reference_loop(method, name, layout, kinds):
    instance = _INSTANCES[name]()
    _assert_same_stream(
        run_method(method, instance, _scripted(instance, method, kinds, layout)),
        _reference_stream(method, instance, _scripted(instance, method, kinds, layout)))


# Kinds whose canonical reply the revision parse reads without the full parse.
_REVISED_KINDS = ("unchanged", "one", "two", "row", "bib", "reorder", "renumber", "flag", "blank")


def _check_revision_parse(name, layout, kinds):
    previous = _INSTANCES[name]().early_state.document
    for kind, text in zip(kinds, _replies(previous, kinds, layout)):
        serialize_document(previous)  # as a step does: the prompt holds its input
        want = _parse_outcome(lambda: document_from_dict(extract_json_value(text)))
        revised = _parse_outcome(lambda: revise_document(text, previous))
        assert revised is None or revised == want
        if layout == "canonical" and kind in _REVISED_KINDS:
            assert revised is not None
        # A second full parse, which the build memos serve, reads the same.
        assert _parse_outcome(lambda: document_from_dict(extract_json_value(text))) == want
        if type(want[0]) is str:
            previous = want[1]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_INSTANCES)), st.sampled_from(["tight", "canonical"]),
       st.lists(st.sampled_from(REPLY_KINDS + REVISION_KINDS), min_size=1, max_size=8))
def test_revision_parse_matches_the_full_parse(name, layout, kinds):
    _check_revision_parse(name, layout, kinds)


@pytest.mark.parametrize("name", sorted(_INSTANCES))
@pytest.mark.parametrize("kinds", [
    ("bib", "bib", "bib", "bib"),
    ("bib", "reorder", "reorder", "bib"),
    ("flag", "flag", "renumber", "renumber"),
    ("blank", "gap", "junk", "dupe", "one"),
    ("keys", "indent", "ascii", "unchanged"),
])
def test_revision_parse_matches_the_full_parse_on_pinned_streams(name, kinds):
    _check_revision_parse(name, "canonical", kinds)


def test_a_truncated_whole_document_reply_fails_closed():
    # A truncated survey holds complete entries after its first "{": a
    # retry at the next bracket would read one of them as an empty survey.
    # The step must keep its input and name the truncation.
    instance = demo.demo_instance()
    kinds = ("truncated", "one", "truncated", "unchanged")
    results = run_method(ONE_STEP, instance, _scripted(instance, ONE_STEP, kinds, "canonical"))
    assert [r.error for r in results] == [
        "JSON payload is not balanced; close all brackets", None,
        "JSON payload is not balanced; close all brackets", None]
    for result in (results[0], results[2]):
        assert result.after is result.before and not result.abstained


def test_canonical_replies_skip_the_full_parse(monkeypatch):
    calls = []
    for name in ("extract_json_value", "document_from_dict"):
        plain = getattr(benchmark, name)
        monkeypatch.setattr(benchmark, name,
                            lambda *args, plain=plain, name=name: calls.append(name) or plain(*args))
    instance = _gapped_instance()
    kinds = ("unchanged", "bib", "truncated", "one")
    results = run_method(ONE_STEP, instance, _scripted(instance, ONE_STEP, kinds, "canonical"))
    assert [r.error is None for r in results] == [True, True, False, True]
    assert calls == ["extract_json_value"]
    # The first reply leaves every section as it was, yet the parse gives
    # the gapped sections dense ids, as the full parse does.
    before, after = results[0].before, results[0].after
    assert after.sections[0] is before.sections[0]
    assert after.sections[1] != before.sections[1]
    assert after.sections[1].body_text() == before.sections[1].body_text()


@pytest.mark.parametrize("kinds", [
    ("one", "truncated", "two", "shape"),
    ("unchanged", "one", "two", "one"),
    ("truncated", "shape", "truncated", "shape"),
])
def test_one_serialize_per_step_that_did_not_fail_closed(monkeypatch, kinds):
    instance = demo.demo_instance()
    calls = []
    plain = benchmark.serialize_document
    monkeypatch.setattr(benchmark, "serialize_document",
                        lambda doc: calls.append(doc) or plain(doc))
    results = run_method(ONE_STEP, instance, _scripted(instance, ONE_STEP, kinds))
    assert len(calls) == 1 + sum(r.error is None for r in results)


@pytest.mark.parametrize("kinds", [
    ("two", "one", "unchanged", "one"),
    ("one", "truncated", "two", "unchanged"),
    ("row", "one", "row", "row"),
    ("two", "row", "truncated", "unchanged"),
])
def test_a_step_renders_only_the_sections_its_reply_changed(monkeypatch, kinds):
    document.make_section.cache_clear()
    document._shared_reference.cache_clear()
    document._shared_table.cache_clear()
    instance = demo.demo_instance()
    generator = _scripted(instance, ONE_STEP, kinds)
    renders = {"sections": 0, "tables": 0, "references": 0}
    kinds_by_entry = {document._section_entry: "sections", document._table_entry: "tables",
                      document._reference_entry: "references"}
    render = document._render

    def counted(obj, entry):
        renders[kinds_by_entry[entry]] += 1
        return render(obj, entry)

    monkeypatch.setattr(document, "_render", counted)
    per_document = {}
    plain = benchmark.serialize_document

    def serialize(doc):
        before = dict(renders)
        text = plain(doc)
        per_document.setdefault(id(doc), {}).update(
            {k: renders[k] - before[k] for k in renders})
        return text

    checked = []
    check_row = SurveyTable.check_row
    monkeypatch.setattr(SurveyTable, "check_row",
                        lambda table, row: checked.append(table.id) or check_row(table, row))
    parse = benchmark.document_from_dict

    def from_dict(data):
        start = len(checked)
        doc = parse(data)
        per_document.setdefault(id(doc), {})["checked"] = checked[start:]
        return doc

    monkeypatch.setattr(benchmark, "serialize_document", serialize)
    monkeypatch.setattr(benchmark, "document_from_dict", from_dict)
    results = run_method(ONE_STEP, instance, generator)
    early = instance.early_state.document
    assert per_document[id(early)] == {"sections": len(early.sections),
                                       "tables": len(early.tables),
                                       "references": len(early.references)}
    # From the second step on, every reference is the memoised object the
    # first parsed reply built, and the replies change no reference. A
    # table is rendered, tokenized and row-checked only when the reply
    # changed it.
    tokenized = []
    memo_tokens = text.memo_tokens
    monkeypatch.setattr(text, "memo_tokens", lambda value: tokenized.append(value) or
                        memo_tokens(value))
    for result in results:
        document.document_regions(result.before)
        tokenized.clear()
        document.document_regions(result.after)
        if result is results[0] or result.error is not None:
            continue
        changed = sum(s != result.before.section(s.id) for s in result.after.sections)
        new_tables = [t for t in result.after.tables if t is not result.before.table(t.id)]
        assert all(t != result.before.table(t.id) for t in new_tables)
        counts = per_document[id(result.after)]
        assert counts["sections"] <= changed
        assert counts["references"] == 0
        assert counts["tables"] == len(new_tables)
        assert counts["checked"] == [t.id for t in new_tables for _ in t.rows]
        # Tokenizing a table starts with its title.
        titles = {t.title for t in result.after.tables}
        assert [text for text in tokenized if text in titles] == [t.title for t in new_tables]
    assert renders["tables"] > len(early.tables) or "row" not in kinds


def test_consecutive_documents_share_unchanged_sections():
    instance = demo.demo_instance()
    results = run_method(ONE_STEP, instance,
                         _scripted(instance, ONE_STEP, ("two", "one", "unchanged", "one")))
    shared = changed = 0
    for result in results[1:]:  # the first input was built, not parsed
        for section in result.after.sections:
            old = result.before.section(section.id)
            if section == old:
                assert section is old
                shared += 1
            else:
                changed += 1
    assert shared and changed


def test_consecutive_documents_share_unchanged_tables():
    instance = demo.demo_instance()
    results = run_method(ONE_STEP, instance,
                         _scripted(instance, ONE_STEP, ("row", "one", "unchanged", "row")))
    shared = changed = 0
    for result in results:
        for table in result.after.tables:
            old = result.before.table(table.id)
            if table == old:
                assert table is old
                shared += 1
            else:
                changed += 1
    assert shared and changed
