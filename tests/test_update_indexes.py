"""The update path's indexes against the scans they replace.

A document keeps a section id -> position index and a reference key ->
position index, a section its next sentence counter, an outline its
routing section list. The documents of a lineage share one reference
index, each reading its own prefix of it; a derivation from an older
version gets a copy. The copies below are the lookups as they were
before the indexes: every derivation, branch and failed step must leave
the indexed lookups giving what they give. A merge checks its additions
and derives its document in one call (``with_additions``, the one
derivation of a document); the scans that replace a section, append a row
and check the additions are its reference.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from dataclasses import replace
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import demo, document
from dynsurvey.agents import APPEND, approve_outline
from dynsurvey.corpus import bib_key
from dynsurvey.document import (
    ColumnSpec,
    Reference,
    Section,
    Sentence,
    StructuredOutline,
    SurveyDocument,
    make_table,
    serialize_document,
    validate_document,
    validate_state,
)
from dynsurvey.engine import (
    CITE_PLACEHOLDER,
    UpdateRecord,
    _merge,
    apply_update,
    insert_paragraph,
    make_step_clock,
    replay_update,
    resolve_citations,
)
from dynsurvey.errors import CitationError, DocumentIntegrityError

from conftest import make_paper

# --- the lookups before the indexes ------------------------------------------


def old_section(doc: SurveyDocument, section_id: str) -> Section:
    for section in doc.sections:
        if section.id == section_id:
            return section
    raise KeyError(f"no section {section_id!r}")


def old_replace_section(doc: SurveyDocument, new_section: Section) -> SurveyDocument:
    sections = tuple(new_section if s.id == new_section.id else s for s in doc.sections)
    return replace(doc, sections=sections)


def old_append_table_row(doc: SurveyDocument, table_id: str, row: dict) -> tuple:
    for table in doc.tables:
        if table.id == table_id:
            break
    else:
        raise KeyError(f"no table {table_id!r}")
    problems = table.check_row(row)
    if problems:
        raise DocumentIntegrityError("; ".join(problems))
    frozen = MappingProxyType({column.name: row[column.name] for column in table.schema})
    return tuple(replace(t, rows=t.rows + (frozen,)) if t.id == table_id else t
                 for t in doc.tables)


def old_next_sentence_counter(section: Section) -> int:
    counters = [int(s.id.rsplit(":", 1)[1]) for s in section.sentences]
    return max(counters, default=0) + 1


def old_resolve_citations(draft, bib, references):
    count = draft.count(CITE_PLACEHOLDER)
    if count == 0:
        return draft, references, ()
    if not bib:
        raise CitationError("draft contains a [cite] placeholder but no bib entry was provided")
    key = bib_key(bib)
    number = next((r.number for r in references if r.key == key), None)
    if number is None:
        number = len(references) + 1
        fields = {k: v for k, v in bib.items() if k != "key"}
        references = (*references, Reference(key=key, number=number, bib=fields))
    return draft.replace(CITE_PLACEHOLDER, f"[{number}]"), references, (key,) * count


def old_validate_additions(section, inserted_ids, references, appended_from) -> None:
    if inserted_ids:
        wanted = set(inserted_ids)
        seen: set[str] = set()
        for sentence in section.sentences:
            if sentence.id in wanted:
                if sentence.id in seen:
                    raise DocumentIntegrityError(
                        f"duplicate sentence ids in section {section.id!r}")
                seen.add(sentence.id)
                if not sentence.text.strip():
                    raise DocumentIntegrityError(
                        f"empty sentence {sentence.id!r} in section {section.id!r}")
    if appended_from < len(references):
        keys = {r.key for r in references[:appended_from]}
        for number, reference in enumerate(references[appended_from:], start=appended_from + 1):
            if reference.number != number:
                raise DocumentIntegrityError(
                    f"appended reference {reference.key!r} has number {reference.number}, "
                    f"expected {number} for dense 1..n")
            if reference.key in keys:
                raise DocumentIntegrityError(f"duplicate reference keys: {reference.key!r}")
            keys.add(reference.key)


# --- helpers ------------------------------------------------------------------

_KEYS = ("k1", "k2", "k3", "new1", "new2", "new3")
_SECTION_IDS = ("a", "b", "c", "missing")
_TABLE = make_table("t", "T", (ColumnSpec("Name"), ColumnSpec("Score", "int", minimum=1,
                                                               maximum=5)), [])


def _outcome(call):
    try:
        return ("ok", call())
    except (KeyError, CitationError, DocumentIntegrityError) as exc:
        return (type(exc).__name__, str(exc))


def _resolved(draft: str, key: str, doc: SurveyDocument, indexed: bool):
    bib = {"key": key, "title": key.upper()}
    if indexed:
        def resolved():
            text, tail, keys = resolve_citations(draft, bib, doc)
            return text, doc.references + tail, keys
        return _outcome(resolved)
    return _outcome(lambda: old_resolve_citations(draft, bib, doc.references))


def _assert_lookups_agree(docs: list[SurveyDocument]) -> None:
    """Every key and section id reads through the indexes as through the scans."""
    for doc in docs:
        for key in _KEYS:
            assert _resolved("x [cite]", key, doc, True) == _resolved("x [cite]", key, doc, False)
        for section_id in _SECTION_IDS:
            assert _outcome(lambda: doc.section(section_id)) == \
                _outcome(lambda: old_section(doc, section_id))
        for section in doc.sections:
            assert section.next_sentence_counter() == old_next_sentence_counter(section)


def _document(section_ids, counters, reference_count: int) -> SurveyDocument:
    sections = tuple(
        Section(id=sid, title=sid.upper(),
                sentences=tuple(Sentence(f"{sid}:{c}", f"Sentence {c}.") for c in counts))
        for sid, counts in zip(section_ids, counters))
    references = tuple(Reference(key=f"k{n}", number=n, bib={})
                       for n in range(1, reference_count + 1))
    return SurveyDocument({}, sections, (_TABLE,), references)


def _step(doc: SurveyDocument, section_id: str, key: str, row: dict | None = None):
    """``engine._merge``'s derivation, checked against the scans as it goes.

    Returns the derived document, or None when the step fails: a failed
    check raises before anything is derived, so the reference index is not
    grown.
    With repeated section ids, which ``validate_document`` rejects wherever
    a document enters, ``with_additions`` replaces the first section of
    the id only.
    """
    draft = f"Claim of {key} [cite]. More."
    outcome = _resolved(draft, key, doc, True)
    assert outcome == _resolved(draft, key, doc, False)
    text, references, _ = outcome[1]
    section = doc.section(section_id)
    assert section is old_section(doc, section_id)
    counter = old_next_sentence_counter(section)
    new_section, inserted = insert_paragraph(section, APPEND, text)
    assert inserted == (f"{section_id}:{counter}", f"{section_id}:{counter + 1}")
    assert new_section.next_sentence_counter() == old_next_sentence_counter(new_section)
    ids = [s.id for s in doc.sections]
    if len(set(ids)) == len(ids):
        sections = old_replace_section(doc, new_section).sections
    else:
        with pytest.raises(DocumentIntegrityError, match="duplicate section ids"):
            validate_document(doc)
        position = ids.index(section_id)
        sections = (*doc.sections[:position], new_section, *doc.sections[position + 1:])
    tables = _outcome(lambda: doc.tables if row is None else old_append_table_row(doc, "t", row))
    if tables[0] == "ok":
        tables = _outcome(lambda: old_validate_additions(
            new_section, inserted, references, len(doc.references)) or tables[1])
    kept = doc._reference_positions
    kept_items = None if kept is None else (dict(kept), kept.count)
    tail = references[len(doc.references):]
    merged = _outcome(lambda: doc.with_additions(new_section, inserted, tail, "t", row))
    assert doc._reference_positions is kept
    if tables[0] != "ok":
        assert merged == tables
        assert kept_items is None or (dict(kept), kept.count) == kept_items
        return None
    assert merged[0] == "ok"
    derived = merged[1]
    expected = SurveyDocument(doc.metadata, sections, tables[1], references)
    assert derived == expected
    assert serialize_document(derived) == serialize_document(expected)
    assert derived._section_positions is doc._section_positions
    return derived


# --- named cases ---------------------------------------------------------------


def test_a_key_appended_by_a_failed_step_stays_invisible_to_the_state_it_keeps():
    parent = _document("abc", [(1, 2), (1,), ()], 2)
    assert _step(parent, "a", "new1", row={"Name": "x", "Score": 9}) is None
    # The row failed the step before its derivation could grow the
    # parent's index by new1 -> 3.
    assert parent.reference_position("new1") is None
    second = _step(parent, "b", "new2")
    third = _step(second, "c", "new1")
    assert [r.key for r in third.references] == ["k1", "k2", "new2", "new1"]
    _assert_lookups_agree([parent, second, third])


def test_a_key_seen_twice_keeps_its_number():
    doc = _document("abc", [(1,), (1,), (1,)], 1)
    for key in ("new1", "k1", "new1", "new2", "new1"):
        doc = _step(doc, "a", key)
    assert [r.key for r in doc.references] == ["k1", "new1", "new2"]
    assert doc.section("a").sentences[-2].text == "Claim of new1 [2]."
    _assert_lookups_agree([doc])


def test_two_branches_from_one_parent_never_see_each_others_keys():
    parent = _document("abc", [(1,), (2,), (3,)], 1)
    left = _step(parent, "a", "new1")
    right = _step(parent, "b", "new2")
    # Both branches gave number 2 to their own key.
    right_again = _step(right, "c", "new1")
    assert (parent.reference_position("new1"), parent.reference_position("new2")) == (None, None)
    assert (left.reference_position("new1"), left.reference_position("new2")) == (2, None)
    assert (right_again.reference_position("new1"),
            right_again.reference_position("new2")) == (3, 2)
    _assert_lookups_agree([parent, left, right, right_again])


def test_repeated_section_ids_are_rejected_and_read_as_the_first():
    doc = _document(["a", "b", "a"], [(1,), (1,), (5,)], 0)
    with pytest.raises(DocumentIntegrityError, match="duplicate section ids"):
        validate_document(doc)
    assert doc.section("a") is doc.sections[0]
    grown = Section("a", "A", (Sentence("a:9", "New."),))
    assert doc.with_additions(grown, ("a:9",), ()).sections == (grown, *doc.sections[1:])
    _assert_lookups_agree([doc, doc.with_additions(grown, ("a:9",), ())])


def test_an_unknown_id_or_a_rejected_row_raises_before_anything_is_derived(monkeypatch):
    # An unknown section id raises too; a derivation that kept the same
    # sections for it would append a paper's reference with no sentence.
    parent = _document("abc", [(1,), (2,), ()], 2)
    assert parent.reference_position("k2") == 2  # build the index a derivation grows
    index = parent._reference_positions
    before = (dict(index), index.count)
    built = []
    init = SurveyDocument.__init__
    monkeypatch.setattr(SurveyDocument, "__init__",
                        lambda doc, *args: built.append(doc) or init(doc, *args))
    grown = Section("a", "A", (Sentence("a:9", "New."),))
    tail = (Reference("new1", 3, {}),)
    with pytest.raises(KeyError, match="no section 'd'"):
        parent.with_additions(Section("d", "D", ()), (), tail)
    with pytest.raises(KeyError, match="no table 'u'"):
        parent.with_additions(grown, ("a:9",), tail, "u", {"Name": "x", "Score": 3})
    with pytest.raises(KeyError, match="no table 'u'"):  # with or without a row
        parent.with_additions(grown, ("a:9",), tail, "u")
    with pytest.raises(DocumentIntegrityError, match="above maximum"):
        parent.with_additions(grown, ("a:9",), tail, "t", {"Name": "x", "Score": 9})
    assert built == []
    assert (dict(index), index.count) == before
    # The parent is still its lineage's latest version, so a derivation
    # grows the same index in place.
    child = parent.with_additions(grown, ("a:9",), tail, "t", {"Name": "x", "Score": 3})
    assert len(built) == 1 and child._reference_positions is index
    assert (parent.reference_position("new1"), child.reference_position("new1")) == (None, 3)


@pytest.mark.parametrize("inserted, tail, message", [
    ((Sentence("a:9", "New."), Sentence("a:9", "Again.")), (Reference("new1", 3, {}),),
     "duplicate sentence ids"),
    ((Sentence("a:9", " "),), (Reference("new1", 3, {}),), "empty sentence 'a:9'"),
    ((Sentence("a:9", "New."),), (Reference("new1", 4, {}),), "dense"),
    ((Sentence("a:9", "New."),), (Reference("new1", 3, {}), Reference("new1", 4, {})),
     "duplicate reference keys"),
    ((Sentence("a:9", "New."),), (Reference("k1", 3, {}),), "duplicate reference keys"),
])
def test_a_failed_addition_check_leaves_the_parents_index_as_it_was(monkeypatch, inserted,
                                                                     tail, message):
    parent = _document("abc", [(1,), (2,), ()], 2)
    assert parent.reference_position("k2") == 2  # build the index a derivation grows
    index = parent._reference_positions
    before = (dict(index), index.count)
    built = []
    init = SurveyDocument.__init__
    monkeypatch.setattr(SurveyDocument, "__init__",
                        lambda doc, *args: built.append(doc) or init(doc, *args))
    section = parent.section("a")
    grown = replace(section, sentences=section.sentences + inserted)
    with pytest.raises(DocumentIntegrityError, match=message):
        parent.with_additions(grown, tuple(s.id for s in inserted), tail)
    assert built == []
    assert parent._reference_positions is index
    assert (dict(index), index.count) == before


def test_a_lineage_shares_one_reference_index_and_a_branch_copies_it():
    def lookups(doc):
        return [doc.reference_position(key) for key in ("k1", "k2", "new1", "new2", "new3")]

    def merged(doc, key, section_id):
        return _merge(doc, make_paper(key, bib={"key": key}), section_id, APPEND,
                      f"Claim of {key} [cite].", None, None)[0]

    parent = _document("abc", [(1,), (2,), ()], 2)
    assert lookups(parent) == [1, 2, None, None, None]
    index = parent._reference_positions
    child = merged(parent, "new1", "a")
    grandchild = merged(child, "new2", "b")
    again = merged(grandchild, "new1", "c")  # a key cited again appends nothing
    # Extending merges grow the one index in place.
    assert child._reference_positions is index
    assert grandchild._reference_positions is index and again._reference_positions is index
    # An older version never sees a later key.
    assert lookups(parent) == [1, 2, None, None, None]
    assert lookups(child) == [1, 2, 3, None, None]
    assert lookups(grandchild) == lookups(again) == [1, 2, 3, 4, None]
    # A branch from a version that is not the index's latest gets an index
    # of its own, and neither side sees the other's keys.
    branch = merged(child, "new3", "c")
    assert branch._reference_positions is not index
    assert lookups(branch) == [1, 2, 3, None, 4]
    assert lookups(grandchild) == [1, 2, 3, 4, None]
    twig = merged(branch, "new2", "a")
    assert twig._reference_positions is branch._reference_positions
    assert lookups(twig) == [1, 2, 3, 5, 4]
    _assert_lookups_agree([parent, child, grandchild, again, branch, twig])


def test_lineages_that_race_from_one_document_each_see_only_their_own_keys():
    # In each round every thread derives a chain from one new parent at
    # once: one chain grows the parent's index in place while the others
    # copy it.
    parents = []

    def new_parent() -> None:
        parent = _document("abc", [(1,), (2,), ()], 2)
        assert parent.reference_position("k2") == 2  # build the index the threads share
        parents.append(parent)

    rounds, threads_count = 40, 8
    start = threading.Barrier(threads_count, action=new_parent, timeout=30)
    finals = {}

    def derive(thread: int) -> None:
        try:
            for round_ in range(rounds):
                start.wait()
                doc = parents[round_]
                for step in range(10):
                    tail = (Reference(f"t{thread}-{step}", len(doc.references) + 1, {}),)
                    doc = doc.with_additions(doc.sections[0], (), tail)
                finals[thread, round_] = doc
        except BaseException:
            start.abort()  # the other threads stop waiting for this one
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=derive, args=(n,)) for n in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finals) == threads_count * rounds
    for (thread, round_), doc in finals.items():
        for other in range(threads_count):
            for step in (0, 9):
                expected = 3 + step if other == thread else None
                assert doc.reference_position(f"t{other}-{step}") == expected
    assert all(parent.reference_position("t0-0") is None for parent in parents)


# --- the differential ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_indexed_lookups_match_the_scans_along_any_lineage(data):
    section_ids = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=4))
    counters = [data.draw(st.lists(st.integers(1, 9), unique=True, max_size=3))
                for _ in section_ids]
    pool = [_document(section_ids, counters, data.draw(st.integers(0, 3)))]
    for _ in range(data.draw(st.integers(1, 10))):
        parent = pool[data.draw(st.integers(0, len(pool) - 1))]
        section_id = data.draw(st.sampled_from(section_ids))
        key = data.draw(st.sampled_from(_KEYS))
        row = data.draw(st.sampled_from([None, {"Name": "x", "Score": 3},
                                         {"Name": "x", "Score": 9}]))
        derived = _step(parent, section_id, key, row)
        if derived is not None and data.draw(st.booleans()):
            pool.append(derived)  # else a step that failed after its merge
        # An arbitrary appended tail.
        doc = data.draw(st.sampled_from(pool))
        tail = data.draw(st.lists(st.tuples(st.sampled_from(_KEYS), st.integers(-1, 1)),
                                  max_size=3))
        references = doc.references + tuple(
            Reference(key, len(doc.references) + 1 + i + offset, {})
            for i, (key, offset) in enumerate(tail))
        section = doc.sections[0]
        kept = doc._reference_positions
        kept_items = None if kept is None else (dict(kept), kept.count)
        outcome = _outcome(
            lambda: doc.with_additions(section, (), references[len(doc.references):]).references)
        assert outcome == _outcome(lambda: old_validate_additions(
            section, (), references, len(doc.references)) or references)
        if outcome[0] != "ok":
            assert kept_items is None or (dict(kept), kept.count) == kept_items
        _assert_lookups_agree(pool)


# --- the indexes survive a stream ---------------------------------------------------


class _StreamGeneration:
    """Replies for a stream of papers: ``plans`` maps a paper id to its step."""

    max_retries = 0

    def __init__(self, plans: dict[str, dict]):
        self.plans = plans

    def generate(self, request) -> str:
        paper_id, _, table_id = request.key.partition(":")
        plan = self.plans[paper_id]
        replies = {
            "analysis": "### Methods\nM.\n### Novelty\nN.\n### Results\nR.",
            "abstention": "TRUE",
            "section_routing": plan["ranking"],
            "insertion_point": "append",
            "table_routing": "yes" if table_id == plan.get("table") else "no",
            "text_synthesis": f"Method {paper_id} [cite]: it works. It is fast.",
            "table_synthesis": json.dumps(plan.get("row")),
        }
        return replies[request.role]


def _stream_plans() -> dict[str, dict]:
    plans = {}
    for i in range(36):
        first = str(i % 3 + 1)
        plan = {"ranking": json.dumps([first] + [s for s in "123" if s != first])}
        if i % 3 == 0:
            plan.update(table="t1", row={"Method": f"M{i}", "Domain": "Hybrid",
                                         "Supervision": "None", "Score": 3})
        elif i % 5 == 0:
            plan.update(table="t2", row={"Dataset": f"D{i}", "Scenes": 10, "Noise": "Real"})
        plans[f"p{i}"] = plan
    plans["p10"]["ranking"] = "no ranking"  # a failed step
    return plans


def _run_stream(state, fresh_indexes: bool):
    """36 papers, a failed step, a key cited twice, and replays that fail after
    their merge appended a key; with ``fresh_indexes`` every step starts from
    a copy of the document without its indexes."""
    generator = _StreamGeneration(_stream_plans())
    clock = make_step_clock()
    records = []
    for i in range(36):
        if fresh_indexes:
            state = state.with_document(replace(state.document))
        bib = {"key": "key_p4" if i == 20 else f"key_p{i}", "title": f"T{i}"}
        paper = make_paper(f"p{i}", bib=bib)
        state, record = apply_update(state, paper, generator, clock)
        records.append(record)
        if i in (15, 16):
            # Replays whose recorded ids disagree fail after the merge, with
            # key_late appended to a document the state does not keep.
            late = UpdateRecord(paper_id="late", decision="updated", routed_section="2",
                                draft_text="Late [cite].", inserted_sentence_ids=("2:999",))
            with pytest.raises(DocumentIntegrityError, match="produced sentence ids"):
                replay_update(state, late, make_paper("late", bib={"key": "key_late"}))
    late = make_paper("late", bib={"key": "key_late"})
    generator.plans["late"] = {"ranking": '["2", "1", "3"]'}
    state, record = apply_update(state, late, generator, clock)
    return state, records + [record]


def test_the_indexes_are_built_once_per_loaded_document(monkeypatch):
    builds = {"sections": 0, "references": 0, "outline": 0}
    first_positions = document._first_positions

    def counted_positions(ids, start):
        builds["references" if start else "sections"] += 1
        return first_positions(ids, start)

    section_ids = StructuredOutline.section_ids

    def counted_section_ids(outline):
        builds["outline"] += 1
        return section_ids(outline)

    monkeypatch.setattr(document, "_first_positions", counted_positions)
    monkeypatch.setattr(StructuredOutline, "section_ids", counted_section_ids)
    state, records = _run_stream(demo.demo_full_state(), fresh_indexes=False)
    assert builds == {"sections": 1, "references": 1, "outline": 1}

    decisions = [r.decision for r in records]
    assert decisions.count("failed") == 1 and decisions.count("updated") == 36
    assert sum(r.inserted_row is not None for r in records) == 16
    keys = [r.key for r in state.document.references]
    # The demo's 10, 36 papers less the failed one and the repeated key, and key_late.
    assert len(keys) == len(set(keys)) == 10 + 36 - 2 + 1
    assert records[20].resolved_citation_keys == ("key_p4",)
    assert records[-1].resolved_citation_keys == ("key_late",)
    assert keys[-1] == "key_late"

    monkeypatch.undo()
    fresh_state, fresh_records = _run_stream(demo.demo_full_state(), fresh_indexes=True)
    assert serialize_document(state.document) == serialize_document(fresh_state.document)
    assert records == fresh_records


def plain_section_list(outline: StructuredOutline) -> str:
    return "\n".join(f"{e.id}: {e.section_title} -- {e.summary}" for e in outline.section_entries)


def test_the_routing_sections_are_built_once_per_outline(monkeypatch):
    builds = Counter()
    section_ids = StructuredOutline.section_ids

    def counted_section_ids(outline):
        builds[id(outline)] += 1
        return section_ids(outline)

    monkeypatch.setattr(StructuredOutline, "section_ids", counted_section_ids)
    state = demo.demo_full_state()
    outline = state.outline
    final, records = _run_stream(state, fresh_indexes=False)
    assert final.outline is outline
    assert sum(r.decision == "updated" for r in records) == 36
    kept = outline.routing_sections()
    validate_state(final)
    assert outline.routing_sections() is kept
    assert builds == {id(outline): 1}

    # ``approve_outline`` derives a new outline through ``replace``, which
    # starts without the kept pair; the approved one builds its own.
    draft = demo.demo_outline(approved=False)
    assert draft.routing_sections() == kept
    approved = approve_outline(draft)
    assert approved is not draft and approved._routing is None
    assert approved.routing_sections() == kept
    assert approved.routing_sections() is approved.routing_sections()
    assert builds == {id(outline): 1, id(draft): 1, id(approved): 1}


def test_the_routing_sections_equal_the_plain_render():
    for outline in (demo.demo_outline(), StructuredOutline((), ())):
        section_list, ids = outline.routing_sections()
        assert section_list == plain_section_list(outline)
        assert ids == frozenset(e.id for e in outline.section_entries)
