"""The per-step delta check agrees with the whole-document check.

``SurveyDocument.with_additions`` reads only what a step adds: the
appended tail of the reference list, and the sentences of a new section
that is not checked. A section ``Section.with_inserted`` grows from a
checked one is checked by construction. Starting from a valid document,
``with_additions`` must raise exactly when ``validate_document`` raises
on the same document built directly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import document
from dynsurvey.document import (
    Reference,
    Section,
    Sentence,
    SurveyDocument,
    make_section,
    validate_document,
)
from dynsurvey.errors import DocumentIntegrityError


def _document(sentence_counts: list[int], reference_count: int) -> SurveyDocument:
    sections = tuple(
        make_section(str(i), f"S{i}", " ".join(f"Sentence {j} of {i}." for j in range(count)))
        for i, count in enumerate(sentence_counts, start=1))
    references = tuple(
        Reference(key=f"k{n}", number=n, bib={}) for n in range(1, reference_count + 1))
    return SurveyDocument(metadata={}, sections=sections, tables=(), references=references)


def _apply(
    doc: SurveyDocument,
    section_id: str,
    position: int,
    inserted: list[Sentence],
    appended: list[Reference],
) -> tuple[SurveyDocument, Section]:
    """The step's document built directly, without a check, and its new section."""
    section = doc.section(section_id)
    sentences = section.sentences[:position] + tuple(inserted) + section.sentences[position:]
    new_section = replace(section, sentences=sentences)
    sections = tuple(new_section if s.id == section_id else s for s in doc.sections)
    return replace(doc, sections=sections, references=doc.references + tuple(appended)), \
        new_section


def _raises(check, *args) -> bool:
    try:
        check(*args)
    except DocumentIntegrityError:
        return True
    return False


@st.composite
def steps(draw):
    doc = _document(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)),
                    draw(st.integers(0, 4)))
    validate_document(doc)
    section = draw(st.sampled_from(doc.sections))
    position = draw(st.integers(0, len(section.sentences)))
    # Fresh ids, ids already in the routed section, and ids of other
    # sections (sentence ids only need to be unique within a section).
    id_pool = [f"{section.id}:{100 + i}" for i in range(3)]
    id_pool += [s.id for other in doc.sections for s in other.sentences]
    inserted = draw(st.lists(
        st.builds(Sentence,
                  id=st.sampled_from(id_pool),
                  text=st.sampled_from(["New claim.", "Another one.", "", "  ", "\t\n"])),
        max_size=4))
    keys = [r.key for r in doc.references] + ["new1", "new2", "new3"]
    tail = draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(-1, 1)), max_size=3))
    first = len(doc.references) + 1
    appended = [Reference(key=key, number=first + i + offset, bib={})
                for i, (key, offset) in enumerate(tail)]
    return doc, section.id, position, inserted, appended


@settings(max_examples=400, deadline=None)
@given(steps())
def test_delta_check_raises_exactly_when_the_full_check_does(step):
    doc, section_id, position, inserted, appended = step
    new_doc, new_section = _apply(doc, section_id, position, inserted, appended)
    expected = _raises(validate_document, new_doc)
    observed = _raises(doc.with_additions, new_section, tuple(appended))
    assert observed == expected


_FRESH = [Sentence("1:10", "Fresh claim.")]
_NEXT = [Reference("new", 3, {})]


@pytest.mark.parametrize("inserted, appended, message", [
    ([Sentence("1:10", "A."), Sentence("1:10", "B.")], [], "duplicate sentence ids"),
    ([Sentence("1:2", "Reused id.")], [], "duplicate sentence ids"),
    ([Sentence("1:10", "   ")], [], "empty sentence"),
    (_FRESH, [Reference("new", 4, {})], "dense"),
    (_FRESH, [Reference("new", 3, {}), Reference("other", 3, {})], "dense"),
    (_FRESH, [Reference("k1", 3, {})], "duplicate reference keys"),
    (_FRESH, [Reference("new", 3, {}), Reference("new", 4, {})], "duplicate reference keys"),
])
def test_each_broken_invariant_is_caught(inserted, appended, message):
    doc = _document([3, 2], 2)
    new_doc, new_section = _apply(doc, "1", 1, inserted, appended)
    with pytest.raises(DocumentIntegrityError):
        validate_document(new_doc)
    with pytest.raises(DocumentIntegrityError, match=message):
        doc.with_additions(new_section, tuple(appended))


def test_a_valid_step_passes_and_may_reuse_ids_of_other_sections():
    doc = _document([3, 2], 2)
    inserted = [Sentence("1:4", "Fresh claim."), Sentence("2:1", "Same id, other section.")]
    new_doc, new_section = _apply(doc, "1", 3, inserted, _NEXT)
    validate_document(new_doc)
    assert doc.with_additions(new_section, tuple(_NEXT)) == new_doc


def _checks(monkeypatch) -> list[str]:
    """The ids of the sections whose sentences ``validate_document`` reads from now on."""
    checked: list[str] = []
    plain = Section._check_sentences
    monkeypatch.setattr(Section, "_check_sentences",
                        lambda section: checked.append(section.id) or plain(section))
    return checked


def test_a_step_on_a_checked_section_leaves_it_checked(monkeypatch):
    doc = _document([3, 2], 1)
    validate_document(doc)
    section = doc.section("1")
    grown = section.with_inserted(1, ["New claim.", "Another one."])
    assert grown.sentence_ids() == ("1:1", "1:4", "1:5", "1:2", "1:3")
    # Checked by construction: neither the merge nor the whole check reads it.
    assert grown.next_sentence_counter() == 6 and grown._checked
    checked = _checks(monkeypatch)
    merged = doc.with_additions(grown, ())
    document.validate_document(merged)
    assert checked == []
    # A blank text leaves the grown section unchecked, and the merge reads it whole.
    blank = section.with_inserted(1, ["New claim.", " "])
    assert not blank._checked
    with pytest.raises(DocumentIntegrityError, match="empty sentence '1:5'"):
        doc.with_additions(blank, ())
    assert checked == ["1"]


def test_a_step_on_an_unchecked_section_checks_it_whole(monkeypatch):
    # A section built directly with a blank sentence, which no whole check
    # has read: a section grown from it is not checked, so the merge reads
    # all of its sentences, the parent's too.
    blank = Section("1", "S", (Sentence("1:1", "Fine."), Sentence("1:2", " ")))
    doc = SurveyDocument({}, (blank,), (), ())
    grown = blank.with_inserted(2, ["New claim."])
    assert not grown._checked
    checked = _checks(monkeypatch)
    with pytest.raises(DocumentIntegrityError, match="empty sentence '1:2'"):
        doc.with_additions(grown, ())
    assert checked == ["1"]
    # Grown from an unchecked but valid section, it is checked once, by the merge.
    fine = Section("1", "S", (Sentence("1:1", "Fine."),))
    grown = fine.with_inserted(1, ["New claim."])
    merged = SurveyDocument({}, (fine,), (), ()).with_additions(grown, ())
    assert grown._checked and checked == ["1", "1"]
    document.validate_document(merged)
    assert checked == ["1", "1"]


# Sentence ids of hand-built parents: any prefix, the section's id or
# another, colons included, and counters gapped and in any order.
_PREFIXES = ["s", "a:b", "a", "b:2"]
_TEXTS = ["New claim.", "Another one.", "", " ", "\t\n"]


@st.composite
def parents(draw):
    section_id = draw(st.sampled_from(_PREFIXES))
    ids = draw(st.lists(
        st.builds("{}:{}".format, st.sampled_from(_PREFIXES), st.integers(0, 40)),
        unique=True, max_size=6))
    section = Section(section_id, "S", tuple(Sentence(i, f"Claim {i}.") for i in ids))
    return section, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(parents(), st.lists(st.sampled_from(_TEXTS), max_size=3))
def test_inserted_ids_are_fresh_and_a_grown_section_is_checked_by_construction(parent, texts):
    section, checked = parent
    doc = SurveyDocument({}, (section,), (), ())
    if checked:
        validate_document(doc)
    old_ids = set(section.sentence_ids())
    blank = not all(text.strip() for text in texts)
    for position in range(len(section.sentences) + 1):
        grown = section.with_inserted(position, texts)
        assert grown.sentence_ids() == tuple(s.id for s in grown.sentences)
        added = grown.sentence_ids()[position:position + len(texts)]
        assert len(set(added)) == len(added) and not old_ids & set(added)
        assert [s.text for s in grown.sentences[position:position + len(texts)]] == texts
        assert grown._checked == (checked and not blank)
        if blank:
            with pytest.raises(DocumentIntegrityError, match="empty sentence") as merge_error:
                doc.with_additions(grown, ())
            with pytest.raises(DocumentIntegrityError) as full_error:
                validate_document(SurveyDocument({}, (grown,), (), ()))
            assert str(merge_error.value) == str(full_error.value)
        else:
            validate_document(doc.with_additions(grown, ()))
