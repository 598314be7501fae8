"""The revision parse's whole-list reuse against the entry-by-entry parse it replaced.

``per_entry_revised_entries`` below is ``document._revised_entries`` as it
was before a kept list was compared whole: entry ``i`` is ``known[i]``
when its kept entry stands there byte for byte and reads back, any other
entry is decoded. ``revise_document`` must read every reply as the full
parse reads it, and take by identity exactly the entries the per-entry
parse takes: each input entry that stands unchanged where it was. It
must give None exactly where the full parse's ``validate_document``
raises.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import document, jsonio
from dynsurvey.document import (
    document_from_dict,
    document_to_dict,
    revise_document,
    serialize_document,
)
from dynsurvey.errors import DocumentIntegrityError, DocumentParseError
from dynsurvey.parsing import ParseFailure, extract_json_value

from test_document import _parse_outcome

# --- reference implementation -----------------------------------------------


def per_entry_revised_entries(text, pos, known, reparses, read):
    if text.startswith("[]", pos):
        return [], pos + 2
    pos = document._after(text, pos, "[\n")
    entries = []
    while True:
        old = known[len(entries)] if len(entries) < len(known) else None
        kept = old._json if old is not None else None
        if kept is not None and text.startswith(kept, pos) and reparses(old):
            entries.append(old)
            pos += len(kept)
        else:
            raw, pos = document._DECODER.raw_decode(text, document._after(text, pos, "    "))
            entries.append(read(jsonio.check(raw, dict, DocumentParseError, "entry")))
        if not text.startswith(",\n", pos):
            return entries, document._after(text, pos, "\n  ]")
        pos += 2


# --- documents and replies ------------------------------------------------------

_KEYS = st.text(alphabet="abkxy", min_size=1, max_size=3)
_VALUES = st.one_of(st.text(alphabet='ab "\\é', max_size=4), st.integers(-2, 2),
                    st.booleans(), st.none())
_TEXTS = st.text(alphabet=st.sampled_from("ab .!\n"), max_size=20)
_TABLE = {"id": "t1", "title": "Tab", "schema": [{"name": "A", "kind": "text"}],
          "rows": [{"A": "x"}]}
REPLY_KINDS = ("unchanged", "append", "middle", "section", "first", "last", "two_sections",
               "drop", "reorder", "repeated_section_id", "repeated_key", "broken_number")


def _reference(key, number, draw):
    return {"key": key, "number": number, "bib": draw(st.dictionaries(_KEYS, _VALUES, max_size=3))}


@st.composite
def _previous(draw):
    """A parsed survey, rendered as a step's prompt renders it.

    One of its references may hold a float bib value, whose entry does not
    read back as the same reference.
    """
    keys = draw(st.lists(_KEYS, max_size=8, unique=True))
    references = [_reference(key, number, draw) for number, key in enumerate(keys, start=1)]
    if references and draw(st.booleans()):
        draw(st.sampled_from(references))["bib"]["year"] = 2020.5
    sections = [{"id": str(i), "title": "T", "text": draw(_TEXTS)}
                for i in range(1, draw(st.integers(1, 5)) + 1)]
    tables = [_TABLE] if draw(st.booleans()) else []
    previous = document_from_dict({"metadata": {"title": "T"}, "sections": sections,
                                   "tables": tables, "references": references})
    serialize_document(previous)
    return previous


@st.composite
def _reply(draw, previous):
    """The previous survey's dict with the changes of one or two reply kinds.

    The last three kinds break an invariant that ``validate_document``
    checks: a decoded section takes another's id, or an appended
    reference repeats a key or breaks the dense numbering.
    """
    reply = json.loads(json.dumps(document_to_dict(previous)))
    references = reply["references"]
    sections = reply["sections"]
    for kind in draw(st.lists(st.sampled_from(REPLY_KINDS), min_size=1, max_size=2)):
        if kind == "append":
            used = {r["key"] for r in references}
            for key in draw(st.lists(_KEYS.filter(lambda k: k not in used), max_size=3,
                                     unique=True)):
                references.append(_reference(key, len(references) + 1, draw))
        elif kind == "middle" and references:
            reference = references[draw(st.integers(0, len(references) - 1))]
            reference["bib"]["note"] = draw(_VALUES)
        elif kind in ("section", "first", "last"):
            section = {"section": draw(st.sampled_from(sections)), "first": sections[0],
                       "last": sections[-1]}[kind]
            section["text"] += " More words."
        elif kind == "two_sections" and len(sections) > 1:
            for section in draw(st.lists(st.sampled_from(sections), min_size=2, max_size=2,
                                         unique_by=id)):
                section["text"] += " More words."
        elif kind == "repeated_section_id" and len(sections) > 1:
            section, other = draw(st.lists(st.sampled_from(sections), min_size=2, max_size=2,
                                           unique_by=id))
            section["id"] = other["id"]
            section["text"] += " Moved."
        elif kind == "repeated_key" and references:
            key = draw(st.sampled_from(references))["key"]
            references.append(_reference(key, len(references) + 1, draw))
        elif kind == "broken_number":
            used = {r["key"] for r in references}
            key = draw(_KEYS.filter(lambda k: k not in used))
            number = draw(st.sampled_from([0, len(references), len(references) + 2]))
            references.append(_reference(key, number, draw))
        elif kind == "drop" and references:
            del references[draw(st.integers(0, len(references) - 1))]
        elif kind == "reorder":
            references[:] = draw(st.permutations(references))
        if kind in ("drop", "reorder") and draw(st.booleans()):
            for number, reference in enumerate(references, start=1):
                reference["number"] = number
    return json.dumps(reply, indent=2, ensure_ascii=False) + "\n"


def _kept_positions(entries, known):
    """For each entry, the position of the input object it is, or None."""
    positions = {id(obj): i for i, obj in enumerate(known)}
    return [positions.get(id(entry)) for entry in entries]


def _check(text, previous):
    want = _parse_outcome(lambda: document_from_dict(extract_json_value(text)))
    got = revise_document(text, previous)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(document, "_revised_entries", per_entry_revised_entries)
        oracle = revise_document(text, previous)
    assert (got is None) == (oracle is None)
    # A canonical reply is given up on exactly where the full parse
    # raises; a broken invariant is ``validate_document``'s error there.
    assert (got is None) == (type(want[0]) is type)
    if got is None:
        return None
    assert _parse_outcome(lambda: got) == want
    for kind in ("sections", "tables", "references"):
        known, entries = getattr(previous, kind), getattr(got, kind)
        assert _kept_positions(entries, known) == _kept_positions(getattr(oracle, kind), known)
    # Every input reference that stands unchanged where it was, and reads
    # back, is taken as it is.
    reply = json.loads(text)["references"]
    for i, old in enumerate(previous.references):
        if i < len(reply) and "    " + document._canonical(reply[i], "    ") == old._json \
                and old.reparses():
            assert got.references[i] is old
    return got


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_whole_list_reuse_matches_the_per_entry_parse(data):
    previous = data.draw(_previous())
    _check(data.draw(_reply(previous)), previous)


# --- pinned replies --------------------------------------------------------------


def _survey(bibs):
    previous = document_from_dict({
        "metadata": {"title": "T"},
        "sections": [{"id": "1", "title": "T", "text": "A cat. A dog."}],
        "tables": [_TABLE],
        "references": [{"key": f"k{i}", "number": i, "bib": bib}
                       for i, bib in enumerate(bibs, start=1)]})
    serialize_document(previous)
    return previous


def _canonical(reply) -> str:
    return json.dumps(reply, indent=2, ensure_ascii=False) + "\n"


@pytest.fixture
def kept_list_ends(monkeypatch):
    """The result of each whole-list comparison, by the kind of its first object."""
    ends = []
    plain = document._kept_list_end

    def recording(text, pos, known, reparses):
        end = plain(text, pos, known, reparses)
        ends.append((type(known[0]).__name__ if known else None, end is not None))
        return end

    monkeypatch.setattr(document, "_kept_list_end", recording)
    return ends


@pytest.mark.parametrize("appended", [0, 2])
def test_an_unchanged_list_is_taken_whole(kept_list_ends, appended):
    previous = _survey([{"title": f"t{i}", "year": 2000 + i} for i in range(6)])
    reply = document_to_dict(previous)
    reply["references"] += [{"key": f"n{i}", "number": 7 + i, "bib": {"title": "new"}}
                            for i in range(appended)]
    got = _check(_canonical(reply), previous)
    assert got.references[:6] == previous.references
    assert all(new is old for new, old in zip(got.references, previous.references))
    assert [r.key for r in got.references[6:]] == [f"n{i}" for i in range(appended)]
    assert got.sections[0] is previous.sections[0] and got.tables[0] is previous.tables[0]
    assert kept_list_ends == [("Section", True), ("SurveyTable", True), ("Reference", True)]


def test_a_list_changed_in_the_middle_is_compared_entry_by_entry(kept_list_ends):
    previous = _survey([{"title": f"t{i}"} for i in range(6)])
    reply = document_to_dict(previous)
    reply["references"][3]["bib"]["title"] = "changed"
    got = _check(_canonical(reply), previous)
    assert _kept_positions(got.references, previous.references) == [0, 1, 2, None, 4, 5]
    assert kept_list_ends[-1] == ("Reference", False)


@pytest.mark.parametrize("change", ["drop", "reorder"])
def test_dropped_or_reordered_references_are_compared_entry_by_entry(kept_list_ends, change):
    previous = _survey([{"title": f"t{i}"} for i in range(5)])
    reply = document_to_dict(previous)
    references = reply["references"]
    if change == "drop":
        del references[1]
    else:
        references[1], references[3] = references[3], references[1]
    for number, reference in enumerate(references, start=1):
        reference["number"] = number
    got = _check(_canonical(reply), previous)
    assert _kept_positions(got.references, previous.references)[0] == 0
    assert kept_list_ends[-1] == ("Reference", False)


def test_a_kept_reference_that_does_not_reparse_takes_the_per_entry_path(kept_list_ends):
    # A float bib value: reading the entry gives an equal reference, but
    # one the memo of make_reference cannot share, so it is decoded.
    previous = _survey([{"title": "a"}, {"title": "b", "year": 2020.5}, {"title": "c"}])
    assert not previous.references[1].reparses()
    reply = document_to_dict(previous)
    reply["references"].append({"key": "n", "number": 4, "bib": {"title": "new"}})
    got = _check(_canonical(reply), previous)
    assert _kept_positions(got.references, previous.references) == [0, None, 2, None]
    assert got.references[1] == previous.references[1]
    assert kept_list_ends[-1] == ("Reference", False)


def _sectioned_survey():
    previous = document_from_dict({
        "metadata": {"title": "T"},
        "sections": [{"id": f"s{i}", "title": "T", "text": f"Section {i} says a thing. It ends."}
                     for i in range(5)],
        "tables": [_TABLE],
        "references": [{"key": f"k{i}", "number": i, "bib": {"title": f"t{i}"}}
                       for i in range(1, 5)]})
    serialize_document(previous)
    return previous


@pytest.mark.parametrize("changed", [[0], [2], [4], [1, 3]],
                         ids=["first", "middle", "last", "two"])
@pytest.mark.parametrize("appended", [0, 1])
def test_a_reply_that_edits_sections_keeps_the_other_sections(kept_list_ends, changed, appended):
    previous = _sectioned_survey()
    reply = document_to_dict(previous)
    for i in changed:
        reply["sections"][i]["text"] += " More words."
    reply["references"] += [{"key": "new", "number": 5, "bib": {"title": "new"}}][:appended]
    got = _check(_canonical(reply), previous)
    assert _kept_positions(got.sections, previous.sections) == [
        None if i in changed else i for i in range(5)]
    assert _kept_positions(got.references, previous.references) == [0, 1, 2, 3, None][:4 + appended]
    assert kept_list_ends == [("Section", False), ("SurveyTable", True), ("Reference", True)]


def _broken(previous, kind):
    reply = document_to_dict(previous)
    if kind == "repeated_section_id":
        reply["sections"][3]["id"] = "s1"
        reply["sections"][3]["text"] += " Moved."
    elif kind == "repeated_key":
        reply["references"].append({"key": "k2", "number": 5, "bib": {}})
    elif kind == "repeated_appended_key":
        reply["references"] += [{"key": "n", "number": 5, "bib": {}},
                                {"key": "n", "number": 6, "bib": {}}]
    elif kind == "broken_number":
        reply["references"].append({"key": "n", "number": 6, "bib": {}})
    elif kind == "repeated_number":
        reply["references"].append({"key": "n", "number": 4, "bib": {}})
    return _canonical(reply)


@pytest.mark.parametrize("kind, error", [
    ("repeated_section_id", "duplicate section ids"),
    ("repeated_key", "duplicate reference keys"),
    ("repeated_appended_key", "duplicate reference keys"),
    ("broken_number", "not dense"),
    ("repeated_number", "not dense"),
])
def test_a_broken_invariant_gives_none_where_the_full_parse_raises(kind, error):
    previous = _sectioned_survey()
    text = _broken(previous, kind)
    assert _check(text, previous) is None
    with pytest.raises(DocumentIntegrityError, match=error):
        document_from_dict(extract_json_value(text))


@pytest.mark.parametrize("cut", ['"sections": [', "Section 2 says", '"references": [\n', "\n}"])
def test_a_cut_reply_reads_no_list_and_raises_the_full_parse_error(cut, monkeypatch):
    previous = _sectioned_survey()
    text = _canonical(document_to_dict(previous))
    text = text[:text.index(cut) + len(cut) - 1]
    read = []
    monkeypatch.setattr(document, "_revised_entries", lambda *args: read.append(args))
    assert revise_document(text, previous) is None
    assert read == []
    with pytest.raises(ParseFailure, match="not balanced"):
        document_from_dict(extract_json_value(text))


@pytest.mark.parametrize("edited", [None, 2])
@pytest.mark.parametrize("closer", ["\n  }", "\n ]X", "\n  ] ", "\r\n  ]"])
@pytest.mark.parametrize("listed", ["sections", "references"])
def test_kept_entries_not_followed_by_the_layout_give_none(kept_list_ends, listed, closer, edited):
    # The kept entries, taken whole or one by one after the edited entry,
    # must still close the list as the layout does.
    previous = _sectioned_survey()
    reply = document_to_dict(previous)
    if edited is not None:
        reply[listed][edited]["title" if listed == "sections" else "bib"] = {
            "sections": "Edited", "references": {"title": "edited"}}[listed]
    text = _canonical(reply)
    end = text.index('\n  ],\n  "tables"' if listed == "sections" else "\n  ]\n}")
    text = text[:end] + closer + text[end + 4:]
    assert revise_document(text, previous) is None
    # Where the reply is still JSON, only its whitespace left the layout.
    assert (type(_parse_outcome(lambda: document_from_dict(extract_json_value(text)))[0])
            is str) == (closer.strip() == "]")
    # Unedited, the kept entries did stand there, and were compared whole.
    assert ((listed, True) in [({"Section": "sections", "Reference": "references"}.get(kind),
                                found) for kind, found in kept_list_ends]) == (edited is None)
