"""Differential tests: citation resolution against the multi-entry reference.

The reference below maps a list of bib entries to the placeholders by
position and numbers new keys max+1 over a copy of the references. An
update step passes it the paper's one bib entry, or none, and the
references of a valid document are numbered densely 1..n. On those
inputs the library's single-entry resolution must give the same text,
references and keys, or raise the same ``CitationError``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey.document import Reference, SurveyDocument
from dynsurvey.engine import CITE_PLACEHOLDER, resolve_citations
from dynsurvey.errors import CitationError

# --- reference implementation -----------------------------------------------


def reference_resolve_citations(
    draft: str,
    bib_entries: list[dict],
    doc: SurveyDocument,
) -> tuple[str, tuple[Reference, ...], tuple[str, ...]]:
    count = draft.count(CITE_PLACEHOLDER)
    if count == 0:
        return draft, doc.references, ()
    if not bib_entries:
        raise CitationError("draft contains a [cite] placeholder but no bib entry was provided")
    if len(bib_entries) == 1:
        mapping = [bib_entries[0]] * count
    elif len(bib_entries) >= count:
        mapping = list(bib_entries[:count])
    else:
        raise CitationError(
            f"draft has {count} placeholders but only {len(bib_entries)} bib entries")

    references = list(doc.references)
    numbers = {r.key: r.number for r in references}
    next_number = max((r.number for r in references), default=0) + 1
    resolved_keys: list[str] = []
    pieces = draft.split(CITE_PLACEHOLDER)
    final = [pieces[0]]
    for index, entry in enumerate(mapping):
        key = str(entry.get("key", ""))
        if not key:
            raise CitationError("bib entry has no citation key")
        if key not in numbers:
            numbers[key] = next_number
            bib = {k: v for k, v in entry.items() if k != "key"}
            references.append(Reference(key=key, number=next_number, bib=bib))
            next_number += 1
        resolved_keys.append(key)
        final.append(f"[{numbers[key]}]")
        final.append(pieces[index + 1])
    return "".join(final), tuple(references), tuple(resolved_keys)


# --- strategies ---------------------------------------------------------------

_KEYS = st.text(alphabet="abkz0é", min_size=1, max_size=3)
_TEXT = st.text(alphabet="ab [cite]é漢 .", max_size=12)
_BIB_FIELDS = st.dictionaries(
    st.sampled_from(["title", "author", "year", "venue"]),
    st.one_of(st.text(alphabet="aé漢ß— ", max_size=6), st.integers(0, 2030)),
    max_size=3,
)


@st.composite
def _references(draw) -> tuple[Reference, ...]:
    keys = draw(st.lists(_KEYS, unique=True, max_size=6))
    return tuple(Reference(key=key, number=number, bib=draw(_BIB_FIELDS))
                 for number, key in enumerate(keys, start=1))


@st.composite
def _draft(draw) -> str:
    pieces = draw(st.lists(_TEXT, min_size=1, max_size=4))
    return CITE_PLACEHOLDER.join(pieces)


@st.composite
def _bib(draw, references: tuple[Reference, ...]) -> dict:
    fields = draw(_BIB_FIELDS)
    kind = draw(st.sampled_from(["empty", "no key", "blank key", "fresh", "existing"]))
    if kind == "empty":
        return {}
    if kind == "no key":
        return fields or {"title": "é"}
    if kind == "blank key":
        return {"key": "", **fields}
    if kind == "existing" and references:
        return {"key": draw(st.sampled_from([r.key for r in references])), **fields}
    return {"key": draw(_KEYS), **fields}


def _outcome(resolve):
    try:
        text, references, keys = resolve()
    except CitationError as exc:
        return ("error", str(exc))
    return text, [(r.key, r.number, r.bib) for r in references], keys


def _whole_list(text, tail, keys, doc):
    """``resolve_citations``' result with its appended tail joined to the references."""
    return text, doc.references + tail, keys


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_bib_resolution_matches_reference(data):
    references = data.draw(_references())
    draft = data.draw(_draft())
    bib = data.draw(_bib(references))
    doc = SurveyDocument(metadata={}, sections=(), tables=(), references=references)
    expected = _outcome(lambda: reference_resolve_citations(draft, [bib] if bib else [], doc))
    assert _outcome(lambda: _whole_list(*resolve_citations(draft, bib, doc), doc)) == expected

