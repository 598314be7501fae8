"""Survey document model: sections, tables, references, outline, state.

Values are immutable snapshots; every edit builds a new document. The
canonical on-disk form is a single JSON container with ``metadata``,
``sections``, ``tables`` and ``references`` keys. Serialization is
deterministic, so equal documents produce byte-identical files. Each
section, table and reference renders its JSON once and keeps it, so a
bib dict or a table cell (a list or object value) must not be mutated
once its reference or table is built. Table rows themselves are
read-only mappings.

A value derived from a frozen object and kept on it sits in a private
field of its class (``init=False, compare=False, repr=False``), written
only here: by the class's accessor, on first use, or by the one method
that builds it from another (``Section._numbered``,
``SurveyDocument.with_additions``). ``_entries`` fills the JSON entry of
each object of a list that has none. A fill reads only the frozen
object, so two fills that race store equal values. The one value shared
between objects is the reference index of a lineage of documents
(``_ReferenceIndex``): each document reads only its own prefix of it,
and a lock guards its growth.

Sentence identifiers are ``"{section_id}:{counter}"`` with counters
assigned monotonically per section and never reused, which keeps
pre-existing identifiers stable under additive edits.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
from dataclasses import asdict, dataclass, field
from itertools import accumulate, chain
from json.encoder import encode_basestring, encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from . import jsonio
from .corpus import SurveyScope
from .errors import DocumentIntegrityError, DocumentParseError
from .parsing import json_value_start
from .text import joined_tokens, segment_sentences

COLUMN_KINDS = ("text", "categorical", "int")
_DECODER = json.JSONDecoder()
# Distinct sections whose parse stays memoised; room for every section of
# the surveys a benchmark run streams, several versions each.
_SECTION_MEMO_SIZE = 2 ** 10
# Distinct references whose build stays memoised; room for every reference
# of the surveys a benchmark run streams.
_REFERENCE_MEMO_SIZE = 2 ** 12
# Distinct tables whose build stays memoised; room for every table of the
# surveys a benchmark run streams, several versions each.
_TABLE_MEMO_SIZE = 2 ** 8
# Bib and cell value types whose equal values render the same JSON, once
# the key also holds each value's type (1 == True); floats are not among
# them, because 0.0 == -0.0.
_SHARED_VALUE_TYPES = frozenset({str, int, bool, type(None)})
# Column bound types that may share a table: a bound is in the memo key
# without its type.
_SHARED_BOUND_TYPES = frozenset({int, type(None)})
_TEXT = attrgetter("text")
# Guards ``_ReferenceIndex.grown``, so that two derivations from one
# lineage that race do not both grow its index.
_INDEX_LOCK = threading.Lock()


@dataclass(frozen=True)
class Sentence:
    id: str
    text: str


@dataclass(frozen=True)
class Section:
    id: str
    title: str
    sentences: tuple[Sentence, ...]
    non_maintained: bool = False
    # The section's entry in the canonical document once rendered
    # (``serialize_document``). A field, so that every instance keeps one
    # attribute layout: writing into the ``__dict__`` of some instances,
    # as ``functools.cached_property`` does, made attribute reads on all
    # of them about five times slower under CPython 3.11.
    _json: str | None = field(default=None, init=False, repr=False, compare=False)
    # ``tokens()``, once diffed or streamed.
    _tokens: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)
    # Set once ``_check_sentences`` has passed a tuple of sentences.
    _checked: bool = field(default=False, init=False, repr=False, compare=False)
    # Set by ``make_section``: the sentences are its segmentation of the
    # body text, numbered from 1, so parsing the section's entry
    # (``_json``) builds an equal section.
    _segmented: bool = field(default=False, init=False, repr=False, compare=False)
    # ``next_sentence_counter``, once found or set by ``_numbered``.
    _next_counter: int | None = field(default=None, init=False, repr=False, compare=False)
    # ``sentence_ids()``, once found or set by ``with_inserted``.
    _ids: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)
    # Set by ``with_inserted`` on a section derived from a checked one: the
    # ids of the sentences it inserted. Once ``_check_added`` has passed
    # exactly those, the section is checked.
    _added: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _numbered(cls, section_id: str, title: str, sentences: tuple[Sentence, ...],
                  non_maintained: bool, next_counter: int, segmented: bool) -> "Section":
        """The section of ``sentences``, whose largest id counter is
        ``next_counter - 1``; ``segmented`` when ``make_section`` built them."""
        section = cls(section_id, title, sentences, non_maintained)
        object.__setattr__(section, "_next_counter", next_counter)
        object.__setattr__(section, "_segmented", segmented)
        return section

    def sentence_ids(self) -> tuple[str, ...]:
        """The sentence ids in order; kept once found when the sentences are a
        tuple, and set by ``with_inserted`` on the section it builds."""
        if self._ids is not None:
            return self._ids
        ids = tuple(s.id for s in self.sentences)
        if type(self.sentences) is tuple:
            object.__setattr__(self, "_ids", ids)
        return ids

    def body_text(self) -> str:
        return " ".join(map(_TEXT, self.sentences))

    def tokens(self) -> tuple[str, ...]:
        """The tokens of the sentences in order, joined once and kept."""
        if self._tokens is None:
            object.__setattr__(self, "_tokens", joined_tokens(s.text for s in self.sentences))
        return self._tokens

    def next_sentence_counter(self) -> int:
        """One more than the largest counter of the sentence ids, 1 for no sentences.

        Parsed from the ids once per section whose sentences are a tuple
        and kept; ``make_section`` and ``with_inserted`` set it on the
        section they build, so a step reads only the counters of a
        section it has not touched before.
        """
        if self._next_counter is not None:
            return self._next_counter
        counters = [int(s.id.rsplit(":", 1)[1]) for s in self.sentences]
        counter = max(counters, default=0) + 1
        if type(self.sentences) is tuple:
            object.__setattr__(self, "_next_counter", counter)
        return counter

    def with_inserted(self, position: int, texts: Sequence[str]) -> "Section":
        """This section with one sentence per text after its first ``position``
        sentences, numbered on from ``next_sentence_counter``.

        Every sentence before keeps its id, text and order. The new
        section keeps its sentence ids and next counter, and, when this
        section is checked, the inserted ids (``_added``).
        """
        counter = self.next_sentence_counter()
        added = tuple(f"{self.id}:{counter + i}" for i in range(len(texts)))
        sentences = self.sentences
        section = Section._numbered(
            self.id, self.title,
            sentences[:position] + tuple(map(Sentence, added, texts)) + sentences[position:],
            self.non_maintained, counter + len(texts), False)
        ids = self.sentence_ids()
        object.__setattr__(section, "_ids", ids[:position] + added + ids[position:])
        if self._checked:
            object.__setattr__(section, "_added", added)
        return section

    def _check_sentences(self) -> None:
        """Raise on a repeated sentence id or a blank sentence (``validate_document``)."""
        ids = self.sentence_ids()
        if len(ids) != len(set(ids)):
            raise DocumentIntegrityError(f"duplicate sentence ids in section {self.id!r}")
        for sentence in self.sentences:
            if not sentence.text.strip():
                raise DocumentIntegrityError(
                    f"empty sentence {sentence.id!r} in section {self.id!r}")
        if type(self.sentences) is tuple:
            object.__setattr__(self, "_checked", True)

    def _check_added(self, added: Sequence[str]) -> None:
        """Raise on the first blank sentence or repeated id, in section order,
        among ``added`` (``SurveyDocument.with_additions``), read through the
        kept id tuple. A section ``with_inserted`` derived from a checked
        one is checked once exactly its inserted ids pass."""
        ids = self.sentence_ids()
        # (position, problem) of each first blank occurrence and each
        # second occurrence.
        problems = []
        for sentence_id in added:
            try:
                first = ids.index(sentence_id)
            except ValueError:
                continue
            if not self.sentences[first].text.strip():
                problems.append((first, f"empty sentence {sentence_id!r} in section {self.id!r}"))
            try:
                problems.append((ids.index(sentence_id, first + 1),
                                 f"duplicate sentence ids in section {self.id!r}"))
            except ValueError:
                pass
        if problems:
            raise DocumentIntegrityError(min(problems)[1])
        if tuple(added) == self._added:
            object.__setattr__(self, "_checked", True)


@dataclass(frozen=True)
class ColumnSpec:
    """Schema of one table column.

    ``kind`` is ``"text"`` (free text), ``"categorical"`` (value must be
    one of ``values``) or ``"int"`` (integer within [minimum, maximum]).
    """

    name: str
    kind: str = "text"
    values: tuple[str, ...] = ()
    minimum: int | None = None
    maximum: int | None = None

    def check_value(self, value: object) -> str | None:
        """Return a problem description for an invalid value, else None."""
        if self.kind == "categorical":
            if value not in self.values:
                allowed = ", ".join(self.values)
                return f"value {value!r} for column {self.name!r} not in {{{allowed}}}"
        elif self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                return f"value {value!r} for column {self.name!r} is not an integer"
            if self.minimum is not None and value < self.minimum:
                return f"value {value} for column {self.name!r} below minimum {self.minimum}"
            if self.maximum is not None and value > self.maximum:
                return f"value {value} for column {self.name!r} above maximum {self.maximum}"
        return None


@dataclass(frozen=True)
class SurveyTable:
    """A table: its column schema and its rows.

    Each row is a read-only mapping that lists the schema's columns in
    schema order, then any column the schema lacks (a row
    ``validate_document`` rejects) in the order it came in.
    ``make_table``, ``SurveyDocument.with_additions`` and
    ``document_from_dict`` freeze the rows. A table built directly from
    plain dict rows keeps them as given: ``validate_document`` checks its
    rows on every call, and, as with a bib dict, they must not be mutated
    once the table is rendered.
    """

    id: str
    title: str
    schema: tuple[ColumnSpec, ...]
    rows: tuple[Mapping[str, object], ...] = ()
    # The table's entry in the canonical document once rendered; a field
    # for the reason given on ``Section._json``.
    _json: str | None = field(default=None, init=False, repr=False, compare=False)
    # ``tokens()``, once diffed or streamed.
    _tokens: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)
    # Set once ``_check_rows`` has found every row valid and frozen.
    _rows_checked: bool = field(default=False, init=False, repr=False, compare=False)
    # ``reparses()``, once found.
    _reparses: bool | None = field(default=None, init=False, repr=False, compare=False)

    def check_row(self, row: Mapping[str, object]) -> list[str]:
        """Return all schema violations of a candidate row."""
        problems: list[str] = []
        expected = [c.name for c in self.schema]
        missing = [n for n in expected if n not in row]
        extra = [n for n in row if n not in expected]
        if missing:
            problems.append(f"row missing columns {missing} of table {self.id!r}")
        if extra:
            problems.append(f"row has unknown columns {extra} for table {self.id!r}")
        for column in self.schema:
            if column.name in row:
                problem = column.check_value(row[column.name])
                if problem:
                    problems.append(problem)
        return problems

    def tokens(self) -> tuple[str, ...]:
        """The tokens of the title, then of each cell's ``str`` row by row in
        schema order (a missing cell reads ``""``); joined once and kept."""
        if self._tokens is None:
            cells = (row.get(column.name, "") for row in self.rows for column in self.schema)
            tokens = joined_tokens(chain((self.title,), map(str, cells)))
            object.__setattr__(self, "_tokens", tokens)
        return self._tokens

    def reparses(self) -> bool:
        """Whether reading the table's own entry builds an equal table with the same entry.

        Found by reading the entry once per table object, as
        ``document_from_dict`` reads it, and kept. A table's schema and rows
        have many ways not to come back as they were (a column's ``values``
        outside a categorical column are not written, rows that are not in
        schema order are put in it), so the read itself is the test.
        """
        if self._reparses is None:
            try:
                read = _table_from_dict(jsonio.check(json.loads(self._json), dict,
                                                     DocumentParseError, "table"))
                same = read == self and _render(read, _table_entry) == self._json
            except (ValueError, DocumentParseError):
                same = False
            object.__setattr__(self, "_reparses", same)
        return self._reparses

    def _check_rows(self) -> None:
        """Raise on the first row the schema rejects (``validate_document``)."""
        for index, row in enumerate(self.rows):
            problems = self.check_row(row)
            if problems:
                raise DocumentIntegrityError(f"table {self.id!r} row {index}: " + "; ".join(problems))
        if all(type(row) is MappingProxyType for row in self.rows):
            object.__setattr__(self, "_rows_checked", True)


@dataclass(frozen=True)
class Reference:
    key: str
    number: int
    bib: dict
    # The reference's entry in the canonical document once rendered; a
    # field for the reason given on ``Section._json``.
    _json: str | None = field(default=None, init=False, repr=False, compare=False)
    # ``reparses()``, once found.
    _reparses: bool | None = field(default=None, init=False, repr=False, compare=False)

    def reparses(self) -> bool:
        """Whether reading the reference's own entry gives it back, value types included:
        so for a str key, an int number and str bib keys whose values each
        have a type whose equal values render the same JSON."""
        if self._reparses is None:
            same = type(self.key) is str and type(self.number) is int and all(
                type(key) is str and type(value) in _SHARED_VALUE_TYPES
                for key, value in self.bib.items())
            object.__setattr__(self, "_reparses", same)
        return self._reparses


class _ReferenceIndex(dict):
    """Reference key -> position (from 1) of its first reference, shared by
    the documents of one lineage.

    The documents that share an index each hold a prefix of one reference
    list, the index's, of which it maps the first ``count`` references.
    A document reads only the positions up to its own reference count,
    so it never sees a key that a later version appended.
    """

    __slots__ = ("count",)

    def __init__(self, positions: dict[str, int], count: int):
        super().__init__(positions)
        self.count = count

    def grown(self, count: int, tail: Sequence[Reference]) -> "_ReferenceIndex":
        """The index of a document whose references are the first ``count``
        of this index's list followed by ``tail``.

        This index, grown in place, when it maps exactly ``count``
        references: the document derives from the lineage's latest
        version. Otherwise, a derivation from an older version, a copy of
        the positions up to ``count``, grown; the two branches then never
        see each other's keys.
        """
        with _INDEX_LOCK:
            if self.count == count:
                index = self
            else:
                index = _ReferenceIndex(
                    {key: position for key, position in self.items() if position <= count}, count)
            for position, reference in enumerate(tail, count + 1):
                index.setdefault(reference.key, position)
            index.count = count + len(tail)
        return index


@dataclass(frozen=True)
class SurveyDocument:
    """A survey's content.

    Two lookups keep an index on the document, built on first use:
    section id -> position, and reference key -> position, which is the
    reference's number, numbering being dense. Each maps an id or key to
    its first occurrence. ``with_additions``, the one method that derives
    a document from another, hands both on, so an update stream builds
    each once per loaded document. The token regions that scoring diffs
    are kept too, once per document.
    """

    metadata: dict
    sections: tuple[Section, ...]
    tables: tuple[SurveyTable, ...]
    references: tuple[Reference, ...]
    # Section id -> position of its first section.
    _section_positions: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False)
    # The reference index of this document's lineage, of which it reads
    # the positions up to ``len(references)``.
    _reference_positions: _ReferenceIndex | None = field(
        default=None, init=False, repr=False, compare=False)
    # ``regions()``, once diffed.
    _regions: tuple[list, list, list] | None = field(default=None, init=False, repr=False,
                                                     compare=False)

    def _section_position(self, section_id: str) -> int | None:
        if self._section_positions is None:
            object.__setattr__(self, "_section_positions", _first_positions(
                (section.id for section in self.sections), 0))
        return self._section_positions.get(section_id)

    def section(self, section_id: str) -> Section:
        """The first section with ``section_id``, found through the section index."""
        position = self._section_position(section_id)
        if position is None:
            raise KeyError(f"no section {section_id!r}")
        return self.sections[position]

    def table(self, table_id: str) -> SurveyTable:
        for table in self.tables:
            if table.id == table_id:
                return table
        raise KeyError(f"no table {table_id!r}")

    def reference_position(self, key: str) -> int | None:
        """The position (from 1) of the first reference with ``key``, None
        if none has it; found through the reference index."""
        index = self._reference_positions
        if index is None:
            index = _ReferenceIndex(_first_positions(
                (reference.key for reference in self.references), 1), len(self.references))
            object.__setattr__(self, "_reference_positions", index)
        position = index.get(key)
        if position is not None and position <= len(self.references):
            return position
        return None

    def regions(self) -> tuple[list[tuple[str, ...]], list[str], list[int]]:
        """The maintained body as one token tuple per region, the region ids and their starts.

        One region per section, then one per table (``Section.tokens``,
        ``SurveyTable.tokens``); references and metadata are left out. A
        region's id is ``region_id`` of its kind and id, and its start is
        the offset its tuple would have in the joined stream; the starts
        hold one more offset, the stream's length. All three lists are
        kept on the document (one step's after document is the next
        step's before), so callers must not change them.
        """
        if self._regions is None:
            parts = [section.tokens() for section in self.sections]
            parts += [table.tokens() for table in self.tables]
            ids = [region_id("section", section.id) for section in self.sections]
            ids += [region_id("table", table.id) for table in self.tables]
            starts = list(accumulate(map(len, parts), initial=0))
            object.__setattr__(self, "_regions", (parts, ids, starts))
        return self._regions

    def with_additions(self, new_section: Section, inserted_ids: Sequence[str],
                       tail: tuple[Reference, ...], table_id: str | None = None,
                       row: Mapping[str, object] | None = None) -> "SurveyDocument":
        """This document with ``new_section`` in place of the first section of
        its id, ``tail`` appended to its references and, when ``table_id``
        and ``row`` are both given, ``row`` appended to that table: what one
        update step merges, and the one derivation of a document.

        What the step adds is checked before anything is derived or an
        index grows: no section of the id or no table ``table_id`` raises
        ``KeyError``; a row the schema rejects, a blank or repeated sentence
        of ``inserted_ids`` (``Section._check_added``) or a tail that breaks
        the dense numbering or repeats a key (``reference_position``)
        ``DocumentIntegrityError``. From a document that passed
        ``validate_document``, it raises exactly when ``validate_document``
        would on the result. The new document shares the section index and
        hands on the reference index grown by the tail
        (``_ReferenceIndex.grown``): its references extend this document's
        by construction, so none before the tail is compared.
        """
        position = self._section_position(new_section.id)
        if position is None:
            raise KeyError(f"no section {new_section.id!r}")
        table = None if table_id is None else self.table(table_id)
        if table is not None and row is not None:
            problems = table.check_row(row)
            if problems:
                raise DocumentIntegrityError("; ".join(problems))
        new_section._check_added(inserted_ids)
        appended: set[str] = set()
        for number, reference in enumerate(tail, len(self.references) + 1):
            if reference.number != number:
                raise DocumentIntegrityError(
                    f"appended reference {reference.key!r} has number {reference.number}, "
                    f"expected {number} for dense 1..n")
            if reference.key in appended or self.reference_position(reference.key) is not None:
                raise DocumentIntegrityError(f"duplicate reference keys: {reference.key!r}")
            appended.add(reference.key)
        tables = self.tables
        if table is not None and row is not None:
            # Schema column order, whatever order the row came in: the audit
            # log stores rows with sorted keys, and replay must give the same bytes.
            new_table = SurveyTable(table.id, table.title, table.schema,
                                    table.rows + (_frozen_row(row, table.schema),))
            tables = tuple(new_table if t.id == table_id else t for t in tables)
        sections = self.sections
        doc = SurveyDocument(self.metadata,
                             (*sections[:position], new_section, *sections[position + 1:]),
                             tables, self.references + tail if tail else self.references)
        index = self._reference_positions
        if index is not None and tail:
            index = index.grown(len(self.references), tail)
        object.__setattr__(doc, "_section_positions", self._section_positions)
        object.__setattr__(doc, "_reference_positions", index)
        return doc


# The name scoring and its callers use for ``SurveyDocument.regions``.
document_regions = SurveyDocument.regions


def region_id(kind: str, item_id: str) -> str:
    """The id of a section's (``kind`` "section") or table's ("table") token region."""
    return f"{kind}:{item_id}"


def _first_positions(ids: Iterable[str], start: int) -> dict[str, int]:
    """Id -> position of its first occurrence, counting from ``start``."""
    positions: dict[str, int] = {}
    for position, id_ in enumerate(ids, start):
        positions.setdefault(id_, position)
    return positions


@dataclass(frozen=True)
class SectionEntry:
    id: str
    section_title: str
    page_numbers: str = ""
    table_relevant: tuple[int, ...] = ()
    summary: str = ""


@dataclass(frozen=True)
class TableEntry:
    id: str
    title: str
    page_numbers: str = ""
    summary: str = ""


@dataclass(frozen=True)
class StructuredOutline:
    """Frozen structural specification a maintenance epoch runs against."""

    section_entries: tuple[SectionEntry, ...]
    table_entries: tuple[TableEntry, ...]
    scope: SurveyScope | None = None
    approved: bool = False
    # ``routing_sections()``, once built; a field for the reason given on
    # ``Section._json``.
    _routing: tuple[str, frozenset[str]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def section_ids(self) -> list[str]:
        return [e.id for e in self.section_entries]

    def table_ids(self) -> list[str]:
        return [e.id for e in self.table_entries]

    def routing_sections(self) -> tuple[str, frozenset[str]]:
        """The section routing prompt's section list, one ``"id: title --
        summary"`` line per entry, and the set of section ids; built once
        per outline object and kept, the outline being frozen."""
        if self._routing is None:
            object.__setattr__(self, "_routing", ("\n".join(
                f"{e.id}: {e.section_title} -- {e.summary}" for e in self.section_entries),
                frozenset(self.section_ids())))
        return self._routing


@dataclass(frozen=True)
class SurveyState:
    """The maintained pair of document content and frozen outline."""

    document: SurveyDocument
    outline: StructuredOutline

    def with_document(self, document: SurveyDocument) -> "SurveyState":
        return SurveyState(document, self.outline)


def validate_document(doc: SurveyDocument) -> None:
    """Check the structural invariants of a document; raise on violation.

    Ids must be unique and reference numbers dense on every call. A
    section's sentences (unique ids, no blank text) and a table's rows
    (the schema) are checked once per object when they cannot change: a
    ``Section`` whose sentences are a tuple, a table whose rows are
    read-only mappings. A baseline step therefore checks only the
    sections and tables its reply changed.
    """
    section_ids = [s.id for s in doc.sections]
    if len(section_ids) != len(set(section_ids)):
        raise DocumentIntegrityError(f"duplicate section ids in {sorted(section_ids)}")
    table_ids = [t.id for t in doc.tables]
    if len(table_ids) != len(set(table_ids)):
        raise DocumentIntegrityError(f"duplicate table ids in {sorted(table_ids)}")
    keys = [r.key for r in doc.references]
    if len(keys) != len(set(keys)):
        raise DocumentIntegrityError("duplicate reference keys")
    numbers = [r.number for r in doc.references]
    if numbers != list(range(1, len(numbers) + 1)):
        raise DocumentIntegrityError(f"reference numbering {numbers} is not dense 1..n")
    # The sentences of a section, and the rows of a table with frozen
    # rows, are checked once per object: an unchanged section or table
    # that ``make_section`` or ``make_table`` shared costs nothing here.
    # Sentences held in a list, and rows that can still change, are
    # checked on every call.
    for section in doc.sections:
        if not section._checked:
            section._check_sentences()
    for table in doc.tables:
        if not table._rows_checked:
            table._check_rows()


def validate_state(state: SurveyState) -> None:
    """Check document/outline coherence for a maintained state."""
    outline_sections = state.outline.routing_sections()[1]
    outline_tables = set(state.outline.table_ids())
    for section in state.document.sections:
        if section.id not in outline_sections and not section.non_maintained:
            raise DocumentIntegrityError(
                f"section {section.id!r} is not in the outline and not flagged non_maintained")
    for table in state.document.tables:
        if table.id not in outline_tables:
            raise DocumentIntegrityError(f"table {table.id!r} is not in the outline")
    doc_sections = {s.id for s in state.document.sections}
    doc_tables = {t.id for t in state.document.tables}
    for entry_id in outline_sections:
        if entry_id not in doc_sections:
            raise DocumentIntegrityError(f"outline section {entry_id!r} missing from document")
    for entry_id in outline_tables:
        if entry_id not in doc_tables:
            raise DocumentIntegrityError(f"outline table {entry_id!r} missing from document")


@functools.lru_cache(maxsize=_SECTION_MEMO_SIZE)
def make_section(section_id: str, title: str, text: str, non_maintained: bool = False) -> Section:
    """Build a Section by segmenting body text and numbering sentences from 1.

    Memoised on the four arguments in a bounded per-process cache
    (``_SECTION_MEMO_SIZE`` = 2**10 sections). The result is frozen, so
    equal inputs share one ``Section`` object: a baseline reply that
    leaves a section's text unchanged reuses the parse of the document
    before it, and the sharing is exact.
    """
    texts = segment_sentences(text)
    sentences = tuple(Sentence(id=f"{section_id}:{i}", text=t) for i, t in enumerate(texts, start=1))
    # Segmenting the joined sentences gives them back: ``body_text`` is
    # the text with its whitespace normalised, and segmenting normalises
    # first.
    return Section._numbered(section_id, title, sentences, non_maintained,
                             len(sentences) + 1, True)


def make_reference(key: str, number: int, bib: dict) -> Reference:
    """Build a Reference, sharing one object between equal flat bibs.

    Memoised like ``make_section`` in a bounded per-process cache
    (``_REFERENCE_MEMO_SIZE`` = 2**12 references), keyed on the key, the
    number and the bib's items with the type of each value, so ``1`` and
    ``True`` never share an entry. A bib holding any other value than a
    string, integer, boolean or null (a float, list or object) is built
    plainly. The full parse rebuilds every reference of a baseline reply,
    and the sharing lets an unchanged or moved one keep its rendered JSON.
    """
    types = tuple(type(value) for value in bib.values())
    if _SHARED_VALUE_TYPES.issuperset(types):
        return _shared_reference(key, number, tuple(bib.items()), types)
    return Reference(key=key, number=number, bib=bib)


@functools.lru_cache(maxsize=_REFERENCE_MEMO_SIZE, typed=True)
def _shared_reference(key: str, number: int, items: tuple, types: tuple) -> Reference:
    return Reference(key=key, number=number, bib=dict(items))


def _frozen_row(row: Mapping[str, object], schema: tuple[ColumnSpec, ...]) -> Mapping[str, object]:
    """A read-only copy of a row: the schema's columns in schema order, then the rest."""
    ordered = {column.name: row[column.name] for column in schema if column.name in row}
    ordered.update(row)
    return MappingProxyType(ordered)


def _build_table(table_id: str, title: str, schema: tuple[ColumnSpec, ...],
                 rows: Sequence[Mapping[str, object]]) -> SurveyTable:
    return SurveyTable(table_id, title, schema, tuple(_frozen_row(row, schema) for row in rows))


def make_table(table_id: str, title: str, schema: tuple[ColumnSpec, ...],
               rows: Sequence[Mapping[str, object]]) -> SurveyTable:
    """Build a SurveyTable with frozen rows, sharing one object between equal tables.

    Memoised like ``make_reference`` in a bounded per-process cache
    (``_TABLE_MEMO_SIZE`` = 2**8 tables), keyed on the id, the title, the
    schema and each row's items with the type of each value, so ``1`` and
    ``True`` never share an entry. A table holding a float, list or
    object cell, or a column bound other than an integer or null, is
    built plainly. A baseline reply rebuilds every table, and the sharing
    lets an unchanged one keep its rendered JSON, its tokens and its row
    check.
    """
    types = tuple(type(value) for row in rows for value in row.values())
    if _SHARED_VALUE_TYPES.issuperset(types) and all(
            type(column.minimum) in _SHARED_BOUND_TYPES
            and type(column.maximum) in _SHARED_BOUND_TYPES for column in schema):
        return _shared_table(table_id, title, schema,
                             tuple(tuple(row.items()) for row in rows), types)
    return _build_table(table_id, title, schema, rows)


@functools.lru_cache(maxsize=_TABLE_MEMO_SIZE, typed=True)
def _shared_table(table_id: str, title: str, schema: tuple[ColumnSpec, ...],
                  items: tuple, types: tuple) -> SurveyTable:
    return _build_table(table_id, title, schema, [dict(row) for row in items])


def _column_from_dict(data: dict, column: str) -> ColumnSpec:
    """A column of a table's schema; ``column`` is ``"table '<id>' column"``."""
    kind = jsonio.field(data, "kind", str, DocumentParseError, column, "text")
    name = jsonio.field(data, "name", str, DocumentParseError, column)
    where = (column, name)
    if kind not in COLUMN_KINDS:
        raise DocumentParseError(
            f"{column} {name!r} kind {kind!r} is not one of {', '.join(COLUMN_KINDS)}")
    return ColumnSpec(
        name=name,
        kind=kind,
        values=jsonio.array(data, "values", str, DocumentParseError, where, ()),
        minimum=jsonio.field(data, "min", jsonio.NUMBER, DocumentParseError, where, None,
                             null=True),
        maximum=jsonio.field(data, "max", jsonio.NUMBER, DocumentParseError, where, None,
                             null=True),
    )


def _table_from_dict(raw: dict) -> SurveyTable:
    table_id = jsonio.field(raw, "id", str, DocumentParseError, "table entry")
    where = ("table", table_id)
    column = f"table {table_id!r} column"
    return make_table(
        table_id,
        jsonio.field(raw, "title", str, DocumentParseError, where, ""),
        tuple(_column_from_dict(c, column)
              for c in jsonio.array(raw, "schema", dict, DocumentParseError, where)),
        jsonio.array(raw, "rows", dict, DocumentParseError, where, ()),
    )


def _column_to_dict(column: ColumnSpec) -> dict:
    data: dict = {"name": column.name, "kind": column.kind}
    if column.kind == "categorical":
        data["values"] = list(column.values)
    if column.kind == "int":
        data["min"] = column.minimum
        data["max"] = column.maximum
    return data


def _section_from_dict(raw: dict) -> Section:
    section_id = jsonio.field(raw, "id", str, DocumentParseError, "section")
    where = ("section", section_id)
    return make_section(
        section_id,
        jsonio.field(raw, "title", str, DocumentParseError, where, ""),
        jsonio.field(raw, "text", str, DocumentParseError, where, ""),
        jsonio.field(raw, "non_maintained", bool, DocumentParseError, where, False),
    )


def _reference_from_dict(raw: dict) -> Reference:
    key = jsonio.field(raw, "key", str, DocumentParseError, "reference")
    where = ("reference", key)
    return make_reference(
        key,
        jsonio.field(raw, "number", int, DocumentParseError, where),
        dict(jsonio.field(raw, "bib", dict, DocumentParseError, where, {})),
    )


def document_from_dict(data: dict) -> SurveyDocument:
    """Build and validate a SurveyDocument from its canonical JSON mapping.

    Input from outside the program, read by ``jsonio``'s rules: a wrongly
    shaped value raises ``DocumentParseError``, a broken invariant
    ``DocumentIntegrityError``. Every entry is built by ``make_section``,
    ``make_table`` or ``make_reference``, so an entry equal in value to
    one built before is that object.
    """
    data = jsonio.check(data, dict, DocumentParseError, "survey document")
    sections = [_section_from_dict(raw) for raw in
                jsonio.array(data, "sections", dict, DocumentParseError, "survey document", ())]
    tables = [_table_from_dict(raw) for raw in
              jsonio.array(data, "tables", dict, DocumentParseError, "survey document", ())]
    references = [_reference_from_dict(raw) for raw in
                  jsonio.array(data, "references", dict, DocumentParseError,
                               "survey document", ())]
    return _document(data, sections, tables, references)


def _document(data: dict, sections: list[Section], tables: list[SurveyTable],
              references: list[Reference]) -> SurveyDocument:
    """The validated document of the parts read, with the metadata of ``data``."""
    doc = SurveyDocument(
        metadata=dict(jsonio.field(data, "metadata", dict, DocumentParseError,
                                   "survey document", {})),
        sections=tuple(sections),
        tables=tuple(tables),
        references=tuple(references),
    )
    validate_document(doc)
    return doc


class _OffLayout(Exception):
    """A reply's text leaves the canonical layout."""


def _after(text: str, pos: int, literal: str) -> int:
    """The position after ``literal``, which must stand at ``pos``."""
    if not text.startswith(literal, pos):
        raise _OffLayout
    return pos + len(literal)


def _kept_list_end(text: str, pos: int, known: Sequence,
                   reparses: Callable[..., bool]) -> int | None:
    """The position after the kept entries of ``known`` when they stand at ``pos``.

    The entries are taken joined as a canonical list joins them. None
    when some object has no kept entry, when reading some entry would not
    give its object back, or when the joined entries do not stand there.
    The last entry is looked for first, where the joined ones would end,
    so a list changed in the middle is not joined.
    """
    kept = [o._json for o in known]
    try:
        end = pos + sum(map(len, kept)) + 2 * (len(kept) - 1)
    except TypeError:  # an object not rendered yet
        return None
    if not kept or not text.startswith(kept[-1], end - len(kept[-1])):
        return None
    if all(map(reparses, known)) and text.startswith(",\n".join(kept), pos):
        return end
    return None


def _revised_entries(text: str, pos: int, known: Sequence, reparses: Callable[..., bool],
                     read: Callable) -> tuple[list, int]:
    """The sections, tables or references list standing at ``pos``, and the position after it.

    Entry ``i`` is ``known[i]`` when its kept entry (``_json``) stands
    there byte for byte and ``reparses(known[i])`` says that reading its
    entry gives it back; any other entry is decoded and read by ``read``
    as ``document_from_dict`` reads it. The whole kept list is compared
    first, in one ``startswith``: when it stands there, ending the list or
    followed by more entries (a reply that appends references), every
    known object is taken at once. Otherwise the entries are compared one
    by one, which gives the same list where the whole one matches.
    """
    if text.startswith("[]", pos):
        return [], pos + 2
    pos = _after(text, pos, "[\n")
    entries: list = []
    end = _kept_list_end(text, pos, known, reparses)
    if end is not None:
        if text.startswith("\n  ]", end):
            return list(known), end + 4
        if text.startswith(",\n", end):
            entries, pos = list(known), end + 2
    while True:
        old = known[len(entries)] if len(entries) < len(known) else None
        kept = old._json if old is not None else None
        if kept is not None and text.startswith(kept, pos) and reparses(old):
            entries.append(old)
            pos += len(kept)
        else:
            raw, pos = _DECODER.raw_decode(text, _after(text, pos, "    "))
            entries.append(read(jsonio.check(raw, dict, DocumentParseError, "entry")))
        if not text.startswith(",\n", pos):
            return entries, _after(text, pos, "\n  ]")
        pos += 2


def revise_document(text: str, previous: SurveyDocument) -> SurveyDocument | None:
    """``document_from_dict(extract_json_value(text))``, decoding only what changed.

    For a reply that holds a document in the layout ``serialize_document``
    writes, a kept entry is reused by its bytes: a section, table or
    reference entry that stands byte for byte where ``previous`` keeps it
    (``_json``) is that object, provided reading the entry gives it back
    (for a section, when ``make_section`` built it; else its
    ``reparses()``). The other entries and the metadata are
    decoded and read as ``document_from_dict`` reads them. Any other
    layout or whitespace, and any reply the full parse rejects, gives
    None; the caller then runs the full parse, which reuses an entry only
    by its value (through the memos of the ``make_*`` builders) and raises
    the reply's error. The layout fixes the four keys and their order, so
    no key repeats, and every byte outside the kept entries goes through
    ``json``'s decoder. The layout closes the document with ``"\n}"``; a
    reply cut off before that (at the model's output limit) gives None
    before any list is read.
    """
    start = json_value_start(text)
    if start is None or text.rfind("\n}", start) < 0:
        return None
    try:
        metadata, pos = _DECODER.raw_decode(text, _after(text, start, '{\n  "metadata": '))
        sections, pos = _revised_entries(
            text, _after(text, pos, ',\n  "sections": '), previous.sections,
            lambda section: section._segmented, _section_from_dict)
        tables, pos = _revised_entries(
            text, _after(text, pos, ',\n  "tables": '), previous.tables,
            SurveyTable.reparses, _table_from_dict)
        references, pos = _revised_entries(
            text, _after(text, pos, ',\n  "references": '), previous.references,
            Reference.reparses, _reference_from_dict)
        _after(text, pos, "\n}")
        return _document({"metadata": metadata}, sections, tables, references)
    except (_OffLayout, json.JSONDecodeError, DocumentParseError, DocumentIntegrityError):
        return None


def _section_entry(section: Section) -> dict:
    entry: dict = {"id": section.id, "title": section.title, "text": section.body_text()}
    if section.non_maintained:
        entry["non_maintained"] = True
    return entry


def _table_entry(table: SurveyTable) -> dict:
    return {
        "id": table.id,
        "title": table.title,
        "schema": [_column_to_dict(c) for c in table.schema],
        "rows": [dict(r) for r in table.rows],
    }


def _reference_entry(reference: Reference) -> dict:
    return {"key": reference.key, "number": reference.number, "bib": dict(reference.bib)}


def document_to_dict(doc: SurveyDocument) -> dict:
    return {
        "metadata": dict(doc.metadata),
        "sections": [_section_entry(s) for s in doc.sections],
        "tables": [_table_entry(t) for t in doc.tables],
        "references": [_reference_entry(r) for r in doc.references],
    }


def parse_document(raw: str) -> SurveyDocument:
    """Parse the canonical survey-document container from JSON text."""
    return document_from_dict(jsonio.loads(raw, DocumentParseError, "survey document"))


def _dumps(value: object, indent: str) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, its inner lines
    indented by ``indent`` more.

    JSON strings hold no raw newline, so the re-indent is exact.
    ``_canonical`` writes the same text for the values a document holds;
    this is its fallback for any other value.
    """
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + indent)


def _encode(text: str) -> str:
    """``text`` as a JSON string literal, as ``json.dumps(ensure_ascii=False)`` writes it.

    ``encode_basestring`` is the encoder ``json.dumps`` uses. On ASCII
    text the ASCII encoder escapes the same characters, all but U+007F,
    which only it escapes, and runs in about half the time; so it takes
    ASCII text without U+007F.
    """
    if text.isascii() and "\x7f" not in text:
        return encode_basestring_ascii(text)
    return encode_basestring(text)


def _canonical(value: object, indent: str) -> str:
    """``_dumps(value, indent)``, written here for the values a document holds.

    Dicts with str keys, lists, tuples, str, int, bool and None (exactly
    those types) are written as the pure-Python encoder that
    ``json.dumps`` runs when ``indent`` is set writes them, every string
    through ``_encode``; any other value (a float, a dict with a key that
    is not a str, a subclass) goes whole to ``_dumps``. The values are
    trees, as read from JSON: a value that holds itself recurses without
    end instead of raising ``json``'s ``ValueError``.
    """
    kind = type(value)
    if kind is str:
        return _encode(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, item in value.items():
            if type(key) is not str:
                return _dumps(value, indent)
            items.append(f"{_encode(key)}: "
                         f"{_encode(item) if type(item) is str else _canonical(item, inner)}")
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_encode(item) if type(item) is str else _canonical(item, inner)
                 for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _dumps(value, indent)


def _render(obj: Section | SurveyTable | Reference, entry: Callable[..., dict]) -> str:
    """``obj`` as an entry of a list of the canonical document: its entry
    dict (``entry(obj)``) as ``_canonical`` writes it, one key deep."""
    return "    " + _canonical(entry(obj), "    ")


def _entries(objects: Sequence[Section] | Sequence[SurveyTable] | Sequence[Reference],
             entry: Callable[..., dict]) -> list[str]:
    """The canonical entry of each object (``_render``), rendered once per
    object and kept on it; the objects are frozen, so a kept entry cannot
    go stale."""
    for obj in objects:
        if obj._json is None:
            object.__setattr__(obj, "_json", _render(obj, entry))
    return [obj._json for obj in objects]


def _add_list(parts: list[str], entries: Sequence[str]) -> None:
    """Append the pieces of a JSON list of ``entries`` that sits one key deep."""
    if not entries:
        parts.append("[]")
        return
    parts.append("[\n")
    for entry in entries:
        parts += (entry, ",\n")
    parts[-1] = "\n  ]"


def serialize_document(doc: SurveyDocument) -> str:
    """Render the canonical, deterministic JSON form of a document.

    The text is ``json.dumps(document_to_dict(doc), indent=2,
    ensure_ascii=False) + "\\n"``, joined once from the entries that each
    section, table and reference renders once and keeps. An object that
    an earlier serialize rendered costs one lookup, so a baseline step
    re-renders only what its reply changed. Everything is written by
    ``_canonical``, which hands a value it does not write itself to
    ``json.dumps``. The metadata is rendered on every call; for a few
    flat keys that costs a few microseconds.
    """
    parts = ['{\n  "metadata": ', _canonical(dict(doc.metadata), "  "), ',\n  "sections": ']
    _add_list(parts, _entries(doc.sections, _section_entry))
    parts.append(',\n  "tables": ')
    _add_list(parts, _entries(doc.tables, _table_entry))
    parts.append(',\n  "references": ')
    _add_list(parts, _entries(doc.references, _reference_entry))
    parts.append("\n}\n")
    return "".join(parts)


def load_document(path: str | Path) -> SurveyDocument:
    return document_from_dict(jsonio.read_json(path, DocumentParseError, "survey"))


def save_document(doc: SurveyDocument, path: str | Path) -> None:
    jsonio.replace_text(path, serialize_document(doc))


def outline_entries_from_dict(
    data: dict,
) -> tuple[tuple[SectionEntry, ...], tuple[TableEntry, ...]]:
    """Section and table entries of an outline mapping, in input order.

    A malformed entry raises DocumentParseError.
    """
    return (
        tuple(jsonio.build(SectionEntry, e, DocumentParseError, "outline section")
              for e in jsonio.array(data, "sections", dict, DocumentParseError, "outline", ())),
        tuple(jsonio.build(TableEntry, e, DocumentParseError, "outline table")
              for e in jsonio.array(data, "tables", dict, DocumentParseError, "outline", ())),
    )


def outline_from_dict(data: dict) -> StructuredOutline:
    section_entries, table_entries = outline_entries_from_dict(data)
    scope = jsonio.field(data, "scope", dict, DocumentParseError, "outline", None, null=True)
    outline = StructuredOutline(
        section_entries=section_entries,
        table_entries=table_entries,
        scope=jsonio.build(SurveyScope, scope, DocumentParseError, "outline scope")
        if scope else None,
        approved=jsonio.field(data, "approved", bool, DocumentParseError, "outline", False),
    )
    for entry in outline.section_entries:
        if len(entry.table_relevant) != len(outline.table_entries):
            raise DocumentIntegrityError(
                f"outline section {entry.id!r}: table_relevant has "
                f"{len(entry.table_relevant)} flags for {len(outline.table_entries)} tables")
    return outline


def outline_to_dict(outline: StructuredOutline) -> dict:
    """The outline's JSON form; each entry and the scope hold their fields by name."""
    data: dict = {
        "approved": outline.approved,
        "sections": [asdict(e) for e in outline.section_entries],
        "tables": [asdict(e) for e in outline.table_entries],
    }
    if outline.scope is not None:
        data["scope"] = asdict(outline.scope)
    return data


def parse_outline(raw: str) -> StructuredOutline:
    return outline_from_dict(jsonio.loads(raw, DocumentParseError, "outline"))


def serialize_outline(outline: StructuredOutline) -> str:
    return _canonical(outline_to_dict(outline), "") + "\n"


def load_outline(path: str | Path) -> StructuredOutline:
    return outline_from_dict(jsonio.read_json(path, DocumentParseError, "outline"))


def save_outline(outline: StructuredOutline, path: str | Path) -> None:
    jsonio.replace_text(path, serialize_outline(outline))


def outline_fingerprint(outline: StructuredOutline) -> str:
    """Content hash used to prove the outline survives update streams."""
    return hashlib.sha256(serialize_outline(outline).encode("utf-8")).hexdigest()


__all__ = [
    "COLUMN_KINDS", "ColumnSpec", "Reference", "Section", "SectionEntry", "Sentence",
    "StructuredOutline", "SurveyDocument", "SurveyState", "SurveyTable", "TableEntry",
    "document_from_dict", "document_regions", "document_to_dict",
    "load_document", "load_outline",
    "make_reference", "make_section", "make_table", "outline_entries_from_dict",
    "outline_fingerprint", "outline_from_dict", "outline_to_dict", "parse_document",
    "parse_outline", "region_id", "revise_document", "save_document", "save_outline",
    "serialize_document", "serialize_outline", "validate_document", "validate_state",
]
