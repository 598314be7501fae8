"""One-paper update steps: routing, synthesis, merge, citations, publishing.

The merge is insertion-only. A step may add sentences to exactly one
routed section, append at most one row to the routed table, and append
at most one reference, the bib entry of the paper it integrates; it
never rewrites, reorders or deletes existing content and never touches
the outline. Those guarantees hold by construction.

A step checks only what it adds, before anything is derived:
``with_additions`` reads the appended reference and the new row, for an
applied and a replayed step alike, and the new sentences are checked by
construction (``Section.with_inserted``). Its cost therefore follows the
size of its change, not of the survey. The whole survey is checked where
it enters (``document_from_dict``) and once more in ``publish``, before
the file is written; ``publish`` reads no sentence and no row that a
step derived from a checked survey.
"""

from __future__ import annotations

import copy
import itertools
import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from . import jsonio
from .agents import (
    APPEND,
    run_abstention_agent,
    run_analysis_agent,
    run_section_routing,
    run_table_routing,
    run_table_synthesis,
    run_text_synthesis,
)
from .corpus import PaperRecord, bib_key
from .document import (
    Reference,
    Section,
    SurveyDocument,
    SurveyState,
    serialize_document,
    validate_document,
)
from .endpoints import TextGenerator
from .errors import (
    AgentError,
    CitationError,
    ConfigError,
    DocumentIntegrityError,
    DocumentParseError,
    OutlineNotApprovedError,
    TableSynthesisError,
)
from .text import segment_sentences

logger = logging.getLogger(__name__)

CITE_PLACEHOLDER = "[cite]"
# The outcomes an update step records.
DECISIONS = ("updated", "abstained", "failed")

Clock = Callable[[], str]


def utc_clock() -> str:
    return datetime.now(timezone.utc).isoformat()


def make_step_clock() -> Clock:
    """Deterministic clock for mock-driven runs: one second per tick from 1970-01-01 UTC."""
    seconds = itertools.count()
    return lambda: datetime.fromtimestamp(next(seconds), tz=timezone.utc).isoformat()


@dataclass(frozen=True)
class UpdateRecord:
    """Full audit of one update step; replaying it reproduces the state delta."""

    paper_id: str
    decision: str  # one of DECISIONS
    routed_section: str | None = None
    routed_table: str | None = None
    ranked_sections: tuple[str, ...] = ()
    table_votes: tuple[tuple[str, bool], ...] = ()
    insertion_sentence_id: str | None = None
    inserted_sentence_ids: tuple[str, ...] = ()
    draft_text: str = ""
    inserted_row: dict | None = None
    resolved_citation_keys: tuple[str, ...] = ()
    placeholder_count: int = 0
    started_at: str = ""
    finished_at: str = ""
    error: str | None = None
    table_error: str | None = None


# ``json.dumps`` with options builds a new encoder per call; the audit
# log shares this one.
_AUDIT_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def insert_paragraph(
    section: Section,
    after: str,
    paragraph: str,
) -> tuple[Section, tuple[str, ...]]:
    """Splice a paragraph into a section immediately after a sentence.

    ``after`` is an existing sentence id or ``"append"``, found in the
    section's kept id tuple. The paragraph is segmented into sentences
    which receive fresh monotonic ids (``Section.with_inserted``); every
    pre-existing sentence keeps its id, text and relative order. An empty
    paragraph is a no-op.
    """
    if after == APPEND:
        position = len(section.sentences)
    else:
        try:
            position = section.sentence_ids().index(after) + 1
        except ValueError:
            raise ValueError(
                f"insertion point {after!r} does not exist in section {section.id!r}") from None
    texts = segment_sentences(paragraph)
    if not texts:
        return section, ()
    new_section = section.with_inserted(position, texts)
    return new_section, new_section.sentence_ids()[position:position + len(texts)]


def resolve_citations(
    draft: str,
    bib: dict,
    doc: SurveyDocument,
) -> tuple[str, tuple[Reference, ...], tuple[str, ...]]:
    """Replace a draft's ``[cite]`` placeholders with the number of its paper.

    An update step integrates one paper, so every placeholder of its draft
    cites that paper's bib entry ``bib`` (empty when the feed gave none).
    A key ``doc``'s references already hold keeps its number; a new key
    is appended as ``len(references) + 1``. Numbering is dense
    (``validate_document`` checks it on load, ``with_additions`` at every
    step), so that is the next number. The key is looked up with
    ``doc.reference_position``, which does not scan the references.
    Returns the final text, the appended tail of the references (the new
    reference, or none) and the cited key once per placeholder.
    """
    count = draft.count(CITE_PLACEHOLDER)
    if count == 0:
        return draft, (), ()
    if not bib:
        raise CitationError("draft contains a [cite] placeholder but no bib entry was provided")
    key = bib_key(bib)
    position = doc.reference_position(key)
    tail: tuple[Reference, ...] = ()
    if position is not None:
        number = doc.references[position - 1].number
    else:
        number = len(doc.references) + 1
        fields = {k: v for k, v in bib.items() if k != "key"}
        tail = (Reference(key=key, number=number, bib=fields),)
    return draft.replace(CITE_PLACEHOLDER, f"[{number}]"), tail, (key,) * count


def _merge(
    doc: SurveyDocument,
    paper: PaperRecord,
    routed_section: str,
    insertion: str,
    draft: str,
    row: dict | None,
    routed_table: str | None,
) -> tuple[SurveyDocument, tuple[str, ...], tuple[str, ...]]:
    """Deterministic merge of synthesis outputs into a new document.

    ``with_additions`` checks the additions before it derives anything: a
    step that fails the check keeps the document before it.
    """
    section = doc.section(routed_section)
    resolved_text, tail, resolved_keys = resolve_citations(draft, paper.bib, doc)
    new_section, inserted = insert_paragraph(section, insertion, resolved_text)
    return doc.with_additions(new_section, tail, routed_table, row), inserted, resolved_keys


def apply_update(
    state: SurveyState,
    paper: PaperRecord,
    generator: TextGenerator,
    clock: Clock | None = None,
) -> tuple[SurveyState, UpdateRecord]:
    """Run the full update loop for one paper against one survey state.

    Analysis, abstention, routing, synthesis, merge. Abstention returns
    the state unchanged. Any agent failure after retries, a draft whose
    citations cannot be resolved, or a merge whose additions fail their
    integrity check aborts the step with the state unchanged and the
    error recorded; a table-synthesis failure downgrades the step to
    text-only instead of aborting it.
    """
    if not state.outline.approved:
        raise OutlineNotApprovedError("updates require an approved outline")
    if state.outline.scope is None:
        raise ConfigError("outline carries no scope definition; abstention cannot run")
    if not state.outline.scope.core_criterion.strip():
        raise ConfigError("survey scope has an empty core criterion")
    now = clock or utc_clock
    started = now()

    try:
        summary = run_analysis_agent(paper, generator)
        include = run_abstention_agent(summary, state.outline.scope, generator)
        if not include:
            return state, UpdateRecord(
                paper_id=paper.id, decision="abstained",
                started_at=started, finished_at=now())

        routing = run_section_routing(summary, state.outline, state.document, generator)
        table_routing = run_table_routing(summary, state.outline, generator)
        draft = run_text_synthesis(
            state.document.section(routing.ranked_sections[0]).body_text(),
            summary, generator)

        row = None
        table_error = None
        if table_routing.table_id is not None:
            try:
                row = run_table_synthesis(
                    state.document.table(table_routing.table_id), summary, generator)
            except TableSynthesisError as exc:
                table_error = str(exc)
                logger.warning("table synthesis failed for %s; completing text-only: %s",
                               paper.id, exc)
        new_doc, inserted_ids, resolved_keys = _merge(
            state.document, paper, routing.ranked_sections[0],
            routing.insertion_sentence_id, draft, row, table_routing.table_id)
    except (AgentError, CitationError, DocumentIntegrityError) as exc:
        logger.warning("update step failed for %s: %s", paper.id, exc)
        return state, UpdateRecord(
            paper_id=paper.id, decision="failed", error=str(exc),
            started_at=started, finished_at=now())

    if not resolved_keys:
        logger.info("draft for %s carries no [cite] placeholder", paper.id)
    record = UpdateRecord(
        paper_id=paper.id,
        decision="updated",
        routed_section=routing.ranked_sections[0],
        routed_table=table_routing.table_id,
        ranked_sections=routing.ranked_sections,
        table_votes=table_routing.votes,
        insertion_sentence_id=routing.insertion_sentence_id,
        inserted_sentence_ids=inserted_ids,
        draft_text=draft,
        inserted_row=row,
        resolved_citation_keys=resolved_keys,
        placeholder_count=len(resolved_keys),
        started_at=started,
        finished_at=now(),
        table_error=table_error,
    )
    return state.with_document(new_doc), record


def replay_update(
    state: SurveyState,
    record: UpdateRecord,
    paper: PaperRecord,
) -> SurveyState:
    """Reproduce a recorded state delta without invoking any agent, through
    the merge a step runs; a record that does not merge raises
    ``DocumentIntegrityError`` naming the paper."""
    if record.decision != "updated":
        return state
    if record.routed_section is None:
        raise DocumentIntegrityError(
            f"audit record of {record.paper_id} is 'updated' but names no routed section")
    try:
        new_doc, inserted_ids, _ = _merge(
            state.document, paper, record.routed_section,
            record.insertion_sentence_id or APPEND, record.draft_text,
            record.inserted_row, record.routed_table)
    except (KeyError, ValueError, DocumentIntegrityError) as exc:
        raise DocumentIntegrityError(
            f"audit record of {record.paper_id} does not replay: {exc.args[0]}") from exc
    if inserted_ids != record.inserted_sentence_ids:
        raise DocumentIntegrityError(
            f"replay of {record.paper_id} produced sentence ids {inserted_ids}, "
            f"recorded {record.inserted_sentence_ids}")
    return state.with_document(new_doc)


def publish(state: SurveyState, out: str | Path) -> Path:
    """Check the whole document, then replace its canonical file atomically.

    Same state, same bytes. An invalid document raises
    ``DocumentIntegrityError`` and nothing is written. The text goes to a
    temporary file in the same directory, which ``os.replace`` moves over
    ``out``: a reader sees the old survey or the new one, never a torn
    file. A failed write removes the temporary file and leaves ``out``
    as it was.
    """
    validate_document(state.document)
    path = Path(out)
    jsonio.replace_text(path, serialize_document(state.document))
    return path


def _record_fields(record: UpdateRecord) -> dict:
    """The record's fields by name, with each table vote as a list; no value is copied."""
    return {**vars(record), "table_votes": [[t, v] for t, v in record.table_votes]}


def update_record_to_dict(record: UpdateRecord) -> dict:
    """The record's fields by name, with each table vote as a list.

    Equal to ``dataclasses.asdict(record)`` apart from the votes, without
    its recursive copy of every value: the other fields are immutable, and
    only the inserted row is copied.
    """
    data = _record_fields(record)
    data["inserted_row"] = copy.deepcopy(record.inserted_row)
    return data


def update_record_from_dict(data: dict) -> UpdateRecord:
    """An audit record, read by ``jsonio``'s rules; a malformed one raises DocumentParseError."""
    data = jsonio.check(data, dict, DocumentParseError, "audit record")
    votes = jsonio.array(data, "table_votes", list, DocumentParseError, "audit record", ())
    for vote in votes:
        if len(vote) != 2 or type(vote[0]) is not str or type(vote[1]) is not bool:
            raise DocumentParseError(
                f"audit record table vote must be a [string, boolean] pair, got {vote!r}")
    record = jsonio.build(UpdateRecord, data, DocumentParseError, "audit record",
                          table_votes=tuple((table_id, vote) for table_id, vote in votes))
    if record.decision not in DECISIONS:
        raise DocumentParseError(f"audit record decision must be one of "
                                 f"{', '.join(DECISIONS)}, got {record.decision!r}")
    # ``_merge`` appends a row only to its routed table.
    if record.inserted_row is not None and record.routed_table is None:
        raise DocumentParseError("audit record has an inserted_row but no routed_table")
    return record


def write_audit_log(records: list[UpdateRecord], path: str | Path) -> None:
    """Store update records as newline-delimited JSON, replacing the file as ``publish`` does.

    Each line is ``json.dumps(update_record_to_dict(record),
    ensure_ascii=False, sort_keys=True)``, written by one shared encoder
    from the record's own values (``_record_fields``): writing reads them
    and copies none.
    """
    lines = [_AUDIT_ENCODER.encode(_record_fields(r)) for r in records]
    jsonio.replace_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_audit_log(path: str | Path) -> list[UpdateRecord]:
    """The records of an audit log; a line that cannot be read, a torn last
    line included, raises DocumentParseError naming its number."""
    return jsonio.read_lines(path, DocumentParseError, "audit log", update_record_from_dict)
