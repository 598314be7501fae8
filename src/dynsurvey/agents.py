"""The seven agent roles as prompt-templated calls with defensive parsing.

Agents never receive write access to survey state; each returns a
proposal that the update engine merges. Every call retries up to the
generator's configured bound, appending a machine-readable correction
hint to the prompt on each retry.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from typing import Callable, TypeVar

from . import prompts
from .corpus import PaperRecord, PaperSummary, SurveyScope
from .document import (
    ColumnSpec,
    Section,
    StructuredOutline,
    SurveyDocument,
    SurveyTable,
    outline_entries_from_dict,
)
from .endpoints import GenerationRequest, TextGenerator
from .errors import (
    AgentError,
    AnalysisParseError,
    ConfigError,
    DocumentParseError,
    OutlineNotApprovedError,
    RoutingError,
    SchemaViolationError,
    SynthesisFormatError,
    TableSynthesisError,
)
from .parsing import (
    ParseFailure,
    extract_single_paragraph,
    extract_true_false,
    extract_yes_no,
    interpret_json_value,
    parse_headed_summary,
    strip_reasoning,
)

logger = logging.getLogger(__name__)

APPEND = "append"

_T = TypeVar("_T")
# A sentence id ``"{section_id}:{counter}"``: the section part runs up to
# the last colon, so a section id may hold colons.
_SENTENCE_ID = re.compile(r"\S+:\d+")
# What a reply may write before an id: code, quote and emphasis marks and
# opening brackets.
_ID_DECORATION = "`'\"*_([{<"


@dataclass(frozen=True)
class RoutingDecision:
    """Target scope for one paper: three ranked sections plus an insertion point."""

    ranked_sections: tuple[str, str, str]
    insertion_sentence_id: str  # a sentence id in the top section, or APPEND


@dataclass(frozen=True)
class TableRoutingResult:
    """First table answered "yes" in outline order, plus the full vote vector."""

    table_id: str | None
    votes: tuple[tuple[str, bool], ...]


def _call(
    generator: TextGenerator,
    role: str,
    key: str,
    prompt: str,
    interpret: Callable[[str], _T],
    error_type: type[AgentError],
) -> _T:
    """Run one agent call with bounded correction retries.

    A reply holding a lone surrogate is rejected like a malformed one: no
    UTF-8 file, survey or audit log, could hold it.
    """
    max_retries = generator.max_retries
    current = prompt
    last_hint = ""
    for attempt in range(max_retries + 1):
        raw = generator.generate(GenerationRequest(role, key, attempt, current))
        try:
            if not raw.isascii():
                _check_encodable(raw)
            return interpret(raw)
        except ParseFailure as exc:
            last_hint = exc.hint
            logger.info("%s response rejected for %s (attempt %d): %s",
                        role, key, attempt, exc.hint)
            current = prompt + f"\n\nCORRECTION: {exc.hint}"
    raise error_type(f"{role} failed for {key!r} after {max_retries + 1} attempts: {last_hint}")


def _check_encodable(raw: str) -> None:
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseFailure(f"output holds a lone surrogate at character {exc.start}; "
                           "send valid Unicode text") from None


def _survey_body_text(doc: SurveyDocument, section_ids: list[str], table_ids: list[str]) -> str:
    parts = []
    for section_id in section_ids:
        section = doc.section(section_id)
        parts.append(f"[{section.id}] {section.title}\n{section.body_text()}")
    for table_id in table_ids:
        table = doc.table(table_id)
        columns = ", ".join(c.name for c in table.schema)
        parts.append(f"[table {table.id}] {table.title} (columns: {columns})")
    return "\n\n".join(parts)


def run_outline_agent(
    doc: SurveyDocument,
    allowed_sections: list[str],
    allowed_tables: list[str],
    generator: TextGenerator,
    scope: SurveyScope | None = None,
) -> StructuredOutline:
    """Extract a structured outline restricted to the allowed ids.

    The returned outline is unapproved; entries must cover exactly the
    allowed ids with unmodified titles, or the call fails with a schema
    violation after retries.
    """
    doc_sections = {s.id for s in doc.sections}
    doc_tables = {t.id for t in doc.tables}
    unknown = [i for i in allowed_sections if i not in doc_sections]
    unknown += [i for i in allowed_tables if i not in doc_tables]
    if unknown:
        raise ConfigError(f"allowed ids {unknown} do not exist in the document")

    titles = {s.id: s.title for s in doc.sections}
    table_titles = {t.id: t.title for t in doc.tables}
    prompt = prompts.render(
        prompts.OUTLINE,
        survey_title=str(doc.metadata.get("title", "")),
        section_ids=", ".join(allowed_sections),
        table_ids=", ".join(allowed_tables) if allowed_tables else "none",
        survey_text=_survey_body_text(doc, allowed_sections, allowed_tables),
    )

    def interpret(data: object) -> StructuredOutline:
        if not isinstance(data, dict):
            raise ParseFailure("output must be a JSON object with sections and tables arrays")
        try:
            sections, tables = outline_entries_from_dict(data)
        except DocumentParseError as exc:
            raise ParseFailure(f"malformed outline entry: {exc}") from exc
        section_entries = {e.id: e for e in sections}
        table_entries = {e.id: e for e in tables}
        problems = []
        if set(section_entries) != set(allowed_sections):
            problems.append(
                f"section ids must be exactly {allowed_sections}, got {sorted(section_entries)}")
        if set(table_entries) != set(allowed_tables):
            problems.append(
                f"table ids must be exactly {allowed_tables}, got {sorted(table_entries)}")
        for entry in section_entries.values():
            expected = titles.get(entry.id)
            if expected is not None and entry.section_title != expected:
                problems.append(
                    f"section {entry.id!r} title must stay {expected!r}")
            if entry.id in set(allowed_sections) and \
                    len(entry.table_relevant) != len(allowed_tables):
                problems.append(
                    f"section {entry.id!r} needs {len(allowed_tables)} table_relevant flags")
        for entry in table_entries.values():
            expected = table_titles.get(entry.id)
            if expected is not None and entry.title != expected:
                problems.append(f"table {entry.id!r} title must stay {expected!r}")
        if problems:
            raise ParseFailure("; ".join(problems))
        return StructuredOutline(
            section_entries=tuple(section_entries[i] for i in allowed_sections),
            table_entries=tuple(table_entries[i] for i in allowed_tables),
            scope=scope,
            approved=False,
        )

    return _call(generator, "outline", "survey", prompt,
                 lambda raw: interpret_json_value(raw, interpret), SchemaViolationError)


def approve_outline(outline: StructuredOutline) -> StructuredOutline:
    """Mark an outline reviewed and frozen; approving twice is a no-op."""
    if outline.approved:
        return outline
    return replace(outline, approved=True)


def run_analysis_agent(paper: PaperRecord, generator: TextGenerator) -> PaperSummary:
    """Summarize a paper into methods, novelty and results fields; a paper
    with no full text fails without a call."""
    if not paper.full_text.strip():
        raise AnalysisParseError(f"paper {paper.id!r} has empty full_text")
    prompt = prompts.render(prompts.ANALYSIS, paper_text=paper.full_text)

    def interpret(raw: str) -> PaperSummary:
        fields = parse_headed_summary(raw, ("Methods", "Novelty", "Results"))
        return PaperSummary(
            methods=fields["Methods"],
            novelty=fields["Novelty"],
            results=fields["Results"],
            source_paper_id=paper.id,
        )

    return _call(generator, "analysis", paper.id, prompt, interpret, AnalysisParseError)


def run_abstention_agent(
    summary: PaperSummary,
    scope: SurveyScope,
    generator: TextGenerator,
) -> bool:
    """Decide whether the paper enters the routing stage at all.

    An answer that stays unparseable through retries counts as abstention:
    survey integrity beats coverage. ``apply_update`` rejects a scope with
    no core criterion before the step's first call.
    """
    prompt = prompts.render(
        prompts.ABSTENTION,
        title=scope.title,
        keywords=", ".join(scope.keywords),
        abstract=scope.abstract,
        core_criterion=scope.core_criterion,
        paper_summary=summary.as_text(),
    )

    def interpret(raw: str) -> bool:
        answer = extract_true_false(raw)
        if answer is None:
            raise ParseFailure("answer TRUE or FALSE")
        return answer

    try:
        return _call(generator, "abstention", summary.source_paper_id, prompt,
                     interpret, SchemaViolationError)
    except SchemaViolationError:
        logger.warning("parse-abstain: unparseable abstention answer for %s",
                       summary.source_paper_id)
        return False


def _choose_insertion(raw: str, section: Section) -> str:
    """Pick the insertion sentence from a part-2 response; fall back to append.

    The first id-shaped word is taken as written or, when the section has
    no such id, without the marks a reply may write before it
    (`` `2:2` ``, ``"2:2"``, ``**2:2**``, ``[2:2]``).
    """
    cleaned = strip_reasoning(raw)
    match = _SENTENCE_ID.search(cleaned)
    if match:
        ids = section.sentence_ids()
        for candidate in (match.group(0), match.group(0).lstrip(_ID_DECORATION)):
            if candidate in ids:
                return candidate
        logger.info("insertion point %r not in section %s; appending",
                    match.group(0), section.id)
    return APPEND


def run_section_routing(
    summary: PaperSummary,
    outline: StructuredOutline,
    doc: SurveyDocument,
    generator: TextGenerator,
) -> RoutingDecision:
    """Two-stage routing: rank three sections, then pick an insertion sentence.

    Stage one ranks against the outline summaries and must return three
    distinct existing section ids. Stage two reads the top section's
    current text; an unknown insertion id degrades to appending.
    """
    if not outline.approved:
        raise OutlineNotApprovedError("section routing requires an approved outline")
    topic = outline.scope.title if outline.scope else ""
    section_list, valid_ids = outline.routing_sections()
    prompt = prompts.render(
        prompts.SECTION_ROUTING,
        survey_topic=topic,
        section_list=section_list,
        paper_summary=summary.as_text(),
    )

    def interpret(data: object) -> tuple[str, str, str]:
        if not isinstance(data, list):
            raise ParseFailure("return a JSON array of exactly 3 section IDs")
        ids = [str(x) for x in data]
        if len(ids) != 3:
            raise ParseFailure(f"return exactly 3 section IDs, got {len(ids)}")
        if len(set(ids)) != 3:
            raise ParseFailure(f"section IDs must be distinct, got {ids}")
        unknown = [i for i in ids if i not in valid_ids]
        if unknown:
            raise ParseFailure(f"unknown section IDs {unknown}; choose from {sorted(valid_ids)}")
        return (ids[0], ids[1], ids[2])

    ranked = _call(generator, "section_routing", summary.source_paper_id, prompt,
                   lambda raw: interpret_json_value(raw, interpret), RoutingError)

    top_section = doc.section(ranked[0])
    numbered = "\n".join(f"{s.id}: {s.text}" for s in top_section.sentences)
    part2_prompt = prompts.render(
        prompts.INSERTION_POINT,
        survey_topic=topic,
        section_text=numbered,
        paper_summary=summary.as_text(),
    )
    # ``_choose_insertion`` falls back to appending and never rejects a
    # reply, so this call makes one attempt.
    insertion = _call(generator, "insertion_point", summary.source_paper_id, part2_prompt,
                      lambda raw: _choose_insertion(raw, top_section), RoutingError)
    return RoutingDecision(ranked_sections=ranked, insertion_sentence_id=insertion)


def run_table_routing(
    summary: PaperSummary,
    outline: StructuredOutline,
    generator: TextGenerator,
) -> TableRoutingResult:
    """Ask the yes/no inclusion question independently for every table.

    The first table answered "yes" in outline order wins; an unparseable
    answer counts as "no" for that table and is logged.
    """
    if not outline.approved:
        raise OutlineNotApprovedError("table routing requires an approved outline")
    topic = outline.scope.title if outline.scope else ""
    votes: list[tuple[str, bool]] = []
    for entry in outline.table_entries:
        prompt = prompts.render(
            prompts.TABLE_ROUTING,
            table_title=entry.title,
            survey_topic=topic,
            table_description=entry.summary,
            paper_summary=summary.as_text(),
        )
        # ``extract_yes_no`` gives None for an unparseable answer and never
        # rejects one, so this call makes one attempt.
        answer = _call(generator, "table_routing", f"{summary.source_paper_id}:{entry.id}",
                       prompt, extract_yes_no, RoutingError)
        if answer is None:
            logger.warning("unparseable table-routing answer for %s on table %s; treating as no",
                           summary.source_paper_id, entry.id)
            answer = False
        votes.append((entry.id, answer))
    chosen = next((table_id for table_id, vote in votes if vote), None)
    return TableRoutingResult(table_id=chosen, votes=tuple(votes))


def run_text_synthesis(
    section_text: str,
    summary: PaperSummary,
    generator: TextGenerator,
) -> str:
    """Draft exactly one paragraph extending the routed section.

    Citation placeholders use the literal ``[cite]`` marker and stay
    optional. Multi-paragraph or headed output fails after retries.
    """
    prompt = prompts.render(
        prompts.TEXT_SYNTHESIS,
        survey_text=section_text,
        new_paper_summary=summary.as_text(),
    )

    def interpret(raw: str) -> str:
        paragraph = extract_single_paragraph(raw)
        if not re.match(r"^[^:\n]{1,120}:", paragraph):
            # Requested by the prompt but not load-bearing for the merge.
            logger.debug("synthesis draft for %s does not open with a name and colon",
                         summary.source_paper_id)
        return paragraph

    return _call(generator, "text_synthesis", summary.source_paper_id, prompt,
                 interpret, SynthesisFormatError)


def _field_spec(column: ColumnSpec) -> str:
    if column.kind == "categorical":
        options = " or ".join(f'"{v}"' for v in column.values)
        return f"- {column.name}: {options}"
    if column.kind == "int":
        return f"- {column.name}: integer {column.minimum}-{column.maximum}"
    return f"- {column.name}: free text"


def run_table_synthesis(
    table: SurveyTable,
    summary: PaperSummary,
    generator: TextGenerator,
) -> dict:
    """Produce one schema-conforming candidate row for the routed table."""
    if not table.schema:
        raise TableSynthesisError(f"table {table.id!r} has an empty schema")
    prompt = prompts.render(
        prompts.TABLE_SYNTHESIS,
        field_specs="\n".join(_field_spec(c) for c in table.schema),
        paper_summary=summary.as_text(),
    )

    def interpret(data: object) -> dict:
        if not isinstance(data, dict):
            raise ParseFailure("output must be a single JSON object")
        row = dict(data)
        for column in table.schema:
            value = row.get(column.name)
            if column.kind == "int" and isinstance(value, str):
                try:
                    row[column.name] = int(value)
                except ValueError:
                    pass
        problems = table.check_row(row)
        if problems:
            raise ParseFailure("; ".join(problems))
        return row

    return _call(generator, "table_synthesis", f"{summary.source_paper_id}:{table.id}",
                 prompt, lambda raw: interpret_json_value(raw, interpret),
                 TableSynthesisError)
