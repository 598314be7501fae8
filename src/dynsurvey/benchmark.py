"""Retrospective benchmark: instance construction and method streams.

An instance is built from a full survey by withholding annotated spans
and their reference entries; the withheld papers are replayed one at a
time as if newly published. Three methods run over the same stream: the
framework update loop plus two single-call baselines, one blind and one
told the ground-truth target section.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

from . import jsonio, prompts
from .corpus import PaperRecord
from .document import (
    Reference,
    Section,
    Sentence,
    SurveyDocument,
    SurveyState,
    document_from_dict,
    revise_document,
    serialize_document,
    validate_document,
    validate_state,
)
from .endpoints import GenerationRequest, TextGenerator
from .engine import Clock, UpdateRecord, apply_update, make_step_clock
from .errors import (
    AgentError,
    BenchmarkConstructionError,
    CitationError,
    DocumentIntegrityError,
    DocumentParseError,
)
from .metrics import derive_inserted_sentences
from .parsing import ParseFailure, extract_json_value
from .text import segment_sentences

logger = logging.getLogger(__name__)

FRAMEWORK = "framework"
ONE_STEP = "one_step"
ORACLE = "oracle"
METHODS = (FRAMEWORK, ONE_STEP, ORACLE)


@dataclass(frozen=True)
class SpanAnnotation:
    """Marks the text a late paper contributed to the full survey."""

    paper_id: str
    section_id: str
    text: str


@dataclass(frozen=True)
class GroundTruthSpan:
    """Contiguous text removed from one section to form the early state."""

    section_id: str
    text: str


@dataclass(frozen=True)
class BenchmarkInstance:
    name: str
    early_state: SurveyState
    late_papers: tuple[tuple[PaperRecord, GroundTruthSpan], ...]
    out_of_scope_papers: tuple[PaperRecord, ...]


@dataclass(frozen=True)
class StepResult:
    """Everything one update step exposes to the metric suite."""

    method: str
    paper_id: str
    out_of_scope: bool   # the label y
    abstained: bool      # the decision a-hat
    before: SurveyDocument
    after: SurveyDocument
    gt_span: GroundTruthSpan | None
    paper_repr: str = ""  # source paper representation for alignment scoring
    ranked_sections: tuple[str, ...] = ()
    routed_section: str | None = None
    routed_table: str | None = None
    inserted: tuple[Sentence, ...] = ()
    record: UpdateRecord | None = None
    error: str | None = None


def paper_representation(paper: PaperRecord) -> str:
    return f"{paper.title}. {paper.abstract}".strip()


def load_span_annotations(path: str | Path) -> list[SpanAnnotation]:
    data = jsonio.read_json(path, DocumentParseError, "span annotations")
    return [jsonio.build(SpanAnnotation, entry, DocumentParseError, "span annotation")
            for entry in jsonio.array(data, "spans", dict, DocumentParseError,
                                      "span annotations", ())]


def save_span_annotations(annotations: list[SpanAnnotation], path: str | Path) -> None:
    data = {"spans": [
        {"paper_id": a.paper_id, "section_id": a.section_id, "text": a.text}
        for a in annotations
    ]}
    jsonio.replace_text(path, json.dumps(data, indent=2, ensure_ascii=False) + "\n")


def _find_span(sentences: list[Sentence], span_texts: list[str], label: str) -> tuple[int, int]:
    """Locate a contiguous sentence run matching the span; must be unique."""
    window = len(span_texts)
    matches = [
        start for start in range(len(sentences) - window + 1)
        if [s.text for s in sentences[start:start + window]] == span_texts
    ]
    if not matches:
        raise BenchmarkConstructionError(f"span for {label} not found in its section")
    if len(matches) > 1:
        raise BenchmarkConstructionError(f"span for {label} is ambiguous ({len(matches)} matches)")
    return matches[0], matches[0] + window


def build_instance(
    name: str,
    full_state: SurveyState,
    late_papers: list[PaperRecord],
    annotations: list[SpanAnnotation],
    out_of_scope_papers: list[PaperRecord],
) -> BenchmarkInstance:
    """Withhold annotated spans and their references from a full survey.

    Each late paper needs exactly one annotation locating its span in one
    section; spans in one section are cut from it in turn. The early state
    keeps the full survey's outline frozen; references belonging to late
    papers are removed and the remaining entries renumbered densely.
    """
    if full_state.outline.scope is None:
        raise BenchmarkConstructionError("full survey outline carries no scope definition")
    by_paper: dict[str, list[SpanAnnotation]] = {}
    for annotation in annotations:
        by_paper.setdefault(annotation.paper_id, []).append(annotation)
    late_ids = {p.id for p in late_papers}
    oos_ids = {p.id for p in out_of_scope_papers}
    overlap = late_ids & oos_ids
    if overlap:
        raise BenchmarkConstructionError(
            f"late and out-of-scope paper sets overlap: {sorted(overlap)}")

    doc = full_state.document
    # Section id -> the section with its spans cut so far.
    cut: dict[str, Section] = {}
    spans: list[GroundTruthSpan] = []
    for paper in late_papers:
        matching = by_paper.get(paper.id, [])
        if len(matching) != 1:
            raise BenchmarkConstructionError(
                f"late paper {paper.id!r} has {len(matching)} span annotations, expected 1")
        annotation = matching[0]
        try:
            section = cut.get(annotation.section_id) or doc.section(annotation.section_id)
        except KeyError as exc:
            raise BenchmarkConstructionError(
                f"span for {paper.id!r} names unknown section {annotation.section_id!r}") from exc
        span_texts = segment_sentences(annotation.text)
        if not span_texts:
            raise BenchmarkConstructionError(f"span for {paper.id!r} is empty")
        start, end = _find_span(list(section.sentences), span_texts, repr(paper.id))
        remaining = section.sentences[:start] + section.sentences[end:]
        cut[annotation.section_id] = replace(section, sentences=remaining)
        spans.append(GroundTruthSpan(section_id=annotation.section_id, text=" ".join(span_texts)))

    late_keys = set()
    for paper in late_papers:
        try:
            late_keys.add(paper.bib_key)
        except CitationError:
            pass  # a paper that cannot be cited has no reference to withhold
    kept = [r for r in doc.references if r.key not in late_keys]
    renumbered = tuple(
        Reference(key=r.key, number=i, bib=r.bib) for i, r in enumerate(kept, start=1))
    doc = SurveyDocument(doc.metadata, tuple(cut.get(s.id, s) for s in doc.sections),
                         doc.tables, renumbered)
    validate_document(doc)

    early_state = full_state.with_document(doc)
    validate_state(early_state)
    return BenchmarkInstance(
        name=name,
        early_state=early_state,
        late_papers=tuple(zip(late_papers, spans)),
        out_of_scope_papers=tuple(out_of_scope_papers),
    )


def _framework_step(
    state: SurveyState,
    paper: PaperRecord,
    span: GroundTruthSpan | None,
    generator: TextGenerator,
    clock: Clock,
) -> tuple[SurveyState, StepResult]:
    new_state, record = apply_update(state, paper, generator, clock=clock)
    inserted = []
    if record.decision == "updated" and record.routed_section:
        section = new_state.document.section(record.routed_section)
        wanted = set(record.inserted_sentence_ids)
        inserted = [s for s in section.sentences if s.id in wanted]
    result = StepResult(
        method=FRAMEWORK,
        paper_id=paper.id,
        out_of_scope=span is None,
        abstained=record.decision == "abstained",
        before=state.document,
        after=new_state.document,
        gt_span=span,
        paper_repr=paper_representation(paper),
        ranked_sections=record.ranked_sections,
        routed_section=record.routed_section,
        routed_table=record.routed_table,
        inserted=tuple(inserted),
        record=record,
        error=record.error,
    )
    return new_state, result


def _baseline_step(
    method: str,
    doc: SurveyDocument,
    paper: PaperRecord,
    span: GroundTruthSpan | None,
    generator: TextGenerator,
    document: str,
) -> tuple[SurveyDocument, str, StepResult]:
    """One whole-document single-call update; fails closed on a failed call or bad output.

    ``document`` is ``serialize_document(doc)``. The step returns its
    output document with that document's canonical text, so a stream
    serializes each document once; a step that fails closed returns its
    input and ``document``. Oracle steps name the ground-truth section;
    an out-of-scope paper has none, so its oracle step gets the one-step
    prompt.
    """
    oracle = method == ORACLE and span is not None
    prompt = prompts.render(
        prompts.ORACLE_UPDATE if oracle else prompts.ONE_STEP_UPDATE,
        target_section=span.section_id if oracle else "",
        document=document,
        paper_title=paper.title,
        paper_abstract=paper.abstract,
    )
    error = None
    try:
        raw = generator.generate(GenerationRequest(method, paper.id, 0, prompt))
        # A reply in the canonical layout is decoded only where it
        # changed; any other goes through the full parse, which raises
        # the error of a reply neither accepts.
        new_doc = revise_document(raw, doc) or document_from_dict(extract_json_value(raw))
    except (AgentError, ParseFailure, DocumentParseError, DocumentIntegrityError) as exc:
        # Fail closed: a failed call or an unparseable full-document
        # response must not end or corrupt the stream, so the original
        # document carries forward, as after a failed framework step.
        error = str(exc)
        new_doc = doc
        logger.warning("%s step for %s failed closed: %s", method, paper.id, exc)
    new_text = document if error is not None else serialize_document(new_doc)
    result = StepResult(
        method=method,
        paper_id=paper.id,
        out_of_scope=span is None,
        abstained=error is None and new_text == document,
        before=doc,
        after=new_doc,
        gt_span=span,
        paper_repr=paper_representation(paper),
        inserted=tuple(derive_inserted_sentences(doc, new_doc)),
        error=error,
    )
    return new_doc, new_text, result


def run_method(
    method: str,
    instance: BenchmarkInstance,
    generator: TextGenerator,
    clock: Clock | None = None,
) -> list[StepResult]:
    """Thread one method over the late papers, then the out-of-scope papers.

    Per-step failures are recorded and the stream continues from the
    unchanged state.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    tick = clock or make_step_clock()
    state = instance.early_state
    results: list[StepResult] = []
    stream = [*instance.late_papers, *((paper, None) for paper in instance.out_of_scope_papers)]
    # A baseline document's canonical text travels here, not on the
    # document: every StepResult keeps its documents alive.
    document = serialize_document(state.document) if method != FRAMEWORK else ""
    for paper, span in stream:
        if method == FRAMEWORK:
            state, result = _framework_step(state, paper, span, generator, tick)
        else:
            doc, document, result = _baseline_step(
                method, state.document, paper, span, generator, document)
            state = state.with_document(doc)
        results.append(result)
    return results
