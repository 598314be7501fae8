"""Candidate papers, their structured summaries, survey scope, and feed ingestion.

The feed is a newline-delimited JSON file of paper records written by an
external crawler. Ingestion applies a coarse candidate filter only; it
makes no relevance judgment and never touches survey state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CitationError, ConfigError, FeedError

# Venue string that marks a record as not peer reviewed.
PREPRINT_VENUE = "preprint"


@dataclass(frozen=True)
class PaperRecord:
    """One candidate paper as delivered by the feed."""

    id: str
    title: str
    abstract: str
    full_text: str
    venue: str
    date: str  # ISO-8601 date
    categories: tuple[str, ...] = ()
    bib: dict = field(default_factory=dict)  # bibliographic fields plus "key"

    @property
    def bib_key(self) -> str:
        return bib_key(self.bib)


def bib_key(bib: dict) -> str:
    """The citation key of a bib entry.

    Raises CitationError when the key is missing, empty or not a JSON
    string, so a paper that cannot be cited fails its own step.
    """
    key = bib.get("key")
    if not key:
        raise CitationError("bib entry has no citation key")
    if not isinstance(key, str):
        raise CitationError(f"bib entry citation key must be a string, got {key!r}")
    return key


@dataclass(frozen=True)
class PaperSummary:
    """Structured methods/novelty/results representation of a paper."""

    methods: str
    novelty: str
    results: str
    source_paper_id: str

    def as_text(self) -> str:
        return (
            f"Methods: {self.methods}\n"
            f"Novelty: {self.novelty}\n"
            f"Results: {self.results}"
        )


@dataclass(frozen=True)
class SurveyScope:
    """Author-written topical boundary of a survey."""

    title: str
    keywords: tuple[str, ...]
    abstract: str
    core_criterion: str


def scope_from_dict(data: dict) -> SurveyScope:
    return SurveyScope(
        title=str(data.get("title", "")),
        keywords=tuple(str(k) for k in data.get("keywords", [])),
        abstract=str(data.get("abstract", "")),
        core_criterion=str(data.get("core_criterion", "")),
    )


def scope_to_dict(scope: SurveyScope) -> dict:
    return {
        "title": scope.title,
        "keywords": list(scope.keywords),
        "abstract": scope.abstract,
        "core_criterion": scope.core_criterion,
    }


@dataclass(frozen=True)
class CandidateFilter:
    """Coarse feed filter: categories, venues, date range, review status.

    Empty category or venue lists impose no constraint. Peer-review status
    is encoded by convention: a record with venue equal to
    ``PREPRINT_VENUE`` is not peer reviewed.
    """

    allowed_categories: tuple[str, ...] = ()
    allowed_venues: tuple[str, ...] = ()
    date_range: tuple[str, str] = ("0000-01-01", "9999-12-31")
    require_peer_reviewed: bool = False

    def __post_init__(self) -> None:
        start, end = self.date_range
        if start > end:
            raise ValueError(f"filter date_range start {start!r} exceeds end {end!r}")

    def matches(self, record: PaperRecord) -> bool:
        if self.allowed_categories and not set(record.categories) & set(self.allowed_categories):
            return False
        if self.allowed_venues and record.venue not in self.allowed_venues:
            return False
        start, end = self.date_range
        if not start <= record.date <= end:
            return False
        if self.require_peer_reviewed and record.venue == PREPRINT_VENUE:
            return False
        return True


def filter_from_dict(data: dict) -> CandidateFilter:
    date_range = data.get("date_range") or ["0000-01-01", "9999-12-31"]
    require_peer_reviewed = data.get("require_peer_reviewed", False)
    if not isinstance(require_peer_reviewed, bool):
        raise ConfigError(f"filter require_peer_reviewed must be a JSON boolean, "
                          f"got {require_peer_reviewed!r}")
    return CandidateFilter(
        allowed_categories=tuple(data.get("allowed_categories", [])),
        allowed_venues=tuple(data.get("allowed_venues", [])),
        date_range=(str(date_range[0]), str(date_range[1])),
        require_peer_reviewed=require_peer_reviewed,
    )


def record_from_dict(data: dict) -> PaperRecord:
    return PaperRecord(
        id=str(data["id"]),
        title=str(data.get("title", "")),
        abstract=str(data.get("abstract", "")),
        full_text=str(data.get("full_text", "")),
        venue=str(data.get("venue", "")),
        date=str(data.get("date", "")),
        categories=tuple(str(c) for c in data.get("categories", [])),
        bib=dict(data.get("bib", {})),
    )


def record_to_dict(record: PaperRecord) -> dict:
    return {
        "id": record.id,
        "title": record.title,
        "abstract": record.abstract,
        "full_text": record.full_text,
        "venue": record.venue,
        "date": record.date,
        "categories": list(record.categories),
        "bib": dict(record.bib),
    }


def ingest_feed(feed: str | Path, candidate_filter: CandidateFilter) -> list[PaperRecord]:
    """Read a newline-delimited JSON feed and keep records passing the filter.

    Order is preserved. Returned records are candidates only; no relevance
    judgment is made here. Raises FeedError naming the offending record
    index on malformed input.
    """
    path = Path(feed)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FeedError(f"cannot read feed {path}: {exc}") from exc
    records: list[PaperRecord] = []
    for index, line in enumerate(raw.splitlines()):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            record = record_from_dict(data)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FeedError(f"malformed feed record at line {index + 1} of {path}: {exc}") from exc
        if candidate_filter.matches(record):
            records.append(record)
    return records


def write_feed(records: list[PaperRecord], path: str | Path) -> None:
    lines = [json.dumps(record_to_dict(r), ensure_ascii=False) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
