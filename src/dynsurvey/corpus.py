"""Candidate papers, their structured summaries, survey scope, and feed ingestion.

The feed is a newline-delimited JSON file of paper records written by an
external crawler. Ingestion applies a coarse candidate filter only; it
makes no relevance judgment and never touches survey state.
"""

from __future__ import annotations

import calendar
import json
import logging
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import jsonio
from .errors import CitationError, ConfigError, FeedError

logger = logging.getLogger(__name__)

# Venue string that marks a record as not peer reviewed.
PREPRINT_VENUE = "preprint"
# An ISO YYYY-MM-DD date opening a text and ending it or followed by a T
# or a space; a day past the 28th is checked against its month apart.
_DATE_PART = re.compile(r"(\d{4})-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])(?=[T ]|\Z)", re.ASCII)


@dataclass(frozen=True)
class PaperRecord:
    """One candidate paper as delivered by the feed; only the id is required."""

    id: str
    title: str = ""
    abstract: str = ""
    full_text: str = ""
    venue: str = ""
    date: str = ""  # ISO-8601 date
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

    title: str = ""
    keywords: tuple[str, ...] = ()
    abstract: str = ""
    core_criterion: str = ""


@dataclass(frozen=True)
class CandidateFilter:
    """Coarse feed filter: categories, venues, date range, review status.

    Empty category or venue lists and an empty date range impose no
    constraint. A set date range holds a start and an end, both inclusive
    and both ISO ``YYYY-MM-DD`` dates. It compares a record's date part,
    the text before a ``T`` or a space, so a timestamp on the end day is
    kept; a record whose date part does not read as ``YYYY-MM-DD``, an
    undated one included, is dropped with a warning. Two such dates
    compare as their strings do, the fields being fixed-width.
    Peer-review status is encoded by convention: a record with venue equal
    to ``PREPRINT_VENUE`` is not peer reviewed.
    """

    allowed_categories: tuple[str, ...] = ()
    allowed_venues: tuple[str, ...] = ()
    date_range: tuple[str, ...] = ()
    require_peer_reviewed: bool = False

    def __post_init__(self) -> None:
        if not self.date_range:
            return
        if len(self.date_range) != 2:
            raise ConfigError(
                f"filter date_range must hold a start and an end, got {self.date_range!r}")
        start, end = self.date_range
        for bound in (start, end):
            if _date_part(bound) != bound:
                raise ConfigError(f"filter date_range bound {bound!r} is not a YYYY-MM-DD date")
        if start > end:
            raise ConfigError(f"filter date_range start {start!r} exceeds end {end!r}")

    def matches(self, record: PaperRecord) -> bool:
        if self.allowed_categories and not set(record.categories) & set(self.allowed_categories):
            return False
        if self.allowed_venues and record.venue not in self.allowed_venues:
            return False
        if self.date_range:
            start, end = self.date_range
            day = _date_part(record.date)
            if day is None:
                logger.warning("dropping feed record %s: date %r does not read as YYYY-MM-DD",
                               record.id, record.date)
                return False
            if not start <= day <= end:
                return False
        if self.require_peer_reviewed and record.venue == PREPRINT_VENUE:
            return False
        return True


def _date_part(text: str) -> str | None:
    """The text before the first ``T`` or space of ``text`` when it reads as
    an ISO ``YYYY-MM-DD`` date (years 0000-9999), else None."""
    match = _DATE_PART.match(text)
    if match is None:
        return None
    year, month, day = match.groups()
    if day > "28" and int(day) > calendar.mdays[int(month)] + (
            month == "02" and calendar.isleap(int(year))):
        return None
    return match.group()


def filter_from_dict(data: dict) -> CandidateFilter:
    return jsonio.build(CandidateFilter, data, ConfigError, "filter")


def record_from_dict(data: dict) -> PaperRecord:
    """The record of a feed line; a string holding a lone surrogate raises
    FeedError, before any step could carry it into the survey."""
    jsonio.check_unicode(data, FeedError, "feed record string")
    return jsonio.build(PaperRecord, data, FeedError, "feed record")


def record_to_dict(record: PaperRecord) -> dict:
    """The feed form of a record, the one ``record_from_dict`` reads."""
    return asdict(record)


def ingest_feed(feed: str | Path, candidate_filter: CandidateFilter) -> list[PaperRecord]:
    """Read a newline-delimited JSON feed and keep records passing the filter.

    Order is preserved. Returned records are candidates only; no relevance
    judgment is made here. Raises FeedError naming the line of a record
    it cannot read.
    """
    records = jsonio.read_lines(feed, FeedError, "feed", record_from_dict)
    return [record for record in records if candidate_filter.matches(record)]


def write_feed(records: list[PaperRecord], path: str | Path) -> None:
    lines = [json.dumps(record_to_dict(r), ensure_ascii=False) for r in records]
    jsonio.replace_text(path, "\n".join(lines) + ("\n" if lines else ""))
