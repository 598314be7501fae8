"""Feed ingestion and candidate filtering."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_paper
from dynsurvey.corpus import (
    CandidateFilter,
    PaperRecord,
    filter_from_dict,
    ingest_feed,
    record_to_dict,
    write_feed,
)
from dynsurvey.errors import ConfigError, FeedError

PERMISSIVE = CandidateFilter()


def _write(tmp_path, records):
    path = tmp_path / "feed.ndjson"
    write_feed(records, path)
    return path


def test_ingest_preserves_order(tmp_path):
    records = [make_paper(f"p{i}", date=f"2024-0{i}-01") for i in range(1, 6)]
    path = _write(tmp_path, records)
    assert [r.id for r in ingest_feed(path, PERMISSIVE)] == ["p1", "p2", "p3", "p4", "p5"]


def test_date_range_excludes_records(tmp_path):
    records = [make_paper(f"p{i}", date=f"2024-0{i}-01") for i in range(1, 6)]
    path = _write(tmp_path, records)
    narrowed = CandidateFilter(date_range=("2024-02-01", "2024-04-30"))
    kept = ingest_feed(path, narrowed)
    # Derived: p2, p3, p4 fall inside the range; p1 and p5 do not.
    assert [r.id for r in kept] == ["p2", "p3", "p4"]


def test_empty_feed(tmp_path):
    path = tmp_path / "feed.ndjson"
    path.write_text("", encoding="utf-8")
    assert ingest_feed(path, PERMISSIVE) == []


def test_malformed_record_names_line(tmp_path):
    path = tmp_path / "feed.ndjson"
    good = json.dumps(record_to_dict(make_paper("p1")))
    path.write_text(good + "\n{broken\n", encoding="utf-8")
    with pytest.raises(FeedError, match="line 2"):
        ingest_feed(path, PERMISSIVE)


@pytest.mark.parametrize("fields", [
    {"abstract": "Ends in \udfff"},
    {"categories": ["cs.CV", "\ud800"]},
    {"bib": {"key": "k", "venue": {"name": ["Caf\u00e9 \udc80"]}}},
    {"bib": {"key": "k", "\ud83d": "a key"}},
])
def test_a_lone_surrogate_anywhere_in_a_record_names_its_line(tmp_path, fields):
    path = tmp_path / "feed.ndjson"
    lines = [json.dumps(record_to_dict(make_paper(f"p{i}"))) for i in (1, 2)]
    record = {**record_to_dict(make_paper("p3")), **fields}
    path.write_text("\n".join([*lines, json.dumps(record)]) + "\n", encoding="utf-8")
    with pytest.raises(FeedError, match="line 3: feed record string .* lone surrogate"):
        ingest_feed(path, PERMISSIVE)


def test_text_outside_ascii_reads_as_given(tmp_path):
    # ``json.dumps`` writes the astral character as an escaped surrogate pair.
    paper = make_paper("p1", title="Caf\u00e9 \U0001F600", bib={"key": "k", "n": ["\u00fc"]})
    path = tmp_path / "feed.ndjson"
    path.write_text(json.dumps(record_to_dict(paper)) + "\n", encoding="utf-8")
    assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
    assert ingest_feed(path, PERMISSIVE) == [paper]


def test_missing_feed_file(tmp_path):
    with pytest.raises(FeedError, match="cannot read"):
        ingest_feed(tmp_path / "absent.ndjson", PERMISSIVE)


def test_peer_review_convention():
    preprint = make_paper("p1", venue="preprint")
    reviewed = make_paper("p2", venue="CVPR")
    strict = CandidateFilter(require_peer_reviewed=True)
    assert not strict.matches(preprint)
    assert strict.matches(reviewed)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
def test_peer_review_flag_must_be_a_json_boolean(value):
    # bool("false") is True, so the string used to turn the filter on.
    with pytest.raises(ConfigError, match="require_peer_reviewed"):
        filter_from_dict({"require_peer_reviewed": value})


@pytest.mark.parametrize("value", [True, False])
def test_peer_review_flag_reads_json_booleans(value):
    assert filter_from_dict({"require_peer_reviewed": value}).require_peer_reviewed is value
    assert filter_from_dict({}).require_peer_reviewed is False


def test_category_and_venue_filters():
    paper = make_paper("p1", categories=("cs.CV", "cs.LG"), venue="CVPR")
    assert CandidateFilter(allowed_categories=("cs.LG",)).matches(paper)
    assert not CandidateFilter(allowed_categories=("q-fin.TR",)).matches(paper)
    assert CandidateFilter(allowed_venues=("CVPR", "ICCV")).matches(paper)
    assert not CandidateFilter(allowed_venues=("ACL",)).matches(paper)


def test_inverted_date_range_rejected():
    with pytest.raises(ConfigError, match="exceeds"):
        CandidateFilter(date_range=("2025-01-01", "2024-01-01"))


def test_an_empty_date_range_keeps_an_undated_record():
    # Only the id is required; an empty range, the default, imposes no
    # constraint, as empty category and venue lists do.
    undated = PaperRecord(id="p")
    assert PERMISSIVE.matches(undated)
    assert filter_from_dict({}).matches(undated)
    assert filter_from_dict({"date_range": []}).matches(undated)


@pytest.mark.parametrize("date_range", [("2024-01-01",), ("2024-01-01", "2024-06-01", "x")])
def test_a_set_date_range_holds_a_start_and_an_end(date_range):
    with pytest.raises(ConfigError, match="a start and an end"):
        CandidateFilter(date_range=date_range)


def test_a_set_date_range_drops_an_undated_record():
    bounded = CandidateFilter(date_range=("0000-01-01", "9999-12-31"))
    assert not bounded.matches(PaperRecord(id="p"))
    assert bounded.matches(make_paper("p", date="2024-01-01"))


_papers = st.builds(
    lambda i, venue, cat, month: make_paper(
        f"p{i}", venue=venue, categories=(cat,), date=f"2024-{month:02d}-15"),
    st.integers(0, 50), st.sampled_from(["CVPR", "ACL", "preprint"]),
    st.sampled_from(["cs.CV", "cs.CL", "q-fin.TR"]), st.integers(1, 12),
)


@given(st.lists(_papers, max_size=12),
       st.sampled_from(["CVPR", "ACL", "preprint"]),
       st.sampled_from(["cs.CV", "cs.CL"]))
def test_tightening_filters_is_monotone(papers, venue, category):
    loose = CandidateFilter()
    tighter_options = [
        CandidateFilter(allowed_venues=(venue,)),
        CandidateFilter(allowed_categories=(category,)),
        CandidateFilter(date_range=("2024-03-01", "2024-09-30")),
        CandidateFilter(require_peer_reviewed=True),
    ]
    base = [p for p in papers if loose.matches(p)]
    for tight in tighter_options:
        kept = [p for p in papers if tight.matches(p)]
        assert len(kept) <= len(base)
        assert set(p.id for p in kept) <= set(p.id for p in base)


@pytest.mark.parametrize("bound", ["2024-1-01", "2024-01-1", "24-01-01", "2024-13-01",
                                   "2023-02-29", "2024-04-31", "2024-01-01T00:00:00",
                                   "2024/01/01", "", "２０２４-01-01"])
def test_a_date_range_bound_must_read_as_a_date(bound):
    for date_range in ((bound, "2030-01-01"), ("2000-01-01", bound)):
        with pytest.raises(ConfigError, match="is not a YYYY-MM-DD date"):
            CandidateFilter(date_range=date_range)
    with pytest.raises(ConfigError, match="is not a YYYY-MM-DD date"):
        filter_from_dict({"date_range": [bound, "2030-01-01"]})


def test_a_leap_day_bound_reads_in_a_leap_year():
    assert CandidateFilter(date_range=("2024-02-29", "2400-02-29")).matches(
        make_paper("p", date="2024-02-29"))


@pytest.mark.parametrize("date", ["2024-12-31T10:00:00Z", "2024-12-31 23:59",
                                  "2024-01-01T00:00:00+02:00", "2024-06-30"])
def test_a_timestamp_in_the_range_is_kept_by_its_date_part(date):
    year = CandidateFilter(date_range=("2024-01-01", "2024-12-31"))
    assert year.matches(make_paper("p", date=date))


@pytest.mark.parametrize("date", ["2025-01-01T00:00:00Z", "2023-12-31 23:59", "2023-12-31"])
def test_a_timestamp_outside_the_range_is_dropped_by_its_date_part(date, caplog):
    year = CandidateFilter(date_range=("2024-01-01", "2024-12-31"))
    assert not year.matches(make_paper("p", date=date))
    assert caplog.records == []


@pytest.mark.parametrize("date", ["2024-9-1", "2024-09-31", "September 2024", "2024",
                                  "2024-09-01x", "", "T2024-09-01"])
def test_a_date_that_does_not_read_is_dropped_with_a_warning(date, caplog):
    year = CandidateFilter(date_range=("2024-01-01", "2024-12-31"))
    with caplog.at_level("WARNING", logger="dynsurvey.corpus"):
        assert not year.matches(make_paper("p7", date=date))
    [record] = caplog.records
    assert record.levelname == "WARNING"
    assert "p7" in record.getMessage() and repr(date) in record.getMessage()


def test_an_unreadable_date_passes_without_a_date_range(caplog):
    assert PERMISSIVE.matches(make_paper("p", date="2024-9-1"))
    assert caplog.records == []


def test_ingest_keeps_readable_dates_and_warns_on_the_rest(tmp_path, caplog):
    dates = ["2024-09-01", "2024-9-1", "2024-12-31T10:00:00Z", "2025-01-01", "2024-01-01 08:00"]
    path = _write(tmp_path, [make_paper(f"p{i}", date=d) for i, d in enumerate(dates)])
    year = CandidateFilter(date_range=("2024-01-01", "2024-12-31"))
    with caplog.at_level("WARNING", logger="dynsurvey.corpus"):
        assert [r.id for r in ingest_feed(path, year)] == ["p0", "p2", "p4"]
    assert [r.getMessage() for r in caplog.records] == [
        "dropping feed record p1: date '2024-9-1' does not read as YYYY-MM-DD"]
