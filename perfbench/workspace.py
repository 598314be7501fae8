#!/usr/bin/env python3
"""Seeded workspace generator for the performance benchmark.

Writes every input of one workload in the shipped file formats: survey,
approved outline, feeds, span annotations, a ``ScriptedGeneration``
scenario and a run config. The program under test receives only these
files, through ``config.load_config``. Alongside them it writes
``expected.json``: the outcome the scenario injects for every step
(updated, text-only, abstained, failed; changed, unchanged, failed
closed) and the retry and table-row counts. The benchmark checks every
run against it and never passes it to the program.

Every fault is placed by exact count, not by chance, so each seed
injects the same number of retries and failures and the per-step cost
drivers stay comparable across seeds.

Usage:
    python3 perfbench/workspace.py --workload update_feed --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dynsurvey.benchmark import (  # noqa: E402
    SpanAnnotation,
    build_instance,
    save_span_annotations,
)
from dynsurvey.corpus import record_from_dict, write_feed  # noqa: E402
from dynsurvey.document import (  # noqa: E402
    SurveyState,
    document_from_dict,
    document_to_dict,
    outline_from_dict,
    save_document,
    save_outline,
    serialize_document,
)
from dynsurvey.mock import save_scenario  # noqa: E402

# Sizes per workload. ``retry_share`` is the share of agent calls whose
# first answer is malformed; ``faults`` counts permanently malformed
# answers per failure kind.
WORKLOADS = {
    "update_feed": {
        "sections": 100, "sentences": 60, "tables": 3, "rows": 20,
        "references": 300, "papers": 1000, "oos_share": 0.2, "table_share": 1 / 3,
        "filtered": 50, "retry_share": 0.04,
        "faults": {"analysis": 6, "routing": 6, "synthesis": 6,
                   "abstention": 6, "table": 6},
    },
    "retro_framework_embed": {
        "sections": 40, "sentences": 40, "tables": 3, "rows": 20,
        "references": 200, "late": 64, "oos": 16, "table_share": 1 / 3,
        "retry_share": 0.04,
        "faults": {"analysis": 2, "routing": 2, "synthesis": 2,
                   "abstention": 2, "table": 2},
    },
    "retro_baselines": {
        "sections": 40, "sentences": 40, "tables": 3, "rows": 20,
        "references": 200, "late": 16, "oos": 4,
        "rewrite_share": 0.3, "unparseable_share": 0.05,
    },
}

SYLLABLES = (
    "ka", "lo", "ven", "tri", "mas", "dor", "pel", "qui", "sar", "ten", "vo", "lin",
    "ber", "cus", "dra", "fen", "gor", "hal", "jin", "mor", "nex", "pra", "rul", "sil",
    "tor", "ul", "wex", "zel", "bri", "cor", "dal", "eth", "fir", "gla", "hem", "iso",
)
# Words the lenient answer parsers would read as a verdict.
RESERVED = {"true", "false", "yes", "no", "append"}
CATEGORIES = ("spatial", "transform", "learned", "hybrid")
VENUES = ("CVPR", "ICCV", "ECCV", "NeurIPS", "TIP", "TPAMI")
DATE_RANGE = ("2015-01-01", "2030-12-31")
FRAMEWORK_FAULTS = ("analysis", "routing", "synthesis", "abstention", "table")
RETRY_ROLES = ("analysis", "abstention", "section_routing", "text_synthesis", "table_synthesis")


class Lexicon:
    """Pseudo-words and sentences that segment exactly as written."""

    def __init__(self, rng: random.Random, size: int = 4000):
        words: set[str] = set()
        while len(words) < size:
            word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
            if word not in RESERVED:
                words.add(word)
        self.words = sorted(words)
        self.rng = rng
        self.names: set[str] = set()

    def phrase(self, count: int) -> str:
        return " ".join(self.rng.choice(self.words) for _ in range(count))

    def sentence(self, cite: int | None = None, low: int = 12, high: int = 26) -> str:
        body = self.phrase(self.rng.randint(low, high))
        body = body[0].upper() + body[1:]
        return f"{body} [{cite}]." if cite is not None else f"{body}."

    def name(self) -> str:
        # Names open every draft; a fresh capitalized word never equals the
        # first token of a neighbouring section, so diffs stay in scope.
        while True:
            word = self.rng.choice(self.words) + self.rng.choice(self.words)
            name = word[0].upper() + word[1:] + "Net"
            if name not in self.names:
                self.names.add(name)
                return name


def _table_specs(lex: Lexicon, count: int, rows: int) -> list[dict]:
    tables = []
    for t in range(1, count + 1):
        schema = [
            {"name": "Method", "kind": "text"},
            {"name": "Family", "kind": "categorical", "values": list(CATEGORIES)},
            {"name": "Year", "kind": "int", "min": 2000, "max": 2030},
            {"name": "Venue", "kind": "text"},
        ]
        tables.append({
            "id": f"tab-{t}",
            "title": f"Table {t} {lex.phrase(3)}",
            "schema": schema,
            "rows": [_table_row(lex) for _ in range(rows)],
        })
    return tables


def _table_row(lex: Lexicon) -> dict:
    return {
        "Method": lex.name(),
        "Family": lex.rng.choice(CATEGORIES),
        "Year": lex.rng.randint(2000, 2030),
        "Venue": lex.rng.choice(VENUES),
    }


def _survey(lex: Lexicon, size: dict, extra_refs: int = 0) -> tuple[dict, dict]:
    """Full survey mapping plus its approved outline mapping."""
    rng = lex.rng
    n_refs = size["references"]
    sections = []
    for s in range(1, size["sections"] + 1):
        sentences = [
            lex.sentence(cite=rng.randint(1, n_refs) if rng.random() < 0.3 else None)
            for _ in range(size["sentences"])
        ]
        sections.append({"id": f"sec-{s:03d}", "title": f"Topic {lex.phrase(2)}",
                         "sentences": sentences})
    tables = _table_specs(lex, size["tables"], size["rows"])
    references = [
        {"key": f"ref-{n}", "number": n,
         "bib": {"title": lex.sentence(low=4, high=8), "year": rng.randint(2000, 2024)}}
        for n in range(1, n_refs + 1 + extra_refs)
    ]
    survey = {
        "metadata": {"title": "A Survey of " + lex.phrase(3)},
        "sections": sections, "tables": tables, "references": references,
    }
    outline = {
        "approved": True,
        "scope": {
            "title": survey["metadata"]["title"],
            "keywords": [lex.phrase(2) for _ in range(4)],
            "abstract": " ".join(lex.sentence() for _ in range(3)),
            "core_criterion": lex.sentence(),
        },
        "sections": [
            {"id": s["id"], "section_title": s["title"], "page_numbers": str(i + 1),
             "table_relevant": [rng.randint(0, 1) for _ in tables],
             "summary": lex.sentence()}
            for i, s in enumerate(sections)
        ],
        "tables": [
            {"id": t["id"], "title": t["title"], "page_numbers": "",
             "summary": lex.sentence()}
            for t in tables
        ],
    }
    return survey, outline


def _document_mapping(survey: dict) -> dict:
    data = dict(survey)
    data["sections"] = [
        {"id": s["id"], "title": s["title"], "text": " ".join(s["sentences"])}
        for s in survey["sections"]
    ]
    return data


def _paper(lex: Lexicon, paper_id: str, key: str, date: str | None = None) -> dict:
    rng = lex.rng
    return {
        "id": paper_id,
        "title": lex.sentence(low=5, high=9)[:-1],
        "abstract": " ".join(lex.sentence() for _ in range(2)),
        "full_text": " ".join(lex.sentence() for _ in range(8)),
        "venue": rng.choice(VENUES),
        "date": date or f"20{rng.randint(20, 29)}-{rng.randint(1, 12):02d}-01",
        "categories": ["cs.CV"],
        "bib": {"key": key, "title": lex.sentence(low=4, high=8)[:-1],
                "year": rng.randint(2020, 2029)},
    }


class FrameworkScript:
    """Scripted answers for the seven agent roles, one paper at a time."""

    def __init__(self, lex: Lexicon, outline: dict, sentence_ids: dict[str, list[str]]):
        self.lex = lex
        self.section_ids = [e["id"] for e in outline["sections"]]
        self.table_ids = [e["id"] for e in outline["tables"]]
        self.sentence_ids = sentence_ids
        self.script: dict[str, str] = {}
        self.outcomes: dict[str, str] = {}
        self.retries = 0
        self.table_rows = 0

    def expected(self) -> dict:
        """Outcome per paper plus the totals the benchmark checks."""
        totals = {kind: 0 for kind in ("updated", "text_only", "abstained", "failed")}
        for outcome in self.outcomes.values():
            totals[outcome] += 1
        return dict(totals, steps=len(self.outcomes), retries=self.retries,
                    table_rows=self.table_rows, outcomes=self.outcomes)

    def _put(self, role: str, key: str, good: str, bad: str | None, retry: bool) -> None:
        """Script one agent call; ``bad`` answers the first attempt when ``retry``."""
        if retry:
            self.script[f"{role}|{key}|0"] = bad
            self.script[f"{role}|{key}|1"] = good
            self.retries += 1
        else:
            self.script[f"{role}|{key}|0"] = good

    def _fail(self, role: str, key: str, bad: str) -> None:
        self.script[f"{role}|{key}|0"] = bad
        self.script[f"{role}|{key}|1"] = bad
        self.retries += 1

    def add(self, pid: str, in_scope: bool, top: str, table: str | None,
            fault: str | None, retries: set[str], draft: str | None = None) -> None:
        """Script every call of one paper's update step and record its outcome."""
        lex, rng = self.lex, self.lex.rng
        analysis = (f"<think>{lex.phrase(8)}</think>\n### Methods\n{lex.sentence()}\n"
                    f"### Novelty\n{lex.sentence()}\n### Results\n{lex.sentence()}")
        bad_analysis = f"### Methods\n{lex.sentence()}\n### Novelty\n{lex.sentence()}"
        if fault == "analysis":
            self._fail("analysis", pid, bad_analysis)
            self.outcomes[pid] = "failed"
            return
        self._put("analysis", pid, analysis, bad_analysis, "analysis" in retries)

        undecided = f"{lex.sentence()} Undecided."
        if fault == "abstention":
            self._fail("abstention", pid, undecided)
            self.outcomes[pid] = "abstained"
            return
        self._put("abstention", pid, "TRUE" if in_scope else "FALSE", undecided,
                  "abstention" in retries)
        if not in_scope:
            self.outcomes[pid] = "abstained"
            return

        others = rng.sample([s for s in self.section_ids if s != top], 2)
        ranked = json.dumps([top] + others)
        short = json.dumps([top, others[0]])
        if fault == "routing":
            self._fail("section_routing", pid, short)
            self.outcomes[pid] = "failed"
            return
        self._put("section_routing", pid, ranked, short, "section_routing" in retries)
        roll = rng.random()
        if roll < 0.7:
            insertion = f"The best insertion point is {rng.choice(self.sentence_ids[top])}."
        elif roll < 0.95:
            insertion = "append"
        else:
            insertion = f"{top}:99999"  # unknown id; the engine appends instead
        self.script[f"insertion_point|{pid}|0"] = insertion

        for table_id in self.table_ids:
            if table is None:
                vote = "no" if rng.random() < 0.95 else "unsure"
            else:
                vote = "yes" if table_id == table else rng.choice(("no", "yes"))
                if self.table_ids.index(table_id) < self.table_ids.index(table):
                    vote = "no"
            self.script[f"table_routing|{pid}:{table_id}|0"] = vote

        if draft is None:
            draft = " ".join([lex.sentence()[:-1] + " [cite].", lex.sentence(), lex.sentence()])
        good_draft = f"{lex.name()}: {draft}"
        bad_draft = f"{lex.sentence()}\n\n{lex.sentence()}"
        if fault == "synthesis":
            self._fail("text_synthesis", pid, bad_draft)
            self.outcomes[pid] = "failed"
            return
        self._put("text_synthesis", pid, good_draft, bad_draft, "text_synthesis" in retries)
        self.outcomes[pid] = "updated"
        if table is None:
            return
        key = f"{pid}:{table}"
        row = _table_row(lex)
        bad_row = dict(row, Family="unknown")
        if fault == "table":
            self._fail("table_synthesis", key, json.dumps(bad_row))
            self.outcomes[pid] = "text_only"
            return
        self._put("table_synthesis", key, "```json\n" + json.dumps(row) + "\n```",
                  json.dumps(bad_row), "table_synthesis" in retries)
        self.table_rows += 1


def _plan_faults(rng: random.Random, papers: list[dict], in_scope: set[str],
                 tables: dict[str, str | None], size: dict) -> tuple[dict, dict]:
    """Assign permanent faults and first-answer retries by exact count."""
    eligible = [p["id"] for p in papers if p["id"] in in_scope]
    faults: dict[str, str] = {}
    pool = list(eligible)
    rng.shuffle(pool)
    for kind in FRAMEWORK_FAULTS:
        candidates = [pid for pid in pool if pid not in faults
                      and (kind != "table" or tables[pid] is not None)]
        for pid in candidates[:size["faults"][kind]]:
            faults[pid] = kind
    healthy = [pid for pid in eligible if pid not in faults]
    retries: dict[str, set[str]] = {p["id"]: set() for p in papers}
    for role in RETRY_ROLES:
        candidates = [pid for pid in healthy
                      if role != "table_synthesis" or tables[pid] is not None]
        for pid in rng.sample(candidates, round(size["retry_share"] * len(candidates))):
            retries[pid].add(role)
    return faults, retries


def _choose_tables(rng: random.Random, ids: list[str], table_ids: list[str],
                   share: float) -> dict[str, str | None]:
    chosen = set(rng.sample(ids, round(share * len(ids))))
    return {pid: (rng.choice(table_ids) if pid in chosen else None) for pid in ids}


def _write_common(out: Path, survey: dict, outline: dict) -> None:
    save_document(document_from_dict(_document_mapping(survey)), out / "survey.json")
    save_outline(outline_from_dict(outline), out / "outline.json")


def _write_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def generate_update_feed(rng: random.Random, out: Path, size: dict) -> dict:
    lex = Lexicon(rng)
    survey, outline = _survey(lex, size)
    _write_common(out, survey, outline)
    sentence_ids = {s["id"]: [f"{s['id']}:{i}" for i in range(1, len(s["sentences"]) + 1)]
                    for s in survey["sections"]}

    papers = [_paper(lex, f"p{i:05d}", f"feed-{i:05d}") for i in range(1, size["papers"] + 1)]
    n_oos = round(size["oos_share"] * len(papers))
    oos = {p["id"] for p in rng.sample(papers, n_oos)}
    in_scope_ids = [p["id"] for p in papers if p["id"] not in oos]
    table_ids = [t["id"] for t in survey["tables"]]
    tables = _choose_tables(rng, in_scope_ids, table_ids, size["table_share"])
    tables.update({pid: None for pid in oos})
    faults, retries = _plan_faults(rng, papers, set(in_scope_ids), tables, size)

    script = FrameworkScript(lex, outline, sentence_ids)
    section_ids = [s["id"] for s in survey["sections"]]
    for paper in papers:
        pid = paper["id"]
        script.add(pid, pid not in oos, rng.choice(section_ids), tables[pid],
                   faults.get(pid), retries[pid])

    # Records dated outside the filter range are dropped at ingestion.
    filtered = [_paper(lex, f"x{i:05d}", f"old-{i:05d}", date="2001-06-01")
                for i in range(1, size["filtered"] + 1)]
    feed = papers + filtered
    rng.shuffle(feed)
    write_feed([record_from_dict(p) for p in feed], out / "feed.ndjson")
    save_scenario({"generation": script.script, "generation_max_retries": 1},
                  out / "scenario.json")
    _write_json({
        "survey": "survey.json", "outline": "outline.json", "feed": "feed.ndjson",
        "filter": {"date_range": list(DATE_RANGE)},
        "generation": {"mock_scenario": "scenario.json"},
        "out_dir": "out",
    }, out / "config.json")
    return dict(script.expected(), feed_records=len(papers))


def _retro_survey(lex: Lexicon, size: dict) -> tuple:
    """Full survey whose late spans cite late papers appended to the references."""
    rng = lex.rng
    survey, outline = _survey(lex, size, extra_refs=size["late"])
    late_papers: list[dict] = []
    spans: list[tuple] = []
    withheld: set[str] = set()
    base = size["references"]
    order = list(range(size["sections"]))
    rng.shuffle(order)
    per_section = [size["late"] // size["sections"]] * size["sections"]
    for index in order[:size["late"] % size["sections"]]:
        per_section[index] += 1
    for section, k in zip(survey["sections"], per_section):
        sentences = section["sentences"]
        # Non-overlapping runs of 2-3 sentences at distinct offsets.
        slots = sorted(rng.sample(range(0, len(sentences) // 4), k))
        for slot in slots:
            start = slot * 4
            length = rng.randint(2, 3)
            number = base + len(late_papers) + 1
            key = f"ref-{number}"
            paper = _paper(lex, f"late{len(late_papers) + 1:04d}", key)
            survey["references"][number - 1] = {
                "key": key, "number": number,
                "bib": {k2: v for k2, v in paper["bib"].items() if k2 != "key"}}
            run = [lex.sentence(cite=number if i == 0 else None) for i in range(length)]
            sentences[start:start + length] = run
            late_papers.append(paper)
            spans.append((paper["id"], section["id"], " ".join(run)))
            withheld.update(f"{section['id']}:{i}" for i in range(start + 1, start + length + 1))
    # Feed order is publication order, not section order.
    paired = list(zip(late_papers, spans))
    rng.shuffle(paired)
    late_papers, spans = [list(x) for x in zip(*paired)]
    # build_instance keeps the ids of the sentences it leaves in place.
    early_ids = {s["id"]: [f"{s['id']}:{i}" for i in range(1, len(s["sentences"]) + 1)
                           if f"{s['id']}:{i}" not in withheld]
                 for s in survey["sections"]}
    return survey, outline, late_papers, spans, early_ids


def _paraphrase(lex: Lexicon, text: str) -> str:
    words = text.split()
    for i in range(len(words)):
        if lex.rng.random() < 0.3 and words[i].isalpha() and words[i].islower():
            words[i] = lex.rng.choice(lex.words)
    return " ".join(words)


def _retro_common(rng: random.Random, out: Path, size: dict, embedding: bool) -> tuple:
    lex = Lexicon(rng)
    survey, outline, late, spans, early_ids = _retro_survey(lex, size)
    _write_common(out, survey, outline)
    oos = [_paper(lex, f"oos{i:04d}", f"oos-{i:04d}") for i in range(1, size["oos"] + 1)]
    write_feed([record_from_dict(p) for p in late], out / "late.ndjson")
    write_feed([record_from_dict(p) for p in oos], out / "oos.ndjson")
    save_span_annotations(
        [SpanAnnotation(paper_id=p, section_id=s, text=t) for p, s, t in spans],
        out / "spans.json")
    config = {
        "survey": "survey.json", "outline": "outline.json",
        "filter": {"date_range": list(DATE_RANGE)},
        "generation": {"mock_scenario": "scenario.json"},
        "metrics": {"coherence_window": 2, "fidelity_tau": 0.6, "rouge_beta": 1.0},
        "out_dir": "out",
        "benchmark": {"instances": [{
            "name": "synthetic", "survey": "survey.json", "outline": "outline.json",
            "spans": "spans.json", "late_feed": "late.ndjson", "oos_feed": "oos.ndjson"}]},
    }
    if embedding:
        config["embedding"] = {"mock_scenario": "scenario.json"}
    _write_json(config, out / "config.json")
    return lex, survey, outline, late, spans, oos, early_ids


def generate_retro_framework(rng: random.Random, out: Path, size: dict) -> dict:
    lex, survey, outline, late, spans, oos, early_ids = _retro_common(
        rng, out, size, embedding=True)

    papers = late + oos
    in_scope = {p["id"] for p in late}
    # A few out-of-scope papers are wrongly kept; they still merge in scope.
    false_includes = set(rng.sample([p["id"] for p in oos], max(1, len(oos) // 10)))
    included = sorted(in_scope | false_includes)
    table_ids = [e["id"] for e in outline["tables"]]
    tables = _choose_tables(rng, included, table_ids, size["table_share"])
    tables.update({p["id"]: None for p in papers if p["id"] not in tables})
    faults, retries = _plan_faults(rng, late, in_scope, tables, size)

    script = FrameworkScript(lex, outline, early_ids)
    section_ids = [s["id"] for s in survey["sections"]]
    gt = {p: s for p, s, _ in spans}
    span_text = {p: t for p, _, t in spans}
    for paper in papers:
        pid = paper["id"]
        if pid in gt:
            roll = rng.random()
            top = gt[pid] if roll < 0.8 else rng.choice(section_ids)
            draft = _paraphrase(lex, span_text[pid]) + " See [cite]."
        else:
            top, draft = rng.choice(section_ids), None
        script.add(pid, pid in included, top, tables[pid], faults.get(pid),
                   retries.get(pid, set()), draft=draft)
    save_scenario({"generation": script.script, "generation_max_retries": 1,
                   "embedding": {"seed": rng.randint(0, 2**31), "dimension": 64}},
                  out / "scenario.json")
    return script.expected()


def _edited(doc, section_id: str, extra: str | None, rewrite: str | None,
            reference: dict | None):
    """Apply one baseline edit to a document through its canonical mapping."""
    data = document_to_dict(doc)
    for section in data["sections"]:
        if section["id"] == section_id and extra:
            sentences = section["text"].split(". ")
            cut = len(sentences) // 2
            section["text"] = ". ".join(sentences[:cut]) + ". " + extra + " " + \
                ". ".join(sentences[cut:])
        if section["id"] == rewrite:
            head, sep, tail = section["text"].partition(" ")
            section["text"] = head + sep + "revised " + tail
    if reference is not None:
        data["references"].append(reference)
    return document_from_dict(data)


def generate_retro_baselines(rng: random.Random, out: Path, size: dict) -> dict:
    lex, survey, outline, late, spans, oos, _ = _retro_common(rng, out, size, embedding=False)
    state = SurveyState(document=document_from_dict(_document_mapping(survey)),
                        outline=outline_from_dict(outline))
    instance = build_instance(
        "synthetic", state, [record_from_dict(p) for p in late],
        [SpanAnnotation(paper_id=p, section_id=s, text=t) for p, s, t in spans],
        [record_from_dict(p) for p in oos])
    section_ids = [s["id"] for s in survey["sections"]]
    gt = {p: (s, t) for p, s, t in spans}
    steps = [p["id"] for p in late] + [p["id"] for p in oos]
    bib = {p["id"]: p["bib"] for p in late + oos}
    script: dict[str, str] = {}
    outcomes: dict[str, str] = {}

    def pick(share: float, pool: list[str]) -> set[str]:
        return set(rng.sample(pool, round(share * len(pool))))

    for method in ("one_step", "oracle"):
        broken = pick(size["unparseable_share"], steps)
        healthy = [pid for pid in steps if pid not in broken]
        silent = pick(0.5, [pid for pid in healthy if pid not in gt])
        editing = [pid for pid in healthy if pid not in silent]
        misrouted = pick(0.3, [pid for pid in editing if pid in gt]) \
            if method == "one_step" else set()
        rewrites = pick(size["rewrite_share"], editing)
        cites = pick(0.5, editing)
        doc = instance.early_state.document
        for pid in steps:
            key = f"{method}|{pid}"
            if pid in broken:
                text = serialize_document(doc)
                script[f"{key}|0"] = "```json\n" + text[: len(text) // 2]
                outcomes[key] = "failed_closed"
                continue
            if pid in silent:
                script[f"{key}|0"] = serialize_document(doc)
                outcomes[key] = "unchanged"
                continue
            if pid in gt and pid not in misrouted:
                target, extra = gt[pid][0], _paraphrase(lex, gt[pid][1])
            else:
                target, extra = rng.choice(section_ids), lex.sentence()
            rewrite = rng.choice([s for s in section_ids if s != target]) \
                if pid in rewrites else None
            reference = None
            if pid in cites:
                entry = {k: v for k, v in bib[pid].items() if k != "key"}
                reference = {"key": bib[pid]["key"], "number": len(doc.references) + 1,
                             "bib": entry}
            doc = _edited(doc, target, extra, rewrite, reference)
            body = serialize_document(doc)
            script[f"{key}|0"] = (f"Here is the updated survey document.\n```json\n{body}```\n"
                                  if rng.random() < 0.5 else body)
            outcomes[key] = "changed"
    save_scenario({"generation": script, "generation_max_retries": 1},
                  out / "scenario.json")
    totals = {kind: 0 for kind in ("changed", "unchanged", "failed_closed")}
    for outcome in outcomes.values():
        totals[outcome] += 1
    return dict(totals, steps=len(outcomes), outcomes=outcomes)


GENERATORS = {
    "update_feed": generate_update_feed,
    "retro_framework_embed": generate_retro_framework,
    "retro_baselines": generate_retro_baselines,
}


def generate(workload: str, seed: int, out: str | Path) -> dict:
    """Write the workspace for one workload and seed; return expected counts."""
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    expected = GENERATORS[workload](rng, directory, WORKLOADS[workload])
    _write_json({"workload": workload, "seed": seed, "expected": expected},
                directory / "expected.json")
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the workspace to")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
