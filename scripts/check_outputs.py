#!/usr/bin/env python3
"""Check that the working tree writes the same output bytes as another revision.

For each seed, writes the three perfbench workspaces (by running
``perfbench/workspace.py`` of the working tree in a subprocess; perfbench
is only read), then runs the ``dynsurvey`` command line on them from the
working tree and from an export of ``REV``:

- ``update`` on ``update_feed``, comparing ``survey.updated.json`` and
  ``audit.ndjson``;
- the same update on a copy of ``update_feed`` in which every third
  section text and scripted draft holds letters outside ASCII and every
  fifth U+007F, every fourth feed bib holds a float, a list and a nested
  object, every fourth table-synthesis reply that decodes holds a float
  or a list in its free-text ``Venue`` column, and the survey metadata
  holds a nested value. So the published survey is written through both
  of ``document._encode``'s encoders and through the canonical
  renderer's hand-over to ``json.dumps``, and the audit log holds
  non-ASCII text, U+007F and rows with floats and lists;
- ``benchmark --methods framework`` on ``retro_framework_embed`` and
  ``benchmark --methods one_step,oracle`` on ``retro_baselines``,
  comparing ``report.csv`` and ``report.txt``;
- the same baseline run on a copy of ``retro_baselines`` whose scenario
  holds every reply that decodes re-written as
  ``json.dumps(value, indent=1, ensure_ascii=False)`` (the truncated
  replies stay as they are). No such reply is in the canonical layout,
  so each one takes the full parse;
- the same baseline run on a copy of ``retro_baselines`` whose scenario
  holds every reply that decodes cut off at a point drawn with the seed,
  the kind of point taken in turn: inside a string, inside a
  ``\\uXXXX`` escape (written at a point inside a string, as the replies
  hold none), after a comma, after a key's colon, inside a number and
  before the value's last bracket. Each such step fails closed. A cut
  after a ``\\u`` goes through the trailing-comma repair before it is
  reported as not balanced; every other cut is reported at once, where
  the decode runs out of text. The error text is in the step digests,
  so both paths are compared.

On each ``update`` run it also replays the working tree's ``audit.ndjson``
(``engine.read_audit_log`` and ``engine.replay_update`` under the working
tree's ``PYTHONPATH``), starting from the workspace's survey, outline and
feed, and requires ``serialize_document`` of the replayed survey to equal
the working tree's ``survey.updated.json`` byte for byte.

On the framework run and the three baseline runs it also compares one digest
line per step, written by a small in-process run of
``benchmark.run_method`` under each tree's ``PYTHONPATH``. A line holds
the hash of ``serialize_document(after)``, every section's sentence ids,
the inserted sentence ids, the error, the step's ``delta_tokens``,
``delta_out``, the ``repr`` of its BLEU-4, ROUGE-L, ``bert_sim``,
``semantic_align`` and ``local_coherence`` scores
(``evaluation.evaluate_step`` with the workspace's embedder and metric
settings; the embedding scores read None on ``retro_baselines``, which
configures no embedder), the hash of its token edit script's ops, and
the hash of the ops of the sentence-level ``token_edit_script`` of each
section that ``derive_inserted_sentences`` diffs. Some of those
sentence diffs have no insertion-only script and take the full search,
so both paths are compared op for op, not only through the inserted
ids. A changed sentence id, edit script, embedding or last bit of a
score shows even where the aggregate reports, which print six
decimals, hide it. The digest code reads an edit script as its ``ops``
where it has them (a ``metrics.EditScript``, up to 5606653) and as the
tuple of ops it is otherwise, and takes ``document_regions`` from
``dynsurvey.document``, which has it on both sides, so ``--against``
works across the change that dropped ``EditScript``.

``REV`` is exported with ``git archive`` into a temporary directory, so an
interrupted run leaves nothing registered in the repository. Prints one
line per compared file (and per digest file) and exits 1 if any differs or
a command fails.

``--write-digests FILE`` runs the working tree alone and writes one
SHA-256 per compared file and per step-digest set, the audit replays'
outcomes, the seeds and the Python version to ``FILE`` as JSON.
``tests/test_output_digests.py`` reruns that pass and names every entry
that differs from ``tests/data/output_digests.json``; ``--against`` then
finds the step that moved.

Usage:
    python3 scripts/check_outputs.py --against HEAD~1 --seeds 1 2
    python3 scripts/check_outputs.py --write-digests tests/data/output_digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINES = ["benchmark", "--methods", "one_step,oracle"]
REPORTS = ("report.csv", "report.txt")
# Run name, workload, command-line arguments after the config, and the
# files to compare.
RUNS = (
    ("update_feed", "update_feed", ["update"], ("survey.updated.json", "audit.ndjson")),
    ("update_feed_unicode", "update_feed", ["update"], ("survey.updated.json", "audit.ndjson")),
    ("retro_framework_embed", "retro_framework_embed", ["benchmark", "--methods", "framework"],
     REPORTS),
    ("retro_baselines", "retro_baselines", BASELINES, REPORTS),
    ("retro_baselines_indent1", "retro_baselines", BASELINES, REPORTS),
    ("retro_baselines_cut", "retro_baselines", BASELINES, REPORTS),
)
CLI = "import sys; from dynsurvey.cli import main; sys.exit(main(sys.argv[1:]))"
# The methods whose steps are digested, by workload.
DIGESTED = {"retro_framework_embed": "framework", "retro_baselines": "one_step,oracle"}
# Prints one line per step of each method in argv[2] (comma-separated)
# over every benchmark instance in the config named by argv[1]. It uses
# only calls that every revision since the region-wise edit script
# (``metrics.region_edit_script``) has.
STEP_DIGESTS = """
import hashlib, sys
from dynsurvey.benchmark import build_instance, load_span_annotations, run_method
from dynsurvey.config import load_config, make_embedder, make_generator
from dynsurvey.corpus import ingest_feed
from dynsurvey.document import (SurveyState, document_regions, load_document, load_outline,
                                serialize_document)
from dynsurvey.engine import make_step_clock
from dynsurvey.evaluation import evaluate_step
from dynsurvey.metrics import region_edit_script, token_edit_script

def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

def op_tuples(script):
    return [(op.op, op.before_pos, op.after_pos, op.token)
            for op in getattr(script, "ops", script)]

def sentence_scripts(before, after):
    # The sentence diffs of ``derive_inserted_sentences``, section by section.
    before_sections = {s.id: s for s in before.sections}
    scripts = []
    for section in after.sections:
        old = before_sections.get(section.id)
        if old is not section:
            script = token_edit_script([s.text for s in old.sentences] if old else [],
                                       [s.text for s in section.sentences])
            scripts.append((section.id, op_tuples(script)))
    return scripts

config = load_config(sys.argv[1])
generator = make_generator(config)
embedder = make_embedder(config)
for spec in config.instances:
    state = SurveyState(document=load_document(spec.survey), outline=load_outline(spec.outline))
    instance = build_instance(
        spec.name, state, ingest_feed(spec.late_feed, config.candidate_filter),
        load_span_annotations(spec.spans), ingest_feed(spec.oos_feed, config.candidate_filter))
    for method in sys.argv[2].split(","):
        for step, result in enumerate(run_method(method, instance, generator, make_step_clock())):
            ids = [list(section.sentence_ids()) for section in result.after.sections]
            script = region_edit_script(document_regions(result.before)[0],
                                        document_regions(result.after)[0])
            ops = op_tuples(script)
            scored = evaluate_step(result, spec.name, embedder=embedder,
                                   coherence_window=config.metrics.coherence_window,
                                   rouge_beta=config.metrics.rouge_beta)
            print(spec.name, method, step, result.paper_id, sha(serialize_document(result.after)),
                  ids, [sentence.id for sentence in result.inserted], repr(result.error),
                  scored.delta_tokens, scored.delta_out, repr(scored.bleu4),
                  repr(scored.rouge_l_f), repr(scored.bert_sim), repr(scored.semantic_align),
                  repr(scored.local_coherence), sha(repr(ops)),
                  sha(repr(sentence_scripts(result.before, result.after))))
"""

# Replays the audit log named by argv[2] from the survey, outline and feed
# of the config named by argv[1], and prints whether the replayed survey's
# canonical text equals the file named by argv[3] byte for byte.
REPLAY = """
import sys
from pathlib import Path
from dynsurvey.config import load_config
from dynsurvey.corpus import ingest_feed
from dynsurvey.document import SurveyState, load_document, load_outline, serialize_document
from dynsurvey.engine import read_audit_log, replay_update

config = load_config(sys.argv[1])
state = SurveyState(document=load_document(config.survey_path),
                    outline=load_outline(config.outline_path))
papers = {paper.id: paper for paper in ingest_feed(config.feed_path, config.candidate_filter)}
for record in read_audit_log(sys.argv[2]):
    state = replay_update(state, record, papers[record.paper_id])
published = Path(sys.argv[3]).read_text(encoding="utf-8")
print("same" if serialize_document(state.document) == published else "differs")
"""


def export(rev: str, out: Path) -> None:
    """Write the files of ``rev`` into ``out``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    out.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)


def rewrite_replies(workspace: Path, rewrite) -> int:
    """Replace each baseline reply of the scenario that decodes by ``rewrite(reply, value, start)``.

    ``value`` is the reply's decoded JSON value and ``start`` where it
    starts. Returns how many replies it replaced.
    """
    path = workspace / "scenario.json"
    scenario = json.loads(path.read_text(encoding="utf-8"))
    script = scenario["generation"]
    decoder = json.JSONDecoder()
    count = 0
    for key, reply in script.items():
        if not key.startswith(("one_step|", "oracle|")) or "{" not in reply:
            continue
        try:
            value, _ = decoder.raw_decode(reply, reply.index("{"))
        except json.JSONDecodeError:
            continue  # a truncated reply stays as it is
        script[key] = rewrite(reply, value, reply.index("{"))
        count += 1
    path.write_text(json.dumps(scenario, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
                    encoding="utf-8")
    return count


def _widened_words(i: int) -> list[str]:
    """The words outside ASCII that the ``i``-th text of its kind gains."""
    return ["naïve-Übersicht"] * (i % 3 == 0) + ["del\x7fete"] * (i % 5 == 0)


def widen_update_feed(workspace: Path) -> str:
    """Put values outside ASCII and outside the renderers' own types into a
    copy of ``update_feed``: letters outside ASCII into every third
    section text and scripted draft, U+007F into every fifth, a float, a
    list and a nested object into every fourth feed bib, a float or a
    list into the free-text ``Venue`` column of every fourth
    table-synthesis reply that decodes, and a nested value into the
    survey metadata. Each text gains words after its first, so it splits
    into the same sentences. Returns a summary line."""
    survey_path = workspace / "survey.json"
    survey = json.loads(survey_path.read_text(encoding="utf-8"))
    survey["metadata"]["editors"] = {"names": ["Zoë Ångström", "Łukasz"], "round": 2,
                                     "weight": 0.5, "tags": [], "notes": {}}
    widened = 0
    for i, section in enumerate(survey["sections"]):
        words = _widened_words(i)
        if words:
            head, _, tail = section["text"].partition(" ")
            section["text"] = " ".join([head, *words, tail])
            widened += 1
    survey_path.write_text(json.dumps(survey, indent=2, ensure_ascii=False) + "\n",
                           encoding="utf-8")
    scenario_path = workspace / "scenario.json"
    scenario = json.loads(scenario_path.read_text(encoding="utf-8"))
    script = scenario["generation"]
    drafts = [key for key in script if key.startswith("text_synthesis|")]
    for i, key in enumerate(drafts):
        words = _widened_words(i)
        if words:
            head, _, tail = script[key].partition(" ")
            script[key] = " ".join([head, *words, tail])
    decoder = json.JSONDecoder()
    rows = []
    for key, reply in script.items():
        if key.startswith("table_synthesis|") and "{" in reply:
            start = reply.index("{")
            try:
                row, end = decoder.raw_decode(reply, start)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict) and "Venue" in row:
                rows.append((key, row, start, end))
    for i, (key, row, start, end) in enumerate(rows[::4]):
        row["Venue"] = [2024, "Café"] if i % 2 else 1.5 + i
        script[key] = script[key][:start] + json.dumps(row, ensure_ascii=False) + script[key][end:]
    scenario_path.write_text(json.dumps(scenario, indent=2, ensure_ascii=False, sort_keys=True)
                             + "\n", encoding="utf-8")
    feed_path = workspace / "feed.ndjson"
    records = [json.loads(line) for line in feed_path.read_text(encoding="utf-8").splitlines()]
    for i, record in enumerate(records[::4]):
        record["bib"].update(score=1.5 + i, pages=[1, "12–14"],
                             venue={"name": "Café", "year": 2024, "rank": None})
    feed_path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                         encoding="utf-8")
    return (f"{widened} section texts and "
            f"{sum(bool(_widened_words(i)) for i in range(len(drafts)))} drafts widened, "
            f"{len(records[::4])} feed bibs and {len(rows[::4])} table rows widened, "
            f"metadata nested")


def reindent(reply: str, value, start: int) -> str:
    return json.dumps(value, indent=1, ensure_ascii=False)


def cutter(seed: int):
    """A ``rewrite_replies`` rewrite that cuts each reply at the next kind of point."""
    rng = random.Random(seed)

    def in_string(reply: str, start: int) -> str:
        opened = rng.choice(list(re.finditer(r'"text": "', reply))).end()
        return reply[:rng.randrange(opened, reply.index('"', opened))]

    def in_escape(reply: str, start: int) -> str:
        return in_string(reply, start) + "\\u00e9"[:rng.randint(1, 5)]

    def after_comma(reply: str, start: int) -> str:
        return reply[:rng.choice([m.end() for m in re.finditer(",", reply[start:])]) + start]

    def after_colon(reply: str, start: int) -> str:
        return reply[:rng.choice(list(re.finditer(r'"\w+": ', reply))).end()]

    def in_number(reply: str, start: int) -> str:
        digits = rng.choice(list(re.finditer(r": (\d{2,})", reply)))
        return reply[:rng.randrange(digits.start(1) + 1, digits.end(1))]

    def before_last_bracket(reply: str, start: int) -> str:
        return reply[:reply.rindex("}")]

    kinds = itertools.cycle(
        [in_string, in_escape, after_comma, after_colon, in_number, before_last_bracket])
    return lambda reply, value, start: next(kinds)(reply, start)


def run_cli(tree: Path, workspace: Path, out: Path, args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", CLI, "--config", str(workspace / "config.json"),
                    "--out", str(out), *args],
                   check=True, env=env, cwd=workspace, capture_output=True, text=True)


def step_digests(tree: Path, workspace: Path, methods: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-c", STEP_DIGESTS, str(workspace / "config.json"),
                           methods],
                          check=True, env=env, cwd=workspace, capture_output=True,
                          text=True).stdout


def replays_to_published(workspace: Path, out: Path) -> bool:
    """Whether replaying ``out/audit.ndjson`` gives ``out/survey.updated.json``'s bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", REPLAY, str(workspace / "config.json"),
                           str(out / "audit.ndjson"), str(out / "survey.updated.json")],
                          check=True, env=env, cwd=workspace, capture_output=True, text=True)
    return done.stdout.strip() == "same"


def workspaces(seeds: list[int], scratch: Path):
    """Write the workspace of each run for each seed under ``scratch``.

    Yields the run's entry prefix (``"seed 1 update_feed"``), workload,
    command-line arguments, compared file names and workspace.
    """
    for seed in seeds:
        for run, workload, args, names in RUNS:
            workspace = scratch / f"{run}-seed{seed}"
            subprocess.run([sys.executable, str(ROOT / "perfbench" / "workspace.py"),
                            "--workload", workload, "--seed", str(seed),
                            "--out", str(workspace)], check=True, capture_output=True)
            if run == "update_feed_unicode":
                print(f"seed {seed}  {run}: {widen_update_feed(workspace)}")
            if run == "retro_baselines_indent1":
                print(f"seed {seed}  {run}: {rewrite_replies(workspace, reindent)} replies "
                      f"re-indented")
            if run == "retro_baselines_cut":
                print(f"seed {seed}  {run}: {rewrite_replies(workspace, cutter(seed))} replies cut")
            yield f"seed {seed} {run}", workload, args, names, workspace


def outputs(tree: Path, label: str, workload: str, args: list[str], names,
            workspace: Path) -> dict[str, bytes]:
    """The compared outputs of ``tree`` on ``workspace``, by entry name.

    Runs the command line into ``workspace/out-{label}`` and returns each
    named file's bytes, plus the step digest lines on a digested workload.
    """
    out = workspace / f"out-{label}"
    run_cli(tree, workspace, out, args)
    found = {name: (out / name).read_bytes() for name in names}
    if workload in DIGESTED:
        found["step digests"] = step_digests(tree, workspace, DIGESTED[workload]).encode("utf-8")
    return found


def check(rev: str, seeds: list[int], scratch: Path) -> int:
    """Compare the working tree's outputs with ``rev``'s; returns how many differ."""
    base = scratch / "rev"
    export(rev, base)
    different = 0
    for prefix, workload, args, names, workspace in workspaces(seeds, scratch):
        tree = outputs(ROOT, "tree", workload, args, names, workspace)
        rev_outputs = outputs(base, "rev", workload, args, names, workspace)
        for entry, data in tree.items():
            same = data == rev_outputs[entry] and data != b""
            different += not same
            label = f"{prefix}/{entry}"
            if entry == "step digests":
                label += f" ({len(data.splitlines())} steps)"
            print(f"{'same' if same else 'DIFFERENT'}  {label}")
        if args[0] == "update":
            same = replays_to_published(workspace, workspace / "out-tree")
            different += not same
            print(f"{'same' if same else 'DIFFERENT'}  {prefix}/audit replay")
    return different


def tree_digests(seeds: list[int], scratch: Path) -> dict[str, str]:
    """The working tree's outputs alone, as one SHA-256 per entry.

    An entry is an output file or a run's step digest lines, named
    ``"seed 1 update_feed/audit.ndjson"``; an update run's audit replay
    is the entry ``.../audit replay``, which reads ``same`` or
    ``differs``.
    """
    entries = {}
    for prefix, workload, args, names, workspace in workspaces(seeds, scratch):
        for entry, data in outputs(ROOT, "tree", workload, args, names, workspace).items():
            entries[f"{prefix}/{entry}"] = hashlib.sha256(data).hexdigest()
        if args[0] == "update":
            same = replays_to_published(workspace, workspace / "out-tree")
            entries[f"{prefix}/audit replay"] = "same" if same else "differs"
    return entries


def write_digests(path: Path, seeds: list[int], scratch: Path) -> None:
    digests = {"python": platform.python_version(), "seeds": seeds,
               "entries": tree_digests(seeds, scratch)}
    path.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests['entries'])} digests to {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="REV",
                      help="git revision to compare the working tree with")
    mode.add_argument("--write-digests", type=Path, metavar="FILE",
                      help="write the working tree's output digests to FILE")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="perfbench workspace seeds (default: 1 2)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="check-outputs-") as scratch:
        try:
            if args.write_digests:
                write_digests(args.write_digests, args.seeds, Path(scratch))
                return 0
            different = check(args.against, args.seeds, Path(scratch))
        except subprocess.CalledProcessError as exc:
            stderr = exc.stderr or ""
            if isinstance(stderr, bytes):
                stderr = stderr.decode(errors="replace")
            print(f"command failed with exit code {exc.returncode}: {exc.cmd}\n{stderr}",
                  file=sys.stderr)
            return 1
    print("outputs identical" if not different else f"{different} file(s) differ")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
