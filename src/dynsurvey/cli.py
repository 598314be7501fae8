"""Command-line entry point.

Subcommands: ``outline`` drafts an unapproved outline, ``review``
approves it interactively, ``update`` ingests a feed and applies
sequential update steps, ``benchmark`` builds retrospective instances
and evaluates the framework against both baselines.

Exit codes: 0 success, 2 config/approval, 3 parse, 4 agent, 5 evaluation.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .agents import approve_outline, run_outline_agent
from .benchmark import METHODS, build_instance, load_span_annotations, run_method
from .config import RunConfig, load_config, make_embedder, make_generator, uses_mock_generation
from .corpus import ingest_feed
from .document import (
    SurveyState,
    load_document,
    load_outline,
    save_outline,
    validate_state,
)
from .engine import apply_update, make_step_clock, publish, utc_clock, write_audit_log
from .errors import ConfigError, DynSurveyError, OutlineNotApprovedError, exit_code_for
from .evaluation import evaluate_step
from .report import ReportKnobs, write_reports

logger = logging.getLogger(__name__)


def _load_state(config: RunConfig) -> SurveyState:
    if config.survey_path is None or config.outline_path is None:
        raise ConfigError("this command needs both survey and outline paths in the config")
    document = load_document(config.survey_path)
    outline = load_outline(config.outline_path)
    state = SurveyState(document=document, outline=outline)
    validate_state(state)
    return state


def _make_out_dir(config: RunConfig) -> None:
    """Create the output directory before the run makes any call."""
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {config.out_dir}: {exc.strerror or exc}") from exc


def cmd_outline(config: RunConfig, force: bool) -> int:
    if config.survey_path is None or config.outline_path is None:
        raise ConfigError("outline command needs survey and outline paths in the config")
    if config.outline_path.exists() and not force:
        existing = load_outline(config.outline_path)
        if existing.approved:
            raise ConfigError(
                f"{config.outline_path} holds an approved outline; pass --force to overwrite")
    document = load_document(config.survey_path)
    allowed_sections = list(config.allowed_sections) or [s.id for s in document.sections]
    allowed_tables = list(config.allowed_tables) or [t.id for t in document.tables]
    generator = make_generator(config)
    outline = run_outline_agent(
        document, allowed_sections, allowed_tables, generator, scope=config.scope)
    save_outline(outline, config.outline_path)
    print(f"wrote unapproved outline with {len(outline.section_entries)} sections "
          f"and {len(outline.table_entries)} tables to {config.outline_path}")
    return 0


def cmd_review(config: RunConfig) -> int:
    if config.outline_path is None:
        raise ConfigError("review command needs an outline path in the config")
    outline = load_outline(config.outline_path)
    if outline.approved:
        print("outline is already approved")
        return 0
    for entry in outline.section_entries:
        print(f"  [{entry.id}] {entry.section_title}: {entry.summary}")
    for entry in outline.table_entries:
        print(f"  [table {entry.id}] {entry.title}: {entry.summary}")
    try:
        answer = input("Approve this outline and freeze it? [y/N] ").strip().lower()
    except EOFError:  # stdin closed: the prompt's default, no
        print()
        answer = ""
    if answer not in ("y", "yes"):
        print("outline left unapproved")
        return 0
    save_outline(approve_outline(outline), config.outline_path)
    print("outline approved and frozen")
    return 0


def cmd_update(config: RunConfig) -> int:
    state = _load_state(config)
    if not state.outline.approved:
        raise OutlineNotApprovedError("refusing to update: outline is not approved")
    if config.feed_path is None:
        raise ConfigError("update command needs a feed path in the config")
    papers = ingest_feed(config.feed_path, config.candidate_filter)
    _make_out_dir(config)
    generator = make_generator(config)
    clock = make_step_clock() if uses_mock_generation(config) else utc_clock
    records = []
    for paper in papers:
        state, record = apply_update(state, paper, generator, clock=clock)
        records.append(record)
        print(f"  {paper.id}: {record.decision}"
              + (f" -> section {record.routed_section}" if record.routed_section else ""))
    out_dir = config.out_dir
    publish(state, out_dir / "survey.updated.json")
    write_audit_log(records, out_dir / "audit.ndjson")
    print(f"published {out_dir / 'survey.updated.json'} with {len(records)} audit records")
    return 0


def cmd_benchmark(config: RunConfig, methods: list[str]) -> int:
    if not config.instances:
        raise ConfigError("benchmark command needs benchmark.instances in the config")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; choose from {list(METHODS)}")
    if not methods:
        raise ConfigError(f"no methods given; choose from {list(METHODS)}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ConfigError(f"methods {repeated} given more than once")
    # Every instance is read and built before the first call, so a bad
    # input in a later instance costs none of the earlier ones' calls.
    instances = []
    for spec in config.instances:
        full_state = SurveyState(document=load_document(spec.survey),
                                 outline=load_outline(spec.outline))
        annotations = load_span_annotations(spec.spans)
        late = ingest_feed(spec.late_feed, config.candidate_filter)
        oos = ingest_feed(spec.oos_feed, config.candidate_filter)
        instances.append(build_instance(spec.name, full_state, late, annotations, oos))
    _make_out_dir(config)
    generator = make_generator(config)
    embedder = make_embedder(config)
    evaluations = []
    for instance in instances:
        for method in methods:
            results = run_method(method, instance, generator, clock=make_step_clock())
            evaluations.extend(
                evaluate_step(result, instance.name, embedder=embedder,
                              coherence_window=config.metrics.coherence_window,
                              rouge_beta=config.metrics.rouge_beta)
                for result in results)
            print(f"  {instance.name}/{method}: {len(results)} steps")
    knobs = ReportKnobs(
        rouge_beta=config.metrics.rouge_beta,
        coherence_window=config.metrics.coherence_window,
        fidelity_tau=config.metrics.fidelity_tau,
        embedding_model_id=getattr(embedder, "model_id", "absent") if embedder else "absent",
    )
    csv_path, text_path = write_reports(evaluations, config.out_dir, knobs)
    print(f"wrote {csv_path} and {text_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynsurvey",
        description="Maintain a survey document through agentic, localized updates.")
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--out", help="override the configured output directory")
    subparsers = parser.add_subparsers(dest="command", required=True)
    outline = subparsers.add_parser("outline", help="draft an unapproved outline")
    outline.add_argument("--force", action="store_true",
                         help="overwrite an approved outline")
    subparsers.add_parser("review", help="interactively approve the outline")
    subparsers.add_parser("update", help="apply feed papers to the survey")
    benchmark = subparsers.add_parser("benchmark", help="run the retrospective benchmark")
    benchmark.add_argument("--methods", default=",".join(METHODS),
                           help="comma-separated subset of framework,one_step,oracle")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        if args.out:
            config = dataclasses.replace(config, out_dir=Path(args.out))
        if args.command == "outline":
            return cmd_outline(config, force=args.force)
        if args.command == "review":
            return cmd_review(config)
        if args.command == "update":
            return cmd_update(config)
        if args.command == "benchmark":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            return cmd_benchmark(config, methods)
        raise ConfigError(f"unknown command {args.command!r}")
    except DynSurveyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
