#!/usr/bin/env python3
"""Performance benchmark for dynsurvey.

Each run generates a seeded workspace (``perfbench/workspace.py``), then
drives the program on it through the same public calls, in the same
order, as ``dynsurvey update`` (``cli.cmd_update``) or ``dynsurvey
benchmark`` (``cli.cmd_benchmark``). Whole passes (set-up, every step,
publish or report) repeat until ``--seconds`` have passed. Times are
normalised for machine speed with ``perfbench/probe.py``; the median
pass and each step's median over the passes are reported. Every pass is
checked: every step must end as the scenario injected, and the
workload's invariants must hold. The outputs must also be byte-equal to
what ``cli.main`` writes on the same workspace. A failed check makes the
run exit 1.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` the first half of the time runs untraced and the second
half traced (see ``perfbench/tracing.py``); the run reports per-layer
metrics and the tracing overhead. The last line of standard output is
one JSON object; the full result, with environment, sample counts and
bases, goes to ``.perfbench/results/``.

Usage:
    python3 perfbench/run.py --workload update_feed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from probe import SpeedProbe  # perfbench/probe.py, next to this file
from tracing import Tracer  # perfbench/tracing.py

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"

WORKLOADS = ("update_feed", "retro_framework_embed", "retro_baselines")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# An untraced run times set-up alone this often, then once more in every
# pass; the median is reported.
SETUP_ALONE = 4
# An untraced run repeats its pass at least this often, even past --seconds.
MIN_PASSES = 3
# Probe samples taken before and after each timed set-up or pass.
PROBE_BRACKET = 5
# Roles the scripted provider answers; prompt size is reported per role.
ROLES = ("analysis", "abstention", "section_routing", "insertion_point", "table_routing",
         "text_synthesis", "table_synthesis", "one_step", "oracle")
LIMITS = (
    "Every feed paper carries a bib entry: a paper without one whose draft has "
    "[cite] aborts the whole update run today, so such papers join the workload "
    "once that defect is fixed.",
    "Wall time of the endpoints HTTP transport is not measured; it needs a real "
    "or stub server. Agent cost shows as calls, attempts and prompt characters.",
    "Load comes from one process and one thread; each run is a fresh process.",
)
END_TO_END_UNITS = {
    "setup_s": "s", "steps_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
    "peak_rss_mb": "MB", "prompt_chars_per_step": "chars/step",
    "agent_calls_per_step": "count/step", "attempts_per_call": "count/call",
    "failed_step_ratio": "ratio",
}


class CheckFailed(Exception):
    """The program's output disagrees with what the workload requires."""


# ---------------------------------------------------------------------------
# Wrapped providers: counts in every run, spans only in the traced run.


class CountingGenerator:
    """Counts calls, retries and prompt characters of a text generator.

    An untraced generator can also carry the pass's speed probe, so that
    method streams that run many steps inside one call keep sampling.
    """

    def __init__(self, inner, tracer=None):
        self.max_retries = inner.max_retries
        self.traced = tracer is not None
        self._generate = tracer.wrap("mock.generate", inner.generate) if tracer else inner.generate
        self.calls = 0
        self.retries = 0
        self.prompt_chars: Counter = Counter()
        self.probe: SpeedProbe | None = None

    def generate(self, request):
        if self.probe is not None:
            self.probe.tick()
        self.calls += 1
        self.retries += request.attempt > 0
        self.prompt_chars[request.role] += len(request.prompt)
        return self._generate(request)


class CountingEmbedder:
    """Counts texts and distinct texts sent to an embedder; traced run only."""

    def __init__(self, inner, tracer):
        self.model_id = inner.model_id
        self.dimension = inner.dimension
        self._embed = tracer.wrap("mock.embed", inner.embed)
        self.texts = 0
        self.distinct: set[str] = set()

    def embed(self, texts):
        self.texts += len(texts)
        self.distinct.update(texts)
        return self._embed(texts)


# ---------------------------------------------------------------------------
# Workloads


class UpdateFeed:
    """``dynsurvey update``: one feed through apply_update, then publish."""

    outputs = ("survey.updated.json", "audit.ndjson")

    def __init__(self, p, work: Path, expected: dict):
        self.p = p
        self.config_path = work / "config.json"
        self.expected = expected

    def cli_argv(self) -> list[str]:
        return ["update"]

    def setup(self, tracer=None):
        p = self.p
        cfg = p.config.load_config(self.config_path)
        state = p.document.SurveyState(
            document=p.document.load_document(cfg.survey_path),
            outline=p.document.load_outline(cfg.outline_path))
        p.document.validate_state(state)
        if not state.outline.approved:
            raise CheckFailed("generated outline is not approved")
        papers = p.corpus.ingest_feed(cfg.feed_path, cfg.candidate_filter)
        generator = CountingGenerator(p.config.make_generator(cfg), tracer)
        clock = p.engine.make_step_clock() if p.config.uses_mock_generation(cfg) \
            else p.engine.utc_clock
        return SimpleNamespace(cfg=cfg, state=state, papers=papers,
                               generator=generator, clock=clock)

    def run(self, ctx, out: Path, steps: list[tuple[float, float]], probe: SpeedProbe):
        engine = self.p.engine
        state = ctx.state
        records = []
        for paper in ctx.papers:
            start = time.perf_counter()
            state, record = engine.apply_update(state, paper, ctx.generator, clock=ctx.clock)
            steps.append((start, (time.perf_counter() - start) * 1e3))
            records.append(record)
            probe.tick()
        out.mkdir(parents=True, exist_ok=True)
        engine.publish(state, out / "survey.updated.json")
        engine.write_audit_log(records, out / "audit.ndjson")
        return SimpleNamespace(records=records, state=state)

    def outcomes(self, result) -> dict[str, str]:
        return {r.paper_id: _decision(r) for r in result.records}

    def check_pass(self, ctx, result) -> None:
        _expect(len(ctx.papers), self.expected["feed_records"], "feed records kept by the filter")
        _expect(ctx.generator.retries, self.expected["retries"], "correction retries")
        rows = sum(r.inserted_row is not None for r in result.records)
        _expect(rows, self.expected["table_rows"], "table rows appended")
        fingerprint = self.p.document.outline_fingerprint
        _expect(fingerprint(result.state.outline), fingerprint(ctx.state.outline),
                "outline fingerprint after the run")

    def check_once(self, out: Path) -> dict:
        """Replaying the audit log reproduces the published survey."""
        p = self.p
        ctx = self.setup()
        papers = {paper.id: paper for paper in ctx.papers}
        state = ctx.state
        for record in p.engine.read_audit_log(out / "audit.ndjson"):
            state = p.engine.replay_update(state, record, papers[record.paper_id])
        published = (out / "survey.updated.json").read_text(encoding="utf-8")
        replayed = p.document.serialize_document(state.document)
        # Compared as JSON values: the audit log stores table rows with
        # sorted keys, so a replayed row may list its columns in another
        # order than the published file. Byte equality is reported apart.
        if json.loads(replayed) != json.loads(published):
            raise CheckFailed("replaying audit.ndjson does not reproduce the published survey")
        on_disk = p.document.load_outline(ctx.cfg.outline_path)
        _expect(p.document.outline_fingerprint(on_disk),
                p.document.outline_fingerprint(state.outline), "outline fingerprint on disk")
        return {"replay_bytes_equal": replayed == published}


class Retro:
    """``dynsurvey benchmark --methods ...``: method streams, evaluation, report."""

    outputs = ("report.csv", "report.txt")

    def __init__(self, p, work: Path, expected: dict, methods: tuple[str, ...]):
        self.p = p
        self.config_path = work / "config.json"
        self.expected = expected
        self.methods = methods

    def cli_argv(self) -> list[str]:
        return ["benchmark", "--methods", ",".join(self.methods)]

    def setup(self, tracer=None):
        p = self.p
        cfg = p.config.load_config(self.config_path)
        generator = CountingGenerator(p.config.make_generator(cfg), tracer)
        embedder = p.config.make_embedder(cfg)
        if embedder is not None and tracer is not None:
            embedder = CountingEmbedder(embedder, tracer)
        instances = []
        for spec in cfg.instances:
            full_state = p.document.SurveyState(
                document=p.document.load_document(spec.survey),
                outline=p.document.load_outline(spec.outline))
            annotations = p.benchmark.load_span_annotations(spec.spans)
            late = p.corpus.ingest_feed(spec.late_feed, cfg.candidate_filter)
            oos = p.corpus.ingest_feed(spec.oos_feed, cfg.candidate_filter)
            instance = p.benchmark.build_instance(spec.name, full_state, late, annotations, oos)
            instances.append((spec, instance))
        return SimpleNamespace(cfg=cfg, generator=generator, embedder=embedder,
                               instances=instances)

    def run(self, ctx, out: Path, steps: list[tuple[float, float]], probe: SpeedProbe):
        p = self.p
        metrics = ctx.cfg.metrics
        # run_method is not timed per step, so the probe may run inside it;
        # a traced run keeps it out of the spans.
        if not ctx.generator.traced:
            ctx.generator.probe = probe
        evaluations = []
        results = []
        for spec, instance in ctx.instances:
            for method in self.methods:
                stream = p.benchmark.run_method(method, instance, ctx.generator,
                                                clock=p.engine.make_step_clock())
                for step in stream:
                    start = time.perf_counter()
                    evaluations.append(p.evaluation.evaluate_step(
                        step, spec.name, embedder=ctx.embedder,
                        coherence_window=metrics.coherence_window,
                        rouge_beta=metrics.rouge_beta))
                    steps.append((start, (time.perf_counter() - start) * 1e3))
                    probe.tick()
                results.extend(stream)
        embedder = ctx.embedder
        knobs = p.report.ReportKnobs(
            rouge_beta=metrics.rouge_beta,
            coherence_window=metrics.coherence_window,
            fidelity_tau=metrics.fidelity_tau,
            embedding_model_id=getattr(embedder, "model_id", "absent") if embedder else "absent",
        )
        p.report.write_reports(evaluations, out, knobs)
        return SimpleNamespace(results=results, evaluations=evaluations)

    def outcomes(self, result) -> dict[str, str]:
        outcomes = {}
        for step in result.results:
            if step.method == self.p.benchmark.FRAMEWORK:
                outcomes[step.paper_id] = _decision(step.record)
            else:
                outcomes[f"{step.method}|{step.paper_id}"] = (
                    "failed_closed" if step.error else
                    "unchanged" if step.abstained else "changed")
        return outcomes

    def check_pass(self, ctx, result) -> None:
        p = self.p
        framework = [s for s in result.results if s.method == p.benchmark.FRAMEWORK]
        if not framework:
            return
        _expect(ctx.generator.retries, self.expected["retries"], "correction retries")
        rows = sum(s.record.inserted_row is not None for s in framework)
        _expect(rows, self.expected["table_rows"], "table rows appended")
        leaks = [e.paper_id for e in result.evaluations
                 if e.method == p.benchmark.FRAMEWORK and e.delta_out != 0]
        if leaks:
            raise CheckFailed(f"framework steps edited outside their scope: {leaks[:5]}")
        # Replaying the framework's records reproduces its final document.
        spec, instance = ctx.instances[0]
        papers = {paper.id: paper for paper, _ in instance.late_papers}
        papers.update({paper.id: paper for paper in instance.out_of_scope_papers})
        state = instance.early_state
        for step in framework:
            state = p.engine.replay_update(state, step.record, papers[step.paper_id])
        serialize = p.document.serialize_document
        if serialize(state.document) != serialize(framework[-1].after):
            raise CheckFailed("replaying the framework records does not reproduce its output")
        on_disk = p.document.load_outline(spec.outline)
        _expect(p.document.outline_fingerprint(instance.early_state.outline),
                p.document.outline_fingerprint(on_disk), "outline fingerprint")

    def check_once(self, out: Path) -> dict:
        return {}


def _decision(record) -> str:
    if record.decision == "updated" and record.table_error:
        return "text_only"
    return record.decision


def _expect(observed, expected, what: str) -> None:
    if observed != expected:
        raise CheckFailed(f"{what}: observed {observed}, expected {expected}")


# ---------------------------------------------------------------------------
# Tracing sites: (module, attribute, span name, options)


def _count(key: str, measure):
    def count(counts, args, kwargs, result):
        counts[key] += measure(args, kwargs, result)
    return count


def _sentence_texts(doc) -> list[str]:
    return [s.text for section in doc.sections for s in section.sentences]


def _count_streamed(counts, args, kwargs, result):
    step = args[0]
    texts = _sentence_texts(step.before) + _sentence_texts(step.after)
    counts["text.sentences_streamed"] += len(texts)
    counts["text.sentences_distinct"] += len(set(texts))


def install_tracing(tracer, p) -> None:
    """Wrap each layer at the module attribute its callers use."""
    engine, benchmark, evaluation = p.engine, p.benchmark, p.evaluation
    paper_step = lambda *a, **k: f"update:{a[1].id}"  # noqa: E731
    for site in (engine, benchmark):  # cli/driver call and benchmark._framework_step
        tracer.patch(site, "apply_update", "engine.apply_update", step_of=paper_step)
    tracer.patch(benchmark, "_baseline_step", "benchmark.baseline_step",
                 step_of=lambda *a, **k: f"{a[0]}:{a[2].id}")
    tracer.patch(evaluation, "evaluate_step", "evaluation.evaluate_step",
                 step_of=lambda *a, **k: f"eval:{a[0].method}:{a[0].paper_id}",
                 count=_count_streamed)
    sites = [
        (p.config, "load_config", "config.load_config", None),
        (p.config, "load_scenario", "mock.load_scenario", None),
        (p.document, "load_document", "document.load_document", None),
        (p.document, "load_outline", "document.load_outline", None),
        (p.document, "validate_state", "document.validate_state", None),
        (p.corpus, "ingest_feed", "corpus.ingest_feed",
         _count("corpus.records", lambda a, k, r: len(r or ()))),
        (benchmark, "build_instance", "benchmark.build_instance", None),
        (engine, "run_analysis_agent", "agents.analysis", None),
        (engine, "run_abstention_agent", "agents.abstention", None),
        (engine, "run_section_routing", "agents.section_routing", None),
        (engine, "run_table_routing", "agents.table_routing", None),
        (engine, "run_text_synthesis", "agents.text_synthesis", None),
        (engine, "run_table_synthesis", "agents.table_synthesis", None),
        (engine, "resolve_citations", "engine.resolve_citations", None),
        (engine, "insert_paragraph", "engine.insert_paragraph", None),
        (engine, "validate_document", "document.validate_document", None),
        (engine, "publish", "engine.publish", None),
        (engine, "write_audit_log", "engine.write_audit_log", None),
        (benchmark, "extract_json_value", "parsing.extract_json_value",
         _count("parsing.chars_scanned", lambda a, k, r: len(a[0]))),
        (benchmark, "document_from_dict", "document.document_from_dict", None),
        (benchmark, "serialize_document", "document.serialize_document", None),
        (benchmark, "derive_inserted_sentences", "metrics.derive_inserted_sentences", None),
        (evaluation, "document_token_stream", "metrics.document_token_stream",
         _count("metrics.tokens_streamed", lambda a, k, r: len(r[0]) if r else 0)),
        (evaluation, "token_edit_script", "metrics.token_edit_script",
         _count("metrics.edit_ops", lambda a, k, r: len(r.ops) if r else 0)),
        (evaluation, "delta_out", "metrics.delta_out", None),
        (evaluation, "rouge_l", "metrics.rouge_l", None),
        (evaluation, "bleu_4", "metrics.bleu_4", None),
        (evaluation, "bert_similarity", "metrics.embedding", None),
        (evaluation, "semantic_alignment", "metrics.embedding", None),
        (evaluation, "local_coherence", "metrics.embedding", None),
        (p.report, "aggregate", "evaluation.aggregate", None),
        (p.report, "write_reports", "report.write_reports", None),
    ]
    for module, attribute, name, count in sites:
        tracer.patch(module, attribute, name, count=count)
    tracer.patch(benchmark, "run_method", lambda method, *a, **k: f"benchmark.run_method.{method}")


def per_layer_metrics(tracer, phase: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced phase, normalised per step, set-up or pass."""
    inclusive, own, calls = tracer.times_ms()
    counts = tracer.counts
    steps, setups, passes = phase["steps"], phase["setups"], phase["passes"]
    gen = phase["generator"]

    def ratio(numerator: float, base: float) -> float:
        # Undefined with an empty base; printed as 0 next to its base metric.
        return numerator / base if base else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name, span in (("config.load_ms", "config.load_config"),
                       ("mock.load_scenario_ms", "mock.load_scenario"),
                       ("corpus.ingest_feed_ms", "corpus.ingest_feed"),
                       ("benchmark.build_instance_ms", "benchmark.build_instance")):
        metrics[name] = (inclusive[span] / setups, "ms/setup")
    metrics["document.load_ms"] = (
        (inclusive["document.load_document"] + inclusive["document.load_outline"]
         + inclusive["document.validate_state"]) / setups, "ms/setup")
    metrics["corpus.records"] = (counts["corpus.records"] / setups, "count/setup")

    metrics["engine.apply_update_self_ms"] = (own["engine.apply_update"] / steps, "ms/step")
    per_step = (
        ("engine.resolve_citations_ms", "engine.resolve_citations"),
        ("engine.insert_paragraph_ms", "engine.insert_paragraph"),
        ("document.validate_ms", "document.validate_document"),
        ("agents.analysis_ms", "agents.analysis"),
        ("agents.abstention_ms", "agents.abstention"),
        ("agents.section_routing_ms", "agents.section_routing"),
        ("agents.table_routing_ms", "agents.table_routing"),
        ("agents.text_synthesis_ms", "agents.text_synthesis"),
        ("agents.table_synthesis_ms", "agents.table_synthesis"),
        ("mock.generate_ms", "mock.generate"),
        ("parsing.extract_json_ms", "parsing.extract_json_value"),
        ("document.from_dict_ms", "document.document_from_dict"),
        ("document.serialize_ms", "document.serialize_document"),
        ("metrics.derive_inserted_ms", "metrics.derive_inserted_sentences"),
        ("metrics.token_stream_ms", "metrics.document_token_stream"),
        ("metrics.edit_script_ms", "metrics.token_edit_script"),
        ("metrics.delta_out_ms", "metrics.delta_out"),
        ("metrics.rouge_ms", "metrics.rouge_l"),
        ("metrics.bleu_ms", "metrics.bleu_4"),
        ("metrics.embedding_metrics_ms", "metrics.embedding"),
        ("mock.embed_ms", "mock.embed"),
    )
    for name, span in per_step:
        metrics[name] = (inclusive[span] / steps, "ms/step")
    metrics["evaluation.evaluate_step_self_ms"] = (
        own["evaluation.evaluate_step"] / steps, "ms/step")
    metrics["document.validate_calls"] = (calls["document.validate_document"] / steps, "count/step")
    metrics["document.serialize_calls"] = (
        calls["document.serialize_document"] / steps, "count/step")
    for key in ("parsing.chars_scanned", "metrics.tokens_streamed", "metrics.edit_ops",
                "text.sentences_streamed"):
        metrics[key] = (counts[key] / steps, "count/step")
    metrics["text.tokenize_distinct_ratio"] = (
        ratio(counts["text.sentences_distinct"], counts["text.sentences_streamed"]), "ratio")
    metrics["mock.texts_embedded"] = (phase["texts_embedded"] / steps, "count/step")
    metrics["mock.embed_distinct_ratio"] = (
        ratio(phase["texts_distinct"], phase["texts_embedded"]), "ratio")

    first_attempts = gen["calls"] - gen["retries"]
    metrics["agents.calls"] = (gen["calls"] / steps, "count/step")
    metrics["agents.retries"] = (gen["retries"] / steps, "count/step")
    metrics["agents.first_attempts"] = (first_attempts / steps, "count/step")
    metrics["agents.first_attempt_ok_ratio"] = (
        ratio(first_attempts - gen["retries"] - phase["failed_closed"], first_attempts), "ratio")
    for role in ROLES:
        metrics[f"prompts.chars.{role}"] = (gen["prompt_chars"].get(role, 0) / steps, "chars/step")

    for name, span in (("engine.publish_ms", "engine.publish"),
                       ("engine.audit_write_ms", "engine.write_audit_log"),
                       ("evaluation.aggregate_ms", "evaluation.aggregate"),
                       ("report.write_ms", "report.write_reports")):
        metrics[name] = (inclusive[span] / passes, "ms/pass")
    for method in ("framework", "one_step", "oracle"):
        metrics[f"benchmark.run_method_ms.{method}"] = (
            inclusive[f"benchmark.run_method.{method}"] / passes, "ms/pass")
    metrics["trace.spans_per_step"] = (len(tracer.spans) / steps, "count/step")
    return metrics


# ---------------------------------------------------------------------------
# Measurement


def _digest(out: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def _percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_setup(workload, tracer=None) -> tuple[object, float, float]:
    """Set up once; return the context, raw seconds and normalised seconds."""
    probe = SpeedProbe()
    probe.sample(PROBE_BRACKET)
    start = time.perf_counter()
    ctx = workload.setup(tracer)
    raw = time.perf_counter() - start
    probe.sample(PROBE_BRACKET)
    return ctx, raw, raw * probe.factor()


def measure(workload, p, work: Path, seconds: float, traced: bool, expected: dict) -> dict:
    """Run whole passes for ``seconds``; with tracing, half untraced then half traced."""
    setup_s, setup_raw_s = [], []
    for _ in range(0 if traced else SETUP_ALONE):
        _, raw, normalised = timed_setup(workload)
        setup_s.append(normalised)
        setup_raw_s.append(raw)

    phases = [("untraced", seconds / 2 if traced else seconds)]
    if traced:
        phases.append(("traced", seconds / 2))
    min_passes = 1 if traced else MIN_PASSES
    report: dict = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "digests": None,
                    "first_out": None, "mismatches": {}}
    tracer = Tracer()
    for label, budget in phases:
        tracer_here = tracer if label == "traced" else None
        phase = {"steps": 0, "setups": 0, "passes": 0, "pass_s": [], "pass_step_ms": [],
                 "raw_pass_s": [], "raw_pass_step_ms": [], "probe_factor": [],
                 "failed_steps": 0, "failed_closed": 0, "texts_embedded": 0,
                 "texts_distinct": 0,
                 "generator": {"calls": 0, "retries": 0, "prompt_chars": Counter()}}
        if tracer_here:
            install_tracing(tracer, p)
        began = time.perf_counter()
        try:
            while phase["passes"] < min_passes or time.perf_counter() - began < budget:
                gc.collect()
                out = work / f"out-{label}-{phase['passes']}"
                ctx, raw, normalised = timed_setup(workload, tracer_here)
                if label == "untraced":
                    setup_s.append(normalised)
                    setup_raw_s.append(raw)
                probe = SpeedProbe()
                probe.sample(PROBE_BRACKET)
                steps: list[tuple[float, float]] = []
                probe_before = probe.spent
                steps_from = time.perf_counter()
                result = workload.run(ctx, out, steps, probe)
                elapsed = time.perf_counter() - steps_from - (probe.spent - probe_before)
                probe.sample(PROBE_BRACKET)
                factor = probe.factor()
                phase["probe_factor"].append(factor)
                phase["raw_pass_s"].append(elapsed)
                phase["raw_pass_step_ms"].append([ms for _, ms in steps])
                phase["pass_s"].append(elapsed * factor)
                phase["pass_step_ms"].append(
                    [ms * probe.factor_near(start) for start, ms in steps])
                phase["passes"] += 1
                phase["setups"] += 1
                outcomes = workload.outcomes(result)
                phase["steps"] += len(outcomes)
                phase["failed_steps"] += sum(o in ("failed", "failed_closed")
                                             for o in outcomes.values())
                phase["failed_closed"] += sum(o == "failed_closed" for o in outcomes.values())
                gen = ctx.generator
                phase["generator"]["calls"] += gen.calls
                phase["generator"]["retries"] += gen.retries
                phase["generator"]["prompt_chars"].update(gen.prompt_chars)
                if isinstance(ctx.embedder if hasattr(ctx, "embedder") else None,
                              CountingEmbedder):
                    phase["texts_embedded"] += ctx.embedder.texts
                    phase["texts_distinct"] += len(ctx.embedder.distinct)
                # Outcome checks on every pass; a mismatch is a failed step.
                wanted = expected["outcomes"]
                for key, outcome in outcomes.items():
                    if wanted.get(key) != outcome:
                        report["mismatches"][key] = (outcome, wanted.get(key))
                if len(outcomes) != len(wanted):
                    raise CheckFailed(f"{len(outcomes)} steps ran, scenario has {len(wanted)}")
                workload.check_pass(ctx, result)
                digests = _digest(out, workload.outputs)
                if report["digests"] is None:
                    report["digests"], report["first_out"] = digests, out
                elif digests != report["digests"]:
                    raise CheckFailed("a repeated pass wrote different output bytes")
                else:
                    shutil.rmtree(out)
                del ctx, result
        finally:
            tracer.restore()
        report[label] = phase
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["tracer"] = tracer
    return report


def check_against_cli(workload, p, work: Path, first_out: Path) -> dict:
    """The measured outputs equal what ``cli.main`` writes on the same workspace."""
    cli_out = work / "out-cli"
    with contextlib.redirect_stdout(io.StringIO()):
        code = p.cli.main(["--config", str(work / "config.json"), "--out", str(cli_out)]
                          + workload.cli_argv())
    if code != 0:
        raise CheckFailed(f"cli.main exited {code}")
    for name in workload.outputs:
        if (cli_out / name).read_bytes() != (first_out / name).read_bytes():
            raise CheckFailed(f"{name} differs from what cli.main writes")
    return workload.check_once(first_out)


def typical(phase: dict, raw: bool = False) -> tuple[float, list[float]]:
    """Median pass's steps per second, and each step's median time over the passes.

    Times are normalised for machine speed unless ``raw``.
    """
    prefix = "raw_" if raw else ""
    steps_per_pass = phase["steps"] / phase["passes"]
    per_step = [statistics.median(times) for times in zip(*phase[prefix + "pass_step_ms"])]
    return steps_per_pass / statistics.median(phase[prefix + "pass_s"]), per_step


def end_to_end_metrics(report: dict) -> tuple[dict, dict]:
    phase = report["untraced"]
    steps, gen = phase["steps"], phase["generator"]
    steps_per_s, samples = typical(phase)
    first_attempts = gen["calls"] - gen["retries"]
    metrics = {
        "setup_s": statistics.median(report["setup_s"]),
        "steps_per_s": steps_per_s,
        "step_ms_p50": statistics.median(samples),
        "step_ms_p90": _percentile(samples, 90),
        "peak_rss_mb": report["rss_mb"],
        "prompt_chars_per_step": sum(gen["prompt_chars"].values()) / steps,
        "agent_calls_per_step": gen["calls"] / steps,
        "attempts_per_call": gen["calls"] / first_attempts,
        "failed_step_ratio": phase["failed_steps"] / steps,
    }
    raw_steps_per_s, raw_samples = typical(phase, raw=True)
    bases = {
        "setup_s": {"setups": len(report["setup_s"]),
                    "raw_s": statistics.median(report["setup_raw_s"])},
        "steps_per_s": {"steps_per_pass": len(samples), "passes": phase["passes"],
                        "pass_s": phase["pass_s"], "probe_factor": phase["probe_factor"],
                        "raw": raw_steps_per_s},
        "step_ms_p50": {"samples": len(samples), "repeats": phase["passes"],
                        "raw": statistics.median(raw_samples)},
        "step_ms_p90": {"samples": len(samples), "repeats": phase["passes"],
                        "raw": _percentile(raw_samples, 90)},
        "prompt_chars_per_step": {"steps": steps},
        "agent_calls_per_step": {"steps": steps},
        "attempts_per_call": {"first_attempts": first_attempts, "retries": gen["retries"]},
        "failed_step_ratio": {"steps": steps, "failed": phase["failed_steps"]},
    }
    # p99 needs ten samples beyond it, so it is given only from 1000 steps on.
    if len(samples) >= 1000:
        bases["step_ms_p99"] = {"samples": len(samples),
                                "value_ms": _percentile(samples, 99)}
    return metrics, bases


# ---------------------------------------------------------------------------
# Environment and entry points


def _git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` inside it; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    ref_file = ROOT / ".git" / name
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dynsurvey").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def load_program():
    sys.path.insert(0, str(ROOT / "src"))
    from dynsurvey import (benchmark, cli, config, corpus, document, engine, evaluation,
                           report)
    return SimpleNamespace(benchmark=benchmark, cli=cli, config=config, corpus=corpus,
                           document=document, engine=engine, evaluation=evaluation,
                           report=report)


def make_workload(name: str, p, work: Path, expected: dict):
    if name == "update_feed":
        return UpdateFeed(p, work, expected)
    if name == "retro_framework_embed":
        return Retro(p, work, expected, ("framework",))
    return Retro(p, work, expected, ("one_step", "oracle"))


def run_one(args) -> int:
    load_before = os.getloadavg()
    started = time.time()
    work = STATE_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    shutil.rmtree(work, ignore_errors=True)
    problems: list[str] = []
    try:
        generation = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "workspace.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(work)],
                       check=True, timeout=120)
        generation = time.perf_counter() - generation
        expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))["expected"]
        p = load_program()
        handler = logging.FileHandler(work / "program.log", encoding="utf-8")
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logging.basicConfig(level=logging.WARNING, handlers=[handler])
        workload = make_workload(args.workload, p, work, expected)
        try:
            report = measure(workload, p, work, args.seconds, bool(args.trace), expected)
            timer = time.perf_counter()
            findings = check_against_cli(workload, p, work, report["first_out"])
            findings["check_s"] = time.perf_counter() - timer
        except CheckFailed as exc:
            problems.append(str(exc))
            report = None
        logging.getLogger().removeHandler(handler)
        handler.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if report is None:
        print(f"{args.workload}: output check failed: {problems[0]}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    mismatches = report["mismatches"]
    for key, (observed, wanted) in list(mismatches.items())[:10]:
        problems.append(f"step {key} ended {observed}, scenario injected {wanted}")
    phase = report["traced" if args.trace else "untraced"]
    attempted = report["untraced"]["steps"] + (report["traced"]["steps"] if args.trace else 0)
    failed = len(mismatches)

    e2e, bases = end_to_end_metrics(report)
    if args.trace:
        tracer = report["tracer"]
        layers = per_layer_metrics(tracer, phase)
        layers["trace.untraced_steps_per_s"] = (e2e["steps_per_s"], "1/s")
        layers["trace.traced_steps_per_s"] = (typical(phase)[0], "1/s")
        printed = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.write(stem.with_suffix(".spans.ndjson.gz"))
    else:
        printed = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": printed}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "problems": problems,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k], "base": bases.get(k)}
                       for k, v in e2e.items()},
        "step_ms_p99": bases.get("step_ms_p99", "absent: fewer than 1000 steps in the run"),
        "untraced_passes": report["untraced"]["passes"],
        "workspace_generation_s": generation,
        "findings": findings,
        "missing_trace_sites": report["tracer"].missing,
        "environment": dict(environment(), loadavg_before=load_before,
                            loadavg_after=os.getloadavg(),
                            started_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                      time.gmtime(started))),
        "limits": LIMITS,
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    for name, value in e2e.items():
        print(f"{args.workload} {name} = {value:.6g} {END_TO_END_UNITS[name]}"
              f"  {json.dumps(bases.get(name, {}))}")
    if "step_ms_p99" in bases:
        print(f"{args.workload} step_ms_p99 = {bases['step_ms_p99']['value_ms']:.6g} ms"
              f"  (samples {bases['step_ms_p99']['samples']})")
    for problem in problems:
        print(f"{args.workload} CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        status = status or proc.returncode or (0 if result["correct"] else 1)
        combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workspace seed (default {DEFAULT_SEED}; "
                             f"held out for verifying claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time; whole passes run until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dynsurvey" / "__init__.py").is_file():
        print(f"error: no dynsurvey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
