"""Per-step metric bundles and macro/micro aggregation.

Each step of a benchmark stream is scored against its ground-truth span
and scope. Embedding-backed metrics are absent (None) when no embedder
is configured, the step's one embedding call fails, or a value is
undefined; absent values are excluded from aggregation rather than
treated as zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

from .benchmark import FRAMEWORK, StepResult
from .document import document_regions, region_id
from .endpoints import TextEmbedder
from .errors import MetricUnavailableError
from .metrics import (
    DEFAULT_COHERENCE_WINDOW,
    DEFAULT_ROUGE_BETA,
    abstention_precision_recall,
    bert_similarity,
    bleu_4,
    coherence_windows,
    delta_out,
    delta_tokens,
    embed,
    local_coherence,
    region_edit_script,
    rouge_l,
    semantic_alignment,
)
from .text import joined_tokens, memo_tokens

logger = logging.getLogger(__name__)

SCALAR_METRICS = (
    "bleu4", "rouge_l_f", "bert_sim", "semantic_align", "local_coherence",
    "delta_tokens", "delta_out",
)


@dataclass(frozen=True)
class StepEvaluation:
    """Metric bundle for one update step."""

    survey: str
    method: str
    paper_id: str
    out_of_scope: int  # y
    abstained: int     # a-hat
    delta_tokens: int
    delta_out: int
    bleu4: float | None = None
    rouge_l_f: float | None = None
    bert_sim: float | None = None
    semantic_align: float | None = None
    local_coherence: float | None = None
    routing_hit1: int | None = None
    routing_hit3: int | None = None


def _step_scope(result: StepResult) -> set[str]:
    """Scope regions an edit is allowed to touch.

    Framework steps use the routed scope; baseline steps use the
    ground-truth section. Out-of-scope baseline steps have an empty scope
    since no edit is appropriate at all.
    """
    if result.method == FRAMEWORK:
        scope = set()
        if result.routed_section:
            scope.add(region_id("section", result.routed_section))
        if result.routed_table:
            scope.add(region_id("table", result.routed_table))
        return scope
    if result.gt_span is not None:
        return {region_id("section", result.gt_span.section_id)}
    return set()


def _embedding_metrics(
    result: StepResult,
    update_text: str,
    coherence_window: int,
    embedder: TextEmbedder,
) -> tuple[float | None, float | None, float | None]:
    """bert_sim, semantic alignment and local coherence from one embedder call.

    The texts all three need go to ``embed`` as one de-duplicated batch.
    If that call fails, all three are absent.
    """
    similarity = result.gt_span is not None and bool(update_text)
    quality = bool(result.inserted and result.paper_repr)
    texts = [update_text, result.gt_span.text] if similarity else []
    sentences: list[str] = []
    windows: list[tuple[str, list[str]]] = []
    if quality:
        sentences = [s.text for s in result.inserted]
        windows = coherence_windows(result.inserted, result.after, coherence_window)
        texts += [*sentences, result.paper_repr,
                  *(text for _, neighborhood in windows for text in neighborhood)]
    try:
        vectors = embed(texts, embedder)
    except MetricUnavailableError as exc:
        logger.warning("embeddings unavailable for %s: %s", result.paper_id, exc)
        return None, None, None
    bert = bert_similarity(update_text, result.gt_span.text, vectors) if similarity else None
    if not quality:
        return bert, None, None
    return (bert, semantic_alignment(sentences, result.paper_repr, vectors),
            local_coherence(windows, vectors))


def evaluate_step(
    result: StepResult,
    survey: str,
    embedder: TextEmbedder | None = None,
    coherence_window: int = DEFAULT_COHERENCE_WINDOW,
    rouge_beta: float = DEFAULT_ROUGE_BETA,
) -> StepEvaluation:
    """Score one step: similarity, property quality, disruption, routing."""
    before_regions = document_regions(result.before)
    after_regions = document_regions(result.after)
    ops = region_edit_script(before_regions[0], after_regions[0])
    d_tokens = delta_tokens(ops)
    d_out = delta_out(ops, _step_scope(result), before_regions, after_regions)

    bleu = rouge = bert = align = coherence = None
    if result.gt_span is not None:
        # Each text is tokenized once, through the memo the regions use.
        candidate = joined_tokens(s.text for s in result.inserted)
        reference = memo_tokens(result.gt_span.text)
        bleu = bleu_4(candidate, reference)
        rouge = rouge_l(candidate, reference, beta=rouge_beta)
    if embedder is not None:
        update_text = " ".join(s.text for s in result.inserted)
        bert, align, coherence = _embedding_metrics(
            result, update_text, coherence_window, embedder)

    hit1 = hit3 = None
    if result.gt_span is not None and not result.out_of_scope:
        target = result.gt_span.section_id
        ranked = list(result.ranked_sections)
        if result.method == FRAMEWORK:
            hit1 = int(bool(ranked) and ranked[0] == target)
            hit3 = int(target in ranked[:3])
    return StepEvaluation(
        survey=survey,
        method=result.method,
        paper_id=result.paper_id,
        out_of_scope=int(result.out_of_scope),
        abstained=int(result.abstained),
        delta_tokens=d_tokens,
        delta_out=d_out,
        bleu4=bleu,
        rouge_l_f=rouge,
        bert_sim=bert,
        semantic_align=align,
        local_coherence=coherence,
        routing_hit1=hit1,
        routing_hit3=hit3,
    )


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    count: int


def summarize(values: Sequence[float | None]) -> MetricSummary | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    mean = sum(present) / len(present)
    variance = sum((v - mean) ** 2 for v in present) / len(present)
    return MetricSummary(mean=mean, std=math.sqrt(variance), count=len(present))


def _group_summary(evals: Sequence[StepEvaluation]) -> dict[str, MetricSummary | None]:
    summary: dict[str, MetricSummary | None] = {
        metric: summarize([getattr(e, metric) for e in evals])
        for metric in SCALAR_METRICS + ("routing_hit1", "routing_hit3")
    }
    labels = [(e.out_of_scope, e.abstained) for e in evals]
    precision, recall = abstention_precision_recall(labels)
    abstained = sum(a for _, a in labels)
    out_of_scope = sum(y for y, _ in labels)
    summary["abstention_precision"] = (
        None if precision is None else MetricSummary(precision, 0.0, abstained))
    summary["abstention_recall"] = (
        None if recall is None else MetricSummary(recall, 0.0, out_of_scope))
    return summary


REPORTED_METRICS = SCALAR_METRICS + (
    "routing_hit1", "routing_hit3", "abstention_precision", "abstention_recall",
)

# method -> group (survey name, "macro" or "micro") -> metric -> summary
AggregateReport = dict[str, dict[str, dict[str, MetricSummary | None]]]


def aggregate(evals: Sequence[StepEvaluation]) -> AggregateReport:
    """Group per-step evaluations by method, then survey; add macro and micro.

    Per survey: plain means over steps. Macro: unweighted mean of the
    per-survey means. Micro: pooled mean over all steps. Metrics absent
    everywhere stay absent at every level.
    """
    methods = sorted({e.method for e in evals})
    report: AggregateReport = {}
    for method in methods:
        method_evals = [e for e in evals if e.method == method]
        surveys = sorted({e.survey for e in method_evals})
        groups: dict[str, dict[str, MetricSummary | None]] = {}
        for survey in surveys:
            groups[survey] = _group_summary([e for e in method_evals if e.survey == survey])
        macro: dict[str, MetricSummary | None] = {}
        for metric in REPORTED_METRICS:
            survey_means = [groups[s][metric].mean for s in surveys
                            if groups[s][metric] is not None]
            macro[metric] = summarize(survey_means)
        groups["macro"] = macro
        groups["micro"] = _group_summary(method_evals)
        report[method] = groups
    return report
