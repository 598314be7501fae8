"""Report files: a structured CSV and a human-readable text summary.

The header of both files records every metric knob that affects the
numbers, so a report is interpretable without the config that produced
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import jsonio
from .evaluation import REPORTED_METRICS, AggregateReport, MetricSummary, StepEvaluation, \
    aggregate
from .metrics import BLEU_SMOOTHING_ID, DEFAULT_COHERENCE_WINDOW, DEFAULT_FIDELITY_TAU, \
    DEFAULT_ROUGE_BETA
from .text import TOKENIZER_ID

SUMMARY_COLUMNS = (
    ("bleu4", "BLEU"),
    ("rouge_l_f", "ROUGE"),
    ("bert_sim", "BERT"),
    ("semantic_align", "Align"),
    ("local_coherence", "Coherence"),
    ("delta_tokens", "dTokens"),
    ("delta_out", "dOut"),
)


@dataclass(frozen=True)
class ReportKnobs:
    rouge_beta: float = DEFAULT_ROUGE_BETA
    coherence_window: int = DEFAULT_COHERENCE_WINDOW
    fidelity_tau: float = DEFAULT_FIDELITY_TAU
    embedding_model_id: str = "absent"

    def header_lines(self) -> list[str]:
        return [
            f"# rouge_beta={self.rouge_beta}",
            f"# bleu_smoothing={BLEU_SMOOTHING_ID}",
            f"# coherence_window={self.coherence_window}",
            f"# fidelity_tau={self.fidelity_tau}",
            f"# tokenizer={TOKENIZER_ID}",
            f"# embedding_model={self.embedding_model_id}",
        ]


def _format(value: float | None) -> str:
    return "absent" if value is None else f"{value:.6f}"


def render_csv(report: AggregateReport, knobs: ReportKnobs) -> str:
    """Aggregated metrics as CSV with knob-recording comment header."""
    lines = knobs.header_lines()
    lines.append("method,group,metric,mean,std,count")
    for method in sorted(report):
        for group in report[method]:
            for metric in REPORTED_METRICS:
                summary = report[method][group].get(metric)
                if summary is None:
                    lines.append(f"{method},{group},{metric},absent,absent,0")
                else:
                    lines.append(
                        f"{method},{group},{metric},"
                        f"{summary.mean:.6f},{summary.std:.6f},{summary.count}")
    return "\n".join(lines) + "\n"


def _summary_row(label: str, group: dict[str, MetricSummary | None]) -> str:
    cells = [f"{label:<16}"]
    for metric, _ in SUMMARY_COLUMNS:
        summary = group.get(metric)
        cells.append(f"{_format(summary.mean if summary else None):>12}")
    return " ".join(cells)


def render_text(report: AggregateReport, knobs: ReportKnobs) -> str:
    """Human-readable summary: per-survey and macro rows per method, then
    routing and abstention blocks."""
    lines = knobs.header_lines()
    header = " ".join([f"{'group':<16}"] + [f"{label:>12}" for _, label in SUMMARY_COLUMNS])
    for method in sorted(report):
        lines.append("")
        lines.append(f"== method: {method} ==")
        lines.append(header)
        groups = report[method]
        for group in groups:
            lines.append(_summary_row(group, groups[group]))
    lines.append("")
    lines.append("== routing and abstention (framework) ==")
    framework = report.get("framework", {})
    lines.append(f"{'group':<16} {'Acc@1':>10} {'Acc@3':>10} {'AbsPrec':>10} {'AbsRec':>10}")
    for group, summaries in framework.items():
        acc1 = summaries.get("routing_hit1")
        acc3 = summaries.get("routing_hit3")
        prec = summaries.get("abstention_precision")
        rec = summaries.get("abstention_recall")
        lines.append(
            f"{group:<16} "
            f"{_format(acc1.mean if acc1 else None):>10} "
            f"{_format(acc3.mean if acc3 else None):>10} "
            f"{_format(prec.mean if prec else None):>10} "
            f"{_format(rec.mean if rec else None):>10}")
    return "\n".join(lines) + "\n"


def write_reports(
    evals: Sequence[StepEvaluation],
    out_dir: str | Path,
    knobs: ReportKnobs,
) -> tuple[Path, Path]:
    """Write ``report.csv`` and ``report.txt`` into ``out_dir``, each replacing its file atomically.

    A failed write leaves that report as it was.
    """
    out = Path(out_dir)
    csv_path = out / "report.csv"
    text_path = out / "report.txt"
    report = aggregate(evals)
    jsonio.replace_text(csv_path, render_csv(report, knobs))
    jsonio.replace_text(text_path, render_text(report, knobs))
    return csv_path, text_path
