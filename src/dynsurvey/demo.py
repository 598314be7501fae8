"""Synthetic demo survey and mock scenario.

A small, fully self-contained workspace: one survey on single-frame
image denoising (3 sections, 2 tables, 10 references), two late papers
with annotated spans, two out-of-scope papers, and a scripted scenario
that drives the framework and both baselines deterministically. Used by
the test suite and by ``scripts/run_mock_benchmark.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from . import jsonio
from .benchmark import SpanAnnotation, build_instance, save_span_annotations
from .corpus import PaperRecord, SurveyScope, write_feed
from .document import (
    ColumnSpec,
    Reference,
    SectionEntry,
    StructuredOutline,
    SurveyDocument,
    SurveyState,
    TableEntry,
    document_from_dict,
    document_to_dict,
    make_section,
    make_table,
    outline_to_dict,
    save_document,
    save_outline,
    serialize_document,
)
from .mock import save_scenario

SECTION_1_TEXT = (
    "Single-frame image denoising seeks to recover a clean image from one noisy "
    "observation. Classical spatial filters average neighboring pixels under a local "
    "smoothness assumption. Bilateral filtering preserves edges by weighting neighbors "
    "with both range and distance kernels [1]. Transform-domain approaches such as "
    "wavelet shrinkage suppress coefficients that fall below a noise-dependent "
    "threshold [2]. Patch-based collaborative filtering groups similar patches and "
    "filters them jointly, which remains a strong classical baseline [3]."
)

SECTION_2_EARLY_TEXT = (
    "Learning-based methods replace hand-crafted priors with parameters fitted on "
    "paired or synthetic data. Early convolutional models learn a residual mapping "
    "from the noisy input to the noise itself, which stabilizes training [4]. "
    "Attention mechanisms widen the receptive field and help the network exploit "
    "self-similarity across distant regions [5]. Self-supervised objectives remove "
    "the need for clean targets by masking pixels and predicting them from context [6]."
)

LATE_A_SPAN = (
    "Residual refinement stacks a second stage that corrects the first-pass estimate "
    "using the predicted noise map [9]. This two-stage design improves fine texture "
    "recovery at a modest computational overhead."
)

SECTION_3_EARLY_TEXT = (
    "Benchmark design determines how faithfully reported gains transfer to real "
    "sensors. Synthetic Gaussian corruptions are convenient but overstate performance "
    "on real noise [7]. Real-noise datasets pair short-exposure captures with "
    "long-exposure references to obtain clean targets. Evaluation typically reports "
    "peak signal-to-noise ratio and structural similarity on held-out scenes [8]. "
    "Cross-dataset tests expose overfitting to a single sensor's noise profile."
)

LATE_B_SPAN = (
    "A recent benchmark collects paired smartphone bursts across 144 scenes and "
    "releases a fixed evaluation split [10]. Its protocol scores methods on both raw "
    "and processed outputs, which separates sensor effects from processing artifacts."
)


def demo_scope() -> SurveyScope:
    return SurveyScope(
        title="A Survey of Single-Frame Image Denoising",
        keywords=("image denoising", "image restoration", "noise modeling"),
        abstract=(
            "This survey organizes single-frame image denoising methods from classical "
            "filtering to learned models and reviews the benchmarks used to compare them."
        ),
        core_criterion=(
            "The paper must propose or evaluate a method, dataset, or benchmark for "
            "single-frame image denoising."
        ),
    )


def demo_full_document() -> SurveyDocument:
    sections = (
        make_section("1", "Problem Setting and Classical Filters", SECTION_1_TEXT),
        make_section("2", "Learned Denoisers", SECTION_2_EARLY_TEXT + " " + LATE_A_SPAN),
        make_section("3", "Benchmarks and Evaluation Practice",
                     SECTION_3_EARLY_TEXT + " " + LATE_B_SPAN),
    )
    tables = (
        make_table(
            "t1",
            "Representative Methods",
            (
                ColumnSpec(name="Method", kind="text"),
                ColumnSpec(name="Domain", kind="categorical",
                           values=("Spatial", "Frequency", "Hybrid")),
                ColumnSpec(name="Supervision", kind="categorical",
                           values=("None", "Supervised", "Self-supervised")),
                ColumnSpec(name="Score", kind="int", minimum=1, maximum=5),
            ),
            [
                {"Method": "Bilateral Filter", "Domain": "Spatial",
                 "Supervision": "None", "Score": 2},
                {"Method": "Wavelet Shrinkage", "Domain": "Frequency",
                 "Supervision": "None", "Score": 2},
                {"Method": "Block Matching", "Domain": "Hybrid",
                 "Supervision": "None", "Score": 3},
            ],
        ),
        make_table(
            "t2",
            "Benchmark Datasets",
            (
                ColumnSpec(name="Dataset", kind="text"),
                ColumnSpec(name="Scenes", kind="int", minimum=1, maximum=500),
                ColumnSpec(name="Noise", kind="categorical", values=("Synthetic", "Real")),
            ),
            [
                {"Dataset": "GaussBench", "Scenes": 68, "Noise": "Synthetic"},
                {"Dataset": "NightRaw", "Scenes": 120, "Noise": "Real"},
            ],
        ),
    )
    references = tuple(
        Reference(key=key, number=i, bib={"title": title, "year": year})
        for i, (key, title, year) in enumerate(
            [
                ("tomasi1998bilateral", "Bilateral Filtering for Gray and Color Images", "1998"),
                ("donoho1995shrink", "De-noising by Soft-Thresholding", "1995"),
                ("dabov2007collab", "Image Denoising by Sparse 3-D Collaborative Filtering", "2007"),
                ("zhang2017residual", "Residual Learning of Deep CNN for Image Denoising", "2017"),
                ("liu2019attention", "Attention-Guided Denoising Networks", "2019"),
                ("krull2019mask", "Learning Denoising from Single Noisy Images", "2019"),
                ("plotz2017real", "Benchmarking Denoising Algorithms with Real Photographs", "2017"),
                ("wang2004ssim", "Image Quality Assessment: From Error Visibility", "2004"),
                ("doe2024twostage", "Two-Stage Residual Refinement for Image Denoising", "2024"),
                ("kim2025burst", "A Paired Burst Benchmark for Real-Noise Denoising", "2025"),
            ],
            start=1,
        )
    )
    metadata = {
        "title": "A Survey of Single-Frame Image Denoising",
        "keywords": ["image denoising", "image restoration", "noise modeling"],
        "abstract": demo_scope().abstract,
    }
    return SurveyDocument(
        metadata=metadata, sections=sections, tables=tables, references=references)


def demo_outline(approved: bool = True) -> StructuredOutline:
    return StructuredOutline(
        section_entries=(
            SectionEntry(
                id="1",
                section_title="Problem Setting and Classical Filters",
                page_numbers="2-4",
                table_relevant=(1, 0),
                summary=(
                    "Formulates the denoising problem and covers spatial, transform-domain "
                    "and patch-based classical filters."
                ),
            ),
            SectionEntry(
                id="2",
                section_title="Learned Denoisers",
                page_numbers="5-8",
                table_relevant=(1, 0),
                summary=(
                    "Surveys convolutional, attention-based and self-supervised learned "
                    "denoising models and their training objectives."
                ),
            ),
            SectionEntry(
                id="3",
                section_title="Benchmarks and Evaluation Practice",
                page_numbers="9-12",
                table_relevant=(0, 1),
                summary=(
                    "Reviews synthetic and real-noise benchmarks and the evaluation "
                    "protocols used to compare denoisers."
                ),
            ),
        ),
        table_entries=(
            TableEntry(
                id="t1",
                title="Representative Methods",
                page_numbers="6",
                summary="Per-method comparison of denoising approaches: domain, supervision and a strength score.",
            ),
            TableEntry(
                id="t2",
                title="Benchmark Datasets",
                page_numbers="10",
                summary="Datasets used for denoising evaluation with scene counts and noise type.",
            ),
        ),
        scope=demo_scope(),
        approved=approved,
    )


def demo_full_state() -> SurveyState:
    return SurveyState(document=demo_full_document(), outline=demo_outline(approved=True))


def demo_late_papers() -> list[PaperRecord]:
    return [
        PaperRecord(
            id="lateA",
            title="Two-Stage Residual Refinement for Image Denoising",
            abstract=(
                "We refine a first-pass denoised estimate with a second stage conditioned "
                "on the predicted noise map, recovering fine texture lost by one-stage "
                "residual models."
            ),
            full_text=(
                "We propose a two-stage denoiser. The first stage predicts a residual "
                "noise map; the second stage corrects the intermediate estimate using "
                "that map through a gated refinement block. Experiments on synthetic and "
                "real noise show consistent gains over one-stage residual baselines."
            ),
            venue="CVPR",
            date="2024-06-01",
            categories=("cs.CV",),
            bib={"key": "doe2024twostage",
                 "title": "Two-Stage Residual Refinement for Image Denoising",
                 "authors": "Doe, J. and Roe, P.", "year": "2024", "venue": "CVPR"},
        ),
        PaperRecord(
            id="lateB",
            title="A Paired Burst Benchmark for Real-Noise Denoising",
            abstract=(
                "We collect paired smartphone bursts across 144 scenes with a fixed "
                "evaluation split and score methods on raw and processed outputs."
            ),
            full_text=(
                "We introduce a benchmark of paired smartphone bursts covering 144 scenes. "
                "Long-exposure references provide clean targets. The protocol evaluates "
                "both raw-domain and processed outputs under a fixed split, separating "
                "sensor effects from processing artifacts."
            ),
            venue="ICCV",
            date="2025-10-01",
            categories=("cs.CV",),
            bib={"key": "kim2025burst",
                 "title": "A Paired Burst Benchmark for Real-Noise Denoising",
                 "authors": "Kim, S. and Lau, M.", "year": "2025", "venue": "ICCV"},
        ),
    ]


def demo_out_of_scope_papers() -> list[PaperRecord]:
    return [
        PaperRecord(
            id="oosA",
            title="Market Impact of Order Flow in Limit Order Books",
            abstract="We model the price impact of order flow imbalance in equity markets.",
            full_text=(
                "We study limit order books and estimate the price impact of marketable "
                "order flow using a propagator model fitted on exchange data."
            ),
            venue="preprint",
            date="2025-03-01",
            categories=("q-fin.TR",),
            bib={"key": "vega2025impact", "title": "Market Impact of Order Flow",
                 "year": "2025"},
        ),
        PaperRecord(
            id="oosB",
            title="Curriculum Scheduling for Multilingual Translation",
            abstract="A curriculum over language pairs improves low-resource translation.",
            full_text=(
                "We schedule training batches over language pairs by difficulty and "
                "show gains on low-resource translation benchmarks."
            ),
            venue="ACL",
            date="2025-07-01",
            categories=("cs.CL",),
            bib={"key": "ng2025curriculum", "title": "Curriculum Scheduling for "
                 "Multilingual Translation", "year": "2025"},
        ),
    ]


def demo_span_annotations() -> list[SpanAnnotation]:
    return [
        SpanAnnotation(paper_id="lateA", section_id="2", text=LATE_A_SPAN),
        SpanAnnotation(paper_id="lateB", section_id="3", text=LATE_B_SPAN),
    ]


def demo_instance():
    return build_instance(
        name="denoising-demo",
        full_state=demo_full_state(),
        late_papers=demo_late_papers(),
        annotations=demo_span_annotations(),
        out_of_scope_papers=demo_out_of_scope_papers(),
    )


LATE_A_ANALYSIS = """### Methods
The method stacks a refinement stage on a first-pass denoiser and feeds it the
predicted noise map alongside the intermediate estimate through a gated block.

### Novelty
It supervises the second stage with a noise-conditional loss and introduces a
lightweight gating block that suppresses already-confident regions.

### Results
On synthetic and real benchmarks the two-stage model improves peak
signal-to-noise ratio by 0.4 dB over one-stage baselines at 15 percent extra cost."""

LATE_A_DRAFT = (
    "Two-Stage Refinement [cite]: This approach appends a correction stage that "
    "consumes the predicted noise map together with the first-pass estimate. A "
    "gating block suppresses regions where the first stage is already confident. "
    "The refinement recovers fine texture that single-pass residual models tend "
    "to smooth away."
)

LATE_B_ANALYSIS = """### Methods
The authors capture paired smartphone bursts with long-exposure references and
define a fixed evaluation split over 144 scenes.

### Novelty
The protocol scores raw-domain and processed outputs separately, isolating
sensor effects from processing artifacts.

### Results
Re-evaluating eight denoisers under the protocol reorders their ranking
relative to synthetic-noise benchmarks."""

LATE_B_DRAFT = (
    "Paired Burst Benchmark [cite]: This benchmark gathers paired smartphone "
    "bursts across 144 scenes with a fixed evaluation split. Scoring raw and "
    "processed outputs separately isolates sensor effects from processing "
    "artifacts."
)

OOS_A_ANALYSIS = """### Methods
The authors fit a propagator model of price impact to exchange order-flow data.

### Novelty
They separate transient from permanent impact using instrumented order-flow
imbalance.

### Results
The model explains a majority of mid-price variance at short horizons."""

OOS_B_ANALYSIS = """### Methods
Training batches are scheduled over language pairs by an estimated difficulty
curriculum.

### Novelty
The curriculum adapts during training from per-pair validation losses.

### Results
Low-resource translation quality improves across two benchmark suites."""


def demo_outline_response() -> str:
    data = outline_to_dict(demo_outline(approved=False))
    data.pop("approved", None)
    data.pop("scope", None)
    return json.dumps(data, indent=2)


def demo_framework_script() -> dict[str, str]:
    return {
        "outline|survey|0": demo_outline_response(),
        "analysis|lateA|0": LATE_A_ANALYSIS,
        "abstention|lateA|0": "TRUE",
        "section_routing|lateA|0": '["2", "3", "1"]',
        "insertion_point|lateA|0": "2:4",
        "table_routing|lateA:t1|0": "yes",
        "table_routing|lateA:t2|0": "no",
        "text_synthesis|lateA|0": LATE_A_DRAFT,
        "table_synthesis|lateA:t1|0": (
            '{"Method": "Two-Stage Refinement", "Domain": "Hybrid", '
            '"Supervision": "Supervised", "Score": 4}'
        ),
        "analysis|lateB|0": LATE_B_ANALYSIS,
        "abstention|lateB|0": "TRUE",
        "section_routing|lateB|0": '["3", "2", "1"]',
        "insertion_point|lateB|0": "append",
        "table_routing|lateB:t1|0": "no",
        "table_routing|lateB:t2|0": "yes",
        "text_synthesis|lateB|0": LATE_B_DRAFT,
        "table_synthesis|lateB:t2|0": '{"Dataset": "PairedBurst", "Scenes": 144, "Noise": "Real"}',
        "analysis|oosA|0": OOS_A_ANALYSIS,
        "abstention|oosA|0": "FALSE",
        "analysis|oosB|0": OOS_B_ANALYSIS,
        "abstention|oosB|0": "FALSE",
    }


def _with_section_text(doc: SurveyDocument, section_id: str,
                       edit: Callable[[str], str]) -> SurveyDocument:
    data = document_to_dict(doc)
    for section in data["sections"]:
        if section["id"] == section_id:
            section["text"] = edit(section["text"])
    return document_from_dict(data)


def demo_baseline_script() -> dict[str, str]:
    """Scripted full-document responses for both baselines.

    The one-step stream rewrites off-target content for the first paper
    (leaking edits outside the ground-truth scope) and behaves for the
    second; the oracle stream appends to the target section only.
    Out-of-scope papers echo the document unchanged.
    """
    script: dict[str, str] = {}
    instance = demo_instance()
    early = instance.early_state.document

    def append_late_a(text: str) -> str:
        return (text + " Two-stage refinement adds a correction pass that reuses the "
                "predicted noise map to restore texture.")

    def append_late_b(text: str) -> str:
        return (text + " A paired burst benchmark with 144 scenes scores raw and "
                "processed outputs under a fixed split.")

    doc = early
    step = _with_section_text(doc, "1", lambda text: text.replace(
        "Classical spatial filters average neighboring pixels under a local "
        "smoothness assumption.",
        "Classical spatial filters pool nearby pixels under a strong local "
        "smoothness prior, which blurs edges."))
    step = _with_section_text(step, "2", append_late_a)
    script["one_step|lateA|0"] = serialize_document(step)
    doc = step
    step = _with_section_text(doc, "3", append_late_b)
    script["one_step|lateB|0"] = serialize_document(step)
    doc = step
    script["one_step|oosA|0"] = serialize_document(doc)
    script["one_step|oosB|0"] = serialize_document(doc)

    doc = early
    step = _with_section_text(doc, "2", append_late_a)
    script["oracle|lateA|0"] = serialize_document(step)
    doc = step
    step = _with_section_text(doc, "3", append_late_b)
    script["oracle|lateB|0"] = serialize_document(step)
    doc = step
    script["oracle|oosA|0"] = serialize_document(doc)
    script["oracle|oosB|0"] = serialize_document(doc)
    return script


def demo_scenario() -> dict:
    generation = demo_framework_script()
    generation.update(demo_baseline_script())
    return {
        "generation": generation,
        "generation_max_retries": 1,
        "embedding": {"seed": 7, "dimension": 64},
    }


def write_demo_workspace(directory: str | Path) -> dict[str, Path]:
    """Materialize the demo survey, feeds, scenario and config in a directory."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "survey": root / "survey.json",
        "outline": root / "outline.json",
        "spans": root / "spans.json",
        "late_feed": root / "late.ndjson",
        "oos_feed": root / "oos.ndjson",
        "scenario": root / "scenario.json",
        "config": root / "config.json",
    }
    save_document(demo_full_document(), paths["survey"])
    save_outline(demo_outline(approved=True), paths["outline"])
    save_span_annotations(demo_span_annotations(), paths["spans"])
    write_feed(demo_late_papers(), paths["late_feed"])
    write_feed(demo_out_of_scope_papers(), paths["oos_feed"])
    save_scenario(demo_scenario(), paths["scenario"])
    config = {
        "survey": "survey.json",
        "outline": "outline.json",
        "feed": "late.ndjson",
        "filter": {},
        "generation": {"mock_scenario": "scenario.json"},
        "embedding": {"mock_scenario": "scenario.json"},
        "metrics": {"coherence_window": 2, "fidelity_tau": 0.6, "rouge_beta": 1.0},
        "out_dir": "out",
        "benchmark": {
            "instances": [
                {
                    "name": "denoising-demo",
                    "survey": "survey.json",
                    "outline": "outline.json",
                    "spans": "spans.json",
                    "late_feed": "late.ndjson",
                    "oos_feed": "oos.ndjson",
                }
            ]
        },
    }
    jsonio.replace_text(paths["config"], json.dumps(config, indent=2) + "\n")
    return paths
