"""Run configuration: one declarative JSON file with env interpolation.

``${VAR}`` inside any string value is replaced from the environment, so
credentials never live in the file. Paths are resolved relative to the
config file. Per endpoint kind, exactly one of a mock scenario path or
real endpoint settings must be given; the embedding endpoint may also be
omitted entirely, in which case embedding metrics are reported absent.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .corpus import CandidateFilter, SurveyScope, filter_from_dict, scope_from_dict
from .endpoints import (
    ChatCompletionClient,
    EmbeddingClient,
    EmbeddingEndpoint,
    GenerationEndpoint,
    TextEmbedder,
    TextGenerator,
)
from .errors import ConfigError
from .metrics import DEFAULT_COHERENCE_WINDOW, DEFAULT_FIDELITY_TAU, DEFAULT_ROUGE_BETA
from .mock import (
    hash_embedding_from_scenario,
    load_scenario,
    scripted_generation_from_scenario,
)

_ENV_VAR = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _interpolate(value):
    if isinstance(value, str):
        def repl(match: re.Match) -> str:
            name = match.group(1)
            if name not in os.environ:
                raise ConfigError(f"environment variable {name!r} referenced but not set")
            return os.environ[name]

        return _ENV_VAR.sub(repl, value)
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class MetricSettings:
    coherence_window: int = DEFAULT_COHERENCE_WINDOW
    fidelity_tau: float = DEFAULT_FIDELITY_TAU
    rouge_beta: float = DEFAULT_ROUGE_BETA


@dataclass(frozen=True)
class EndpointChoice:
    """Either a mock scenario path or real endpoint settings, never both."""

    mock_scenario: Path | None = None
    settings: dict | None = None

    def __post_init__(self) -> None:
        if (self.mock_scenario is None) == (self.settings is None):
            raise ConfigError(
                "endpoint must set exactly one of mock_scenario or real settings")


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    survey: Path
    outline: Path
    spans: Path
    late_feed: Path
    oos_feed: Path


@dataclass(frozen=True)
class RunConfig:
    survey_path: Path | None
    outline_path: Path | None
    scope: SurveyScope | None
    feed_path: Path | None
    candidate_filter: CandidateFilter
    generation: EndpointChoice
    embedding: EndpointChoice | None
    metrics: MetricSettings
    out_dir: Path
    allowed_sections: tuple[str, ...] = ()
    allowed_tables: tuple[str, ...] = ()
    instances: tuple[InstanceSpec, ...] = ()


def _endpoint_choice(data: dict | None, base: Path) -> EndpointChoice | None:
    if not data:
        return None
    if "mock_scenario" in data and len(data) > 1:
        raise ConfigError("endpoint sets both mock_scenario and real settings")
    if "mock_scenario" in data:
        return EndpointChoice(mock_scenario=base / str(data["mock_scenario"]))
    if "base_url" not in data:
        raise ConfigError("real endpoint settings require base_url")
    return EndpointChoice(settings=dict(data))


def load_config(path: str | Path) -> RunConfig:
    config_path = Path(path)
    try:
        data = json.loads(config_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
    data = _interpolate(data)
    base = config_path.parent

    generation = _endpoint_choice(data.get("generation"), base)
    if generation is None:
        raise ConfigError("config must define a generation endpoint or mock scenario")
    embedding = _endpoint_choice(data.get("embedding"), base)

    metrics_data = data.get("metrics", {})
    metrics = MetricSettings(
        coherence_window=int(metrics_data.get("coherence_window", DEFAULT_COHERENCE_WINDOW)),
        fidelity_tau=float(metrics_data.get("fidelity_tau", DEFAULT_FIDELITY_TAU)),
        rouge_beta=float(metrics_data.get("rouge_beta", DEFAULT_ROUGE_BETA)),
    )

    instances = []
    for spec in data.get("benchmark", {}).get("instances", []):
        try:
            instances.append(InstanceSpec(
                name=str(spec["name"]),
                survey=base / str(spec["survey"]),
                outline=base / str(spec["outline"]),
                spans=base / str(spec["spans"]),
                late_feed=base / str(spec["late_feed"]),
                oos_feed=base / str(spec["oos_feed"]),
            ))
        except KeyError as exc:
            raise ConfigError(f"benchmark instance missing field {exc}") from exc

    return RunConfig(
        survey_path=base / str(data["survey"]) if data.get("survey") else None,
        outline_path=base / str(data["outline"]) if data.get("outline") else None,
        scope=scope_from_dict(data["scope"]) if data.get("scope") else None,
        feed_path=base / str(data["feed"]) if data.get("feed") else None,
        candidate_filter=filter_from_dict(data.get("filter", {})),
        generation=generation,
        embedding=embedding,
        metrics=metrics,
        out_dir=base / str(data.get("out_dir", "out")),
        allowed_sections=tuple(str(s) for s in data.get("allowed_sections", [])),
        allowed_tables=tuple(str(t) for t in data.get("allowed_tables", [])),
        instances=tuple(instances),
    )


def make_generator(config: RunConfig) -> TextGenerator:
    choice = config.generation
    if choice.mock_scenario is not None:
        return scripted_generation_from_scenario(load_scenario(choice.mock_scenario))
    settings = dict(choice.settings or {})
    endpoint = GenerationEndpoint(
        base_url=str(settings["base_url"]),
        model_id=str(settings.get("model_id", "")),
        temperature=float(settings.get("temperature", 0.0)),
        max_output_tokens=int(settings.get("max_output_tokens", 1024)),
        timeout_s=float(settings.get("timeout_s", 60.0)),
        max_retries=int(settings.get("max_retries", 1)),
        api_key_env=settings.get("api_key_env"),
    )
    return ChatCompletionClient(endpoint)


def make_embedder(config: RunConfig) -> TextEmbedder | None:
    choice = config.embedding
    if choice is None:
        return None
    if choice.mock_scenario is not None:
        embedder = hash_embedding_from_scenario(load_scenario(choice.mock_scenario))
        if embedder is None:
            raise ConfigError(
                f"scenario {choice.mock_scenario} has no embedding section")
        return embedder
    settings = dict(choice.settings or {})
    endpoint = EmbeddingEndpoint(
        base_url=str(settings["base_url"]),
        model_id=str(settings.get("model_id", "bert-base-uncased")),
        dimension=int(settings.get("dimension", 768)),
        timeout_s=float(settings.get("timeout_s", 60.0)),
        max_retries=int(settings.get("max_retries", 1)),
        api_key_env=settings.get("api_key_env"),
    )
    return EmbeddingClient(endpoint)


def uses_mock_generation(config: RunConfig) -> bool:
    return config.generation.mock_scenario is not None
