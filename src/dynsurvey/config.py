"""Run configuration: one declarative JSON file with env interpolation.

``${VAR}`` inside any string value is replaced from the environment, so
credentials never live in the file. Paths are resolved relative to the
config file. Per endpoint kind, exactly one of a mock scenario path or
real endpoint settings must be given; the embedding endpoint may also be
omitted entirely, in which case embedding metrics are reported absent.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from . import jsonio
from .corpus import CandidateFilter, SurveyScope, filter_from_dict
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
    """``value`` with ``${VAR}`` replaced in every string; a string holding
    a lone surrogate, as written or as interpolated, raises ConfigError."""
    if isinstance(value, str):
        def repl(match: re.Match) -> str:
            name = match.group(1)
            if name not in os.environ:
                raise ConfigError(f"environment variable {name!r} referenced but not set")
            return os.environ[name]

        value = _ENV_VAR.sub(repl, value)
        jsonio.check_unicode(value, ConfigError, "config string")
        return value
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
    """Either a mock scenario path or a parsed real endpoint, never both."""

    mock_scenario: Path | None = None
    endpoint: GenerationEndpoint | EmbeddingEndpoint | None = None

    def __post_init__(self) -> None:
        if (self.mock_scenario is None) == (self.endpoint is None):
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


def _endpoint_choice(data: dict, name: str, base: Path,
                     endpoint: type[GenerationEndpoint] | type[EmbeddingEndpoint],
                     ) -> EndpointChoice | None:
    """The config's ``name`` endpoint; None when it is absent, null or empty."""
    settings = jsonio.field(data, name, dict, ConfigError, "config", None, null=True)
    if not settings:
        return None
    if "mock_scenario" not in settings:
        return EndpointChoice(
            endpoint=jsonio.build(endpoint, settings, ConfigError, f"{name} endpoint"))
    if len(settings) > 1:
        raise ConfigError(f"{name} endpoint sets both mock_scenario and real settings")
    return EndpointChoice(
        mock_scenario=base / jsonio.field(settings, "mock_scenario", str, ConfigError, name))


def _instance(spec: dict, base: Path) -> InstanceSpec:
    name = jsonio.field(spec, "name", str, ConfigError, "benchmark instance")
    where = ("benchmark instance", name)
    return InstanceSpec(name, *(base / jsonio.field(spec, key, str, ConfigError, where)
                                for key in ("survey", "outline", "spans", "late_feed", "oos_feed")))


def load_config(path: str | Path) -> RunConfig:
    """Read a run config; a field of the wrong JSON type raises ConfigError."""
    config_path = Path(path)
    data = _interpolate(jsonio.read_json(config_path, ConfigError, "config"))
    base = config_path.parent

    def optional_path(name: str) -> Path | None:
        value = jsonio.field(data, name, str, ConfigError, "config", None, null=True)
        return base / value if value else None

    generation = _endpoint_choice(data, "generation", base, GenerationEndpoint)
    if generation is None:
        raise ConfigError("config must define a generation endpoint or mock scenario")
    metrics = jsonio.field(data, "metrics", dict, ConfigError, "config", {})
    scope = jsonio.field(data, "scope", dict, ConfigError, "config", None, null=True)
    benchmark = jsonio.field(data, "benchmark", dict, ConfigError, "config", {})
    return RunConfig(
        survey_path=optional_path("survey"),
        outline_path=optional_path("outline"),
        scope=jsonio.build(SurveyScope, scope, ConfigError, "scope") if scope else None,
        feed_path=optional_path("feed"),
        candidate_filter=filter_from_dict(
            jsonio.field(data, "filter", dict, ConfigError, "config", {})),
        generation=generation,
        embedding=_endpoint_choice(data, "embedding", base, EmbeddingEndpoint),
        metrics=jsonio.build(MetricSettings, metrics, ConfigError, "metrics"),
        out_dir=base / jsonio.field(data, "out_dir", str, ConfigError, "config", "out"),
        allowed_sections=jsonio.array(data, "allowed_sections", str, ConfigError, "config", ()),
        allowed_tables=jsonio.array(data, "allowed_tables", str, ConfigError, "config", ()),
        instances=tuple(_instance(spec, base) for spec in
                        jsonio.array(benchmark, "instances", dict, ConfigError, "benchmark", ())),
    )


def make_generator(config: RunConfig) -> TextGenerator:
    choice = config.generation
    if choice.mock_scenario is not None:
        return scripted_generation_from_scenario(load_scenario(choice.mock_scenario))
    return ChatCompletionClient(choice.endpoint)


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
    return EmbeddingClient(choice.endpoint)


def uses_mock_generation(config: RunConfig) -> bool:
    return config.generation.mock_scenario is not None
