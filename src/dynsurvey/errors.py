"""Exception hierarchy and the CLI exit codes attached to it."""

from __future__ import annotations


class DynSurveyError(Exception):
    """Base class for all package errors."""


class ConfigError(DynSurveyError):
    """Invalid or inconsistent run configuration."""


class OutlineNotApprovedError(DynSurveyError):
    """An automated update was attempted against an unapproved outline."""


class DocumentParseError(DynSurveyError):
    """Malformed survey-document or outline input."""


class DocumentIntegrityError(DynSurveyError):
    """A structural invariant of a parsed document is violated."""


class FeedError(DynSurveyError):
    """Unreadable or malformed paper feed."""


class AgentError(DynSurveyError):
    """Base class for failures of an agent call after retries."""


class SchemaViolationError(AgentError):
    """Structured agent output does not satisfy its schema constraints."""


class AnalysisParseError(AgentError):
    """Paper analysis output is missing one of its required sections."""


class RoutingError(AgentError):
    """Section routing produced no usable ranking."""


class SynthesisFormatError(AgentError):
    """Text synthesis output violates the single-paragraph format."""


class TableSynthesisError(AgentError):
    """Table synthesis output is not a schema-conforming row."""


class ScriptGapError(AgentError):
    """A scripted mock endpoint has no canned response for a request."""


class GenerationTransportError(AgentError):
    """The generation endpoint stayed unreachable through all retries."""


class CitationError(DynSurveyError):
    """A citation placeholder could not be resolved to a bib entry."""


class BenchmarkConstructionError(DynSurveyError):
    """A benchmark instance could not be built from its inputs."""


class EvaluationError(DynSurveyError):
    """A metric was asked to evaluate undefined input."""


class MetricUnavailableError(EvaluationError):
    """An embedding-backed metric cannot be computed; report it absent."""


EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_AGENT = 4
EXIT_EVAL = 5


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code for its failure class."""
    if isinstance(exc, (ConfigError, OutlineNotApprovedError)):
        return EXIT_CONFIG
    if isinstance(exc, (DocumentParseError, DocumentIntegrityError, FeedError,
                        BenchmarkConstructionError, CitationError)):
        return EXIT_PARSE
    if isinstance(exc, AgentError):
        return EXIT_AGENT
    if isinstance(exc, EvaluationError):
        return EXIT_EVAL
    return 1
