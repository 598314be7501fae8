"""Endpoint configuration and HTTP clients for generation and embeddings.

Both endpoints speak an OpenAI-compatible wire shape: chat completions
for text generation and the ``/embeddings`` request for vectors.
Credentials come from an environment variable named in the endpoint
configuration; nothing is read from disk.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar, runtime_checkable

import requests

from . import jsonio
from .errors import ConfigError, GenerationTransportError, MetricUnavailableError

logger = logging.getLogger(__name__)

_T = TypeVar("_T")


@dataclass(frozen=True)
class GenerationRequest:
    """One agent-level generation call.

    ``role`` names the agent role, ``key`` identifies the work item
    (usually a paper id), and ``attempt`` counts correction retries.
    Scripted providers key on the triple; HTTP providers only need the
    prompt.
    """

    role: str
    key: str
    attempt: int
    prompt: str


@runtime_checkable
class TextGenerator(Protocol):
    max_retries: int

    def generate(self, request: GenerationRequest) -> str: ...


@runtime_checkable
class TextEmbedder(Protocol):
    """Embeds a batch of texts, one vector per text, in input order.

    A text's vector must not depend on the rest of its batch: the metric
    suite embeds the distinct texts of a step in one call and reads every
    metric's vectors from it (``metrics.embed``). ``HashEmbedding`` meets
    this; a server that pads or normalises across a batch does not.
    """

    model_id: str
    dimension: int

    def embed(self, texts: Sequence[str]) -> list[list[float]]: ...


@dataclass(frozen=True)
class GenerationEndpoint:
    """Connection settings for a chat-completion backend."""

    base_url: str
    model_id: str = ""
    temperature: float = 0.0
    max_output_tokens: int = 1024
    timeout_s: float = 60.0
    max_retries: int = 1
    api_key_env: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 1.0:
            raise ConfigError(f"temperature {self.temperature} outside [0, 1]")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")


@dataclass(frozen=True)
class EmbeddingEndpoint:
    """Connection settings for an embedding backend.

    The default model is the fixed pretrained checkpoint used for all
    embedding metrics; pooling is mean over token embeddings and is not
    configurable.
    """

    base_url: str
    model_id: str = "bert-base-uncased"
    dimension: int = 768
    timeout_s: float = 60.0
    max_retries: int = 1
    api_key_env: str | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ConfigError(f"embedding dimension {self.dimension} must be at least 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")


def _auth_headers(api_key_env: str | None) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    if api_key_env:
        key = os.environ.get(api_key_env, "")
        if not key:
            raise ConfigError(f"credential environment variable {api_key_env!r} is empty")
        headers["Authorization"] = f"Bearer {key}"
    return headers


def _post_json(
    endpoint: GenerationEndpoint | EmbeddingEndpoint,
    path: str,
    payload: dict,
    read: Callable[[dict], _T],
    what: str,
    error_type: type[Exception],
) -> _T:
    """POST ``payload`` to ``endpoint`` and return ``read`` of the JSON reply.

    A transport error, a 408, 429 or 5xx status, or a reply that ``read``
    rejects with IndexError or ValueError is retried with
    exponential backoff. A retried status whose reply carries a
    ``Retry-After`` in whole seconds waits that long when it is longer
    than the backoff, capped at 10 s like the backoff; an HTTP-date or
    unreadable ``Retry-After`` leaves the backoff. Any other 4xx status,
    or the last failed attempt, raises ``error_type``.
    """
    url = endpoint.base_url.rstrip("/") + path
    headers = _auth_headers(endpoint.api_key_env)
    last_error: Exception | None = None
    for attempt in range(endpoint.max_retries + 1):
        retry_after = 0
        try:
            response = requests.post(url, json=payload, headers=headers,
                                     timeout=endpoint.timeout_s)
            response.raise_for_status()
            return read(response.json())
        except requests.HTTPError as exc:
            status = getattr(exc.response, "status_code", 0)
            if 400 <= status < 500 and status not in (408, 429):
                raise error_type(f"{what} endpoint rejected the request: {exc}") from exc
            # An HTTP header, not a JSON field: whole seconds, or ignored.
            header = getattr(exc.response, "headers", {}).get("Retry-After", "")
            try:
                retry_after = int(header)
            except ValueError:
                pass
            last_error = exc
        except (requests.RequestException, IndexError, ValueError) as exc:
            last_error = exc
        logger.warning("%s call failed (attempt %d): %s", what, attempt, last_error)
        if attempt < endpoint.max_retries:
            time.sleep(min(max(2 ** attempt, retry_after), 10))
    raise error_type(
        f"{what} endpoint failed after {endpoint.max_retries + 1} attempts: {last_error}")


class ChatCompletionClient:
    """Synchronous chat-completion client with bounded transport retries."""

    def __init__(self, endpoint: GenerationEndpoint):
        self.endpoint = endpoint
        self.max_retries = endpoint.max_retries

    def generate(self, request: GenerationRequest) -> str:
        payload = {
            "model": self.endpoint.model_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": self.endpoint.temperature,
            "max_tokens": self.endpoint.max_output_tokens,
        }
        return _post_json(self.endpoint, "/chat/completions", payload, _reply_content,
                          "generation", GenerationTransportError)


def _reply_content(data: object) -> str:
    """The text of a chat-completion reply's first choice."""
    data = jsonio.check(data, dict, ValueError, "generation reply")
    choice = jsonio.array(data, "choices", dict, ValueError, "generation reply")[0]
    message = jsonio.field(choice, "message", dict, ValueError, "generation reply choice")
    return jsonio.field(message, "content", str, ValueError, "generation reply message")


class EmbeddingClient:
    """Synchronous embedding client; validates vector dimensions."""

    def __init__(self, endpoint: EmbeddingEndpoint):
        self.endpoint = endpoint
        self.model_id = endpoint.model_id
        self.dimension = endpoint.dimension

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        if not texts:
            return []

        def read(data: object) -> list[list[float]]:
            data = jsonio.check(data, dict, ValueError, "embedding reply")
            # Replies may list items out of input order; an item without
            # an "index" keeps its position.
            items = sorted(
                enumerate(jsonio.array(data, "data", dict, ValueError, "embedding reply")),
                key=lambda pair: jsonio.field(pair[1], "index", int, ValueError,
                                              "embedding reply item", pair[0]))
            vectors = [list(jsonio.array(item, "embedding", float, ValueError,
                                         "embedding reply item"))
                       for _, item in items]
            for vector in vectors:
                if len(vector) != self.endpoint.dimension:
                    raise ValueError(
                        f"embedding has {len(vector)} components, "
                        f"expected {self.endpoint.dimension}")
            if len(vectors) != len(texts):
                raise ValueError(f"{len(vectors)} embeddings for {len(texts)} inputs")
            return vectors

        payload = {"model": self.endpoint.model_id, "input": list(texts)}
        return _post_json(self.endpoint, "/embeddings", payload, read,
                          "embedding", MetricUnavailableError)
