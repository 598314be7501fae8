"""HTTP endpoint clients against a faked transport."""

from __future__ import annotations

import pytest

import dynsurvey.endpoints as endpoints
from dynsurvey.endpoints import (
    ChatCompletionClient,
    EmbeddingClient,
    EmbeddingEndpoint,
    GenerationEndpoint,
    GenerationRequest,
)
from dynsurvey.errors import ConfigError, GenerationTransportError, MetricUnavailableError


class _Response:
    def __init__(self, payload, status_code=200, headers=None):
        self._payload = payload
        self.status_code = status_code
        self.headers = headers or {}

    def raise_for_status(self):
        if self.status_code >= 400:
            raise endpoints.requests.HTTPError(f"{self.status_code} error", response=self)

    def json(self):
        return self._payload


@pytest.fixture(autouse=True)
def no_sleep(monkeypatch):
    monkeypatch.setattr(endpoints.time, "sleep", lambda *_: None)


def test_chat_client_sends_expected_wire_shape(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, payload=json, headers=headers, timeout=timeout)
        return _Response({"choices": [{"message": {"content": "generated text"}}]})

    monkeypatch.setattr(endpoints.requests, "post", fake_post)
    client = ChatCompletionClient(GenerationEndpoint(
        base_url="http://backend/v1", model_id="m1", temperature=0.0,
        max_output_tokens=256, timeout_s=9.0))
    out = client.generate(GenerationRequest("analysis", "p1", 0, "the prompt"))
    assert out == "generated text"
    assert seen["url"] == "http://backend/v1/chat/completions"
    assert seen["payload"] == {
        "model": "m1",
        "messages": [{"role": "user", "content": "the prompt"}],
        "temperature": 0.0,
        "max_tokens": 256,
    }
    assert seen["timeout"] == 9.0
    assert "Authorization" not in seen["headers"]


def test_chat_client_reads_credentials_from_named_env(monkeypatch):
    monkeypatch.setenv("GEN_KEY", "sekrit")
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(headers=headers)
        return _Response({"choices": [{"message": {"content": "ok"}}]})

    monkeypatch.setattr(endpoints.requests, "post", fake_post)
    client = ChatCompletionClient(GenerationEndpoint(
        base_url="http://b", model_id="m", api_key_env="GEN_KEY"))
    client.generate(GenerationRequest("analysis", "p1", 0, "x"))
    assert captured["headers"]["Authorization"] == "Bearer sekrit"


def test_chat_client_rejects_empty_credential(monkeypatch):
    monkeypatch.delenv("GEN_KEY", raising=False)
    client = ChatCompletionClient(GenerationEndpoint(
        base_url="http://b", model_id="m", api_key_env="GEN_KEY"))
    with pytest.raises(ConfigError, match="GEN_KEY"):
        client.generate(GenerationRequest("analysis", "p1", 0, "x"))


def test_chat_client_retries_then_raises(monkeypatch):
    calls = {"n": 0}

    def always_fail(url, json=None, headers=None, timeout=None):
        calls["n"] += 1
        raise endpoints.requests.ConnectionError("down")

    monkeypatch.setattr(endpoints.requests, "post", always_fail)
    client = ChatCompletionClient(GenerationEndpoint(
        base_url="http://b", model_id="m", max_retries=2))
    with pytest.raises(GenerationTransportError, match="after 3 attempts"):
        client.generate(GenerationRequest("analysis", "p1", 0, "x"))
    assert calls["n"] == 3


def test_chat_client_retries_a_reply_it_cannot_read(monkeypatch):
    replies = [_Response({"choices": []}),
               _Response({"choices": [{"message": {"content": "second"}}]})]
    monkeypatch.setattr(endpoints.requests, "post", lambda *a, **k: replies.pop(0))
    client = ChatCompletionClient(GenerationEndpoint(base_url="http://b", model_id="m"))
    assert client.generate(GenerationRequest("analysis", "p1", 0, "x")) == "second"
    assert replies == []


@pytest.mark.parametrize("status", [400, 401, 404])
def test_chat_client_does_not_retry_a_rejected_request(monkeypatch, status):
    calls = []

    def rejected(url, json=None, headers=None, timeout=None):
        calls.append(url)
        return _Response({}, status_code=status)

    monkeypatch.setattr(endpoints.requests, "post", rejected)
    client = ChatCompletionClient(GenerationEndpoint(
        base_url="http://b", model_id="m", max_retries=2))
    with pytest.raises(GenerationTransportError, match=f"rejected the request: {status}"):
        client.generate(GenerationRequest("analysis", "p1", 0, "x"))
    assert len(calls) == 1


@pytest.mark.parametrize("status", [408, 429, 503])
def test_chat_client_retries_a_transient_status(monkeypatch, status):
    replies = [_Response({}, status_code=status),
               _Response({"choices": [{"message": {"content": "second"}}]})]
    monkeypatch.setattr(endpoints.requests, "post", lambda *a, **k: replies.pop(0))
    client = ChatCompletionClient(GenerationEndpoint(base_url="http://b", model_id="m"))
    assert client.generate(GenerationRequest("analysis", "p1", 0, "x")) == "second"
    assert replies == []


@pytest.mark.parametrize("retry_after, slept", [
    ("7", 7),
    ("60", 10),  # capped like the backoff
    ("0", 1),  # never shorter than the backoff
    ("Wed, 21 Oct 2015 07:28:00 GMT", 1),  # HTTP-date: the backoff
    ("soon", 1),
])
def test_chat_client_honours_retry_after(monkeypatch, retry_after, slept):
    sleeps = []
    monkeypatch.setattr(endpoints.time, "sleep", sleeps.append)
    replies = [_Response({}, status_code=429, headers={"Retry-After": retry_after}),
               _Response({"choices": [{"message": {"content": "second"}}]})]
    monkeypatch.setattr(endpoints.requests, "post", lambda *a, **k: replies.pop(0))
    client = ChatCompletionClient(GenerationEndpoint(base_url="http://b", model_id="m"))
    assert client.generate(GenerationRequest("analysis", "p1", 0, "x")) == "second"
    assert sleeps == [slept]


def test_embedding_client_does_not_retry_a_rejected_request(monkeypatch):
    calls = []

    def rejected(url, json=None, headers=None, timeout=None):
        calls.append(url)
        return _Response({}, status_code=401)

    monkeypatch.setattr(endpoints.requests, "post", rejected)
    client = EmbeddingClient(EmbeddingEndpoint(base_url="http://b", max_retries=3))
    with pytest.raises(MetricUnavailableError, match="rejected the request"):
        client.embed(["a"])
    assert len(calls) == 1


def test_temperature_outside_unit_interval_rejected():
    with pytest.raises(ConfigError, match="temperature"):
        GenerationEndpoint(base_url="http://b", model_id="m", temperature=1.5)


def test_embedding_default_names_the_fixed_checkpoint():
    endpoint = EmbeddingEndpoint(base_url="http://b")
    assert endpoint.model_id == "bert-base-uncased"


def test_embedding_client_parses_vectors(monkeypatch):
    def fake_post(url, json=None, headers=None, timeout=None):
        assert url.endswith("/embeddings")
        assert json == {"model": "bert-base-uncased", "input": ["a", "b"]}
        return _Response({"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]})

    monkeypatch.setattr(endpoints.requests, "post", fake_post)
    client = EmbeddingClient(EmbeddingEndpoint(base_url="http://b", dimension=2))
    assert client.embed(["a", "b"]) == [[1.0, 0.0], [0.0, 1.0]]
    assert client.embed([]) == []


def test_embedding_vectors_follow_the_reply_index(monkeypatch):
    reply = {"data": [{"index": 2, "embedding": [0.0, 2.0]},
                      {"index": 1, "embedding": [0.0, 1.0]},
                      {"index": 0, "embedding": [1.0, 0.0]}]}
    monkeypatch.setattr(endpoints.requests, "post", lambda *a, **k: _Response(reply))
    client = EmbeddingClient(EmbeddingEndpoint(base_url="http://b", dimension=2))
    assert client.embed(["a", "b", "c"]) == [[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]]


def test_embedding_dimension_mismatch_is_metric_unavailable(monkeypatch):
    def fake_post(url, json=None, headers=None, timeout=None):
        return _Response({"data": [{"embedding": [1.0, 0.0, 0.0]}]})

    monkeypatch.setattr(endpoints.requests, "post", fake_post)
    client = EmbeddingClient(EmbeddingEndpoint(base_url="http://b", dimension=2,
                                               max_retries=0))
    with pytest.raises(MetricUnavailableError, match="3 components"):
        client.embed(["a"])


def test_embedding_transport_failure_is_metric_unavailable(monkeypatch):
    def always_fail(url, json=None, headers=None, timeout=None):
        raise endpoints.requests.ConnectionError("down")

    monkeypatch.setattr(endpoints.requests, "post", always_fail)
    client = EmbeddingClient(EmbeddingEndpoint(base_url="http://b", max_retries=1))
    with pytest.raises(MetricUnavailableError, match="after 2 attempts"):
        client.embed(["a"])
