"""Deterministic offline providers backing the test and benchmark suites.

``ScriptedGeneration`` replays canned responses keyed by
``(role, key, attempt)``; a missing key is an error, never a silent
fallback, so scenario coverage gaps surface immediately.
``HashEmbedding`` is a seeded bag-of-tokens embedder: lexically
overlapping texts get higher cosine similarity than disjoint ones, which
keeps embedding-metric tests discriminative without model assets.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .endpoints import GenerationRequest
from .errors import ScriptGapError
from .text import tokenize


def script_key(role: str, key: str, attempt: int) -> tuple[str, str, int]:
    return (role, key, int(attempt))


@dataclass
class ScriptedGeneration:
    """Canned generation responses for a mock scenario."""

    script: dict[tuple[str, str, int], str] = field(default_factory=dict)
    max_retries: int = 1

    def generate(self, request: GenerationRequest) -> str:
        lookup = script_key(request.role, request.key, request.attempt)
        if lookup not in self.script:
            raise ScriptGapError(
                f"no scripted response for role={request.role!r} key={request.key!r} "
                f"attempt={request.attempt}")
        return self.script[lookup]

    @classmethod
    def from_flat(cls, flat: dict[str, str], max_retries: int = 1) -> "ScriptedGeneration":
        """Build from ``"role|key|attempt" -> response`` mapping.

        The key part may itself contain ``|``; role is the first field and
        attempt the last.
        """
        script: dict[tuple[str, str, int], str] = {}
        for compound, response in flat.items():
            role, remainder = compound.split("|", 1)
            key, attempt = remainder.rsplit("|", 1)
            script[script_key(role, key, int(attempt))] = response
        return cls(script=script, max_retries=max_retries)

    def to_flat(self) -> dict[str, str]:
        return {f"{role}|{key}|{attempt}": text
                for (role, key, attempt), text in self.script.items()}


@dataclass(frozen=True)
class HashEmbedding:
    """Seeded, dimension-fixed bag-of-tokens embedder.

    A text embeds to the L2-normalized sum of per-token vectors derived
    from SHA-256 of ``(seed, token)``, so equal texts embed identically
    on every platform. The empty string maps to a fixed sentinel unit
    vector.
    """

    seed: int = 0
    dimension: int = 64
    model_id: str = "hash-embedding"
    # Token -> vector memo. It belongs to this instance, so every run that
    # builds its own embedder starts empty; arrays keep the floats unboxed.
    _token_vectors: dict[str, array] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        return [self._vector(text) for text in texts]

    def _vector(self, text: str) -> list[float]:
        tokens = tokenize(text)
        if not tokens:
            sentinel = [0.0] * self.dimension
            sentinel[0] = 1.0
            return sentinel
        total = [0.0] * self.dimension
        for token in tokens:
            total = [t + v for t, v in zip(total, self._token_vector(token))]
        norm = math.sqrt(math.fsum(v * v for v in total))
        if norm == 0.0:  # astronomically unlikely with hashed components
            total[0] = 1.0
            norm = 1.0
        return [v / norm for v in total]

    def _token_vector(self, token: str) -> array:
        vector = self._token_vectors.get(token)
        if vector is None:
            vector = self._token_vectors[token] = array("d", self._hashed_values(token))
        return vector

    def _hashed_values(self, token: str) -> list[float]:
        values: list[float] = []
        block = 0
        while len(values) < self.dimension:
            digest = hashlib.sha256(f"{self.seed}|{token}|{block}".encode("utf-8")).digest()
            for offset in range(0, len(digest), 8):
                if len(values) == self.dimension:
                    break
                chunk = int.from_bytes(digest[offset:offset + 8], "big")
                values.append(chunk / 2 ** 63 - 1.0)
            block += 1
        return values


def load_scenario(path: str | Path) -> dict:
    """Read a scenario file: generation script plus embedding settings."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def scripted_generation_from_scenario(data: dict) -> ScriptedGeneration:
    return ScriptedGeneration.from_flat(
        dict(data.get("generation", {})),
        max_retries=int(data.get("generation_max_retries", 1)),
    )


def hash_embedding_from_scenario(data: dict) -> HashEmbedding | None:
    if "embedding" not in data:
        return None
    settings = data["embedding"]
    return HashEmbedding(
        seed=int(settings.get("seed", 0)),
        dimension=int(settings.get("dimension", 64)),
    )


def save_scenario(data: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
        encoding="utf-8")
