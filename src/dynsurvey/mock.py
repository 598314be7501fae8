"""Deterministic offline providers backing the test and benchmark suites.

``ScriptedGeneration`` replays canned responses keyed by
``(role, key, attempt)``; a missing key is an error, never a silent
fallback, so scenario coverage gaps surface immediately.
``HashEmbedding`` is a seeded bag-of-tokens embedder: lexically
overlapping texts get higher cosine similarity than disjoint ones, which
keeps embedding-metric tests discriminative without model assets.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import struct
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Sequence

from . import jsonio
from .endpoints import GenerationRequest
from .errors import ConfigError, ScriptGapError
from .text import tokenize

# Maps an unsigned 64-bit chunk to ``chunk / 2**63`` without the long-integer
# division. Both give the same double: the int -> float conversion rounds
# correctly (half to even), and a chunk's magnitude keeps the product far
# from overflow and underflow, so scaling by a power of two is exact and
# rounding commutes with it.
_CHUNK_SCALE = 2.0 ** -63


@dataclass
class ScriptedGeneration:
    """Canned generation responses for a mock scenario."""

    script: dict[tuple[str, str, int], str] = field(default_factory=dict)
    max_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")

    def generate(self, request: GenerationRequest) -> str:
        lookup = (request.role, request.key, request.attempt)
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
            try:
                role, remainder = compound.split("|", 1)
                key, attempt = remainder.rsplit("|", 1)
                lookup = (role, key, int(attempt))
            except ValueError as exc:
                raise ConfigError(
                    f"scenario generation key {compound!r} is not role|key|attempt") from exc
            script[lookup] = jsonio.check(response, str, ConfigError,
                                          ("scenario generation", compound))
        return cls(script=script, max_retries=max_retries)


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
    model_id: ClassVar[str] = "hash-embedding"
    # Token -> vector memo. It belongs to this instance, so every run that
    # builds its own embedder starts empty; arrays keep the floats unboxed.
    _token_vectors: dict[str, array] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ConfigError(f"embedding dimension {self.dimension} must be at least 1")

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        return [self._vector(text) for text in texts]

    def _vector(self, text: str) -> list[float]:
        tokens = tokenize(text)
        if not tokens:
            sentinel = [0.0] * self.dimension
            sentinel[0] = 1.0
            return sentinel
        memo = self._token_vectors
        total = [0.0] * self.dimension
        for token in tokens:
            vector = memo.get(token)
            if vector is None:
                vector = self._token_vector(token)
            total = list(map(operator.add, total, vector))
        norm = math.sqrt(math.fsum(map(operator.mul, total, total)))
        if norm == 0.0:  # astronomically unlikely with hashed components
            total[0] = 1.0
            norm = 1.0
        return [v / norm for v in total]

    def _token_vector(self, token: str) -> array:
        """Hash a token missing from the memo and remember its vector."""
        vector = self._token_vectors[token] = array("d", self._hashed_values(token))
        return vector

    def _hashed_values(self, token: str) -> list[float]:
        """Components of SHA-256 of ``"{seed}|{token}|{block}"`` for blocks 0, 1, ...

        Each digest gives four 8-byte big-endian chunks, and a chunk maps
        to ``chunk / 2**63 - 1``. The prefix is hashed once and copied
        per block.
        """
        prefix = hashlib.sha256(f"{self.seed}|{token}|".encode("utf-8"))
        digests = []
        for suffix in _block_suffixes(-(-self.dimension // 4)):
            digest = prefix.copy()
            digest.update(suffix)
            digests.append(digest.digest())
        chunks = struct.unpack_from(f">{self.dimension}Q", b"".join(digests))
        return [chunk * _CHUNK_SCALE - 1.0 for chunk in chunks]


@functools.cache
def _block_suffixes(blocks: int) -> tuple[bytes, ...]:
    """The encoded block numbers ``b"0"``, ``b"1"``, ... of ``blocks`` blocks."""
    return tuple(b"%d" % block for block in range(blocks))


def load_scenario(path: str | Path) -> dict:
    """Read a scenario file: generation script plus embedding settings."""
    return jsonio.read_json(path, ConfigError, "scenario")


def scripted_generation_from_scenario(data: dict) -> ScriptedGeneration:
    return ScriptedGeneration.from_flat(
        jsonio.field(data, "generation", dict, ConfigError, "scenario", {}),
        max_retries=jsonio.field(data, "generation_max_retries", int, ConfigError, "scenario",
                                 ScriptedGeneration.max_retries),
    )


def hash_embedding_from_scenario(data: dict) -> HashEmbedding | None:
    settings = jsonio.field(data, "embedding", dict, ConfigError, "scenario", None)
    if settings is None:
        return None
    return jsonio.build(HashEmbedding, settings, ConfigError, "scenario embedding")


def save_scenario(data: dict, path: str | Path) -> None:
    jsonio.replace_text(
        path, json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True) + "\n")
