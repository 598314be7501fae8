"""Scripted generation and hash embedding providers."""

from __future__ import annotations

import hashlib
import math

import pytest

from dynsurvey.endpoints import GenerationRequest
from dynsurvey.errors import ScriptGapError
from dynsurvey.metrics import cosine
from dynsurvey.mock import (
    HashEmbedding,
    ScriptedGeneration,
    hash_embedding_from_scenario,
    scripted_generation_from_scenario,
)
from dynsurvey.text import tokenize


def test_scripted_lookup():
    generator = ScriptedGeneration.from_flat({"abstention|p1|0": "TRUE"})
    assert generator.generate(GenerationRequest("abstention", "p1", 0, "...")) == "TRUE"


def test_missing_key_is_an_error_not_a_fallback():
    generator = ScriptedGeneration.from_flat({"abstention|p1|0": "TRUE"})
    with pytest.raises(ScriptGapError, match="attempt=1"):
        generator.generate(GenerationRequest("abstention", "p1", 1, "..."))


def test_attempt_indexed_scripts():
    generator = ScriptedGeneration.from_flat({
        "section_routing|p1|0": "garbled",
        "section_routing|p1|1": '["1", "2", "3"]',
    })
    assert generator.generate(GenerationRequest("section_routing", "p1", 0, "x")) == "garbled"
    assert generator.generate(
        GenerationRequest("section_routing", "p1", 1, "x")) == '["1", "2", "3"]'


def test_flat_keys_allow_separator_inside_key():
    generator = ScriptedGeneration.from_flat({"table_routing|p1|t1|0": "yes"})
    assert generator.generate(GenerationRequest("table_routing", "p1|t1", 0, "x")) == "yes"


def test_scenario_loading_round_trip():
    scenario = {
        "generation": {"abstention|p1|0": "TRUE"},
        "generation_max_retries": 2,
        "embedding": {"seed": 7, "dimension": 16},
    }
    generator = scripted_generation_from_scenario(scenario)
    assert generator.max_retries == 2
    embedder = hash_embedding_from_scenario(scenario)
    assert embedder is not None and embedder.dimension == 16
    assert hash_embedding_from_scenario({"generation": {}}) is None


def test_same_text_embeds_identically():
    embedder = HashEmbedding(seed=7, dimension=64)
    first, second = embedder.embed(["abc", "abc"])
    assert first == second
    assert cosine(first, second) == pytest.approx(1.0)


def test_embedding_dimension_and_unit_norm():
    embedder = HashEmbedding(seed=3, dimension=32)
    vector = embedder.embed(["some tokens here"])[0]
    assert len(vector) == 32
    assert sum(v * v for v in vector) == pytest.approx(1.0)


def test_empty_string_has_a_defined_sentinel():
    embedder = HashEmbedding(seed=7, dimension=8)
    assert embedder.embed([""])[0] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_pinned_fixture_cosines():
    # Golden values computed once with seed 7, dimension 64, and frozen.
    embedder = HashEmbedding(seed=7, dimension=64)
    overlap, base, disjoint = embedder.embed([
        "residual refinement for image denoising",
        "residual refinement for video denoising",
        "orbital mechanics of binary stars",
    ])
    assert cosine(overlap, base) == pytest.approx(0.8247291220878995, abs=1e-12)
    assert cosine(overlap, disjoint) == pytest.approx(-0.033491241644783426, abs=1e-12)


def test_overlapping_texts_beat_disjoint_texts():
    embedder = HashEmbedding(seed=7, dimension=64)
    a, b, c = embedder.embed([
        "residual refinement for image denoising",
        "residual refinement for video denoising",
        "orbital mechanics of binary stars",
    ])
    assert cosine(a, b) > cosine(a, c)


def test_seed_changes_vectors():
    one = HashEmbedding(seed=1, dimension=16).embed(["abc"])[0]
    two = HashEmbedding(seed=2, dimension=16).embed(["abc"])[0]
    assert one != two


def _uncached_vector(seed: int, dimension: int, text: str) -> list[float]:
    """The hash-embedding formula recomputed directly, with no memo."""
    total = [0.0] * dimension
    for token in tokenize(text):
        values: list[float] = []
        block = 0
        while len(values) < dimension:
            digest = hashlib.sha256(f"{seed}|{token}|{block}".encode("utf-8")).digest()
            values.extend(int.from_bytes(digest[i:i + 8], "big") / 2 ** 63 - 1.0
                          for i in range(0, len(digest), 8))
            block += 1
        for i in range(dimension):
            total[i] += values[i]
    norm = math.sqrt(math.fsum(v * v for v in total))
    return [v / norm for v in total]


def test_memoised_vectors_are_bit_identical_to_the_formula():
    texts = ["residual refinement for image denoising",
             "residual refinement for video denoising",
             "image image denoising, denoising.",
             "residual refinement for image denoising"]
    for dimension in (5, 64):
        embedder = HashEmbedding(seed=7, dimension=dimension)
        # Twice over, so the second round is served from the memo.
        for vectors in (embedder.embed(texts), embedder.embed(texts[::-1])[::-1]):
            for text, vector in zip(texts, vectors):
                assert vector == _uncached_vector(7, dimension, text)


def test_equal_settings_stay_equal_after_use():
    used, fresh = HashEmbedding(seed=3, dimension=16), HashEmbedding(seed=3, dimension=16)
    used.embed(["some tokens here", "more tokens"])
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert "_token_vectors" not in repr(used)


def test_instances_never_share_cached_vectors():
    base = HashEmbedding(seed=1, dimension=16)
    base.embed(["abc def"])
    other_seed = HashEmbedding(seed=2, dimension=16)
    other_dimension = HashEmbedding(seed=1, dimension=8)
    assert other_seed.embed(["abc def"])[0] == _uncached_vector(2, 16, "abc def")
    assert other_dimension.embed(["abc def"])[0] == _uncached_vector(1, 8, "abc def")
    assert base.embed(["abc def"])[0] == _uncached_vector(1, 16, "abc def")
