"""Scripted generation and hash embedding providers."""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey.endpoints import GenerationRequest
from dynsurvey.errors import ScriptGapError
from dynsurvey.metrics import cosine
from dynsurvey.mock import (
    _CHUNK_SCALE,
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


def _bits(values) -> list[str]:
    """Each float as ``float.hex``, so vectors compare bit for bit."""
    return [value.hex() for value in values]


def test_same_text_embeds_identically():
    embedder = HashEmbedding(seed=7, dimension=64)
    first, second = embedder.embed(["abc", "abc"])
    assert _bits(first) == _bits(second)
    assert cosine(first, second) == pytest.approx(1.0)


def test_embedding_dimension_and_unit_norm():
    embedder = HashEmbedding(seed=3, dimension=32)
    vector = embedder.embed(["some tokens here"])[0]
    assert len(vector) == 32
    assert sum(v * v for v in vector) == pytest.approx(1.0)


def test_empty_string_has_a_defined_sentinel():
    embedder = HashEmbedding(seed=7, dimension=8)
    assert _bits(embedder.embed([""])[0]) == _bits([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


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
    assert _bits(one) != _bits(two)


def reference_hashed_values(seed: int, dimension: int, token: str) -> list[float]:
    """One full SHA-256 of ``"{seed}|{token}|{block}"`` per block."""
    values: list[float] = []
    block = 0
    while len(values) < dimension:
        digest = hashlib.sha256(f"{seed}|{token}|{block}".encode("utf-8")).digest()
        for offset in range(0, len(digest), 8):
            if len(values) == dimension:
                break
            chunk = int.from_bytes(digest[offset:offset + 8], "big")
            values.append(chunk / 2 ** 63 - 1.0)
        block += 1
    return values


# Chunks at the ends of the range, and chunks whose 11 low bits (those a
# 64-bit chunk loses on the way to a 53-bit double) fall just below, on
# and just above the halfway point, with the kept part's last bit even
# and odd; 2**64 - 2**11 + 0x400 rounds up to 2**64.
_PINNED_CHUNKS = [0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1] + [
    high + low
    for high in (0, 2 ** 52, 2 ** 62, 2 ** 63, 2 ** 63 + 2 ** 11, 2 ** 64 - 2 ** 11)
    for low in (0x3ff, 0x400, 0x401)]


def test_chunk_scaling_is_bit_identical_to_the_division():
    assert _CHUNK_SCALE.hex() == "0x1.0000000000000p-63"
    for chunk in _PINNED_CHUNKS:
        assert (chunk * _CHUNK_SCALE - 1.0).hex() == (chunk / 2 ** 63 - 1.0).hex(), hex(chunk)


def _uncached_vector(seed: int, dimension: int, text: str) -> list[float]:
    """The hash-embedding formula recomputed directly, with no memo."""
    total = [0.0] * dimension
    for token in tokenize(text):
        values = reference_hashed_values(seed, dimension, token)
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
                assert _bits(vector) == _bits(_uncached_vector(7, dimension, text))


def test_equal_settings_stay_equal_after_use():
    used, fresh = HashEmbedding(seed=3, dimension=16), HashEmbedding(seed=3, dimension=16)
    used.embed(["some tokens here", "more tokens"])
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert "_token_vectors" not in repr(used)


def test_each_token_is_hashed_once_per_instance(monkeypatch):
    hashed = []
    plain = HashEmbedding._hashed_values
    monkeypatch.setattr(HashEmbedding, "_hashed_values",
                        lambda self, token: hashed.append(token) or plain(self, token))
    embedder = HashEmbedding(seed=3, dimension=16)
    first = embedder.embed(["image denoising image", "denoising video"])
    again = embedder.embed(["image denoising image", "denoising video"])
    assert sorted(hashed) == ["denoising", "image", "video"]
    assert [_bits(v) for v in again] == [_bits(v) for v in first]


def test_instances_never_share_cached_vectors():
    base = HashEmbedding(seed=1, dimension=16)
    base.embed(["abc def"])
    other_seed = HashEmbedding(seed=2, dimension=16)
    other_dimension = HashEmbedding(seed=1, dimension=8)
    assert _bits(other_seed.embed(["abc def"])[0]) == _bits(_uncached_vector(2, 16, "abc def"))
    assert _bits(other_dimension.embed(["abc def"])[0]) == \
        _bits(_uncached_vector(1, 8, "abc def"))
    assert _bits(base.embed(["abc def"])[0]) == _bits(_uncached_vector(1, 16, "abc def"))


_odd_tokens = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["|", "a|b", "||", "1|2|", "é", "naïve", "数据", "Ω|ω", "🙂"]))


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 40), st.sampled_from([1, 4, 5, 8, 64, 65]), _odd_tokens)
def test_hashed_values_are_bit_identical_to_one_digest_per_block(seed, dimension, token):
    embedder = HashEmbedding(seed=seed, dimension=dimension)
    assert _bits(embedder._hashed_values(token)) == \
        _bits(reference_hashed_values(seed, dimension, token))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 5, 65]), st.lists(st.text(max_size=20), max_size=4))
def test_embeddings_are_bit_identical_to_the_formula_on_any_text(dimension, texts):
    embedder = HashEmbedding(seed=11, dimension=dimension)
    for text, vector in zip(texts, embedder.embed(texts)):
        if tokenize(text):
            assert _bits(vector) == _bits(_uncached_vector(11, dimension, text))
