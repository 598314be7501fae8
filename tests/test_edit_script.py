"""Differential tests: the token edit script against a plain reference search.

The reference below is the straightforward greedy shortest-edit-script
search: one Python comparison per token, no prefix skipping, and a
whole-document tokenization per stream. The library version must emit
exactly the same operations, positions and tokens, because ``delta_out``
charges each operation to the region its position falls in.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey.benchmark import FRAMEWORK, StepResult
from dynsurvey.document import document_from_dict
from dynsurvey.evaluation import evaluate_step
from dynsurvey.metrics import (
    EditOp,
    delta_out,
    token_edit_script,
)
from dynsurvey.text import tokenize

from helpers import apply_edit_script, document_token_stream

# --- reference implementation -----------------------------------------------


def reference_trace(a, b):
    n, m = len(a), len(b)
    trace = []
    prev = {1: 0}
    for d in range(n + m + 1):
        current = {}
        for k in range(-d, d + 1, 2):
            if k == -d:
                x = prev.get(k + 1, 0)
            elif k == d:
                x = prev.get(k - 1, 0) + 1
            else:
                if prev[k - 1] < prev[k + 1]:
                    x = prev[k + 1]
                else:
                    x = prev[k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            current[k] = x
            if x >= n and y >= m:
                trace.append(current)
                return trace
        trace.append(current)
        prev = current
    raise AssertionError("shortest edit search must terminate within n+m steps")


def reference_ops(before, after) -> list[tuple[str, int, int, str]]:
    if list(before) == list(after):
        return []
    trace = reference_trace(before, after)
    ops = []
    x, y = len(before), len(after)
    for d in range(len(trace) - 1, 0, -1):
        prev = trace[d - 1]
        k = x - y
        if k == -d or (k != d and prev.get(k - 1, -1) < prev.get(k + 1, -1)):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = prev[prev_k]
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
        if y > prev_y:
            ops.append(("insert", prev_x, prev_y, after[prev_y]))
        else:
            ops.append(("delete", prev_x, prev_y, before[prev_x]))
        x, y = prev_x, prev_y
    ops.reverse()
    return ops


def reference_stream(doc):
    tokens, parts, ids, starts = [], [], [], [0]

    def close(region_id, start):
        parts.append(tuple(tokens[start:]))
        ids.append(region_id)
        starts.append(len(tokens))

    for section in doc.sections:
        start = len(tokens)
        for sentence in section.sentences:
            tokens.extend(tokenize(sentence.text))
        close(f"section:{section.id}", start)
    for table in doc.tables:
        start = len(tokens)
        tokens.extend(tokenize(table.title))
        for row in table.rows:
            for column in table.schema:
                tokens.extend(tokenize(str(row.get(column.name, ""))))
        close(f"table:{table.id}", start)
    return tokens, (parts, ids, starts)


def library_ops(before, after) -> list[tuple[str, int, int, str]]:
    return [(op.op, op.before_pos, op.after_pos, op.token)
            for op in token_edit_script(before, after)]


# --- token sequences ----------------------------------------------------------

ALPHABETS = ("ab", "abc", "abcdefgh")


@st.composite
def _burst_pair(draw):
    """A before sequence and an after sequence made by a few burst edits."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    letters = st.sampled_from(alphabet)
    before = draw(st.lists(letters, max_size=200))
    after = list(before)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(after)))
        if draw(st.booleans()):
            after[at:at] = draw(st.lists(letters, min_size=1, max_size=30))
        else:
            del after[at:at + draw(st.integers(1, 30))]
    return before, after


@st.composite
def _independent_pair(draw):
    letters = st.sampled_from(draw(st.sampled_from(ALPHABETS)))
    return (draw(st.lists(letters, max_size=200)),
            draw(st.lists(letters, max_size=200)))


@settings(max_examples=200, deadline=None)
@given(_burst_pair())
def test_burst_edits_match_reference(pair):
    before, after = pair
    assert library_ops(before, after) == reference_ops(before, after)


@settings(max_examples=100, deadline=None)
@given(_independent_pair())
def test_unrelated_sequences_match_reference(pair):
    before, after = pair
    ops = library_ops(before, after)
    assert ops == reference_ops(before, after)
    assert apply_edit_script(before, token_edit_script(before, after)) == after


def test_suffix_is_not_trimmed():
    # Trimming the shared suffix would report delete@0, delete@1 here.
    before, after = ["b", "a", "a", "a"], ["a", "a"]
    assert library_ops(before, after) == [("delete", 0, 0, "b"), ("delete", 3, 2, "a")]
    assert library_ops(before, after) == reference_ops(before, after)


def test_long_shared_prefix_and_suffix():
    prefix = [f"p{i}" for i in range(5000)]
    suffix = [f"s{i}" for i in range(5000)]
    before = prefix + ["x", "y"] + suffix
    after = prefix + ["y", "z", "z"] + suffix
    assert library_ops(before, after) == reference_ops(before, after)


def test_identical_and_empty_sequences():
    assert token_edit_script([], []) == ()
    assert token_edit_script(["a", "b"], ["a", "b"]) == ()
    assert library_ops([], ["a"]) == [("insert", 0, 0, "a")]
    assert library_ops(["a"], []) == [("delete", 0, 0, "a")]


def test_mixed_sequence_types():
    # A tuple slice never equals a list slice, so shared runs must still be found.
    before, after = ("a", "b", "c", "a", "b", "d"), ["a", "b", "c", "d", "a", "b"]
    assert library_ops(before, after) == reference_ops(before, after)
    assert library_ops(tuple(after), after) == []


# --- whole steps ----------------------------------------------------------------

_WORDS = ("a", "b", "c")


def _sentence(words: list[str]) -> str:
    return " ".join(["X", *words]) + "."


def _document(sections: list[list[list[str]]], rows: list[str]):
    return document_from_dict({
        "metadata": {"title": "T"},
        "sections": [
            {"id": str(i), "title": f"S{i}", "text": " ".join(_sentence(s) for s in sentences)}
            for i, sentences in enumerate(sections)
        ],
        "tables": [{
            "id": "t1", "title": "Methods",
            "schema": [{"name": "Method", "kind": "text"}],
            "rows": [{"Method": value} for value in rows],
        }],
        "references": [],
    })


_sentences = st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4),
                      min_size=1, max_size=3)


@st.composite
def _boundary_step(draw):
    """A multi-section document and a copy edited next to section boundaries."""
    sections = draw(st.lists(_sentences, min_size=2, max_size=5))
    rows = draw(st.lists(st.sampled_from(["a", "b c", "c"]), max_size=2))
    edited = [[list(s) for s in section] for section in sections]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(edited) - 2))
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))
        kind = draw(st.sampled_from(
            ["append_sentence", "prepend_sentence", "extend_last", "extend_first",
             "trim_last", "trim_first"]))
        last, first = edited[i][-1], edited[i + 1][0]
        if kind == "append_sentence":
            edited[i].append(words)
        elif kind == "prepend_sentence":
            edited[i + 1].insert(0, words)
        elif kind == "extend_last":
            last.extend(words)
        elif kind == "extend_first":
            first[:0] = words
        elif kind == "trim_last" and len(last) > 1:
            last.pop()
        elif kind == "trim_first" and len(first) > 1:
            first.pop(0)
    new_rows = rows + draw(st.lists(st.sampled_from(["a", "b"]), max_size=1))
    routed = str(draw(st.integers(0, len(sections) - 1)))
    return _document(sections, rows), _document(edited, new_rows), routed


@settings(max_examples=150, deadline=None)
@given(_boundary_step())
def test_step_disruption_matches_reference(step):
    before, after, routed = step
    result = StepResult(method=FRAMEWORK, paper_id="p", out_of_scope=False,
                        abstained=False, before=before, after=after, gt_span=None,
                        routed_section=routed, routed_table="t1")
    evaluation = evaluate_step(result, "s")

    before_tokens, before_regions = reference_stream(before)
    after_tokens, after_regions = reference_stream(after)
    assert document_token_stream(before) == (before_tokens, before_regions)
    assert document_token_stream(after) == (after_tokens, after_regions)
    ops = tuple(EditOp(*op) for op in reference_ops(before_tokens, after_tokens))
    scope = {f"section:{routed}", "table:t1"}
    assert evaluation.delta_tokens == len(ops)
    assert evaluation.delta_out == delta_out(ops, scope, before_regions, after_regions)
