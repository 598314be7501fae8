"""Differential tests: the region-by-region edit script against the flat search.

The reference below is the search the region version replaced: both
documents flattened into one token list each (``reference_stream``) and
the greedy shortest-edit-script search run over the two whole lists,
with the common prefix skipped by chunked slice comparisons. The region
version skips shared leading regions, flattens only the regions that
differ and reads shared trailing regions in place. It must give exactly
the same operations, positions and tokens, and the same region bounds,
because ``delta_out`` charges each operation to the region its position
falls in. The insertion walk that serves insertion-only pairs is checked
against the same reference, with the full search made to fail.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import demo, metrics
from dynsurvey.benchmark import FRAMEWORK, METHODS, StepResult, run_method
from dynsurvey.document import (
    ColumnSpec,
    Section,
    Sentence,
    SurveyDocument,
    SurveyTable,
    document_regions,
)
from dynsurvey.evaluation import _step_scope, evaluate_step
from dynsurvey.metrics import (
    EditOp,
    delta_out,
    region_edit_script,
    token_edit_script,
)
from dynsurvey.mock import ScriptedGeneration

from test_edit_script import reference_stream

# --- reference implementation -----------------------------------------------

_SNAKE_CHUNK = 16


def flat_snake(a, b, x, y):
    n, m = len(a), len(b)
    step, grow = _SNAKE_CHUNK, True
    while step and x < n and y < m:
        span = min(step, n - x, m - y)
        if a[x:x + span] == b[y:y + span]:
            x += span
            y += span
            if grow:
                step *= 2
        else:
            grow = False
            step = span // 2
    return x


def flat_trace(a, b):
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
            if x < n and y < m and a[x] == b[y]:
                x = flat_snake(a, b, x + 1, y + 1)
                y = x - k
            current[k] = x
            if x >= n and y >= m:
                trace.append(current)
                return trace
        trace.append(current)
        prev = current
    raise AssertionError("shortest edit search must terminate within n+m steps")


def flat_edit_script(before, after) -> list[tuple[str, int, int, str]]:
    before, after = list(before), list(after)
    if before == after:
        return []
    trace = flat_trace(before, after)
    ops = []
    x, y = len(before), len(after)
    for d in range(len(trace) - 1, 0, -1):
        prev = trace[d - 1]
        k = x - y
        inserted = k == -d or (k != d and prev.get(k - 1, -1) < prev.get(k + 1, -1))
        prev_k = k + 1 if inserted else k - 1
        prev_x = prev[prev_k]
        prev_y = prev_x - prev_k
        if inserted:
            ops.append(("insert", prev_x, prev_y, after[prev_y]))
        else:
            ops.append(("delete", prev_x, prev_y, before[prev_x]))
        x, y = prev_x, prev_y
    ops.reverse()
    return ops


def region_ops(before, after) -> list[tuple[str, int, int, str]]:
    return [(op.op, op.before_pos, op.after_pos, op.token)
            for op in region_edit_script(before, after)]


def joined(regions) -> list[str]:
    return [token for region in regions for token in region]


# --- region sequences ---------------------------------------------------------

# Two to seven tokens, so diagonal runs often cross region bounds and
# reach the shared trailing regions off their aligned diagonal.
ALPHABETS = ("ab", "abc", "abcd", "abcdefg")


@st.composite
def _region_pair(draw):
    """Regions of a before stream, and after regions made from them.

    An after region is the same object, an equal copy, an edited copy, or
    left out; regions are also added, so the two sides can have different
    region counts. Regions may be empty.
    """
    letters = st.sampled_from(draw(st.sampled_from(ALPHABETS)))
    region = st.lists(letters, max_size=10).map(tuple)
    before = draw(st.lists(region, max_size=8))
    after = draw(st.lists(region, max_size=2))
    for tokens in before:
        action = draw(st.sampled_from(["same", "same", "copy", "copy", "edit", "drop", "add"]))
        if action == "same":
            after.append(tokens)
        elif action == "copy":
            after.append(tuple(list(tokens)))
        elif action == "edit":
            edited = list(tokens)
            at = draw(st.integers(0, len(edited)))
            if draw(st.booleans()):
                edited[at:at] = draw(st.lists(letters, min_size=1, max_size=4))
            else:
                del edited[at:at + draw(st.integers(1, 4))]
            after.append(tuple(edited))
        elif action == "add":
            after += [tokens, draw(region)]
    return before, after


@settings(max_examples=500, deadline=None)
@given(_region_pair())
def test_region_script_matches_flat_search(pair):
    before, after = pair
    assert region_ops(before, after) == flat_edit_script(joined(before), joined(after))


@settings(max_examples=200, deadline=None)
@given(_region_pair())
def test_one_region_script_matches_flat_search(pair):
    before, after = joined(pair[0]), joined(pair[1])
    ops = [(op.op, op.before_pos, op.after_pos, op.token)
           for op in token_edit_script(before, after)]
    assert ops == flat_edit_script(before, after)


def test_edit_in_a_shared_trailing_region():
    # Of two equally short scripts the search takes the one that deletes
    # the last token, which lies in a trailing region both sides share.
    before, after = [("b", "a", "a"), ("a",)], [("a",), ("a",)]
    assert region_ops(before, after) == [("delete", 0, 0, "b"), ("delete", 3, 2, "a")]
    assert region_ops(before, after) == flat_edit_script(joined(before), joined(after))


def test_equal_regions_give_an_empty_script():
    regions = [("a", "b"), (), ("c",)]
    assert region_edit_script(regions, [tuple(list(r)) for r in regions]) == ()
    assert region_edit_script([], []) == ()
    # Different bounds over the same tokens: still nothing to edit.
    assert region_edit_script([("a", "b"), ("c",)], [("a",), ("b", "c")]) == ()


# --- whole documents ----------------------------------------------------------

_WORDS = ("a", "b", "c", "a.", "(b)")
_TABLE = SurveyTable(id="t1", title="Methods (a)",
                     schema=(ColumnSpec("Method"), ColumnSpec("Note")))


def _section(section_id: str, sentences: list[list[str]]) -> Section:
    return Section(id=section_id, title=f"S{section_id}", sentences=tuple(
        Sentence(id=f"{section_id}:{i}", text=" ".join(words) + ".")
        for i, words in enumerate(sentences, start=1)))


def _document(sections, rows) -> SurveyDocument:
    table = SurveyTable(id=_TABLE.id, title=_TABLE.title, schema=_TABLE.schema,
                        rows=tuple(rows))
    return SurveyDocument(metadata={}, sections=tuple(sections), tables=(table,),
                          references=())


_sentences = st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4), max_size=4)


@st.composite
def _document_step(draw):
    """A document and a version of it with sections edited, added or removed.

    Unchanged sections are kept as the same objects or rebuilt as equal
    ones; a table row may be added.
    """
    texts = draw(st.lists(_sentences, min_size=1, max_size=6))
    sections = [_section(str(i), sentences) for i, sentences in enumerate(texts)]
    rows = [{"Method": w, "Note": "b"} for w in draw(st.lists(st.sampled_from(_WORDS), max_size=2))]
    edited = []
    for section, sentences in zip(sections, texts):
        action = draw(st.sampled_from(["same", "same", "rebuilt", "insert", "drop", "add"]))
        if action == "same":
            edited.append(section)
        elif action == "rebuilt":
            edited.append(_section(section.id, sentences))
        elif action == "insert":
            at = draw(st.integers(0, len(sentences)))
            edited.append(_section(section.id, sentences[:at] + draw(_sentences) + sentences[at:]))
        elif action == "add":
            edited += [section, _section(f"{section.id}n", draw(_sentences))]
    new_rows = rows + [{"Method": w, "Note": "c"}
                       for w in draw(st.lists(st.sampled_from(_WORDS), max_size=1))]
    routed = draw(st.sampled_from([s.id for s in sections]))
    return _document(sections, rows), _document(edited, new_rows), routed


def _check_step(result: StepResult) -> None:
    """The region script and regions of a step equal the flat reference's."""
    before_tokens, before_regions = reference_stream(result.before)
    after_tokens, after_regions = reference_stream(result.after)
    kept_before = document_regions(result.before)
    kept_after = document_regions(result.after)
    assert (joined(kept_before[0]), kept_before) == (before_tokens, before_regions)
    assert (joined(kept_after[0]), kept_after) == (after_tokens, after_regions)
    expected = flat_edit_script(before_tokens, after_tokens)
    assert region_ops(kept_before[0], kept_after[0]) == expected

    scored = evaluate_step(result, "s")
    script = tuple(EditOp(*op) for op in expected)
    assert scored.delta_tokens == len(expected)
    assert scored.delta_out == delta_out(
        script, _step_scope(result), before_regions, after_regions)


@settings(max_examples=200, deadline=None)
@given(_document_step())
def test_document_step_matches_flat_search(step):
    before, after, routed = step
    _check_step(StepResult(method=FRAMEWORK, paper_id="p", out_of_scope=False,
                           abstained=False, before=before, after=after, gt_span=None,
                           routed_section=routed, routed_table="t1"))


def test_demo_streams_match_flat_search():
    instance = demo.demo_instance()
    scenario = demo.demo_scenario()
    steps = 0
    for method in METHODS:
        generator = ScriptedGeneration.from_flat(scenario["generation"])
        for result in run_method(method, instance, generator):
            _check_step(result)
            steps += 1
    assert steps > 0


def test_evaluate_step_flattens_only_the_changed_section(monkeypatch):
    sections = [_section(str(i), [["a", "b", "c"]] * 20) for i in range(8)]
    before = _document(sections, [{"Method": "a", "Note": "b"}])
    grown = _section("3", [["a", "b", "c"]] * 20 + [["d", "e"]] * 2)
    after = before.with_additions(grown, (), ())
    windows = []

    class RecordingStream(metrics._Stream):
        def __init__(self, regions):
            super().__init__(regions)
            windows.append(len(self.window))

    monkeypatch.setattr(metrics, "_Stream", RecordingStream)
    result = StepResult(method=FRAMEWORK, paper_id="p", out_of_scope=False, abstained=False,
                        before=before, after=after, gt_span=None, routed_section="3")
    scored = evaluate_step(result, "s")
    assert (scored.delta_tokens, scored.delta_out) == (6, 0)
    assert windows == [len(sections[3]._tokens), len(grown._tokens)]


def test_evaluate_step_of_a_table_row_step_flattens_only_the_routed_section(monkeypatch):
    # A framework step that appends a row changes the routed section and
    # the table; the sections between them are equal and stay where they
    # lie, as does every other region.
    sections = [_section(str(i), [["a", "b", "c"]] * 20) for i in range(8)]
    before = _document(sections, [{"Method": "a", "Note": "b"}])
    grown = _section("3", [["a", "b", "c"]] * 20 + [["d", "e"]] * 2)
    after = _document([*sections[:3], grown, *sections[4:]],
                      [{"Method": "a", "Note": "b"}, {"Method": "(b)", "Note": "c"}])
    streams = []

    class RecordingStream(metrics._Stream):
        def __init__(self, regions):
            super().__init__(regions)
            streams.append((self, list(regions)))

    monkeypatch.setattr(metrics, "_Stream", RecordingStream)
    result = StepResult(method=FRAMEWORK, paper_id="p", out_of_scope=False, abstained=False,
                        before=before, after=after, gt_span=None, routed_section="3",
                        routed_table="t1")
    scored = evaluate_step(result, "s")
    assert scored.delta_out == 0
    assert scored.delta_tokens == len(flat_edit_script(reference_stream(before)[0],
                                                       reference_stream(after)[0]))
    assert [len(stream.window) for stream, _ in streams] == [
        len(sections[3]._tokens), len(grown._tokens)]
    # No region is copied: each stream reads the documents' own tuples.
    for stream, regions in streams:
        assert len(stream.chunks) == len(regions) == 6
        assert all(chunk is region for chunk, region in zip(stream.chunks, regions))


@pytest.mark.parametrize("kind", [list, tuple])
def test_one_region_of_either_sequence_type(kind):
    before, after = kind("abcab"), ["a", "b", "d", "a", "b"]
    assert [(op.op, op.before_pos, op.after_pos, op.token)
            for op in token_edit_script(before, after)] == \
        flat_edit_script(before, after)


# --- the insertion walk --------------------------------------------------------

# Two to eight letters: few give many ties between equally short scripts,
# more give long runs of mismatches.
WALK_ALPHABETS = ("ab", "abc", "abcd", "abcdefgh")


@st.composite
def _insertion_pair(draw):
    """Regions of a before stream, and after regions made from them by insertions only.

    Tokens are inserted at either end of a region or inside it, and whole
    regions are added before any region and at the end, so insertions sit
    next to region bounds and in the trailing regions.
    """
    letters = st.sampled_from(draw(st.sampled_from(WALK_ALPHABETS)))
    region = st.lists(letters, max_size=10).map(tuple)
    before = draw(st.lists(region, max_size=8))
    after = []
    for tokens in before:
        if draw(st.integers(0, 3)) == 0:
            after.append(draw(region))
        edited = list(tokens)
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.sampled_from([0, len(edited), draw(st.integers(0, len(edited)))]))
            edited[at:at] = draw(st.lists(letters, min_size=1, max_size=4))
        after.append(tuple(edited) if len(edited) > len(tokens) else tokens)
    if draw(st.booleans()):
        after.append(draw(region))
    return before, after


@st.composite
def _broken_insertion_pair(draw):
    """An insertion pair with a token only ``before`` has, or with its sides swapped.

    The extra token is added to a before region or replaces one of its
    tokens, which makes the step a deletion or a substitution.
    """
    before, after = draw(_insertion_pair())
    kind = draw(st.sampled_from(["delete", "replace", "swap"]))
    if kind == "swap":
        return after, before
    before = [list(tokens) for tokens in before] or [[]]
    tokens = before[draw(st.integers(0, len(before) - 1))]
    if kind == "replace" and tokens:
        tokens[draw(st.integers(0, len(tokens) - 1))] = "z"
    else:
        tokens.insert(draw(st.integers(0, len(tokens))), "z")
    return [tuple(tokens) for tokens in before], after


def _without_search():
    return mock.patch.object(metrics, "_shortest_edit_trace",
                             side_effect=AssertionError("the full search ran"))


@settings(max_examples=250, deadline=None)
@given(_insertion_pair())
def test_insertion_walk_matches_flat_search(pair):
    before, after = pair
    expected = flat_edit_script(joined(before), joined(after))
    assert all(op[0] == "insert" for op in expected)
    with _without_search():
        assert region_ops(before, after) == expected
        assert [(op.op, op.before_pos, op.after_pos, op.token)
                for op in token_edit_script(joined(before), joined(after))] == expected


@settings(max_examples=200, deadline=None)
@given(_broken_insertion_pair())
def test_search_runs_exactly_when_the_walk_fails(pair):
    before, after = pair
    expected = flat_edit_script(joined(before), joined(after))
    with mock.patch.object(metrics, "_shortest_edit_trace",
                           wraps=metrics._shortest_edit_trace) as search:
        assert region_ops(before, after) == expected
    assert search.called == any(op[0] == "delete" for op in expected)


def test_insertion_only_steps_never_enter_the_search():
    instance = demo.demo_instance()
    generator = ScriptedGeneration.from_flat(demo.demo_scenario()["generation"])
    with _without_search():
        scored = [evaluate_step(result, "s")
                  for result in run_method(FRAMEWORK, instance, generator)]
    assert any(evaluation.delta_tokens for evaluation in scored)


def test_a_step_with_a_deletion_runs_the_search():
    before = _document([_section("1", [["a", "b"], ["c"]]), _section("2", [["b"]])], [])
    after = _document([_section("1", [["a", "b"]]), _section("2", [["b"]])], [])
    result = StepResult(method=FRAMEWORK, paper_id="p", out_of_scope=False, abstained=False,
                        before=before, after=after, gt_span=None, routed_section="1")
    with mock.patch.object(metrics, "_shortest_edit_trace",
                           wraps=metrics._shortest_edit_trace) as search:
        scored = evaluate_step(result, "s")
    assert search.call_count == 1
    assert scored.delta_tokens == len(flat_edit_script(reference_stream(before)[0],
                                                       reference_stream(after)[0]))


# --- equal middle regions -------------------------------------------------------


@st.composite
def _middle_pair(draw, insert_only):
    """Two changed regions with K equal middle regions between them.

    Leading and trailing regions may be shared too. A middle region on
    the after side is the same tuple or an equal copy. The two changed
    regions are edited by insertions, or (``insert_only`` false) also by
    deletions and substitutions, so the search must run.
    """
    letters = st.sampled_from(draw(st.sampled_from(WALK_ALPHABETS)))
    region = st.lists(letters, max_size=12).map(tuple)

    def edited(tokens):
        tokens = list(tokens)
        for _ in range(draw(st.integers(1, 3))):
            kind = "insert" if insert_only or not tokens else draw(
                st.sampled_from(["insert", "delete", "replace"]))
            at = draw(st.integers(0, max(len(tokens) - 1, 0)))
            if kind == "insert":
                tokens[at:at] = draw(st.lists(letters, min_size=1, max_size=4))
            elif kind == "delete":
                del tokens[at:at + draw(st.integers(1, 3))]
            else:
                tokens[at] = "z"
        return tuple(tokens)

    lead = draw(st.lists(region, max_size=2))
    middle = draw(st.lists(region, min_size=1, max_size=6))
    trail = draw(st.lists(region, max_size=2))
    first, last = draw(region), draw(region)
    before = [*lead, first, *middle, last, *trail]
    after = [*lead, edited(first),
             *(tokens if draw(st.booleans()) else tuple(list(tokens)) for tokens in middle),
             edited(last), *trail]
    return before, after


@settings(max_examples=300, deadline=None)
@given(_middle_pair(insert_only=True))
def test_equal_middle_regions_of_an_insertion_pair_match_flat_search(pair):
    before, after = pair
    expected = flat_edit_script(joined(before), joined(after))
    with _without_search():
        assert region_ops(before, after) == expected


@settings(max_examples=300, deadline=None)
@given(_middle_pair(insert_only=False))
def test_equal_middle_regions_of_a_searched_pair_match_flat_search(pair):
    before, after = pair
    assert region_ops(before, after) == flat_edit_script(joined(before), joined(after))


def test_a_run_crosses_equal_middle_regions_in_one_step(monkeypatch):
    # The run from the end of the first changed region to the second
    # crosses 50 equal middle regions without comparing their tokens.
    middle = [tuple("ab" * 20) for _ in range(50)]
    before = [("a", "b"), *middle, ("c",)]
    after = [("a", "x", "b"), *(tuple(list(tokens)) for tokens in middle), ("c", "x")]
    compared = []
    common_run = metrics._common_run

    def counting(a, i, b, j, limit):
        compared.append(limit)
        return common_run(a, i, b, j, limit)

    monkeypatch.setattr(metrics, "_common_run", counting)
    assert region_ops(before, after) == flat_edit_script(joined(before), joined(after))
    assert sum(compared) < 10
