"""Differential tests: the run-at-a-time insertion walk against the per-token walk.

``per_token_walk`` below is ``metrics._insertion_walk`` as it was before
the walk took a run of inserts at once, verbatim but for its name: one
Python iteration, and up to three region lookups, per inserted token.
The walk that replaced it finds each run with ``tuple.index`` inside a
region and emits it with one ``extend``. Both are handed the same two
streams, the ones ``region_edit_script`` builds, and must give the same
op list, or both None. The boundary cases are also checked against the
flat search (``test_edit_script.reference_ops``).
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsurvey import metrics
from dynsurvey.metrics import EditOp, _snake, _Stream, region_edit_script

from test_edit_script import reference_ops

# --- reference implementation -----------------------------------------------


def per_token_walk(a: _Stream, b: _Stream, offset: int) -> list[EditOp] | None:
    """The search's edit script when ``a`` is a subsequence of ``b``, else None.

    Walks the search's boundary diagonals: from the common run at
    (0, 0), each mismatch inserts ``b[y]`` at (x, y) and follows the run
    from (x, y + 1), for at most ``m - n`` inserts.

    This is exact. In the search the furthest point on diagonal -d
    depends only on diagonal -(d - 1) (its ``k == -d`` branch), and the
    walk computes those points, one per d, the same way. If ``a`` is a
    subsequence of ``b``, the shortest script has d = m - n edits, and
    the search stops at that d on its first diagonal, k = -d, the only
    one ending at (n, m). Its backtrack then takes the ``k == -d`` branch
    at every d and reads only those points, so it emits these inserts in
    this order. Otherwise the point on diagonal -(m - n) stops short of
    (n, m), the walk returns None, and the caller runs the search, which
    needs at least m - n rounds anyway.
    """
    n, m = a.length, b.length
    if m < n:
        return None
    window_a, window_b = a.window, b.window
    split_a, split_b = a.split, b.split
    ops: list[EditOp] = []
    x = 0
    for d in range(m - n + 1):
        y = x + d
        if d:
            token = window_b[y - 1] if y - 1 < split_b else b.token(y - 1)
            ops.append(EditOp("insert", offset + x, offset + y - 1, token))
        if x < split_a and y < split_b:
            if window_a[x] == window_b[y]:
                x = _snake(a, b, x + 1, y + 1)
        elif x < n and y < m and a.token(x) == b.token(y):
            x = _snake(a, b, x + 1, y + 1)
    return ops if x == n else None


# --- running both walks -------------------------------------------------------


def both_walks(before, after):
    """The ops ``region_edit_script`` gives, and each (walk, per-token walk)
    pair of results over the streams it built (none when the sides are equal)."""
    walks = []
    walk = metrics._insertion_walk

    def recording(a, b, offset):
        ops = walk(a, b, offset)
        walks.append((ops, per_token_walk(a, b, offset)))
        return ops

    with mock.patch.object(metrics, "_insertion_walk", recording):
        ops = region_edit_script(before, after)
    return as_tuples(ops), walks


def as_tuples(ops) -> list[tuple[str, int, int, str]]:
    return [(op.op, op.before_pos, op.after_pos, op.token) for op in ops]


def joined(regions) -> list[str]:
    return [token for region in regions for token in region]


# --- region pairs -------------------------------------------------------------


@st.composite
def _walk_pair(draw):
    """Before regions, and after regions made from them mostly by insert runs.

    Regions may be empty. An after region is the same tuple, an equal
    copy (so middle and trailing pairs are equal), a copy with a run of
    0 to 300 inserted tokens, whose short pattern recurs along the run,
    or a copy with a token deleted or replaced, which makes the pair no
    subsequence; whole regions may be added. Now and then the sides are
    swapped.
    """
    letters = draw(st.sampled_from(("ab", "abc", "abcdefgh")))
    token = st.sampled_from(letters)
    run_token = st.sampled_from(letters + "xy")
    region = st.lists(token, max_size=8).map(tuple)

    def run():
        size = draw(st.one_of(st.integers(0, 6), st.integers(0, 300)))
        pattern = draw(st.lists(run_token, min_size=1, max_size=5))
        return (pattern * (size // len(pattern) + 1))[:size]

    before = draw(st.lists(region, max_size=8))
    after = []
    for tokens in before:
        if draw(st.integers(0, 4)) == 0:
            after.append(tuple(run()))
        kind = draw(st.sampled_from(["same", "same", "copy", "run", "run", "break"]))
        edited = list(tokens)
        if kind == "run":
            at = draw(st.integers(0, len(edited)))
            edited[at:at] = run()
        elif kind == "break" and edited:
            at = draw(st.integers(0, len(edited) - 1))
            if draw(st.booleans()):
                del edited[at]
            else:
                edited[at] = "z"
        after.append(tokens if kind == "same" else tuple(edited))
    if draw(st.booleans()):
        after.append(tuple(run()))
    if draw(st.integers(0, 9)) == 0:
        before, after = after, before
    return before, after


@settings(max_examples=400, deadline=None)
@given(_walk_pair())
def test_the_run_walk_matches_the_per_token_walk(pair):
    _, walks = both_walks(*pair)
    for ops, expected in walks:
        assert ops == expected


# --- boundary cases -----------------------------------------------------------

# Each: before regions, after regions, whether the walk gives the script.
# A leading equal region is skipped, so the ops carry a start offset;
# where a run should lie outside the first changed region, an earlier
# region gains a token too.
BOUNDARY_CASES = {
    "run_ends_on_its_region_last_token": (
        [("p",), ("a", "b"), ("c", "d"), ("e",)],
        [("p",), ("a", "b", "x", "y"), ("c", "d"), ("e",)], True),
    "run_ends_on_the_last_token_of_a_later_region": (
        [("p",), ("a",), ("a", "b"), ("c", "d")],
        [("p",), ("a", "q"), ("a", "b", "x", "y"), ("c", "d")], True),
    "run_crosses_an_empty_region": (
        [("p",), ("a",), (), ("b",)],
        [("p",), ("a", "x"), (), ("y", "b")], True),
    "run_crosses_several_empty_regions": (
        [("p",), ("a",), (), (), (), ("b",)],
        [("p",), ("a", "x", "x"), (), (), (), ("y", "b")], True),
    "run_fills_empty_regions": (
        [("p",), ("a",), (), (), ("b",)],
        [("p",), ("a", "x"), ("y",), ("x", "y"), ("b",)], True),
    "append_after_the_before_stream": (
        [("p",), ("a",), ("b",)],
        [("p",), ("a", "q"), ("b", "x", "y")], True),
    "append_across_regions_after_the_before_stream": (
        [("p",), ("a",), (), ()],
        [("p",), ("a", "x"), ("y", "x"), ("y",)], True),
    "match_on_the_last_token_the_budget_reaches": (
        [("p",), ("a",), ("b",)],
        [("p",), ("a", "q"), ("x", "b")], True),
    "budget_cuts_a_run_inside_one_region": (
        [("p",), ("a",), ("b", "c")],
        [("p",), ("a", "q"), ("x", "c", "b")], False),
    "mismatch_at_the_start": (
        [("p",), ("a", "b")],
        [("p",), ("x", "a", "b")], True),
    "mismatch_at_the_start_of_an_empty_first_region": (
        [("p",), (), ("a",)],
        [("p",), ("x",), ("a",)], True),
    "pair_that_falls_back_to_the_search": (
        [("p",), ("a", "b", "c")],
        [("p",), ("a", "c", "b", "x")], False),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_a_boundary_case_matches_both_references(case):
    before, after, walked = BOUNDARY_CASES[case]
    with mock.patch.object(metrics, "_shortest_edit_trace",
                           wraps=metrics._shortest_edit_trace) as search:
        ops, walks = both_walks(before, after)
    assert ops == reference_ops(joined(before), joined(after))
    (walk, expected), = walks
    assert walk == expected
    assert (walk is not None) == walked
    assert search.called == (not walked)
    if walked:
        assert as_tuples(walk) == ops
        assert all(op.before_pos >= 1 for op in walk)  # the skipped region's offset


# --- cost -----------------------------------------------------------------------


def _counted_script(monkeypatch, run_size: int) -> Counter:
    """Region lookups and diagonal runs that ``region_edit_script`` makes on
    a 40-region stream that gains one token in region 3 and a run of
    ``run_size`` tokens in region 20, so the run lies past the first
    changed region; the script is checked against the per-token walk's."""
    before = [("a", f"r{r}", "b", f"s{r}", ".") for r in range(40)]
    after = list(before)
    after[3] = (*before[3][:2], "q", *before[3][2:])
    after[20] = (*before[20][:2], *(f"w{i % 7}" for i in range(run_size)), *before[20][2:])
    calls: Counter = Counter()
    locate, snake = _Stream.locate, metrics._snake

    def counted_locate(stream, x):
        calls["locate"] += 1
        return locate(stream, x)

    def counted_snake(a, b, x, y):
        calls["snake"] += 1
        return snake(a, b, x, y)

    with monkeypatch.context() as patch:
        patch.setattr(_Stream, "locate", counted_locate)
        patch.setattr(metrics, "_snake", counted_snake)
        ops = region_edit_script(before, after)
    (walk, expected), = both_walks(before, after)[1]
    assert list(ops) == walk == expected
    assert len(ops) == run_size + 1
    return calls


def test_the_walk_looks_up_regions_per_run_not_per_token(monkeypatch):
    counts = [_counted_script(monkeypatch, size) for size in (4, 40, 400)]
    # A few lookups and diagonal runs per run of inserts, however long
    # the run: the per-token walk made about three lookups per inserted
    # token past the first changed region.
    assert counts[0] == counts[1] == counts[2]
    assert sum(counts[2].values()) <= 12
