"""Span tracing from outside the program, for the benchmark's traced run.

Wrappers replace functions at the module attributes their callers look
up at call time (for example ``engine.validate_document``, the name
``engine._merge`` calls), so the program itself is unchanged. Each call
becomes one span: name, start, end, parent span and step id. Spans stay
in memory and are written once, at the end of the run. A layer's self
time is its span duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

_NAME, _START, _END, _PARENT, _STEP = range(5)


class Tracer:
    """Records nested spans and counters for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.step: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        step_of: Callable[..., str] | None = None,
        count: Callable[..., None] | None = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call.

        ``name`` may be a function of the call arguments. ``step_of``
        marks a step boundary and names the step its children belong to.
        ``count(counts, args, kwargs, result)`` runs after the call;
        ``result`` is None when the call raised.
        """
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            previous_step = tracer.step
            if step_of is not None:
                tracer.step = step_of(*args, **kwargs)
            stack = tracer._stack
            span = [name(*args, **kwargs) if callable(name) else name, 0, 0,
                    stack[-1] if stack else -1, tracer.step]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = None
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[_END] = clock()
                stack.pop()
                tracer.step = previous_step
                if count is not None:
                    count(tracer.counts, args, kwargs, result)

        return traced

    def patch(self, module, attribute: str, name, **options) -> None:
        """Install a traced wrapper at ``module.attribute``.

        A site the program no longer has is listed in ``missing`` and its
        metrics read zero, so a renamed function shows in the result file
        instead of aborting the run.
        """
        if not hasattr(module, attribute):
            self.missing.append(f"{module.__name__}.{attribute}")
            return
        original = getattr(module, attribute)
        self._patched.append((module, attribute, original))
        setattr(module, attribute, self.wrap(name, original, **options))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            module, attribute, original = self._patched.pop()
            setattr(module, attribute, original)

    def times_ms(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Inclusive and self milliseconds per span name, plus call counts."""
        inclusive: dict[str, float] = defaultdict(float)
        covered = [0] * len(self.spans)
        calls: Counter = Counter()
        for span in self.spans:
            duration = span[_END] - span[_START]
            inclusive[span[_NAME]] += duration / 1e6
            calls[span[_NAME]] += 1
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += duration
        own: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            own[span[_NAME]] += (span[_END] - span[_START] - covered[index]) / 1e6
        return inclusive, own, calls

    def write(self, path: str | Path) -> None:
        """Write spans as gzip-compressed JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(["name", "start_ns", "end_ns", "parent", "step"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
