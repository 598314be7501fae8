"""Machine-speed probe: fixed standard-library work timed between steps.

On the shared 2-vCPU machine this benchmark was built on, the whole VM
runs 20-50% faster or slower for minutes at a time. That drift is larger
than any bound a regression gate could use. The probe measures it. A
fixed piece of pure-Python work of about 1.5 ms (regex tokenizing, dict
counting, JSON round trip, SHA-256) runs about every 30 ms between steps. Times
are then scaled by ``NOMINAL_MS / mean probe time``: a step's by the
samples around it, a pass's by all of its samples. The probe never
touches dynsurvey, so a change to the program cannot move it. Raw
wall-clock figures are kept next to the normalised ones in the result
file.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import re
import statistics
import time

# The probe's time on a quiet period of the machine the benchmark was
# built on; normalised figures read as times at that speed.
NOMINAL_MS = 1.5
INTERVAL_S = 0.03
# Half-width of the window whose samples give the speed around one step.
WINDOW_S = 0.25
_TOKEN = re.compile(r"\w+|[^\w\s]")
_TEXT = " ".join(f"Word{i % 97}x alpha{i % 13}, beta [{i % 50}]." for i in range(300))


def _work() -> int:
    tokens = _TOKEN.findall(_TEXT)
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    items = sorted((k, v, k.lower()) for k, v in counts.items())
    blob = json.dumps({"items": items, "tokens": tokens})
    return len(json.loads(blob)["tokens"]) + len(hashlib.sha256(blob.encode()).digest())


class SpeedProbe:
    """Samples the probe's time; ``spent`` is the time the samples took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.taken_at: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            _work()
            end = time.perf_counter()
            self.samples.append(end - start)
            self.taken_at.append(end)
            self.spent += end - start
            self._last = end

    def tick(self) -> None:
        """Take a sample if ``INTERVAL_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Scale from raw times to times at the nominal machine speed."""
        return NOMINAL_MS / (statistics.fmean(self.samples) * 1e3)

    def factor_near(self, moment: float) -> float:
        """The scale from the samples within ``WINDOW_S`` of ``moment``.

        The machine's speed also drifts within a pass, so a step is scaled
        by the probe samples around it; with none, the pass's scale is used.
        """
        low = bisect.bisect_left(self.taken_at, moment - WINDOW_S)
        high = bisect.bisect_right(self.taken_at, moment + WINDOW_S)
        if low == high:
            return self.factor()
        return NOMINAL_MS / (statistics.fmean(self.samples[low:high]) * 1e3)
