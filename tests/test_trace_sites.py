"""The benchmark's traced run finds the layers it times.

``perfbench/run.py`` wraps each layer at a module attribute. A site the
program no longer has is listed in ``Tracer.missing`` and its per-layer
metrics read zero, so deleting or renaming a traced function would
silently zero a metric. perfbench is loaded here, not changed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Sites evaluation no longer calls (it diffs regions instead); ROADMAP
# item 1 re-points them at the next benchmark change.
STALE_SITES = {"dynsurvey.evaluation.document_token_stream",
               "dynsurvey.evaluation.token_edit_script"}


def test_perfbench_patches_every_site_but_the_two_stale_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports probe and tracing
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = run.Tracer()
    try:
        run.install_tracing(tracer, run.load_program())
        assert tracer._patched
    finally:
        tracer.restore()
        for name in ("probe", "tracing"):
            sys.modules.pop(name, None)
    assert set(tracer.missing) <= STALE_SITES
