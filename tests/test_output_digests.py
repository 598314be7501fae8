"""The committed output digests: the bytes that "same behaviour" means.

``tests/data/output_digests.json`` holds one SHA-256 per output file and
per step-digest set of ``scripts/check_outputs.py``'s runs (the update
survey and audit, their unicode variant, the framework and baseline
reports, the re-indented and cut-reply baseline variants), on the seeds
it names. The step digests hold every step's sentence ids, edit-script
hashes and the ``repr`` of each score, so a last bit that the reports'
six decimals hide still shows. An intended output change rewrites the
file with ``python3 scripts/check_outputs.py --write-digests
tests/data/output_digests.json``.
"""

from __future__ import annotations

import importlib.util
import json
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "output_digests.json"


def _check_outputs():
    spec = importlib.util.spec_from_file_location("check_outputs",
                                                  ROOT / "scripts" / "check_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_working_tree_writes_the_committed_output_digests(tmp_path):
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    found = _check_outputs().tree_digests(committed["seeds"], tmp_path)
    want = committed["entries"]
    differ = [entry for entry in {**want, **found} if want.get(entry) != found.get(entry)]
    assert not differ, (
        f"{len(differ)} output digest(s) differ from {DIGESTS.name} (written under Python "
        f"{committed['python']}, running {platform.python_version()}): " + ", ".join(differ))
