"""Module layering, and the one module that writes the kept values.

``text`` imports nothing else from the package, so ``document`` can
tokenize; ``document`` imports neither ``metrics`` nor ``agents``. Every
value kept on a frozen object is written in ``document`` only, and no
other module reads or writes a private field of the kept-value classes
or imports another module's private name.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynsurvey
from dynsurvey import document

PACKAGE = Path(dynsurvey.__file__).resolve().parent
KEEPING_CLASSES = (document.Section, document.SurveyTable, document.Reference,
                   document.SurveyDocument, document.StructuredOutline)


def package_modules_loaded_by(module: str) -> set[str]:
    """The ``dynsurvey`` modules a fresh interpreter holds after importing ``module``."""
    code = (f"import sys, {module}\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'dynsurvey'))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    return set(done.stdout.split())


def test_text_loads_no_other_package_module():
    assert package_modules_loaded_by("dynsurvey.text") == {"dynsurvey", "dynsurvey.text"}


def test_document_loads_neither_metrics_nor_agents():
    loaded = package_modules_loaded_by("dynsurvey.document")
    assert "dynsurvey.document" in loaded
    assert not loaded & {"dynsurvey.metrics", "dynsurvey.agents"}


def _sources() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_only_document_writes_frozen_fields():
    writers = {name for name, tree in _sources().items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
               and isinstance(node.value, ast.Name) and node.value.id == "object"}
    assert writers == {"document.py"}


@pytest.mark.parametrize("cls", KEEPING_CLASSES, ids=lambda cls: cls.__name__)
def test_no_other_module_touches_a_private_field(cls):
    private = {f.name for f in dataclasses.fields(cls) if f.name.startswith("_")}
    assert private
    touching = {(name, node.attr) for name, tree in _sources().items() if name != "document.py"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in private}
    assert touching == set()


def test_no_module_imports_another_modules_private_name():
    imported = {(name, node.module, alias.name) for name, tree in _sources().items()
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name.startswith("_")}
    assert imported == set()
