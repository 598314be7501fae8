"""Guard: the modules that read JSON input never coerce a field they read.

A value read from a JSON object goes through ``dynsurvey.jsonio``, which
checks its JSON type. A call such as ``str(data.get("title", ""))`` or
``int(raw["number"])`` turns a value of the wrong type into a plausible
one instead, so this test fails on any such call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "dynsurvey"
READERS = ("config.py", "corpus.py", "document.py", "engine.py", "mock.py", "benchmark.py",
           "endpoints.py", "jsonio.py")
COERCIONS = {"str", "int", "float", "bool", "dict", "tuple", "list"}


def _reads_a_field(node: ast.expr) -> bool:
    """``x.get(...)``, ``x["key"]`` with a string-constant key, or a
    generator over one of them."""
    if isinstance(node, ast.GeneratorExp):
        return any(_reads_a_field(generator.iter) for generator in node.generators)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "get"
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str))


def coercions(source: str) -> list[str]:
    """Each coercing call of a field read in ``source``, as ``line: code``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in COERCIONS and any(map(_reads_a_field, node.args))):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("module", READERS)
def test_no_field_read_is_coerced(module):
    assert coercions((SOURCE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("code, caught", [
    ('str(data.get("title", ""))', True),
    ('int(raw["number"])', True),
    ('tuple(str(k) for k in data.get("keywords", []))', True),
    ("tuple(_column(c) for c in jsonio.array(raw, 'schema', dict, E, 'w'))", False),
    ('tuple(data.get("keywords", []))', True),
    ("float(value)", False),
    ("dict(jsonio.field(raw, 'bib', dict, E, 'w', {}))", False),
    ("list(items[0])", False),
])
def test_the_guard_catches_a_coerced_field_read(code, caught):
    assert bool(coercions(code)) is caught
