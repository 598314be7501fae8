"""The one reader of JSON input: files, and fields by their JSON type.

Every input passes through here: the config, a mock scenario, the survey
and its outline, span annotations, feed and audit records, and endpoint
replies. A field holds one JSON type; a value of another type raises the
caller's error naming the field and the value, and nothing is coerced:
``bool`` is never an integer, an integer is read where a float is
expected (as ``float(value)``), and null only where the caller allows
it. A missing field takes the caller's default, or raises when required.

A read that succeeds costs one ``type(value) is kind`` test; a message
is built only on failure. ``where`` names the object a field sits in:
a string, or a ``(label, id)`` pair that is then formatted as
``label 'id'``.

Every file the package writes is written whole through ``replace_text``,
so a failed write leaves the old file: the survey and its outline, span
annotations, a mock scenario, a feed, the demo config, the published
survey, the audit log and the two reports.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import reprlib
import types
import typing
from pathlib import Path
from typing import Any, Callable

# The default of a field that must be present.
REQUIRED: Any = dataclasses.MISSING
# A JSON number kept as it was written, integer or float (a table
# column's bound).
NUMBER = (int, float)

_KIND_NAMES = {str: "a JSON string", int: "a JSON integer", float: "a JSON number",
               NUMBER: "a JSON number", bool: "a JSON boolean", list: "a JSON array",
               dict: "a JSON object"}


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """The UTF-8 text of a file; an unreadable file raises ``error`` naming ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def replace_text(path: str | Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and move it over ``path``.

    A reader sees the old file or the new one, never a torn file. A failed
    write removes the temporary file and leaves ``path`` as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def loads(text: str, error: type[Exception], what: str) -> dict:
    """The JSON object ``text`` holds; anything else raises ``error`` naming ``what``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    return check(data, dict, error, what)


def read_json(path: str | Path, error: type[Exception], what: str) -> dict:
    """The JSON object a file holds, read with ``read_text`` and ``loads``."""
    return loads(read_text(path, error, what), error, f"{what} {path}")


def read_lines(path: str | Path, error: type[Exception], what: str,
               read: Callable[[dict], Any]) -> list:
    """``read`` of each JSON object of a newline-delimited file, in order.

    Blank lines are skipped. A line that is not a JSON object, or that
    ``read`` rejects with ``error``, raises ``error`` naming its number.
    """
    records = []
    for number, line in enumerate(read_text(path, error, what).splitlines(), start=1):
        if line.strip():
            try:
                records.append(read(loads(line, error, "record")))
            except error as exc:
                raise error(f"{what} {path} line {number}: {exc}") from exc
    return records


def check_unicode(value: Any, error: type[Exception], what: str) -> None:
    """Raise ``error`` naming ``what`` when a string of the JSON value
    ``value``, a key or a value at any depth, holds a lone surrogate.

    A JSON escape such as ``\\ud800`` reads as one, and no UTF-8 file can
    hold it, so the survey or audit log it reached could not be written.
    An ASCII string costs one ``str.isascii()``.
    """
    kind = type(value)
    if kind is str:
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise error(f"{what} {reprlib.repr(value)} holds a lone surrogate "
                            f"at character {exc.start}") from None
    elif kind is list:
        for item in value:
            check_unicode(item, error, what)
    elif kind is dict:
        for key, item in value.items():
            check_unicode(key, error, what)
            check_unicode(item, error, what)


def check(value: Any, kind: type | tuple, error: type[Exception], what: Any) -> Any:
    """``value`` read as JSON type ``kind``; ``what`` names it."""
    if type(value) is kind:
        return value
    return _convert(value, kind, False, error, what, "")


def field(data: dict, name: str, kind: type | tuple, error: type[Exception], where: Any,
          default: Any = REQUIRED, null: bool = False) -> Any:
    """The field ``name`` of ``data`` as JSON type ``kind``, or null when ``null`` is set.

    A missing field returns ``default`` as it is, or raises if it is ``REQUIRED``.
    """
    value = data.get(name, default)
    if type(value) is kind:
        return value
    if name not in data:
        if default is REQUIRED:
            raise error(f"{_place(where)} has no {name}")
        return default
    return _convert(value, kind, null, error, where, f" {name}")


def array(data: dict, name: str, kind: type | tuple, error: type[Exception], where: Any,
          default: Any = REQUIRED) -> tuple:
    """The array ``name`` of ``data`` as a tuple of values of JSON type ``kind``.

    A tuple, which the program's own dict forms hold, reads as an array.
    """
    items = data.get(name, default)
    if type(items) is not list and type(items) is not tuple:
        return field(data, name, list, error, where, default)
    for value in items:
        if type(value) is not kind:
            return tuple(
                value if type(value) is kind
                else _convert(value, kind, False, error, where, f" {name}[{index}]")
                for index, value in enumerate(items))
    return tuple(items)


def build(cls: type, data: dict, error: type[Exception], where: Any, **given: Any) -> Any:
    """The dataclass ``cls`` built from the JSON object ``data``.

    Each init field not in ``given`` is read from the key of its name,
    with the field's default, by its annotation: ``str``, ``int``,
    ``float``, ``bool`` or ``dict``; ``X | None`` allows null;
    ``tuple[X, ...]`` is an array. Other keys are ignored.
    """
    values = dict(given)
    for name, kind, null, many, default, factory in _fields(cls):
        if name not in given:
            default = default if factory is REQUIRED else factory()
            values[name] = (array(data, name, kind, error, where, default) if many
                            else field(data, name, kind, error, where, default, null))
    return cls(**values)


@functools.cache
def _fields(cls: type) -> tuple:
    """Name, JSON kind, null allowed, array, default and factory of each init field."""
    hints = typing.get_type_hints(cls)
    specs = []
    for spec in dataclasses.fields(cls):
        if not spec.init:
            continue
        kind, null, many = hints[spec.name], False, False
        if type(kind) is types.UnionType:
            kind, null = next(a for a in typing.get_args(kind) if a is not type(None)), True
        if typing.get_origin(kind) is tuple:
            kind, many = typing.get_args(kind)[0], True
        specs.append((spec.name, kind, null, many, spec.default, spec.default_factory))
    return tuple(specs)


def _convert(value: Any, kind: type | tuple, null: bool, error: type[Exception],
             where: Any, name: str) -> Any:
    """A value that is not exactly of ``kind``: read it by the rules, or raise."""
    if value is None and null:
        return None
    if kind is float and type(value) is int:
        return float(value)
    if type(kind) is tuple and type(value) in kind:
        return value
    expected = _KIND_NAMES[kind] + (" or null" if null else "")
    raise error(f"{_place(where)}{name} must be {expected}, got {reprlib.repr(value)}")


def _place(where: Any) -> str:
    return where if type(where) is str else f"{where[0]} {where[1]!r}"
