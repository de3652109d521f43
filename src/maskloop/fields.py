"""Readers for the fields of JSON that comes from outside the program.

Config files, trajectory JSONL, task and dataset manifests and the remote
protocol's requests and replies are all read through these readers, so
the JSON type rule is stated here once; read_json decodes a whole file.
An object, a list and a string are that JSON type. A number is a finite
JSON integer or real, never a bool, and reads as a float. An integer is
a JSON integer, never a bool and never a real (2.0 is not one). A choice
is one value out of a set, equal in type as well as in value.

Each reader takes the object or list that holds the field, the field's
key or index, and the holder's path. It returns the value, or raises
FieldError naming the field's path, such as ``steps[1].reward_before``.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import NoReturn

from .errors import FieldError


def path(where: str, key: str | int) -> str:
    """The path of field ``key`` in the value at ``where``."""
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _show(value: object) -> str:
    try:
        text = json.dumps(value)
    except (TypeError, ValueError, RecursionError):
        text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _get(holder, key: str | int, where: str):
    try:
        return holder[key]
    except (KeyError, IndexError):
        raise FieldError(path(where, key), "missing") from None
    except TypeError:  # the holder is a string, a number, a bool or null
        raise FieldError(where, f"expected an object, got {_show(holder)}") from None


def _refuse(value: object, key: str | int, where: str, what: str) -> NoReturn:
    raise FieldError(path(where, key), f"expected {what}, got {_show(value)}")


def obj(holder, key: str | int, where: str = "") -> dict:
    value = _get(holder, key, where)
    return value if isinstance(value, dict) else _refuse(value, key, where, "an object")


def array(holder, key: str | int, where: str = "") -> list:
    value = _get(holder, key, where)
    return value if isinstance(value, list) else _refuse(value, key, where, "a list")


def string(holder, key: str | int, where: str = "") -> str:
    value = _get(holder, key, where)
    return value if isinstance(value, str) else _refuse(value, key, where, "a string")


def number(holder, key: str | int, where: str = "") -> float:
    value = _get(holder, key, where)
    # an int compares with the float limit exactly; nan compares false
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    _refuse(value, key, where, "a finite number")


def integer(holder, key: str | int, where: str = "") -> int:
    value = _get(holder, key, where)
    return value if type(value) is int else _refuse(value, key, where, "an integer")


def integers(holder, key: str | int, where: str = "") -> list[int]:
    """A list of integers, checked one type at a time rather than one item at a time."""
    value = array(holder, key, where)
    if set(map(type, value)) - {int}:
        i = next(i for i, v in enumerate(value) if type(v) is not int)
        _refuse(value[i], i, path(where, key), "an integer in a list of integers")
    return value


def choice(holder, key: str | int, options: tuple, where: str = ""):
    value = _get(holder, key, where)
    # ``in`` compares values only: True is 1, and 1.0 is 1
    if value in options and type(value) is type(options[options.index(value)]):
        return value
    _refuse(value, key, where, "one of " + ", ".join(map(_show, options)))


def read_json(name: str):
    """The JSON value in file ``name``. A file that is not JSON, or nests
    too deep to decode, raises FieldError naming the file."""
    with open(name, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as e:  # ValueError: bad JSON or bad UTF-8
            raise FieldError(name, f"invalid JSON: {e}") from None


@contextlib.contextmanager
def source(name: str):
    """Name the file that the fields read inside come from: a FieldError
    raised inside is raised again with ``name`` before its path."""
    try:
        yield
    except FieldError as e:
        raise FieldError(f"{name}: {e.path}" if e.path else name, e.problem) from None
