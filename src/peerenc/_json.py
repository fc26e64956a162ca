"""peerenc's JSON reading: a file's text, its document, and one function
per kind of JSON value. Each returns the value it reads or raises
InvalidConfig naming the path or the field (``where``); no value is coerced.
What a document means is its reader's: the run config's in ``cli``, the
population file's in ``popfile``."""

from __future__ import annotations

import json
import math
import reprlib
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import InvalidConfig


def read_text(path) -> str:
    """A UTF-8 file's text; InvalidConfig naming the path when the file
    cannot be read or is not UTF-8 text."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise InvalidConfig(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def loads(text: str, path, parse_float=float):
    """The JSON document of ``path``'s text, its floats parsed by
    ``parse_float``; InvalidConfig naming the path when the text is not JSON
    or repeats a key within an object (json would keep the last value
    silently)."""
    def unique_keys(pairs):
        value = dict(pairs)
        if len(value) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise InvalidConfig(f"{path}: duplicate key {reprlib.repr(key)} in an object")
        return value

    try:
        return json.loads(text, object_pairs_hook=unique_keys, parse_float=parse_float)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                            f"{exc.msg}") from None
    except ValueError:  # what json raises for an integer of over 4300 digits
        raise InvalidConfig(f"{path}: invalid JSON: an integer of over 4300 digits") from None
    except RecursionError:
        raise InvalidConfig(f"{path}: invalid JSON: nested too deeply") from None


def read_json(path):
    """The JSON document in a UTF-8 file, such as the run config."""
    return loads(read_text(path), path)


def _fault(where: str, expected: str, value) -> InvalidConfig:
    # reprlib cuts a long list or string, or a 400-digit integer, short
    return InvalidConfig(f"{where}: expected {expected}, got {reprlib.repr(value)}")


def integer(value, where: str) -> int:
    """An integral JSON number as an int: 2.7, true or "2" is an error."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _fault(where, "an integer", value)


def number(value, where: str) -> float:
    """A finite JSON number as a float: a string, a boolean, an infinity, a
    NaN or an integer beyond the float range is an error."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise _fault(where, "a finite number", value)


def numbers(values: list, wheres) -> np.ndarray:
    """Finite JSON numbers as a float array, checked in one vectorized pass;
    else read one by one, so the first bad one is named from ``wheres``."""
    if set(map(type, values)) <= {int, float}:
        try:
            arr = np.array(values, dtype=float)
            if np.isfinite(arr).all():
                return arr
        except OverflowError:  # an integer beyond the float range
            pass
    return np.array([number(x, where) for where, x in zip(wheres, values)])


def numbers_by_key(value, where: str, keys) -> tuple[float, ...]:
    """Finite numbers from a list, or from an object over ``keys`` (absent: 0)."""
    if type(value) is dict:
        obj(value, where, keys)
        return tuple(number(value.get(k, 0.0), f"{where}.{k}") for k in keys)
    return tuple(number(x, where) for x in typed(value, where, list, "an object or a list"))


def pair_or(read, value, where: str, expected: str):
    """read(value), or a tuple of read over a two-element list."""
    if type(value) is not list:
        return read(value, where)
    if len(value) != 2:
        raise _fault(where, expected, value)
    return tuple(read(x, where) for x in value)


_KINDS = MappingProxyType({bool: "true or false", str: "a string", list: "a list",
                           dict: "a JSON object"})


def typed(value, where: str, kind: type, expected: str = ""):
    """The value when it is a JSON value of this kind: bool, str, list or dict."""
    if type(value) is kind:
        return value
    raise _fault(where, expected or _KINDS[kind], value)


def obj(value, where: str, keys=None, required=()) -> dict:
    """A JSON object with keys among ``keys`` (any when None) and every
    ``required`` one; a tuple there asks for exactly one of its keys."""
    typed(value, where, dict)
    if keys is not None and not value.keys() <= set(keys):
        unknown = next(k for k in value if k not in keys)
        raise InvalidConfig(f"{where}: unknown key {reprlib.repr(unknown)} "
                            f"(known: {', '.join(keys)})")
    for need in required:
        if type(need) is str and need not in value:
            raise InvalidConfig(f"{where}: missing key {need!r}")
        if type(need) is tuple and sum(k in value for k in need) != 1:
            raise InvalidConfig(f"{where}: needs exactly one of {' and '.join(map(repr, need))}")
    return value
