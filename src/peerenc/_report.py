"""Frozen records, and the JSON form every report shares: a report is exactly
its record fields."""

import json
import math
from types import MappingProxyType

import numpy as np


class Record:
    """A frozen record. Its fields are the class annotations in definition
    order, base classes first; a field's default is its class attribute.
    The constructor takes the fields by position or keyword, then runs
    ``__post_init__``, which stores what it converts or derives with
    ``self.__dict__.update``; then every value it holds is ``_frozen``.
    Records compare and hash by their fields, except a class declared
    ``eq=False`` (one that holds arrays): it keeps identity."""

    _fields = ()

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(dict.fromkeys(
            name for c in reversed(cls.__mro__) for name in c.__dict__.get("__annotations__", ())))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name in values or name not in cls._fields:
                why = "given twice" if name in values else "is not a field"
                raise TypeError(f"{cls.__name__}: {name!r} {why}")
            values[name] = value
        for name in cls._fields:
            if name not in values:
                if not hasattr(cls, name):
                    raise TypeError(f"{cls.__name__}: missing field {name!r}")
                values[name] = getattr(cls, name)
        self.__dict__.update(values)
        self.__post_init__()
        self.__dict__.update({name: _frozen(value) for name, value in self.__dict__.items()})

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def replace(self, **changes):
        """A copy with these fields changed, through the constructor's checks."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


def _frozen(value):
    """A record's value frozen all the way down: an array made read-only, a
    dict or mapping proxy a mapping proxy of frozen values, a list or tuple a
    tuple of them. A record inside froze itself."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (dict, MappingProxyType)):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    elif isinstance(value, (list, tuple)):
        return tuple(map(_frozen, value))
    return value


def _plain(value):
    """A report value as JSON data: a record becomes the object of its
    fields, an array or tuple a list, a mapping proxy an object, and a float
    that is not finite becomes None (null)."""
    if isinstance(value, float):  # first: nearly every value is a float
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):  # a list is an array's tolist()
        return [_plain(v) for v in value]
    if isinstance(value, MappingProxyType):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, Record):
        return {name: _plain(getattr(value, name)) for name in value._fields}
    return value


class JsonReport(Record):
    """A record whose JSON is its fields, with sorted keys and an indent of
    one; an undefined number is null, never NaN or Infinity."""

    def to_dict(self) -> dict:
        return _plain(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1, allow_nan=False)
