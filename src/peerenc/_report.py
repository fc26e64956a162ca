"""The JSON form every report shares: a report is exactly its dataclass fields."""

import dataclasses
import json
import math

import numpy as np


def _plain(value):
    """A report value as JSON data: a dataclass becomes the object of its
    fields, an array, tuple or list a list, a dict an object, and a float
    that is not finite becomes None (null)."""
    if isinstance(value, float):  # first: nearly every value is a float
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


class JsonReport:
    """A report dataclass whose JSON is its fields, with sorted keys and an
    indent of one; an undefined number is null, never NaN or Infinity."""

    def to_dict(self) -> dict:
        return _plain(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1, allow_nan=False)
