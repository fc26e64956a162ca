"""Span tracing of peerenc from outside the package.

`Tracer.install()` replaces every public function and method defined in a
peerenc module with a wrapper that records one span per call: a name, the
start and end times, and the span that was open when it was called. The
wrapper is bound everywhere the original was, so a function imported by
name into another module (`from .design import run_design` in `cli` and
`montecarlo`) is traced too. Properties are not wrapped; their time counts
toward the caller. Spans are kept in flat arrays and analysed after the run.

A module is a layer: its self time is the time its spans cover minus the
time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

ROOT = -1


class Tracer:
    def __init__(self, hooks=None):
        # hooks: span name -> fn(tracer, args, kwargs, result), run after the call
        self.hooks = hooks or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [ROOT]
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name: str):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(name_id)
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function and method of every module of package."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1].lstrip("_")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                new = self._wrap(obj, name)
            elif isinstance(obj, (staticmethod, classmethod)):
                new = type(obj)(self._wrap(obj.__func__, name))
            else:
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> "Spans":
        return Spans(self.names, np.frombuffer(self.name_id, dtype=np.int32).copy(),
                     np.frombuffer(self.parent, dtype=np.int32).copy(),
                     np.frombuffer(self.start).copy(), np.frombuffer(self.end).copy())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one stack, so children are strictly nested in their
    parent and never overlap each other.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    child = parent != ROOT
    return duration - np.bincount(parent[child], weights=duration[child],
                                  minlength=duration.size)


class Spans:
    """Recorded spans of one traced session, with per-name and per-layer views."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.duration = end - start
        self.self_time = self_times(start, end, parent)
        self.layer_of = [n.split(".", 1)[0] for n in names]

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name)]

    def total(self, *names: str) -> float:
        return float(sum(self.durations(n).sum() for n in names))

    def layer_self(self) -> dict[str, float]:
        per_name = np.bincount(self.name_id, weights=self.self_time,
                               minlength=len(self.names))
        out: dict[str, float] = {}
        for layer, t in zip(self.layer_of, per_name.tolist()):
            out[layer] = out.get(layer, 0.0) + t
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of name made, directly or not, from inside a call of ancestor."""
        if ancestor not in self.names:
            return 0
        target = self.names.index(ancestor)
        parent = self.parent.tolist()
        ids = self.name_id.tolist()
        count = 0
        for i in np.flatnonzero(self._mask(name)).tolist():
            p = parent[i]
            while p != ROOT and ids[p] != target:
                p = parent[p]
            count += p != ROOT
        return count
