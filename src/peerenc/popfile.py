"""The population file, peerenc's one per-individual description of a
population, as JSON; this module alone knows its format. ``load_population``
reads a file, ``population_from_dict`` fills a ``Population`` from its
document and ``population_text`` renders one."""

from __future__ import annotations

import functools
import json
import operator

import numpy as np

from . import _json
from .errors import ArityMismatch, FlagMismatch, InvalidConfig, MissingTableEntry, PeerEncError
from .population import _COEFS, Population

# The population file's keys: its flags and a table outcome's.
_FLAGS_KEYS = ("monotone", "one_sided", "exclusion_ok")
_TABLE_KEYS = ("kind", "size", "values")
# Distinct float texts a read's memo keeps at most; it is emptied when full.
FLOAT_MEMO_BOUND = 1 << 16


class _FloatMemo(dict):
    """float(text) by text. A generated table repeats its few distinct
    entries thousands of times, so most of a table file's floats become dict
    hits. Exact: a text always parses to the same float."""

    def __missing__(self, text: str) -> float:
        if len(self) >= FLOAT_MEMO_BOUND:
            self.clear()
        value = self[text] = float(text)
        return value


@functools.lru_cache(maxsize=8)
def _row_keys(n: int) -> tuple[str, ...]:
    """The bit strings of a size-n table's 2^n treatment rows, in row order."""
    return tuple(f"{r:0{n}b}" for r in range(2**n))


def _table_keys(n: int, keyed: bool):
    """A size-n table's JSON keys in row order: the bit string of the
    treatment row, or "d|z" (treatment-major) for an encouragement-keyed one.
    The 4^n keyed keys are generated one at a time and never kept."""
    rows = _row_keys(n)
    return (f"{d}|{z}" for d in rows for z in rows) if keyed else rows


def _is_table_key(key: str, n: int, keyed: bool) -> bool:
    """Whether key names a row of a size-n table (see ``_table_keys``)."""
    if not isinstance(key, str):
        return False
    parts = key.split("|") if keyed else [key]
    return len(parts) == 1 + keyed and all(len(p) == n and not p.strip("01") for p in parts)


def _table_from_dict(d: dict, n: int, keyed: bool, in_order: dict):
    """A table outcome's JSON entries in row order (treatment-major when
    encouragement-keyed), unconverted. The entry count is compared with the
    row count before any key is built, so the work is bounded by the input's
    size. ``in_order`` maps (n, keyed) to a key list found in row order: json
    shares a document's key objects, so a saved table's keys match it by
    identity and the row keys are built once per (n, keyed)."""
    size = _json.integer(d["size"], "table size")
    if size != n:
        raise ArityMismatch(f"table size {size} != block size {n}")
    entries, rows = _json.obj(d["values"], "table values"), 4**n if keyed else 2**n
    if len(entries) < rows:
        raise MissingTableEntry(f"table has {len(entries)} of its {rows} entries")
    if len(entries) > rows:
        extra = next(key for key in entries if not _is_table_key(key, n, keyed))
        raise InvalidConfig(f"table key {extra!r} is not a row of a size-{n} table")
    keys = list(entries)
    if keys == in_order.get((n, keyed)):
        return entries.values()
    if all(map(operator.eq, keys, _table_keys(n, keyed))):  # keys in row order, as saved
        in_order[n, keyed] = keys
        return entries.values()
    try:
        return [entries[key] for key in _table_keys(n, keyed)]
    except KeyError as exc:
        raise MissingTableEntry(f"table has no entry for {exc}") from None


def population_from_dict(data: dict) -> Population:
    """The population of a file's document; FlagMismatch when a flag is not
    what the data satisfy."""
    data = _json.obj(data, "population", ("flags", "blocks"), required=("flags", "blocks"))
    flags = _json.obj(data["flags"], "population flags", _FLAGS_KEYS, required=_FLAGS_KEYS)
    flags = {k: _json.typed(flags[k], f"population flags.{k}", bool) for k in _FLAGS_KEYS}
    blocks = _json.typed(data["blocks"], "population blocks", list)
    sizes, d0, d1, kinds, coef, table = _columns(blocks)
    try:
        pop = Population(starts=np.cumsum([0, *sizes]), d0=d0, d1=d1,
                         structural=list(map("structural".__eq__, kinds)),
                         z_dependent=list(map("table_z".__eq__, kinds)), coef=coef, table=table)
    except ValueError as exc:  # fewer than 2 blocks, an empty block, a non-binary d0 / d1
        raise InvalidConfig(f"population file: {exc}") from None
    for k in _FLAGS_KEYS:
        if flags[k] != getattr(pop, k):
            raise FlagMismatch(f"flag {k}={flags[k]} but the data say {getattr(pop, k)}")
    return pop


_PERSON_KEYS = ("d0", "d1", "outcome")
# The key sets a well-formed individual and outcome have; anything else is
# read again by ``_bad_outcome`` or ``_json.obj`` to name the fault.
_PERSON_KEYSET = frozenset(_PERSON_KEYS)
_STRUCTURAL_KEYSET = frozenset(("kind", *_COEFS))
_TABLE_KEYSET = frozenset(_TABLE_KEYS)
_NO_COEFS = (0.0,) * len(_COEFS)


def _where(i: int, j: int) -> str:
    """An individual's name in an error."""
    return f"population block {i} individual {j}"


def _individuals(sizes: list):
    """Every individual's name in an error with its block's size, in file
    order."""
    for i, n in enumerate(sizes):
        for j in range(n):
            yield _where(i, j), n


def _bad_outcome(y):
    """Raise the error that names what is wrong with an outcome whose kind
    or keys are not those of a structural or table outcome."""
    y = _json.obj(y, "outcome", required=("kind",))
    kind = _json.typed(y["kind"], "outcome kind", str)
    if kind == "structural":
        _json.obj(y, "outcome", ("kind", *_COEFS))
    elif kind in ("table", "table_z"):
        _json.obj(y, "outcome", _TABLE_KEYS, required=_TABLE_KEYS)
    raise InvalidConfig(f"unknown outcome kind {kind!r}")


def _columns(blocks: list):
    """The population's columns (sizes, d0, d1, kinds, coef, table) read one
    individual at a time; raises the error that names the first bad field.
    Every shape is checked first, then every table entry and every
    coefficient in one vectorized pass each."""
    sizes, d0, d1, kinds, coef, entries, in_order = [], [], [], [], [], [], {}
    for i, raw in enumerate(blocks):
        raw = _json.typed(raw, f"population block {i}", list, "a list of individuals")
        for j, r in enumerate(raw):
            if type(r) is not dict or r.keys() != _PERSON_KEYSET:
                _json.obj(r, _where(i, j), _PERSON_KEYS, required=_PERSON_KEYS)
            try:
                d0.append(_json.integer(r["d0"], "d0"))
                d1.append(_json.integer(r["d1"], "d1"))
                y = r["outcome"]
                kind = y.get("kind") if type(y) is dict else None
                if kind == "structural" and y.keys() <= _STRUCTURAL_KEYSET:
                    coef.extend(map(y.get, _COEFS, _NO_COEFS))
                elif kind in ("table", "table_z") and y.keys() == _TABLE_KEYSET:
                    entries.extend(_table_from_dict(y, len(raw), kind == "table_z", in_order))
                    coef.extend(_NO_COEFS)
                else:
                    _bad_outcome(y)
            except PeerEncError as exc:
                raise type(exc)(f"{_where(i, j)}: {exc}") from None
            kinds.append(kind)
        sizes.append(len(raw))
    tables = ((w, n, kind == "table_z") for (w, n), kind in zip(_individuals(sizes), kinds)
              if kind != "structural")
    table = _json.numbers(entries, (f"{w}: table entry {key!r}" for w, n, keyed in tables
                                    for key in _table_keys(n, keyed)))
    coef = _json.numbers(coef, (f"{w}: outcome {k!r}" for w, _ in _individuals(sizes)
                                for k in _COEFS))
    return sizes, d0, d1, kinds, coef.reshape(len(d0), len(_COEFS)).T, table


# The population file's text as json.dumps(..., sort_keys=True, indent=1)
# writes it, between the values population_text fills in: an individual's
# opening (d0, d1), a structural outcome's coefficients in sorted key order
# (_SORTED_COEFS), a table outcome's kind and size before its "values", and
# the flags after the last block.
_INDIVIDUAL = '{\n    "d0": %d,\n    "d1": %d,\n    "outcome": {\n     '
_STRUCTURAL = _INDIVIDUAL + ('"curvature": %s,\n     "direct": %s,\n     "interaction": %s,\n'
                             '     "intercept": %s,\n     "kind": "structural",\n'
                             '     "noise": %s,\n     "peer": %s\n    }\n   }')
_SORTED_COEFS = [_COEFS.index(k) for k in sorted(_COEFS)]
_TABLE_HEAD = _INDIVIDUAL + '"kind": "%s",\n     "size": %d,\n     "values": '
_TABLE_TAIL = "\n    }\n   }"
_FLAGS = '\n ],\n "flags": {\n  "exclusion_ok": %s,\n  "monotone": %s,\n  "one_sided": %s\n }\n}\n'


def _entry_heads(n: int, keyed: bool) -> list[str]:
    """What json.dumps(..., sort_keys=True, indent=1) writes before each
    entry of a size-n table's "values" object at its depth in the population
    file (document, "blocks", block, individual, "outcome"): the separator,
    the indent and the key. Row order is sorted key order."""
    heads = [f',\n      "{key}": ' for key in _table_keys(n, keyed)]
    heads[0] = heads[0][1:]
    return heads


def _values_json(rows: np.ndarray, heads: list[str]) -> str:
    """A table member's "values" object from its entries in row order. Each
    entry is float.__repr__, as json writes floats, computed once per
    distinct bit pattern (so -0.0 and 0.0 stay apart)."""
    patterns, which = np.unique(rows.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, patterns.view(np.float64).tolist())), dtype=object)
    parts = [""] * (2 * len(heads))
    parts[::2] = heads
    parts[1::2] = texts[which].tolist()
    return "{" + "".join(parts) + "\n     }"


def population_text(pop: Population):
    """The text of ``json.dumps(doc, sort_keys=True, indent=1)`` and a
    newline, byte for byte, for the population's per-individual document
    ``doc`` (``tests/oracles.py`` builds it), yielded in pieces, one
    individual (or one table's "values") at a time: memory is bounded by
    the largest member's table text, not the file."""
    d0, d1, starts = pop.d0.tolist(), pop.d1.tolist(), pop.starts.tolist()
    structural, table_start = pop.structural.tolist(), pop.table_start.tolist()
    coef = pop.coef[_SORTED_COEFS].T.ravel()
    # one individual's coefficient texts at a time; a table member's are
    # never written, and the constructor refuses a non-finite structural one
    coefs = zip(*[map(float.__repr__, coef.tolist())] * len(_COEFS))
    heads = functools.cache(_entry_heads)  # keys live for this call only
    yield '{\n "blocks": ['
    for lo, hi in zip(starts[:-1], starts[1:]):
        yield ",\n  [" if lo else "\n  ["
        for u in range(lo, hi):
            sep = ",\n   " if u > lo else "\n   "
            row = next(coefs)
            if structural[u]:
                yield sep + _STRUCTURAL % (d0[u], d1[u], *row)
            else:
                keyed = bool(pop.z_dependent[u])
                yield sep + _TABLE_HEAD % (d0[u], d1[u], "table_z" if keyed else "table", hi - lo)
                yield _values_json(pop.table[table_start[u]:table_start[u + 1]], heads(hi - lo, keyed))
                yield _TABLE_TAIL
        yield "\n  ]"
    yield _FLAGS % tuple(json.dumps(getattr(pop, k)) for k in sorted(_FLAGS_KEYS))


def load_population(path) -> Population:
    """The population of a file. A file holding table "values" parses its
    floats through a memo built for this read alone; any other (a structural
    population) with plain float, since its floats are nearly all distinct
    and a memo would only cost time and memory there."""
    text = _json.read_text(path)
    parse_float = _FloatMemo().__getitem__ if '"values"' in text else float
    data = _json.loads(text, path, parse_float)
    del text  # the columns are built without the file's text alive
    return population_from_dict(data)
