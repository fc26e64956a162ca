"""The randomized protocol: assign mechanisms to blocks, draw encouragements,
resolve realized treatments and outcomes.

Stage one assigns K of the B blocks to mechanism A (the rest get B's
mechanism) as a uniform simple random subset; stage two draws each block's
encouragement vector from its assigned mechanism, independently across
individuals. Realized treatments follow each individual's potential-treatment
pair, and realized outcomes evaluate the potential-outcome functions at the
realized block treatment (and encouragement) vectors.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

from . import _streams
from ._report import Record
from .errors import ArityMismatch, InvalidData, InvalidDesign
from .mechanisms import Mechanism, identical_marginals, unit_marginals
from .population import Population

CSV_COLUMNS = ("block_id", "S", "unit_id", "Z", "D", "Y")
# Each column's numeral, in ASCII digits with an optional minus: int() and
# float() would also take "1_0", spaces and non-ASCII digits.
_NUMERALS = ((re.compile(r"-?[0-9]+"), "an integer"),) * 5 + (
    (re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?"), "a decimal number"),)

# Replicates are drawn in batches whose (replicate, individual) arrays take
# at most this many bytes; BYTES_PER_DRAW is the peak a batch allocates per
# (replicate, individual) pair, drawing and estimating included.
BATCH_BYTES = 2 << 20
BYTES_PER_DRAW = 160


def _overflows(magnitude: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Where 2 * sum(magnitude / min(p, 1 - p)) over the last axis is not
    finite: it bounds every weighted block sum, arm mean and contrast of two."""
    with np.errstate(over="ignore"):
        return ~np.isfinite(2 * np.sum(magnitude / np.minimum(p, 1.0 - p), axis=-1))


_OVERFLOW = ("inverse-probability weighted outcomes overflow"
             " (2 * sum of {} / min(p, 1 - p) is not finite)")


class Design(Record, eq=False):
    """Two encouragement mechanisms, an arm size and the master seed,
    validated for a population. The constructor refuses (InvalidDesign) a
    design unless k and seed are integers (not bools), seed >= 0, both arms
    are populated, the mechanisms differ and ``_overflows`` passes the
    outcome bounds at each individual's smaller min(p, 1 - p) of the two
    mechanisms, so every draw is within it. A Design only exists validated,
    and ``replace`` validates again.

    ``probs`` (derived, read-only) holds every individual's encouragement
    probability under mechanism A and under B, (2, N)."""

    pop: Population
    mech_a: Mechanism
    mech_b: Mechanism
    k: int
    seed: int
    # derived, set by __post_init__: probs (2, N)

    def __post_init__(self):
        for name in ("k", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidDesign(f"{name}={value!r} is not an integer")
        k, seed, b = int(self.k), int(self.seed), self.pop.n_blocks
        if seed < 0:
            raise InvalidDesign(f"seed={seed} must be non-negative")
        if not 1 <= k <= b - 1:
            raise InvalidDesign(f"k={k} must leave both arms populated (1..{b - 1})")
        mechs = (self.mech_a, self.mech_b)
        # ArityMismatch if a vector mechanism cannot cover a block
        probs = np.stack([unit_marginals(mech, np.diff(self.pop.starts)) for mech in mechs])
        if identical_marginals(*mechs):
            raise InvalidDesign(
                f"mechanisms {self.mech_a.name!r} and {self.mech_b.name!r} give every individual "
                "identical probabilities; the design needs a contrast"
            )
        worst = np.minimum(probs, 1.0 - probs)
        if _overflows(self.pop.bound, q := worst.min(axis=0)):
            named = [repr(m.name) for m, w in zip(mechs, worst) if (w == q).any()]
            raise InvalidDesign(f"mechanism{'s' * (len(named) - 1)} {' and '.join(named)}: "
                                + _OVERFLOW.format("outcome bound"))
        self.__dict__.update(k=k, seed=seed, probs=probs)


class ExperimentData(Record, eq=False):
    """Realized data from one run: per-block arm flags and per-individual
    encouragement, treatment, outcome, and design encouragement probability.
    A batch of runs (``draw_validated``) carries a leading replicate axis on
    ``s``, ``z``, ``d``, ``y`` and ``p_enc``; the estimators accept either.

    The constructor refuses (InvalidData, naming the first fault's "block i
    unit j", after "replicate r" in a batch) fewer than 2 blocks, an empty
    block, a wrong shape, S/Z/D not 0 or 1, ``p_enc`` outside (0, 1), a
    non-finite Y, an empty or (across replicates) unequal arm, and outcomes
    failing ``_overflows``; it derives ``starts`` and ``k`` (arm A's blocks)."""

    sizes: np.ndarray  # (B,) block sizes
    s: np.ndarray  # (B,) 1 where the block got mechanism A
    z: np.ndarray  # (N,) realized encouragements
    d: np.ndarray  # (N,) realized treatments
    y: np.ndarray  # (N,) realized outcomes
    p_enc: np.ndarray  # (N,) design P(Z=1) under the block's assigned mechanism

    def __post_init__(self):
        sizes = np.asarray(self.sizes)
        if sizes.ndim != 1 or sizes.size < 2 or sizes.dtype.kind not in "iu":
            raise InvalidData(f"data needs integer sizes of at least 2 blocks, got {sizes.dtype}"
                              f" sizes of shape {sizes.shape}")
        sizes = sizes.astype(np.int64, copy=False)
        if (sizes < 1).any():
            raise InvalidData(f"block {int(np.argmax(sizes < 1))} is empty")
        starts = np.concatenate(([0], np.cumsum(sizes)))
        b, n = sizes.size, int(starts[-1])
        s, z, d = np.asarray(self.s), np.asarray(self.z), np.asarray(self.d)
        y, p = np.asarray(self.y, dtype=float), np.asarray(self.p_enc, dtype=float)
        batch = s.shape[:1] if s.ndim == 2 and s.size else ()
        at = "replicate {}: " if batch else ""
        binary = "is not 0 or 1", lambda c: (c != 0) & (c != 1)
        for name, col, width, (why, fault) in (
                ("S", s, b, binary), ("Z", z, n, binary), ("D", d, n, binary),
                ("p_enc", p, n, ("is not in (0, 1)", lambda c: ~((c > 0) & (c < 1)))),
                ("Y", y, n, ("is not finite", lambda c: ~np.isfinite(c)))):
            if col.shape != (*batch, width):
                raise InvalidData(f"{name} needs shape {(*batch, width)}, got {col.shape}")
            bad = fault(col)
            if bad.any():
                first = int(np.argmax(bad))
                r, u = divmod(first, width)
                i = u if col is s else int(np.searchsorted(starts, u, side="right")) - 1
                unit = "" if col is s else f" unit {u - starts[i]}"
                raise InvalidData(f"{at.format(r)}block {i}{unit}: {name}={col.flat[first]} {why}")
        k = (s == 1).sum(axis=-1)
        for bad, why in ((k == 0, "no block in arm A"), (k == b, "no block in arm B"),
                         (k != k.flat[0], f"{{}} blocks in arm A, replicate 0 has {k.flat[0]}"),
                         (_overflows(np.abs(y), p), _OVERFLOW.format("|Y|"))):
            if bad.any():
                r = int(np.argmax(bad))
                raise InvalidData(at.format(r) + why.format(k.flat[r]))
        s, z, d = (col.astype(np.int8, copy=False) for col in (s, z, d))
        self.__dict__.update(sizes=sizes, s=s, z=z, d=d, y=y, p_enc=p, starts=starts,
                             k=int(k.flat[0]))

    @property
    def n_blocks(self) -> int:
        return self.sizes.size

    def to_csv(self, path) -> None:
        """One row per individual in block order; Y is ``repr(float)``, so the
        file reads back bit for bit. A batch is a ValueError."""
        if self.s.ndim > 1:
            raise ValueError(f"to_csv writes one realization, not a batch of {self.s.shape[0]}")
        block = np.repeat(np.arange(self.n_blocks), self.sizes)
        unit = np.arange(block.size) - self.starts[block]
        ints = (block, self.s[block], unit, self.z, self.d)
        y = map(repr, self.y.tolist())
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(zip(*(c.tolist() for c in ints), y))

    @staticmethod
    def from_csv(path, mech_a: Mechanism, mech_b: Mechanism) -> "ExperimentData":
        """Ingest externally collected data; the mechanisms supply the design
        probabilities that the inverse-probability estimators require.
        Raises InvalidData naming the file unless it holds one complete run
        (block ids 0..B-1, and in each block of n rows the unit ids 0..n-1)
        that the ExperimentData constructor accepts."""
        try:
            rows = _read_csv_rows(path)
            if not rows:
                raise InvalidData("no data rows")
            rows.sort(key=lambda r: (r[0], r[2]))
            if rows[0][0] != 0:
                raise InvalidData(f"block ids must start at 0, found {rows[0][0]}")
            for prev, cur in zip(rows, rows[1:]):
                if cur[0] > prev[0] + 1:
                    raise InvalidData(f"no rows for block {prev[0] + 1}")
                if cur[0] == prev[0] and cur[2] == prev[2]:
                    raise InvalidData(f"duplicate unit_id {cur[2]} in block {cur[0]}")
                if cur[0] == prev[0] and cur[1] != prev[1]:
                    raise InvalidData(f"block {cur[0]} has more than one S value")
            # S, Z and D stay Python ints until the constructor checks them
            block, flag, _, z, d, y = zip(*rows)
            sizes = np.bincount(block)
            starts = np.concatenate(([0], np.cumsum(sizes)))
            p_enc = np.empty(len(rows))
            for i, n in enumerate(sizes.tolist()):
                # sorted and distinct, so 0..n-1 exactly when the ends are 0 and n-1
                ends = rows[starts[i]][2], rows[starts[i + 1] - 1][2]
                if ends != (0, n - 1):
                    raise InvalidData(f"block {i} has {n} rows, so its unit ids must be"
                                      f" 0..{n - 1}, found {ends[0]}..{ends[1]}")
                mech = mech_a if flag[starts[i]] == 1 else mech_b
                try:
                    p_enc[starts[i]:starts[i + 1]] = mech.marginals(n)
                except ArityMismatch as exc:
                    raise InvalidData(f"block {i}: {exc}") from None
            return ExperimentData(sizes=sizes, s=[flag[i] for i in starts[:-1]], z=z, d=d, y=y,
                                  p_enc=p_enc)
        except OSError as exc:  # missing, a directory, unreadable
            raise InvalidData(f"{path}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise InvalidData(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        except (csv.Error, InvalidData) as exc:  # csv.Error: a field over the csv module's limit
            raise InvalidData(f"{path}: {exc}") from None


def _read_csv_rows(path) -> list[tuple]:
    """The (block_id, S, unit_id, Z, D, Y) numerals of a CSV file's rows."""
    rows = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise InvalidData(f"expected columns {CSV_COLUMNS}, got {reader.fieldnames}")
        for row in reader:
            where = f"line {reader.line_num}"
            if None in row:  # DictReader files fields past the header under None
                raise InvalidData(f"{where}: {len(CSV_COLUMNS) + len(row[None])} fields, "
                                  f"the header has {len(CSV_COLUMNS)}")
            for name, (numeral, kind) in zip(CSV_COLUMNS, _NUMERALS):
                if row[name] is None or not numeral.fullmatch(row[name]):
                    raise InvalidData(f"{where}: {name}={row[name]!r} is not {kind}")
            try:
                rows.append((int(row["block_id"]), int(row["S"]), int(row["unit_id"]),
                             int(row["Z"]), int(row["D"]), float(row["Y"])))
            except ValueError as exc:  # an integer of over 4300 digits
                raise InvalidData(f"{where}: {exc}") from None
    return rows


def batch_size(pop: Population) -> int:
    """Replicates per batch (one ``draw_validated`` call) that keep a
    batch's (replicate, individual) arrays within BATCH_BYTES."""
    return max(1, BATCH_BYTES // (BYTES_PER_DRAW * pop.n_individuals))


def _draw(design: Design, first: int, count: int) -> tuple:
    """``ExperimentData``'s arguments for replicates first .. first + count - 1."""
    if first < 0 or count < 1:
        raise InvalidDesign(f"replicates {first}..{first + count - 1} need first >= 0, count >= 1")
    pop = design.pop
    b, n = pop.n_blocks, pop.n_individuals
    sizes = np.diff(pop.starts)
    s = np.zeros((count, b), dtype=np.int8)
    uniforms = np.empty((count, n))
    for row, r in enumerate(range(first, first + count)):
        rng = _streams.stream(design.seed, _streams.REPLICATE, r)
        s[row, rng.permutation(b)[: design.k]] = 1
        uniforms[row] = rng.random(n)
    in_a = np.repeat(s, sizes, axis=1) == 1
    p_enc = np.where(in_a, design.probs[0], design.probs[1])
    z = (uniforms < p_enc).astype(np.int8)
    d = np.where(z == 1, pop.d1, pop.d0).astype(np.int8)
    return sizes, s, z, d, pop.outcomes(d, z), p_enc


def draw_validated(design: Design, first: int, count: int) -> ExperimentData:
    """Execute the protocol for replicates first .. first + count - 1 at once.

    The result carries a leading replicate axis on ``s`` (R, B) and on ``z``,
    ``d``, ``y`` and ``p_enc`` (R, N); its row r is the run of replicate
    first + r, a deterministic function of (design, first + r) alone: the
    arm assignment and then every individual's encouragement uniform come
    from the replicate's own stream (see ``_streams``).
    """
    return ExperimentData(*_draw(design, first, count))


def run_design(design: Design, replicate: int = 0) -> ExperimentData:
    """Execute the protocol once: row ``replicate`` of ``draw_validated``."""
    sizes, *rows = _draw(design, replicate, 1)
    return ExperimentData(sizes, *(row[0] for row in rows))
