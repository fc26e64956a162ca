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
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _streams
from ._report import Record
from .errors import ArityMismatch, InvalidData, InvalidDesign
from .mechanisms import Mechanism, unit_marginals
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


def _check_weighted(magnitude: np.ndarray, p: np.ndarray, error, where: str, what: str):
    """``error`` naming ``where`` unless 2 * sum(magnitude / min(p, 1 - p))
    is finite: it bounds every inverse-probability weighted block sum, arm
    mean and contrast of two that the estimators form."""
    with np.errstate(over="ignore"):
        total = 2 * np.sum(magnitude / np.minimum(p, 1.0 - p))
    if not np.isfinite(total):
        raise error(f"{where}: inverse-probability weighted outcomes overflow "
                    f"(2 * sum of {what} / min(p, 1 - p) is not finite)")


class DesignConfig(Record):
    """Two encouragement mechanisms, an arm size, and the master seed."""

    mech_a: Mechanism
    mech_b: Mechanism
    k: int
    seed: int


class Design(Record, eq=False):
    """A design validated for a population. The constructor refuses
    (InvalidDesign) a design unless both arms are populated, the mechanisms
    differ and, under either mechanism, ``_check_weighted`` passes the
    individuals' outcome bounds. So a Design only exists validated, and
    ``replace`` validates again.

    ``probs`` (derived, read-only) holds every individual's encouragement
    probability under mechanism A and under B, (2, N)."""

    pop: Population
    cfg: DesignConfig
    # derived, set by __post_init__: probs (2, N)

    def __post_init__(self):
        cfg, b = self.cfg, self.pop.n_blocks
        if not 1 <= cfg.k <= b - 1:
            raise InvalidDesign(f"k={cfg.k} must leave both arms populated (1..{b - 1})")
        mechs = (cfg.mech_a, cfg.mech_b)
        # ArityMismatch if a vector mechanism cannot cover a block
        probs = np.stack([unit_marginals(mech, np.diff(self.pop.starts)) for mech in mechs])
        if np.array_equal(probs[0], probs[1]):
            raise InvalidDesign(
                f"mechanisms {cfg.mech_a.name!r} and {cfg.mech_b.name!r} give every individual "
                "identical probabilities; the design needs a contrast"
            )
        for mech, p in zip(mechs, probs):
            _check_weighted(self.pop.bound, p, InvalidDesign, f"mechanism {mech.name!r}",
                            "outcome bound")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def validate_design(cfg: DesignConfig, pop: Population) -> Design:
    """The design ``cfg`` on ``pop``, validated (see ``Design``)."""
    return Design(pop, cfg)


class ExperimentData(Record, eq=False):
    """Realized data from one run: per-block arm flags and per-individual
    encouragement, treatment, outcome, and design encouragement probability.
    A batch of runs (``draw_validated``) carries a leading replicate axis on
    ``s``, ``z``, ``d``, ``y`` and ``p_enc``; the estimators accept either."""

    sizes: np.ndarray  # (B,) block sizes
    s: np.ndarray  # (B,) 1 where the block got mechanism A
    z: np.ndarray  # (N,) realized encouragements
    d: np.ndarray  # (N,) realized treatments
    y: np.ndarray  # (N,) realized outcomes
    p_enc: np.ndarray  # (N,) design P(Z=1) under the block's assigned mechanism

    def __post_init__(self):
        for arr in (self.sizes, self.s, self.z, self.d, self.y, self.p_enc):
            arr.setflags(write=False)

    @property
    def n_blocks(self) -> int:
        return self.sizes.size

    @cached_property
    def starts(self) -> np.ndarray:
        out = np.concatenate(([0], np.cumsum(self.sizes)))
        out.setflags(write=False)
        return out

    def to_csv(self, path) -> None:
        """One row per individual in block order; Y is ``repr(float)``, so the
        file reads back bit for bit."""
        block = np.repeat(np.arange(self.n_blocks), self.sizes)
        unit = np.arange(block.size) - self.starts[block]
        ints = (block, self.s.astype(np.int64)[block], unit, self.z.astype(np.int64),
                self.d.astype(np.int64))
        y = map(repr, self.y.astype(float, copy=False).tolist())
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(zip(*(c.tolist() for c in ints), y))

    @staticmethod
    def from_csv(path, mech_a: Mechanism, mech_b: Mechanism) -> "ExperimentData":
        """Ingest externally collected data; the mechanisms supply the design
        probabilities that the inverse-probability estimators require.
        Raises InvalidData unless the file holds one complete run (block ids
        0..B-1, and in each block of n rows the unit ids 0..n-1) whose
        outcomes pass ``_check_weighted`` under their design probabilities."""
        try:
            rows = _read_csv_rows(path)
        except OSError as exc:  # missing, a directory, unreadable
            raise InvalidData(f"{path}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise InvalidData(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        except csv.Error as exc:  # a field longer than the csv module's limit
            raise InvalidData(f"{path}: {exc}") from None
        if not rows:
            raise InvalidData(f"{path}: no data rows")
        rows.sort(key=lambda r: (r[0], r[2]))
        if rows[0][0] != 0:
            raise InvalidData(f"{path}: block ids must start at 0, found {rows[0][0]}")
        for prev, cur in zip(rows, rows[1:]):
            if cur[0] > prev[0] + 1:
                raise InvalidData(f"{path}: no rows for block {prev[0] + 1}")
            if cur[0] == prev[0] and cur[2] == prev[2]:
                raise InvalidData(f"{path}: duplicate unit_id {cur[2]} in block {cur[0]}")
            if cur[0] == prev[0] and cur[1] != prev[1]:
                raise InvalidData(f"{path}: block {cur[0]} has more than one S value")
        n_blocks = rows[-1][0] + 1
        sizes = np.zeros(n_blocks, dtype=int)
        s = np.zeros(n_blocks, dtype=np.int8)
        for bid, flag, *_ in rows:
            sizes[bid] += 1
            s[bid] = flag
        z = np.array([r[3] for r in rows], dtype=np.int8)
        d = np.array([r[4] for r in rows], dtype=np.int8)
        y = np.array([r[5] for r in rows], dtype=float)
        p_enc = np.empty(len(rows))
        starts = np.concatenate(([0], np.cumsum(sizes)))
        for i, n in enumerate(sizes.tolist()):
            # sorted and distinct, so 0..n-1 exactly when the ends are 0 and n-1
            ends = rows[starts[i]][2], rows[starts[i + 1] - 1][2]
            if ends != (0, n - 1):
                raise InvalidData(f"{path}: block {i} has {n} rows, so its unit ids must be"
                                  f" 0..{n - 1}, found {ends[0]}..{ends[1]}")
        for i in range(n_blocks):
            mech = mech_a if s[i] == 1 else mech_b
            try:
                p_enc[starts[i]:starts[i + 1]] = mech.marginals(int(sizes[i]))
            except ArityMismatch as exc:
                raise InvalidData(f"{path}: block {i}: {exc}") from None
        _check_weighted(np.abs(y), p_enc, InvalidData, str(path), "|Y|")
        return ExperimentData(sizes=sizes, s=s, z=z, d=d, y=y, p_enc=p_enc)


def _read_csv_rows(path) -> list[tuple]:
    """The checked (block_id, S, unit_id, Z, D, Y) records of a CSV file."""
    rows = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise InvalidData(
                f"{path}: expected columns {CSV_COLUMNS}, got {reader.fieldnames}"
            )
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row:  # DictReader files fields past the header under None
                raise InvalidData(f"{where}: {len(CSV_COLUMNS) + len(row[None])} fields, "
                                  f"the header has {len(CSV_COLUMNS)}")
            for name, (numeral, kind) in zip(CSV_COLUMNS, _NUMERALS):
                if row[name] is None or not numeral.fullmatch(row[name]):
                    raise InvalidData(f"{where}: {name}={row[name]!r} is not {kind}")
            try:
                rec = (int(row["block_id"]), int(row["S"]), int(row["unit_id"]),
                       int(row["Z"]), int(row["D"]), float(row["Y"]))
            except ValueError as exc:  # an integer of over 4300 digits
                raise InvalidData(f"{where}: {exc}") from None
            for name, v in zip(("S", "Z", "D"), (rec[1], rec[3], rec[4])):
                if v not in (0, 1):
                    raise InvalidData(f"{where}: {name}={v} is not 0 or 1")
            if not np.isfinite(rec[5]):
                raise InvalidData(f"{where}: Y={rec[5]!r} is not finite")
            rows.append(rec)
    return rows


def batch_size(pop: Population) -> int:
    """Replicates per batch (one ``draw_validated`` call) that keep a
    batch's (replicate, individual) arrays within BATCH_BYTES."""
    return max(1, BATCH_BYTES // (BYTES_PER_DRAW * pop.n_individuals))


def draw_validated(design: Design, first: int, count: int) -> ExperimentData:
    """Execute the protocol for replicates first .. first + count - 1 at once.

    The result carries a leading replicate axis on ``s`` (R, B) and on ``z``,
    ``d``, ``y`` and ``p_enc`` (R, N); its row r is the run of replicate
    first + r, a deterministic function of (design, first + r) alone: the
    arm assignment and then every individual's encouragement uniform come
    from the replicate's own stream (see ``_streams``).
    """
    if first < 0 or count < 0:
        raise InvalidDesign(f"replicate indices {first}..{first + count - 1} must be non-negative")
    pop, cfg = design.pop, design.cfg
    b, n = pop.n_blocks, pop.n_individuals
    sizes = np.diff(pop.starts)
    s = np.zeros((count, b), dtype=np.int8)
    uniforms = np.empty((count, n))
    for row, r in enumerate(range(first, first + count)):
        rng = _streams.stream(cfg.seed, _streams.REPLICATE, r)
        s[row, rng.permutation(b)[: cfg.k]] = 1
        uniforms[row] = rng.random(n)
    in_a = np.repeat(s, sizes, axis=1) == 1
    p_enc = np.where(in_a, design.probs[0], design.probs[1])
    z = (uniforms < p_enc).astype(np.int8)
    d = np.where(z == 1, pop.d1, pop.d0).astype(np.int8)
    return ExperimentData(sizes=sizes, s=s, z=z, d=d, y=pop.outcomes(d, z), p_enc=p_enc)


def run_design(design: Design, replicate: int = 0) -> ExperimentData:
    """Execute the protocol once: row ``replicate`` of ``draw_validated``."""
    batch = draw_validated(design, replicate, 1)
    return ExperimentData(sizes=batch.sizes, s=batch.s[0], z=batch.z[0], d=batch.d[0],
                          y=batch.y[0], p_enc=batch.p_enc[0])
