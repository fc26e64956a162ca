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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _streams
from .errors import AllBlocksUndefined, InvalidData, InvalidDesign
from .mechanisms import Mechanism, assignment_probs, enumerate_assignments, \
    mechanisms_identical
from .population import Population, pack_rows

CSV_COLUMNS = ("block_id", "S", "unit_id", "Z", "D", "Y")

# Replicates are drawn in batches whose (replicate, individual) arrays take
# at most this many bytes; BYTES_PER_DRAW is the peak a batch allocates per
# (replicate, individual) pair, drawing and estimating included.
BATCH_BYTES = 2 << 20
BYTES_PER_DRAW = 160


@dataclass(frozen=True)
class DesignConfig:
    """Two encouragement mechanisms, an arm size, and the master seed."""

    mech_a: Mechanism
    mech_b: Mechanism
    k: int
    seed: int


def validate_design(cfg: DesignConfig, pop: Population) -> None:
    b = pop.n_blocks
    if not 1 <= cfg.k <= b - 1:
        raise InvalidDesign(f"k={cfg.k} must leave both arms populated (1..{b - 1})")
    sizes = set(pop.sizes)
    for mech in (cfg.mech_a, cfg.mech_b):
        for n in sizes:
            mech.marginals(n)  # ArityMismatch if a vector mechanism cannot cover a block
    if mechanisms_identical(cfg.mech_a, cfg.mech_b, sizes):
        raise InvalidDesign(
            f"mechanisms {cfg.mech_a.name!r} and {cfg.mech_b.name!r} give every individual "
            "identical probabilities; the design needs a contrast"
        )


@dataclass(frozen=True)
class ExperimentData:
    """Realized data from one run: per-block arm flags and per-individual
    encouragement, treatment, outcome, and design encouragement probability.
    A batch of runs (``draw_replicates``) carries a leading replicate axis on
    ``s``, ``z``, ``d``, ``y`` and ``p_enc``; the estimators accept either."""

    sizes: np.ndarray  # (B,) block sizes
    s: np.ndarray  # (B,) 1 where the block got mechanism A
    block_id: np.ndarray  # (N,) owning block per individual
    z: np.ndarray  # (N,) realized encouragements
    d: np.ndarray  # (N,) realized treatments
    y: np.ndarray  # (N,) realized outcomes
    p_enc: np.ndarray  # (N,) design P(Z=1) under the block's assigned mechanism

    def __post_init__(self):
        for arr in (self.sizes, self.s, self.block_id, self.z, self.d, self.y, self.p_enc):
            arr.setflags(write=False)

    @property
    def n_blocks(self) -> int:
        return self.sizes.size

    @cached_property
    def starts(self) -> np.ndarray:
        out = np.concatenate(([0], np.cumsum(self.sizes)))
        out.setflags(write=False)
        return out

    def block_slice(self, i: int) -> slice:
        return slice(int(self.starts[i]), int(self.starts[i + 1]))

    def to_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            starts = self.starts
            for i in range(self.n_blocks):
                for j in range(int(self.sizes[i])):
                    u = int(starts[i]) + j
                    writer.writerow(
                        [i, int(self.s[i]), j, int(self.z[u]), int(self.d[u]), repr(float(self.y[u]))]
                    )

    @staticmethod
    def from_csv(path, mech_a: Mechanism, mech_b: Mechanism) -> "ExperimentData":
        """Ingest externally collected data; the mechanisms supply the design
        probabilities that the inverse-probability estimators require.
        Raises InvalidData unless the file holds one complete run."""
        try:
            rows = _read_csv_rows(path)
        except UnicodeDecodeError as exc:
            raise InvalidData(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
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
        block_id = np.array([r[0] for r in rows], dtype=int)
        p_enc = np.empty(len(rows))
        starts = np.concatenate(([0], np.cumsum(sizes)))
        for i in range(n_blocks):
            mech = mech_a if s[i] == 1 else mech_b
            p_enc[starts[i]:starts[i + 1]] = mech.marginals(int(sizes[i]))
        return ExperimentData(
            sizes=sizes, s=s, block_id=block_id, z=z, d=d, y=y, p_enc=p_enc
        )


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
            try:
                rec = (int(row["block_id"]), int(row["S"]), int(row["unit_id"]),
                       int(row["Z"]), int(row["D"]), float(row["Y"]))
            except (TypeError, ValueError) as exc:
                raise InvalidData(f"{where}: {exc}") from None
            for name, v in zip(("S", "Z", "D"), (rec[1], rec[3], rec[4])):
                if v not in (0, 1):
                    raise InvalidData(f"{where}: {name}={v} is not 0 or 1")
            if not np.isfinite(rec[5]):
                raise InvalidData(f"{where}: Y={rec[5]!r} is not finite")
            rows.append(rec)
    return rows


def _unit_marginals(mech: Mechanism, sizes) -> np.ndarray:
    """The mechanism's encouragement probability of every individual."""
    by_size = {n: mech.marginals(n) for n in set(sizes)}
    return np.concatenate([by_size[n] for n in sizes])


def batch_size(pop: Population) -> int:
    """Replicates per call of ``draw_replicates`` that keep a batch's
    (replicate, individual) arrays within BATCH_BYTES."""
    return max(1, BATCH_BYTES // (BYTES_PER_DRAW * pop.n_individuals))


def draw_replicates(pop: Population, cfg: DesignConfig, first: int, count: int) -> ExperimentData:
    """Execute the protocol for replicates first .. first + count - 1 at once.

    The result carries a leading replicate axis on ``s`` (R, B) and on ``z``,
    ``d``, ``y`` and ``p_enc`` (R, N); its row r is the run of replicate
    first + r, a deterministic function of (pop, cfg, first + r) alone: the
    arm assignment and then every individual's encouragement uniform come
    from the replicate's own stream (see ``_streams``).
    """
    validate_design(cfg, pop)
    if first < 0 or count < 0:
        raise InvalidDesign(f"replicate indices {first}..{first + count - 1} must be non-negative")
    b, n = pop.n_blocks, pop.n_individuals
    sizes = np.diff(pop.starts)
    s = np.zeros((count, b), dtype=np.int8)
    uniforms = np.empty((count, n))
    for row, r in enumerate(range(first, first + count)):
        rng = _streams.stream(cfg.seed, _streams.REPLICATE, r)
        s[row, rng.permutation(b)[: cfg.k]] = 1
        uniforms[row] = rng.random(n)
    in_a = np.repeat(s, sizes, axis=1) == 1
    p_enc = np.where(in_a, _unit_marginals(cfg.mech_a, pop.sizes),
                     _unit_marginals(cfg.mech_b, pop.sizes))
    z = (uniforms < p_enc).astype(np.int8)
    d = np.where(z == 1, pop.d1, pop.d0).astype(np.int8)
    return ExperimentData(sizes=sizes, s=s, block_id=np.repeat(np.arange(b), sizes),
                          z=z, d=d, y=pop.outcomes(d, z), p_enc=p_enc)


def run_design(pop: Population, cfg: DesignConfig, replicate: int = 0) -> ExperimentData:
    """Execute the protocol once: row ``replicate`` of ``draw_replicates``."""
    batch = draw_replicates(pop, cfg, replicate, 1)
    return ExperimentData(sizes=batch.sizes, s=batch.s[0], block_id=batch.block_id,
                          z=batch.z[0], d=batch.d[0], y=batch.y[0], p_enc=batch.p_enc[0])


@dataclass(frozen=True)
class FrequencyReport:
    """Empirical assignment-vector frequencies for one mechanism arm."""

    mechanism: str
    runs: int
    counts: dict[tuple[int, ...], int]
    expected: dict[tuple[int, ...], float]
    chi_square: float
    dof: int

    @property
    def frequencies(self) -> dict[tuple[int, ...], float]:
        return {k: v / self.runs for k, v in self.counts.items()}


def design_prob_check(
    cfg: DesignConfig, pop: Population, replications: int, block: int = 0
) -> tuple[FrequencyReport, FrequencyReport]:
    """Compare one block's realized encouragement-vector frequencies against
    the exact product law, conditioning on the mechanism the block received.

    Each replicate's arm flag and draw are read from draw_replicates, so
    this checks the real protocol. The block must be small enough (n <= 6) for
    the exact comparison to have adequately filled cells.
    """
    n = pop.sizes[block]
    if n > 6:
        raise InvalidDesign(f"exact frequency check needs a small block (n <= 6), got {n}")
    validate_design(cfg, pop)
    members = slice(int(pop.starts[block]), int(pop.starts[block + 1]))
    counts = np.zeros((2, 2**n), dtype=np.int64)  # arm b, arm a
    step = batch_size(pop)
    for first in range(0, replications, step):
        data = draw_replicates(pop, cfg, first, min(step, replications - first))
        np.add.at(counts, (data.s[:, block], pack_rows(data.z[:, members])), 1)
    vectors = [tuple(int(x) for x in row) for row in enumerate_assignments(n)]

    reports = []
    for arm, mech in ((1, cfg.mech_a), (0, cfg.mech_b)):
        probs = assignment_probs(mech, n)
        expected = {vec: float(p) for vec, p in zip(vectors, probs)}
        observed = dict(zip(vectors, counts[arm].tolist()))
        total = int(counts[arm].sum())
        if total == 0:
            raise AllBlocksUndefined(f"block {block} never received mechanism {mech.name!r}")
        stat = sum(
            (observed[vec] - total * expected[vec]) ** 2 / (total * expected[vec])
            for vec in vectors
        )
        reports.append(
            FrequencyReport(
                mechanism=mech.name,
                runs=total,
                counts=observed,
                expected=expected,
                chi_square=float(stat),
                dof=len(vectors) - 1,
            )
        )
    return tuple(reports)
