"""Independent oracles: brute-force enumeration over full assignment vectors
and their product-law probabilities,
the exact Poisson-binomial distribution of the treated-peer count for
structural outcomes, a naive two-stage (treatment-randomized) evaluator, and
a flat pooled Wald estimator, the sample estimators by per-block loops,
the replication engine as a loop over replicates and blocks drawing from
numpy's own generators, the design's exact randomization distribution, the
synthetic population build as a scalar draw loop, structural outcomes
re-encoded as tables entry by entry, the table entries the exact kernel
reads counted member by member, the exact kernel's member averages block by
block in float arithmetic, and the population file's document built
individual by individual. These deliberately share no code with the
production engine."""

from __future__ import annotations

import itertools

import numpy as np

from peerenc.population import ComplianceType, Population

_STRATUM = {
    (1, 1): ComplianceType.ALWAYS_TAKER,
    (0, 1): ComplianceType.COMPLIER,
    (0, 0): ComplianceType.NEVER_TAKER,
    (1, 0): ComplianceType.DEFIER,
}


def _row(bits) -> int:
    """Table row of a binary vector: its bits read most significant first."""
    return int("".join(str(int(b)) for b in bits), 2)


def pack_rows(bits) -> np.ndarray:
    """Table rows of binary vectors along the last axis, as ``_row`` reads
    one: bits most significant first."""
    bits = np.asarray(bits, dtype=np.int64)
    return (bits << np.arange(bits.shape[-1] - 1, -1, -1)).sum(axis=-1)


def assignment_probs(mech, n: int) -> np.ndarray:
    """Probability of each of the 2^n encouragement vectors of a size-n block
    under mech: entry r is the vector of table row r."""
    rows = np.arange(2**n)
    p = mech.marginals(n)
    w = np.ones(rows.size)
    for j in range(n):
        w *= np.where((rows >> (n - 1 - j)) & 1, p[j], 1.0 - p[j])
    return w


def _pt(pop: Population, i: int, j: int) -> tuple[int, int]:
    """Potential treatments (d0, d1) of individual (i, j)."""
    u = int(pop.starts[i]) + j
    return int(pop.d0[u]), int(pop.d1[u])


def _take(pop: Population, i: int, j: int, z: int) -> int:
    return _pt(pop, i, j)[z]


def _structural(pop: Population, i: int, j: int, own: int, k: int) -> float:
    """Structural outcome of individual (i, j), from its coefficient column."""
    intercept, direct, peer, interaction, curvature, noise = \
        pop.coef[:, int(pop.starts[i]) + j].tolist()
    return (intercept + direct * own + peer * k + interaction * own * k
            + curvature * k * k + noise)


def oracle_outcome(pop: Population, i: int, j: int, d_vec, z_vec=None) -> float:
    """Potential outcome of individual (i, j), read from its own entries."""
    u = int(pop.starts[i]) + j
    if pop.structural[u]:
        own = int(d_vec[j])
        return _structural(pop, i, j, own, sum(int(b) for b in d_vec) - own)
    # a member's entries: 2^n treatment rows, or 2^n encouragement rows each
    n = len(d_vec)
    rows = pop.table[pop.table_start[u]:pop.table_start[u + 1]]
    if pop.z_dependent[u]:
        return float(rows[_row(d_vec) * 2**n + _row(z_vec)])
    return float(rows[_row(d_vec)])


def _full_weight(z_vec, marginals, skip=None) -> float:
    w = 1.0
    for k, z in enumerate(z_vec):
        if k == skip:
            continue
        w *= marginals[k] if z else 1.0 - marginals[k]
    return w


def oracle_ybar_itt(pop: Population, i: int, j: int, z: int, mech) -> float:
    """Enumerate all full assignment vectors, filter on own encouragement."""
    n = pop.sizes[i]
    marg = mech.marginals(n)
    total = 0.0
    for z_vec in itertools.product((0, 1), repeat=n):
        if z_vec[j] != z:
            continue
        d_vec = [_take(pop, i, k, z_vec[k]) for k in range(n)]
        total += _full_weight(z_vec, marg, skip=j) * oracle_outcome(pop, i, j, d_vec, z_vec)
    return total


def oracle_ybar_local(pop: Population, i: int, j: int, d: int, mech) -> float:
    """Enumerate all full assignment vectors (own encouragement marginalized),
    pin own treatment, peers natural."""
    n = pop.sizes[i]
    marg = mech.marginals(n)
    total = 0.0
    for z_vec in itertools.product((0, 1), repeat=n):
        d_vec = [_take(pop, i, k, z_vec[k]) for k in range(n)]
        d_vec[j] = d
        total += _full_weight(z_vec, marg) * oracle_outcome(pop, i, j, d_vec, z_vec)
    return total


def poisson_binomial_pmf(probs) -> np.ndarray:
    """Exact pmf of a sum of independent non-identical Bernoullis (O(n^2) DP)."""
    probs = np.asarray(probs, dtype=float)
    pmf = np.zeros(probs.size + 1)
    pmf[0] = 1.0
    for q in probs:
        pmf[1:] = pmf[1:] * (1.0 - q) + pmf[:-1] * q
        pmf[0] *= 1.0 - q
    return pmf


def convolution_ybar_local(pop: Population, i: int, j: int, d: int, mech) -> float:
    """Structural outcome averaged over the exact distribution of the
    treated-peer count, own treatment pinned at d. Reaches blocks far beyond
    enumeration; the intent-to-treat average at z is this at d = d_z."""
    n = pop.sizes[i]
    marg = mech.marginals(n)
    probs = []
    for k in range(n):
        if k == j:
            continue
        d0, d1 = _pt(pop, i, k)
        probs.append(float(d0) if d0 == d1 else marg[k] if d1 == 1 else 1.0 - marg[k])
    pmf = poisson_binomial_pmf(probs)
    return sum(float(w) * _structural(pop, i, j, d, k) for k, w in enumerate(pmf))


def _halved(entries: list, ones: list) -> float:
    """Average entries (2^n, first axis most significant) over independent
    bits, bit k 1 with probability ones[k]: one axis at a time, the low half
    weighted by 1 - ones[k] plus the high half by ones[k], entry by entry."""
    for w in ones:
        half = len(entries) // 2
        entries = [a * (1.0 - w) + b * w for a, b in zip(entries[:half], entries[half:])]
    return entries[0]


def reference_member_averages(pop: Population, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Every individual's (itt, local) averages, (2, N) each, under the
    scalar encouragement probability p, block by block and member by member
    in float arithmetic. Each peer is treated with its uptake probability q.
    A structural member takes the moments of its treated-peer count from the
    block's sums of q and q(1-q), in the kernel's reduceat order; a table
    member is contracted axis by axis, in the kernel's order."""
    d0, d1 = pop.d0.tolist(), pop.d1.tolist()
    itt, local = np.empty((2, len(d0))), np.empty((2, len(d0)))
    for lo, hi in zip(pop.starts[:-1].tolist(), pop.starts[1:].tolist()):
        n = hi - lo
        q = [float(d0[u]) if d0[u] == d1[u] else p if d1[u] else 1.0 - p for u in range(lo, hi)]
        # reduceat sums a segment as its first term plus the rest, not as sum() does
        total, spread = (float(np.add.reduceat(np.array(x), [0])[0])
                         for x in (q, [x * (1.0 - x) for x in q]))
        for j, u in enumerate(range(lo, hi)):
            takes = (d0[u], d1[u])  # the own treatment at own encouragement 0, 1
            if pop.structural[u]:
                c0, c_dir, c_peer, c_inter, c_curv, c_noise = pop.coef[:, u].tolist()
                mean, var = total - q[j], spread - q[j] * (1.0 - q[j])
                for d in (0, 1):
                    local[d, u] = (c0 + c_dir * d + (c_peer + c_inter * d) * mean
                                   + c_curv * (var + mean * mean) + c_noise)
                itt[:, u] = local[takes, u]
                continue
            entries = pop.table[pop.table_start[u]:pop.table_start[u + 1]].tolist()
            if not pop.z_dependent[u]:
                for v in (0, 1):
                    local[v, u] = _halved(entries, [float(v) if k == j else q[k] for k in range(n)])
                itt[:, u] = local[takes, u]
                continue
            for v in (0, 1):
                # encouragement row z: each peer takes its treatment at its own
                # z bit, the member itself takes v
                at_v = []
                for z in range(2**n):
                    row = 0
                    for k in range(n):
                        took = (d1 if (z >> (n - 1 - k)) & 1 else d0)[lo + k]
                        row = row << 1 | (v if k == j else took)
                    at_v.append(entries[row * 2**n + z])
                local[v, u] = _halved(at_v, [p] * n)
                for z in (0, 1):
                    if takes[z] == v:
                        itt[z, u] = _halved(at_v, [float(z) if k == j else p for k in range(n)])
    return itt, local


def _block_mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def oracle_ditt(pop, mech):
    per_block = [
        _block_mean(
            oracle_ybar_itt(pop, i, j, 1, mech) - oracle_ybar_itt(pop, i, j, 0, mech)
            for j in range(n)
        )
        for i, n in enumerate(pop.sizes)
    ]
    return per_block, _block_mean(per_block)


def oracle_pitt(pop, z, mech_a, mech_b):
    per_block = [
        _block_mean(
            oracle_ybar_itt(pop, i, j, z, mech_a) - oracle_ybar_itt(pop, i, j, z, mech_b)
            for j in range(n)
        )
        for i, n in enumerate(pop.sizes)
    ]
    return per_block, _block_mean(per_block)


def oracle_et(pop):
    per_block = [
        _block_mean(_pt(pop, i, j)[1] - _pt(pop, i, j)[0] for j in range(n))
        for i, n in enumerate(pop.sizes)
    ]
    return per_block, _block_mean(per_block)


def _members(pop, i, stratum):
    if stratum is None:
        return list(range(pop.sizes[i]))
    return [j for j in range(pop.sizes[i]) if _STRATUM[_pt(pop, i, j)] is stratum]


def oracle_ldt(pop, mech, stratum=ComplianceType.COMPLIER):
    per_block = []
    for i in range(pop.n_blocks):
        members = _members(pop, i, stratum)
        per_block.append(
            _block_mean(
                oracle_ybar_local(pop, i, j, 1, mech) - oracle_ybar_local(pop, i, j, 0, mech)
                for j in members
            )
        )
    return per_block, _block_mean(per_block)


def oracle_lpt(pop, d, mech_a, mech_b, stratum=None):
    per_block = []
    for i in range(pop.n_blocks):
        members = _members(pop, i, stratum)
        per_block.append(
            _block_mean(
                oracle_ybar_local(pop, i, j, d, mech_a) - oracle_ybar_local(pop, i, j, d, mech_b)
                for j in members
            )
        )
    return per_block, _block_mean(per_block)


def oracle_theorem_gaps(pop, mech_a, mech_b):
    """Population-level theorem-1/2 gaps, entirely via enumeration."""
    _, ditt_pop = oracle_ditt(pop, mech_a)
    _, et_pop = oracle_et(pop)
    _, ldt_pop = oracle_ldt(pop, mech_a)
    gap1 = ditt_pop / et_pop - ldt_pop
    _, p1 = oracle_pitt(pop, 1, mech_a, mech_b)
    _, p0 = oracle_pitt(pop, 0, mech_a, mech_b)
    _, l1 = oracle_lpt(pop, 1, mech_a, mech_b, ComplianceType.COMPLIER)
    _, l0 = oracle_lpt(pop, 0, mech_a, mech_b, ComplianceType.COMPLIER)
    gap2 = (p1 - p0) / et_pop - (l1 - l0)
    return gap1, gap2


def naive_two_stage_direct(pop, mech):
    """Direct contrast when the *treatment itself* is Bernoulli-randomized
    with the mechanism's probabilities (meaningful contrast for all-complier
    populations, where encouragement and treatment coincide)."""
    per_block = []
    for i, n in enumerate(pop.sizes):
        marg = mech.marginals(n)
        vals = []
        for j in range(n):
            avg = {0: 0.0, 1: 0.0}
            for d_vec in itertools.product((0, 1), repeat=n):
                if d_vec[j] != 0:  # peers enumerated once; own slot overwritten
                    continue
                w = _full_weight(d_vec, marg, skip=j)
                for own in (0, 1):
                    dv = list(d_vec)
                    dv[j] = own
                    avg[own] += w * oracle_outcome(pop, i, j, dv)
            vals.append(avg[1] - avg[0])
        per_block.append(_block_mean(vals))
    return _block_mean(per_block)


def naive_two_stage_spillover(pop, d, mech_a, mech_b):
    """Spillover contrast under direct Bernoulli treatment randomization."""
    per_block = []
    for i, n in enumerate(pop.sizes):
        vals = []
        for j in range(n):
            avgs = []
            for mech in (mech_a, mech_b):
                marg = mech.marginals(n)
                total = 0.0
                for d_vec in itertools.product((0, 1), repeat=n):
                    if d_vec[j] != 0:  # peers enumerated once; own slot overwritten
                        continue
                    w = _full_weight(d_vec, marg, skip=j)
                    dv = list(d_vec)
                    dv[j] = d
                    total += w * oracle_outcome(pop, i, j, dv)
                avgs.append(total)
            vals.append(avgs[0] - avgs[1])
        per_block.append(_block_mean(vals))
    return _block_mean(per_block)


def pooled_wald(y, z, d, p_enc) -> float:
    """Classic two-sample Wald ratio on pooled unit records: an
    inverse-probability outcome contrast over a realized-mean uptake
    contrast, with no block structure."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z)
    d = np.asarray(d, dtype=float)
    p = np.asarray(p_enc, dtype=float)
    n = y.size
    itt = float(np.sum(y * (z == 1) / p) / n - np.sum(y * (z == 0) / (1.0 - p)) / n)
    uptake = float(d[z == 1].mean() - d[z == 0].mean())
    return itt / uptake


def oracle_estimator_battery(sizes, s, z, d, y, p_enc) -> dict[str, float]:
    """Every sample estimator by per-block Python loops over plain floats:
    inverse-probability block means averaged within each arm, the per-block
    ratio-of-means uptake contrast pooled over the blocks that realized both
    encouragement values, and NaN for a ratio whose uptake is undefined or
    numerically zero."""
    bounds, lo = [], 0
    for n in sizes:
        bounds.append((lo, lo + int(n)))
        lo += int(n)
    block_means = {(z_val, arm): [] for z_val in (0, 1) for arm in (0, 1)}
    uptakes = []
    for (lo, hi), arm in zip(bounds, s):
        n = hi - lo
        for z_val in (0, 1):
            total = 0.0
            for u in range(lo, hi):
                if z[u] == z_val:
                    total += y[u] / (p_enc[u] if z_val == 1 else 1.0 - p_enc[u])
            block_means[(z_val, int(arm))].append(total / n)
        treated = {0: [], 1: []}
        for u in range(lo, hi):
            treated[int(z[u])].append(float(d[u]))
        if treated[0] and treated[1]:
            uptakes.append(sum(treated[1]) / len(treated[1]) - sum(treated[0]) / len(treated[0]))
    mean = {key: sum(v) / len(v) for key, v in block_means.items()}
    ditt_a = mean[(1, 1)] - mean[(0, 1)]
    pitt_1 = mean[(1, 1)] - mean[(1, 0)]
    pitt_0 = mean[(0, 1)] - mean[(0, 0)]
    uptake = sum(uptakes) / len(uptakes) if uptakes else float("nan")
    ratio_ok = uptakes and abs(uptake) >= 1e-12
    return {
        "ditt_hat_a": ditt_a,
        "ditt_hat_b": mean[(1, 0)] - mean[(0, 0)],
        "pitt_hat_1": pitt_1,
        "pitt_hat_0": pitt_0,
        "et_hat": uptake,
        "ldt_hat": ditt_a / uptake if ratio_ok else float("nan"),
        "lpt_diff_hat": (pitt_1 - pitt_0) / uptake if ratio_ok else float("nan"),
    }


def _replicate_stream(seed: int, r: int) -> np.random.Generator:
    """Stream layout v2: replicate r's one numpy generator."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1, r))))


def _unit_probs(mech, n: int) -> list[float]:
    return [mech.probs] * n if isinstance(mech.probs, float) else list(mech.probs)


def reference_replicate(pop: Population, cfg, r: int) -> dict[str, np.ndarray]:
    """Replicate r of the protocol as a per-individual loop over numpy's own
    generator for stream (seed; 1, r): the arm permutation first, then one
    uniform per individual in block order, outcomes read entry by entry
    (oracle_outcome)."""
    b, sizes = pop.n_blocks, pop.sizes
    rng = _replicate_stream(cfg.seed, r)
    s = np.zeros(b, dtype=np.int8)
    s[rng.permutation(b)[: cfg.k]] = 1
    uniforms = rng.random(sum(sizes))
    p_enc = []
    for i, n in enumerate(sizes):
        p_enc.extend(_unit_probs(cfg.mech_a if s[i] else cfg.mech_b, n))
    z = [int(uniforms[u] < p_enc[u]) for u in range(len(uniforms))]
    d = [int(pop.d1[u] if z[u] else pop.d0[u]) for u in range(len(z))]
    y = []
    for i in range(b):
        lo, hi = int(pop.starts[i]), int(pop.starts[i + 1])
        y.extend(oracle_outcome(pop, i, j, d[lo:hi], z[lo:hi]) for j in range(hi - lo))
    return {"sizes": np.array(sizes), "s": s, "z": np.array(z), "d": np.array(d),
            "y": np.array(y), "p_enc": np.array(p_enc)}


def exact_design_distribution(pop: Population, mech_a, mech_b, k: int):
    """Every realization of the two-stage design with its probability, as
    (probability, oracle_estimator_battery) pairs: each of the C(B, k) arm
    subsets is equally likely, and then each of the 2^N encouragement vectors
    has the product of its units' probabilities under the assigned
    mechanism. Outcomes are read entry by entry (oracle_outcome)."""
    b, sizes = pop.n_blocks, [int(n) for n in pop.sizes]
    starts = [0, *itertools.accumulate(sizes)]
    subsets = list(itertools.combinations(range(b), k))
    for arm_a in subsets:
        s = [int(i in arm_a) for i in range(b)]
        p_enc = [p for i, n in enumerate(sizes)
                 for p in _unit_probs(mech_a if s[i] else mech_b, n)]
        for z in itertools.product((0, 1), repeat=len(p_enc)):
            weight = 1.0 / len(subsets)
            for zu, p in zip(z, p_enc):
                weight *= p if zu else 1.0 - p
            d = [int(pop.d1[u] if zu else pop.d0[u]) for u, zu in enumerate(z)]
            y = [oracle_outcome(pop, i, j, d[lo:hi], z[lo:hi])
                 for i, (lo, hi) in enumerate(zip(starts, starts[1:])) for j in range(hi - lo)]
            yield weight, oracle_estimator_battery(sizes, s, z, d, y, p_enc)


def reference_battery(sizes, s, z, d, y, p_enc) -> dict[str, float]:
    """Every estimator on one realization with numpy reductions over one
    vector at a time: each arm's block means gathered by a boolean mask and
    averaged by np.mean, the uptake pooled by np.nanmean. Bit for bit what a
    batched kernel must return for each of its rows."""
    starts = np.concatenate(([0], np.cumsum(sizes)))
    z0, z1 = z == 0, z == 1
    sums = np.add.reduceat(
        np.stack([y * z0 / (1.0 - p_enc), y * z1 / p_enc, z0, z1, d * z0, d * z1]),
        starts[:-1], axis=1,
    )
    means = sums[:2] / sizes
    count, treated = sums[2:4], sums[4:]
    defined = (count > 0).all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = treated / count
    uptakes = np.where(defined, rates[1] - rates[0], np.nan)
    uptake = float(np.nanmean(uptakes)) if defined.any() else float("nan")
    arm = {1: s == 1, 0: s == 0}
    mean = {(zv, a): float(means[zv, arm[a]].mean()) for zv in (0, 1) for a in (0, 1)}
    ditt_a = mean[(1, 1)] - mean[(0, 1)]
    pitt_1 = mean[(1, 1)] - mean[(1, 0)]
    pitt_0 = mean[(0, 1)] - mean[(0, 0)]
    ratio_ok = abs(uptake) >= 1e-12
    return {
        "ditt_hat_a": ditt_a,
        "ditt_hat_b": mean[(1, 0)] - mean[(0, 0)],
        "pitt_hat_1": pitt_1,
        "pitt_hat_0": pitt_0,
        "et_hat": uptake,
        "ldt_hat": ditt_a / uptake if ratio_ok else float("nan"),
        "lpt_diff_hat": (pitt_1 - pitt_0) / uptake if ratio_ok else float("nan"),
    }


def reference_replicate_values(pop: Population, cfg, names, replications: int,
                               first: int = 0) -> np.ndarray:
    """The replication engine as a loop over replicates: one row of
    estimator values per replicate, columns in ``names`` order."""
    rows = []
    for r in range(first, first + replications):
        battery = reference_battery(**reference_replicate(pop, cfg, r))
        rows.append([battery[name] for name in names])
    return np.array(rows, dtype=float).reshape(replications, len(names))


# Stratum codes as drawn: always-taker, complier, never-taker, defier.
_PT_BY_CODE = ((1, 1), (0, 1), (0, 0), (1, 0))
_DRAWN = ("intercept", "direct", "peer", "interaction", "curvature")


def _reference_tables(coef: list, z_own: float, z_peer: float) -> list[float]:
    """A block's table entries entry by entry from its members' coefficient
    rows, member after member: the structural formula at each d row, plus
    the encouragement terms at each z row (d-major) when z_own or z_peer is
    nonzero."""
    n = len(coef)
    keyed = z_own != 0.0 or z_peer != 0.0
    bits = [[(r >> (n - 1 - m)) & 1 for m in range(n)] for r in range(2**n)]
    entries = []
    for j, (intercept, direct, peer, interaction, curvature, noise) in enumerate(coef):
        for row in bits:
            own = float(row[j])
            k = float(sum(row)) - own
            base = (intercept + direct * own + (peer + interaction * own) * k
                    + curvature * k * k + noise)
            if not keyed:
                entries.append(base)
                continue
            for zrow in bits:
                z = float(zrow[j])
                entries.append(base + (z_own * z + z_peer * (float(sum(zrow)) - z)))
    return entries


def convert_to_tables(pop: Population) -> Population:
    """The same population with every structural outcome re-encoded as an
    explicit table (entry by entry, as ``_reference_tables`` writes them);
    table members keep their entries."""
    table = []
    for lo, hi in zip(pop.starts[:-1].tolist(), pop.starts[1:].tolist()):
        rows = 2 ** (hi - lo)
        entries = _reference_tables(pop.coef[:, lo:hi].T.tolist(), 0.0, 0.0)
        for j, u in enumerate(range(lo, hi)):
            table.extend(entries[j * rows:(j + 1) * rows] if pop.structural[u] else
                         pop.table[pop.table_start[u]:pop.table_start[u + 1]].tolist())
    return Population(starts=pop.starts, d0=pop.d0, d1=pop.d1,
                      structural=np.zeros_like(pop.structural), z_dependent=pop.z_dependent,
                      coef=np.zeros_like(pop.coef), table=np.array(table, dtype=float))


def oracle_entries_read(pop: Population) -> list[int]:
    """The table entries the exact kernel reads in each block, counted member
    by member: a structural member none, a plain table member its 2^n
    treatment rows, an encouragement-keyed member the 2^n encouragement rows
    at each of its two forced own treatments (2 of its 4^n entries per row)."""
    counts = []
    for i, n in enumerate(pop.sizes):
        count = 0
        for u in range(int(pop.starts[i]), int(pop.starts[i + 1])):
            if not pop.structural[u]:
                count += 2 * 2**n if pop.z_dependent[u] else 2**n
        counts.append(count)
    return counts


def reference_build_population(cfg, rng: np.random.Generator) -> Population:
    """The synthetic population as a scalar loop: the block sizes, then per
    block its strata (rng.choice), member by member its noise and each
    (mean, sd) coefficient (one rng.normal call each) and, under "mixed",
    the representation coin."""
    oc = cfg.outcome
    probs = np.asarray(cfg.strata, dtype=float)
    probs = probs / probs.sum()
    if isinstance(cfg.block_size, tuple):
        sizes = rng.integers(cfg.block_size[0], cfg.block_size[1] + 1, size=cfg.blocks).tolist()
    else:
        sizes = [cfg.block_size] * cfg.blocks
    d0, d1, coef, structural, table = [], [], [], [], []
    for n in sizes:
        for _ in range(100):
            codes = rng.choice(4, size=n, p=probs)
            if not cfg.complier_floor or (codes == 1).any():
                break
        else:
            codes = rng.choice(4, size=n, p=probs)
            codes[rng.integers(n)] = 1
        block = []
        for _ in range(n):
            noise = float(rng.normal(0.0, oc.noise_sd)) if oc.noise_sd > 0 else 0.0
            specs = [getattr(oc, name) for name in _DRAWN]
            block.append([float(rng.normal(*spec)) if isinstance(spec, tuple) else float(spec)
                          for spec in specs] + [noise])
        as_table = oc.representation == "table" or (
            oc.representation == "mixed" and bool(rng.random() < 0.5))
        d0.extend(_PT_BY_CODE[c][0] for c in codes)
        d1.extend(_PT_BY_CODE[c][1] for c in codes)
        table.extend(_reference_tables(block, oc.z_own, oc.z_peer) if as_table else [])
        coef.extend([[0.0] * 6] * n if as_table else block)
        structural.extend([not as_table] * n)
    exclusion_ok = oc.z_own == 0.0 and oc.z_peer == 0.0
    return Population(starts=np.cumsum([0, *sizes]), d0=d0, d1=d1, structural=structural,
                      z_dependent=[not s and not exclusion_ok for s in structural],
                      coef=np.array(coef).T, table=np.array(table, dtype=float))


def population_to_dict(pop: Population) -> dict:
    """The population file's document, the spec ``save_population`` writes
    as ``json.dumps(doc, sort_keys=True, indent=1)`` and a newline: per
    block a list of individuals, each with "d0", "d1" and an "outcome". A
    structural outcome holds its six coefficients by name; a table outcome
    its kind, its size and "values", which maps each row key to its entry in
    row order: the row's bits, most significant member first, or "d|z"
    (treatment-major) when encouragement-keyed."""
    names = ("intercept", "direct", "peer", "interaction", "curvature", "noise")
    blocks = []
    for lo, hi in zip(pop.starts[:-1].tolist(), pop.starts[1:].tolist()):
        n, block = hi - lo, []
        for u in range(lo, hi):
            if pop.structural[u]:
                outcome = {"kind": "structural", **dict(zip(names, pop.coef[:, u].tolist()))}
            else:
                keyed = bool(pop.z_dependent[u])
                rows = [format(r, f"0{n}b") for r in range(2**n)]
                keys = [f"{d}|{z}" for d in rows for z in rows] if keyed else rows
                entries = pop.table[pop.table_start[u]:pop.table_start[u + 1]].tolist()
                outcome = {"kind": "table_z" if keyed else "table", "size": n,
                           "values": dict(zip(keys, entries, strict=True))}
            block.append({"d0": int(pop.d0[u]), "d1": int(pop.d1[u]), "outcome": outcome})
        blocks.append(block)
    flags = {"monotone": pop.monotone, "one_sided": pop.one_sided,
             "exclusion_ok": pop.exclusion_ok}
    return {"flags": flags, "blocks": blocks}
