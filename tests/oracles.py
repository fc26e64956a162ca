"""Independent oracles: brute-force enumeration over full assignment vectors,
the exact Poisson-binomial distribution of the treated-peer count for
structural outcomes, a naive two-stage (treatment-randomized) evaluator, and
a flat pooled Wald estimator, the sample estimators by per-block loops, and
the replication engine as a loop over replicates and blocks drawing from
numpy's own generators. These deliberately share no code with the
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
    z_row = _row(z_vec) if pop.z_dependent[u] else 0
    return float(pop.tables[i][j, _row(d_vec), z_row])


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
        "lpt0_hat": pitt_0,
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
        "lpt0_hat": pitt_0,
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
