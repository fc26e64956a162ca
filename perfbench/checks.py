"""Output checks that hold for any seed and survive legitimate changes.

* `estimands` values are recomputed here by an independent route (closed-form
  peer-count moments for structural outcomes, a direct 2^n enumeration for
  tables) and compared within the identity tolerances. Where the seed has
  values recorded at the commit that defined the benchmark, those are
  compared too.
* `simulate` is judged statistically: ITT estimators must be unbiased for
  the exact targets, which must equal the `estimands` values.
* `verify` reports must match the workload's declared failing set, with
  each identity's two sides equal to the `estimands` values they assemble.

None of this imports peerenc: the population is read from its JSON file.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import MECH_A, MECH_B, Workload

REL_TOL = 1e-9
ABS_TOL = 1e-12
# |mean - target| / mcse for an unbiased estimator is about |N(0, 1)|;
# with R >= 20 replicates P(> 6) stays below 1e-5 per estimator.
STD_BIAS_MAX = 6.0
ITT_ESTIMATORS = {
    "ditt_hat_a": f"ditt[1,0,mech={MECH_A[0]}]",
    "ditt_hat_b": f"ditt[1,0,mech={MECH_B[0]}]",
    "pitt_hat_1": f"pitt[z=1,{MECH_A[0]},{MECH_B[0]}]",
    "pitt_hat_0": f"pitt[z=0,{MECH_A[0]},{MECH_B[0]}]",
}
REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "estimands.json"


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


# --------------------------------------------------------------------------
# Population and independent estimand oracle
# --------------------------------------------------------------------------


def read_population(path) -> list[dict]:
    """Blocks as arrays: d0, d1, and either structural coefficients or tables."""
    blocks = []
    for raw in json.loads(Path(path).read_text())["blocks"]:
        n = len(raw)
        block = {
            "d0": np.array([r["d0"] for r in raw], dtype=np.int64),
            "d1": np.array([r["d1"] for r in raw], dtype=np.int64),
        }
        kinds = {r["outcome"]["kind"] for r in raw}
        if kinds == {"structural"}:
            block["coef"] = np.array(
                [[r["outcome"][k] for k in ("intercept", "direct", "peer", "interaction",
                                            "curvature", "noise")] for r in raw]
            )
        elif kinds == {"table"}:
            tables = np.empty((n, 2**n))
            for j, r in enumerate(raw):
                for key, v in r["outcome"]["values"].items():
                    tables[j, int(key, 2)] = v
            block["tables"] = tables
        else:
            raise ValueError(f"unsupported outcome kinds {sorted(kinds)}")
        blocks.append(block)
    return blocks


def _effective_uptake(block, p: float) -> np.ndarray:
    d0, d1 = block["d0"], block["d1"]
    return np.where(d0 == d1, d0, np.where(d1 == 1, p, 1.0 - p)).astype(float)


def _structural_means(block, p: float, own_d: np.ndarray) -> np.ndarray:
    """E f_j(own_d_j, K_-j) from the mean and variance of the peer count."""
    q = _effective_uptake(block, p)
    mean_k = q.sum() - q
    var_k = (q * (1.0 - q)).sum() - q * (1.0 - q)
    a, b, c, e, g, noise = block["coef"].T
    return a + b * own_d + (c + e * own_d) * mean_k + g * (var_k + mean_k**2) + noise


def _table_rows(block, p: float):
    """Every encouragement vector z of the block (most significant bit first),
    its probability, the bit weight of each individual, and the packed
    treatment vector d(z) that indexes the tables."""
    n = block["tables"].shape[0]
    weights = 1 << (n - 1 - np.arange(n))
    bits = (np.arange(2**n)[:, None] & weights[None, :]) > 0
    prob = np.prod(np.where(bits, p, 1.0 - p), axis=1)
    packed = np.where(bits, block["d1"], block["d0"]) @ weights
    return bits, prob, weights, packed


def _table_itt(block, p: float, z: int) -> np.ndarray:
    bits, prob, _, packed = _table_rows(block, p)
    vals = block["tables"][:, packed]  # (n, rows): individual j's outcome in each row
    own = bits.T == bool(z)
    return (vals * prob * own).sum(axis=1) / (p if z == 1 else 1.0 - p)


def _table_local(block, p: float, d_own: int) -> np.ndarray:
    _, prob, weights, packed = _table_rows(block, p)
    forced = (packed[None, :] & ~weights[:, None]) | (d_own * weights[:, None])
    vals = np.take_along_axis(block["tables"], forced, axis=1)
    return (vals * prob).sum(axis=1)


def oracle_estimands(blocks: list[dict]) -> dict[str, list[float]]:
    """Per-block values of every estimand family `peerenc estimands` reports
    for an exclusion-compliant population."""
    mechs = (MECH_A, MECH_B)
    pair = f"{MECH_A[0]},{MECH_B[0]}"
    itt = {}
    local = {}
    local_c = {}
    for name, p in mechs:
        for z in (0, 1):
            itt[name, z] = []
            for block in blocks:
                if "coef" in block:
                    v = _structural_means(block, p, block["d1"] if z else block["d0"])
                else:
                    v = _table_itt(block, p, z)
                itt[name, z].append(float(v.mean()))
        for d in (0, 1):
            local[name, d] = []
            local_c[name, d] = []
            for block in blocks:
                if "coef" in block:
                    v = _structural_means(block, p, np.full(block["d0"].size, d))
                else:
                    v = _table_local(block, p, d)
                complier = (block["d0"] == 0) & (block["d1"] == 1)
                local[name, d].append(float(v.mean()))
                local_c[name, d].append(float(v[complier].mean()))
    out = {}

    def diff(x, y):
        return [a - b for a, b in zip(x, y)]

    for name, _ in mechs:
        for z in (0, 1):
            out[f"ybar_itt[z={z},mech={name}]"] = itt[name, z]
        out[f"ditt[1,0,mech={name}]"] = diff(itt[name, 1], itt[name, 0])
        for d in (0, 1):
            out[f"ybar_local[d={d},mech={name}]"] = local[name, d]
            out[f"ybar_local[d={d},mech={name},stratum=complier]"] = local_c[name, d]
        out[f"ldt[1,0,mech={name},stratum=complier]"] = diff(local_c[name, 1], local_c[name, 0])
    a, b = MECH_A[0], MECH_B[0]
    for z in (0, 1):
        out[f"pitt[z={z},{pair}]"] = diff(itt[a, z], itt[b, z])
    for d in (0, 1):
        out[f"lpt_all[d={d},{pair}]"] = diff(local[a, d], local[b, d])
        out[f"lpt[d={d},{pair},stratum=complier]"] = diff(local_c[a, d], local_c[b, d])
    out["et[1,0]"] = [float((blk["d1"] - blk["d0"]).mean()) for blk in blocks]
    return out


# --------------------------------------------------------------------------
# Per-command checks; each returns a list of problems (empty when correct)
# --------------------------------------------------------------------------


def check_estimands(report: dict, blocks: list[dict], workload: str, seed: int) -> list[str]:
    problems = []
    entries = report["entries"]
    expected = oracle_estimands(blocks)
    if set(entries) != set(expected) or report["skipped"]:
        return [f"estimands: entries {sorted(entries)} skipped {report['skipped']}"]
    for key, want in expected.items():
        got = entries[key]["per_block"]
        if len(got) != len(want):
            problems.append(f"estimands {key}: {len(got)} blocks, expected {len(want)}")
            continue
        bad = [i for i, (x, y) in enumerate(zip(got, want)) if not close(x, y)]
        if bad:
            i = bad[0]
            problems.append(f"estimands {key} block {i}: {got[i]!r} vs oracle {want[i]!r}")
        pop = sum(want) / len(want)
        if not close(entries[key]["population"], pop):
            problems.append(f"estimands {key}: population {entries[key]['population']!r} "
                            f"vs oracle {pop!r}")
    recorded = json.loads(REFERENCE_FILE.read_text()).get(workload, {}).get(str(seed))
    for key, want in (recorded or {}).items():
        if key not in entries or not close(entries[key]["population"], want):
            problems.append(f"estimands {key}: differs from the recorded reference {want!r}")
    return problems


def check_simulate(summary: dict, estimands: dict, w: Workload, seed: int) -> list[str]:
    problems = []
    r = w.sim_replications
    if summary["replications"] != r or summary["seed"] != seed:
        problems.append(f"simulate: replications/seed {summary['replications']}/{summary['seed']}")
    rows = {e["name"]: e for e in summary["estimators"]}
    targets = dict(ITT_ESTIMATORS, et_hat="et[1,0]")
    for name, entry in targets.items():
        row = rows.get(name)
        if row is None:
            problems.append(f"simulate: no {name}")
            continue
        want = estimands["entries"][entry]["population"]
        if row["target"] is None or not close(row["target"], want):
            problems.append(f"simulate {name}: target {row['target']!r} vs estimands {want!r}")
        if name in ITT_ESTIMATORS:
            if row["n_defined"] != r:
                problems.append(f"simulate {name}: {row['n_defined']} of {r} defined")
            if row["std_bias"] is None or not row["std_bias"] < STD_BIAS_MAX:
                problems.append(f"simulate {name}: std_bias {row['std_bias']!r} "
                                f">= {STD_BIAS_MAX}")
    return problems


def check_csv(path, blocks: list[dict], w: Workload) -> list[str]:
    """Replicate 0 as CSV: every unit once, K blocks in arm A, D = d_Z."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    sizes = [b["d0"].size for b in blocks]
    if len(rows) != sum(sizes):
        return [f"csv: {len(rows)} rows for {sum(sizes)} units"]
    problems = []
    arm_a = set()
    for row in rows:
        i, j = int(row["block_id"]), int(row["unit_id"])
        z, d = int(row["Z"]), int(row["D"])
        want = blocks[i]["d1"][j] if z else blocks[i]["d0"][j]
        if d != want or not math.isfinite(float(row["Y"])):
            problems.append(f"csv: block {i} unit {j} has D={d} Y={row['Y']} under Z={z}")
            break
        if row["S"] == "1":
            arm_a.add(i)
    if len(arm_a) != w.k:
        problems.append(f"csv: {len(arm_a)} blocks in arm A, design has {w.k}")
    return problems


def check_verify(report: dict, estimands: dict, blocks: list[dict], w: Workload) -> list[str]:
    problems = []
    e = {k: v["population"] for k, v in estimands["entries"].items()}
    a, b = MECH_A[0], MECH_B[0]
    pair = f"{a},{b}"
    uptake = e["et[1,0]"]
    expected_sides = {
        "theorem_1": (e[f"ditt[1,0,mech={a}]"] / uptake,
                      e[f"ldt[1,0,mech={a},stratum=complier]"]),
        "theorem_2": ((e[f"pitt[z=1,{pair}]"] - e[f"pitt[z=0,{pair}]"]) / uptake,
                      e[f"lpt[d=1,{pair},stratum=complier]"]
                      - e[f"lpt[d=0,{pair},stratum=complier]"]),
        "theorem_3[z=0]": (e[f"pitt[z=0,{pair}]"], e[f"lpt_all[d=0,{pair}]"]),
        "theorem_3[z=1]": (e[f"pitt[z=1,{pair}]"], e[f"lpt_all[d=1,{pair}]"]),
    }
    for t in report["theorems"]:
        name, ident = t["name"], t["identity"]
        flag = "thm" + name[8]
        if ident is None:
            problems.append(f"verify {name}: degenerate ({t['error']})")
            continue
        if ident["passed"] == (flag in w.verify_failing):
            problems.append(f"verify {name}: passed={ident['passed']}, workload expects "
                            f"{'failure' if flag in w.verify_failing else 'a pass'}")
        lhs, rhs = expected_sides[name]
        if not (close(ident["lhs"], lhs) and close(ident["rhs"], rhs)):
            problems.append(f"verify {name}: lhs/rhs {ident['lhs']!r}/{ident['rhs']!r} "
                            f"vs estimands {lhs!r}/{rhs!r}")
        # a ratio identity that fails only through aggregation still holds per block
        if not ident["passed"] and flag in ("thm1", "thm2") and not ident["block_identity_ok"]:
            problems.append(f"verify {name}: block-level identity fails")
    names = [t["name"] for t in report["theorems"]]
    all_take = all((blk["d1"] == 1).all() for blk in blocks)
    want = ["theorem_1", "theorem_2", "theorem_3[z=0]"] + (["theorem_3[z=1]"] if all_take else [])
    if names != want:
        problems.append(f"verify: theorems {names}, expected {want}")
    return problems
