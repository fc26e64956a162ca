"""The benchmark's workloads: fixed shapes whose populations and random
streams come from the seed.

Each workload stresses a different part of peerenc. The program only ever
sees the two config files and the population file written from these
definitions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

MECH_A = ("phi", 0.7)
MECH_B = ("psi", 0.2)
# Replications in the `verify` config; `simulate` uses each workload's own R.
VERIFY_REPLICATIONS = 10

# Coefficients follow the acceptance-8 block template: a strong direct
# effect, a weak peer effect, and per-individual heterogeneity.
_OUTCOME = {
    "intercept": [0.0, 0.2],
    "direct": [4.0, 0.5],
    "peer": [0.3, 0.1],
    "interaction": [0.2, 0.1],
    "curvature": [0.0, 0.02],
    "noise_sd": 0.1,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blocks: int
    block_size: int
    strata: dict
    representation: str
    sim_replications: int
    # Theorem flags whose population-level identity fails by design. Without
    # --expect-fail, `verify` exits 1 exactly when one of them fails.
    verify_failing: frozenset

    @property
    def verify_exit(self) -> int:
        return int(bool(self.verify_failing))

    @property
    def k(self) -> int:
        return self.blocks // 2

    def config(self, seed: int, replications: int) -> dict:
        return {
            "seed": seed,
            "dgp": {
                "blocks": self.blocks,
                "block_size": self.block_size,
                "strata": self.strata,
                "outcome": {"representation": self.representation, **_OUTCOME},
            },
            "mechanisms": [{"name": MECH_A[0], "p": MECH_A[1]},
                           {"name": MECH_B[0], "p": MECH_B[1]}],
            "design": {"mech_a": MECH_A[0], "mech_b": MECH_B[0], "k": self.k},
            "mc": {"replications": replications},
        }

    def write_configs(self, seed: int, directory: Path) -> tuple[Path, Path]:
        """Write the simulate and verify configs; they differ only in R."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for label, r in (("simulate", self.sim_replications),
                         ("verify", VERIFY_REPLICATIONS)):
            path = directory / f"{label}.config.json"
            path.write_text(json.dumps(self.config(seed, r), indent=1) + "\n")
            paths.append(path)
        return tuple(paths)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-small-blocks",
            why="acceptance-8 shape, B=200 blocks of n=4, structural outcomes: the replication "
                "path (streams, design, estimators, montecarlo) takes over half of simulate_s",
            blocks=200,
            block_size=4,
            strata={"always_taker": 0.2, "complier": 0.5, "never_taker": 0.3, "defier": 0.0},
            representation="structural",
            sim_replications=60,
            # always-takers break one-sidedness (thm3) and blocks have unequal
            # uptake, so no population-level identity holds: verify exits 1
            verify_failing=frozenset({"thm1", "thm2", "thm3"}),
        ),
        Workload(
            name="table-enum",
            why="B=12 blocks of n=10 with table outcomes: a 5 MB population file, the "
                "2^(n-1) enumeration route and table lookups in the design",
            blocks=12,
            block_size=10,
            # everyone a complier: equal uptake, so every identity holds exactly
            strata={"always_taker": 0.0, "complier": 1.0, "never_taker": 0.0, "defier": 0.0},
            representation="table",
            sim_replications=40,
            verify_failing=frozenset(),
        ),
    )
}
