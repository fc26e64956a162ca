"""Record population-level `estimands` values for pinned seeds.

    python3 perfbench/record_reference.py

Writes perfbench/reference/estimands.json. The benchmark compares a run
against these values whenever its seed is one of them, within the identity
tolerances; every seed is also checked against the independent oracle in
checks.py. Re-record only when a change to the population generator or the
estimand definitions is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

SEEDS = range(0, 21)


def main() -> int:
    from peerenc import cli

    out = HERE.parent / ".bench_out" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    recorded: dict[str, dict[str, dict[str, float]]] = {}
    for name, w in WORKLOADS.items():
        recorded[name] = {}
        for seed in SEEDS:
            d = out / f"{name}-{seed}"
            sim_cfg, _ = w.write_configs(seed, d)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["generate", "--config", str(sim_cfg), "--out", str(d / "pop.json")])
                cli.main(["estimands", "--config", str(sim_cfg), "--pop", str(d / "pop.json"),
                          "--format", "json", "--out", str(d / "estimands.json")])
            report = json.loads((d / "estimands.json").read_text())
            recorded[name][str(seed)] = {
                k: v["population"] for k, v in sorted(report["entries"].items())
            }
            print(f"{name} seed {seed}: {len(report['entries'])} entries", flush=True)
    target = HERE / "reference" / "estimands.json"
    target.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
