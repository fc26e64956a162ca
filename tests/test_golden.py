"""Golden output digests: the SHA-256 of every file the CLI writes, for two
fixed configs at fixed seeds.

The README walkthrough config exercises the closed-form moment route, and a
small all-table config the table contraction. A change that moves any output
byte (a population file, a report, a realized-data CSV or a ``verify`` exit
code) fails here; a refactor that claims to keep the outputs must pass
unedited. Regenerate the digests only for a deliberate output change, and say
so where the change is described. The digests also hold under every OpenBLAS
kernel the CPU can run: no output byte depends on the BLAS numpy links."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

from peerenc.cli import main

ROOT = Path(__file__).resolve().parent.parent
# the config of the README's CLI walkthrough, as the CI step reads it
_WALKTHROUGH = json.loads(re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(),
                                    re.S).group(1))

_TABLE = {
    "seed": 31,
    "dgp": {
        "blocks": 6,
        "block_size": [3, 5],
        "strata": {"always_taker": 0.0, "complier": 1.0, "never_taker": 0.0, "defier": 0.0},
        "outcome": {
            "representation": "table",
            "intercept": [0.0, 0.2],
            "direct": [4.0, 0.5],
            "peer": [0.3, 0.1],
            "interaction": [0.2, 0.1],
            "curvature": [0.0, 0.02],
            "noise_sd": 0.1,
        },
    },
    "mechanisms": [{"name": "phi", "p": 0.7}, {"name": "psi", "p": 0.2}],
    "design": {"mech_a": "phi", "mech_b": "psi", "k": 3},
    "mc": {"replications": 200},
}

CONFIGS = {"walkthrough": _WALKTHROUGH, "table": _TABLE}

# name -> file -> sha256 hex digest, plus "verify_exit" -> the exit code
DIGESTS = {
    "table": {
        "data.csv": "d75cc0d3acc5243a21876c7dd15c910760812638c0b3358bdb4a932ad305422b",
        "estimands.csv": "c0a1d74d6a1602f8e5e2838546dd396201e924f1a632e1e21caadebe5eea3f59",
        "estimands.json": "140bb09e577172d6144fa7f82bcca57027f8d1f6ef8371993381a34c9867f877",
        "estimands.txt": "1d4f0e7f6e8a33cb9ae0effab739799ffa08b76920872601363b36abf4599b1b",
        "pop.json": "c18721a2a1345a386944b146874fe3a1355d5215531e085889c87b6fded54e1b",
        "simulate.json": "d2d7c78ec264770498f9c88460204ff490b23ea8fcf2abc24f3576dd37c09ae2",
        "simulate.txt": "558ad1f434a2ab7b8a95e32d5fa97a9a876ea33df6b978d571b2e29bd5939a11",
        "verify.json": "5fa05e8942b5dc802783899ab8e3d4aff4804ca25a85ea705d47cb2d1392418c",
        "verify.txt": "cd1e6f78a6976cf4e9bbaa0d7911b208088709a20c887cac6c998a99e7b5675e",
        "verify_exit": 0,
    },
    "walkthrough": {
        "data.csv": "c7653de3c1ef73b753fb18fb8e0b0b0e8410fa30af07114b90ae0be70e5b78f2",
        "estimands.csv": "eb4bd3a487343875e42834d8daa48a6ebc38f292a16bc32a2d48e6d6fa542c82",
        "estimands.json": "7fb5d3312e59e10652191a60d09aeeae00ece29b238d4b14e0e33efea356b009",
        "estimands.txt": "87999313339457aeab411a3df46f787bf7ca574ce260125576a15478c846a510",
        "pop.json": "6fa297d8d47702451afbcd722f5e29d83574897e73cd78c3ab419ab24dfbdcf4",
        "simulate.json": "497b1663bcb62c9b099af56aa4bbbf169e3b85ccd4b0cca712e38f7b00f210f8",
        "simulate.txt": "dde049fc97c49492b5b3e14c1cfec99cb6cc247e873e42f1250464cee24f9305",
        "verify.json": "82a9319d3557b651949dafeaea605b736811baf2b4590843925ceb96767e8731",
        "verify.txt": "af8b1ad1407d03eece07efe78cf0b29becac2e137b15d52764457ed8ab53157a",
        "verify_exit": 1,
    },
}


def run_outputs(cfg: dict, directory) -> dict:
    """Run every command on ``cfg`` and return each output's digest."""
    path = directory / "cfg.json"
    path.write_text(json.dumps(cfg))
    files = {name: directory / name for name in (
        "pop.json", "estimands.json", "estimands.csv", "estimands.txt", "simulate.json",
        "simulate.txt", "data.csv", "verify.json", "verify.txt")}
    common = ["--config", str(path)]
    with_pop = [*common, "--pop", str(files["pop.json"])]
    assert main(["generate", *common, "--out", str(files["pop.json"])]) == 0
    for fmt, name in (("json", "estimands.json"), ("csv", "estimands.csv"),
                      ("text", "estimands.txt")):
        assert main(["estimands", *with_pop, "--format", fmt, "--out", str(files[name])]) == 0
    assert main(["simulate", *with_pop, "--out", str(files["simulate.json"]),
                 "--dump-data", str(files["data.csv"])]) == 0
    assert main(["simulate", *with_pop, "--format", "text",
                 "--out", str(files["simulate.txt"])]) == 0
    exits = {main(["verify", *with_pop, "--format", fmt, "--out", str(files[name])])
             for fmt, name in (("json", "verify.json"), ("text", "verify.txt"))}
    assert len(exits) == 1
    digests = {name: hashlib.sha256(f.read_bytes()).hexdigest() for name, f in files.items()}
    return {**digests, "verify_exit": exits.pop()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_output_matches_its_golden_digest(tmp_path, capsys, name):
    assert run_outputs(CONFIGS[name], tmp_path) == DIGESTS[name]


# OpenBLAS core types, each with the CPU flags its kernels need
_CORE_TYPES = {"Prescott": (), "Sandybridge": ("avx",), "Haswell": ("avx", "avx2")}


def _cpu_flags() -> set[str]:
    try:
        found = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
    except OSError:
        return set()
    return set(found[1].split()) if found else set()


@pytest.mark.parametrize("core", sorted(_CORE_TYPES))
def test_every_digest_holds_under_each_openblas_kernel(tmp_path, core):
    """The digest test passes for both configs in a fresh process with
    OPENBLAS_CORETYPE set: each OpenBLAS kernel sums in its own order, so a
    BLAS call on any output's path would move its last bits."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS core types name x86 kernels")
    missing = set(_CORE_TYPES[core]) - _cpu_flags()
    if missing:
        pytest.skip(f"the CPU lacks {', '.join(sorted(missing))} for {core}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--basetemp",
         str(tmp_path), f"{Path(__file__).resolve()}::test_every_output_matches_its_golden_digest"],
        cwd=ROOT, env={**os.environ, "OPENBLAS_CORETYPE": core}, capture_output=True, text=True,
        timeout=300)
    assert run.returncode == 0, run.stdout[-4000:]
