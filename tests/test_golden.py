"""Golden output digests: the SHA-256 of every file the CLI writes, for two
fixed configs at fixed seeds.

The README walkthrough config exercises the closed-form moment route, and a
small all-table config the enumeration route. A change that moves any output
byte (a population file, a report, a realized-data CSV or a ``verify`` exit
code) fails here; a refactor that claims to keep the outputs must pass
unedited. Regenerate the digests only for a deliberate output change, and say
so where the change is described."""

from __future__ import annotations

import hashlib
import json
import re
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
        "estimands.csv": "db4c7ff1077602045c5c73774513fe045bd163f3289fbb7ea8d58acf384c9837",
        "estimands.json": "e58d9cc8eb0a2027c590894bd4b96fd27028fcd670fe9ffea717c610677f02e8",
        "estimands.txt": "1d4f0e7f6e8a33cb9ae0effab739799ffa08b76920872601363b36abf4599b1b",
        "pop.json": "c18721a2a1345a386944b146874fe3a1355d5215531e085889c87b6fded54e1b",
        "simulate.json": "90077f1bd7076cf1d2ec0dcf9f4b1f6149fb94b857cbd9540b8c83b924c584e4",
        "simulate.txt": "50e5cd7ed1b853f16bf6ebec74b4637161a8688f41a09d37e04b7a12cc25af20",
        "verify.json": "1afc96307719ef8b26166f750d9972964b2be0a8a07ef68951afd90dc0391a1f",
        "verify.txt": "eb62f8e70d0950dabb6dac3f7562c0463ec245fec83eccc0c89465bf3df9dd39",
        "verify_exit": 0,
    },
    "walkthrough": {
        "data.csv": "c7653de3c1ef73b753fb18fb8e0b0b0e8410fa30af07114b90ae0be70e5b78f2",
        "estimands.csv": "033e83ddfdb4af8f9176760eb6a7d4f6531403a4dbe2f4e0cfa8f84cf29671cb",
        "estimands.json": "eda5321e81b3bd35949331aacf35821731cb5b583128d397babe9faeb751de93",
        "estimands.txt": "87999313339457aeab411a3df46f787bf7ca574ce260125576a15478c846a510",
        "pop.json": "6fa297d8d47702451afbcd722f5e29d83574897e73cd78c3ab419ab24dfbdcf4",
        "simulate.json": "ae0b60cade2dd15cfb14da0a53e3237699e65ade72d194d0d34cda2eda7a4df0",
        "simulate.txt": "bebf8450013d7f69a3e2fee5f9497390d7fa2c61bb3dd322dcbf31e9aca22637",
        "verify.json": "ab290700d688b605c3dfb3f230ddf4562f9cb2bdf271c507412d6aa4fb28db2b",
        "verify.txt": "262db3918f664b747d43850f030f601c7e2af184ea48cb9053f63a7315c4a29d",
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
