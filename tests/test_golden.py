"""Golden output digests: the SHA-256 of every file the CLI writes, for five
fixed configs at fixed seeds.

The README walkthrough config exercises the closed-form moment route and a
small all-table config the table contraction. Three variants of the
walkthrough add encouragement-keyed tables, mixed blocks, and a population on
which every identity holds. A change that moves any output byte (a population
file, a report, a realized-data CSV or a ``verify`` exit code) fails here; a
refactor that claims to keep the outputs must pass unedited. Regenerate the
digests only for a deliberate output change, and say so where the change is
described. The digests also hold under every OpenBLAS kernel the CPU can run:
no output byte depends on the BLAS numpy links."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from peerenc.cli import main
from conftest import strict_json

ROOT = Path(__file__).resolve().parent.parent
# the config of the README's CLI walkthrough
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


def _walkthrough(block_size: int, strata: dict | None = None, **outcome) -> dict:
    """The walkthrough config with blocks of ``block_size`` and these strata
    and outcome settings."""
    dgp = _WALKTHROUGH["dgp"]
    return {**_WALKTHROUGH, "dgp": {**dgp, "block_size": block_size,
                                    "strata": strata or dgp["strata"],
                                    "outcome": {**dgp["outcome"], **outcome}}}


CONFIGS = {
    "walkthrough": _WALKTHROUGH,
    "table": _TABLE,
    # encouragement-keyed tables: 4^n entries per member
    "keyed": _walkthrough(4, representation="table", z_own=0.3, z_peer=0.1),
    "mixed": _walkthrough(6, representation="mixed"),
    # every identity holds: table outcomes and everyone a complier, so
    # compliance is one-sided and every block has the same uptake effect
    "pass": _walkthrough(6, representation="table", strata=_TABLE["dgp"]["strata"]),
}

# name -> file -> sha256 hex digest, plus "verify_exit" -> the exit code
DIGESTS = {
    "keyed": {
        "data.csv": "79f9ed2426e5b81410e78eb30efff3a5fabaaa1c97ad978b32b63842d571036f",
        "estimands.csv": "73676c7f0bf0f9d78ab65376ddcf640a297bb8a3ed75e80b6c424b5099721b77",
        "estimands.json": "becf86b40e4eef740abe14c9d87200848ae436014d9bf22b4f805e12ae5a55fd",
        "estimands.txt": "070a86c22a6ba3541c4f93fcd352aee32a2a937479bc4b2a32604f679c10a728",
        "pop.json": "fe439ceeda56ee8b947404dcd8f27d57e2f7ace283757b8facf42276a4427f06",
        "simulate.json": "7bc816ffe433fe5b4763b07e141a9ecdac11d8721bf7d70f2ceaef528cb6185f",
        "simulate.txt": "f9673eb1faf34c6d54cff2fa0c8f6ea20c18f94d398cdfa93fad3b87b10ca3c8",
        "verify.json": "88b61264cfeb0c7640ce47a23a01ed6ba5a98196315f368ec9392664367c6145",
        "verify.txt": "3ed7944fa34c340f4c7a66138c8602d7966eeb05f0fd0296e8d93af8ffd07666",
        "verify_exit": 1,
    },
    "mixed": {
        "data.csv": "93f81dce1d9e7659a39b0492970f42b65a076713d89857aebe5b523e1eec7d25",
        "estimands.csv": "33282328cb53a49562629df6cf985e1f386124e4ff21dc810b31d7473d39e444",
        "estimands.json": "0bb8345ad8cfdcc8952757d879ba2c542c0e0130e2443251d7d50a94ec7e9258",
        "estimands.txt": "eb985c87317c55f8e83bcdd72edba1a5a8619641fc085d90145be21d4f95c051",
        "pop.json": "60af6f8728161f6e48ea1fe003338809b6bb005928ffa556096762257b16a97e",
        "simulate.json": "9e795b00791b7ceebbeedc185d97f8236f430d2df1e651b9167d1a84f4123531",
        "simulate.txt": "9ea1fbb1bd32316e9c1ccb9b7d902cdc5c8f928c500eae2922dd7e2b67932e54",
        "verify.json": "cd232c366b2f7eab0d4791b56cd3f0f9c8d84d34019297ac9e74106b5f1c3036",
        "verify.txt": "d6ee90950fc44e9934fe14546dee8db923995b36cd7b0ee00bb46a5abe80e227",
        "verify_exit": 1,
    },
    "pass": {
        "data.csv": "86614dd21bf575e7df565d6cc1bf0cbb395d7306313df1aa89ce8fe17c189cf4",
        "estimands.csv": "4274bfe783c4a125d179041bb3658ac900e27348766bd0e24a1963b783d7ebf2",
        "estimands.json": "f17db1a02e306d21ec67627ddcab7bfad4c588b38f3075f61a6368584c26630a",
        "estimands.txt": "4a4588af8ab1e4f71e9580e84451930a33be8ca5d2fbc7f4c62fbbfff00dea05",
        "pop.json": "c5dd295fd3ad6d2eb3a69af24e598e78551fb487360a68db0cdd1235dbc5378a",
        "simulate.json": "abeb560f8186a446f55b06b05cd71ae7772299960008a4362e379d32258f8ef0",
        "simulate.txt": "d51306cef6fb78b08deef87366a9337df734671336b7e7229580c8b15d26d469",
        "verify.json": "ae24151e137ba77018aa17043cd57a446f94bbcdd4ef8f1040b00485a45cc1d9",
        "verify.txt": "f13e5cc8bac2559a17062d9e498b3499ad8fdb41330626cd609ee86be3e53816",
        "verify_exit": 0,
    },
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


def _loosen(doc: dict) -> dict:
    """A population document the loader reads although ``population_text``
    never renders it: each table's keys shuffled, each zero coefficient left
    out."""
    rng = random.Random(1)
    for outcome in (person["outcome"] for block in doc["blocks"] for person in block):
        if "values" in outcome:
            items = list(outcome["values"].items())
            rng.shuffle(items)
            outcome["values"] = dict(items)
        else:
            for key in [k for k, v in outcome.items() if repr(v) == "0.0"]:
                del outcome[key]
    return doc


def run_outputs(cfg: dict, directory) -> dict:
    """Run every command on ``cfg`` and return each output's digest. Along
    the way: every JSON report is strict JSON, ``estimands`` on a loosened
    population file (``_loosen``) writes the same bytes, simulate runs at
    ``--threads 2``, and verify's gate passes with ``--expect-fail`` naming
    exactly the theorems with a failing check and fails naming one more (a
    surprise pass gates)."""
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
    loose, again = directory / "loose-pop.json", directory / "loose-estimands.json"
    loose.write_text(json.dumps(_loosen(json.loads(files["pop.json"].read_text()))))
    assert main(["estimands", *common, "--pop", str(loose), "--out", str(again)]) == 0
    assert again.read_bytes() == files["estimands.json"].read_bytes()
    assert main(["simulate", *with_pop, "--threads", "2", "--out", str(files["simulate.json"]),
                 "--dump-data", str(files["data.csv"])]) == 0
    assert main(["simulate", *with_pop, "--format", "text",
                 "--out", str(files["simulate.txt"])]) == 0
    verify_exit = main(["verify", *with_pop, "--out", str(files["verify.json"])])
    for name in ("estimands.json", "simulate.json"):
        strict_json(files[name].read_text())
    failing = sorted({t["name"].split("[")[0].replace("theorem_", "thm")
                      for t in strict_json(files["verify.json"].read_text())["theorems"]
                      if t["identity"] is None or not t["identity"]["passed"]})
    assert verify_exit == (1 if failing else 0)
    assert main(["verify", *with_pop, "--format", "text", "--out", str(files["verify.txt"]),
                 "--expect-fail", *failing]) == 0
    passing = sorted({"thm1", "thm2", "thm3"} - set(failing))
    if passing:
        assert main(["verify", *with_pop, "--out", str(directory / "gate.json"),
                     "--expect-fail", *failing, passing[0]]) == 1
    digests = {name: hashlib.sha256(f.read_bytes()).hexdigest() for name, f in files.items()}
    return {**digests, "verify_exit": verify_exit}


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


def _kernel_skip(core: str) -> str | None:
    """Why this machine cannot run ``core``'s kernels, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return "OpenBLAS core types name x86 kernels"
    missing = set(_CORE_TYPES[core]) - _cpu_flags()
    return f"the CPU lacks {', '.join(sorted(missing))} for {core}" if missing else None


@pytest.fixture(scope="module")
def kernel_children(request, tmp_path_factory):
    """One child pytest of the digest test per selected core type that the
    CPU can run, each with OPENBLAS_CORETYPE set and its own --basetemp, all
    started at once; a core type maps to its child or to its skip reason."""
    selected = {item.callspec.params["core"] for item in request.session.items
                if item.originalname == "test_every_digest_holds_under_each_openblas_kernel"}
    digests = f"{Path(__file__).resolve()}::test_every_output_matches_its_golden_digest"
    children = {}
    for core in sorted(selected):
        children[core] = _kernel_skip(core) or subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--basetemp",
             str(tmp_path_factory.mktemp(f"openblas-{core}")), digests],
            cwd=ROOT, env={**os.environ, "OPENBLAS_CORETYPE": core}, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    yield children
    for child in children.values():
        if isinstance(child, subprocess.Popen) and child.returncode is None:
            child.kill()  # its test did not run or timed out
            child.communicate()


@pytest.mark.parametrize("core", sorted(_CORE_TYPES))
def test_every_digest_holds_under_each_openblas_kernel(kernel_children, core):
    """The digest test passes for every config in a fresh process with
    OPENBLAS_CORETYPE set: each OpenBLAS kernel sums in its own order, so a
    BLAS call on any output's path would move its last bits."""
    child = kernel_children[core]
    if isinstance(child, str):
        pytest.skip(child)
    output, _ = child.communicate(timeout=300)
    assert child.returncode == 0, f"OPENBLAS_CORETYPE={core}:\n{output[-4000:]}"
