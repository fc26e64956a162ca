import csv
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import peerenc
from peerenc.cli import main
from peerenc.popfile import load_population


def write_config(path, **overrides):
    cfg = {
        "seed": 424242,
        "dgp": {
            "blocks": 4,
            "block_size": 3,
            "strata": {"always_taker": 0.0, "complier": 1.0, "never_taker": 0.0,
                       "defier": 0.0},
            "outcome": {"representation": "structural", "direct": 2.0, "peer": 0.4,
                        "interaction": 0.2, "noise_sd": 0.5},
        },
        "mechanisms": [{"name": "phi", "p": 0.7}, {"name": "psi", "p": 0.3}],
        "design": {"mech_a": "phi", "mech_b": "psi", "k": 2},
        "mc": {"replications": 60},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return path


def test_generate_writes_population_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "monotone=True" in text and "block 0" in text
    pop = load_population(out)
    assert pop.n_blocks == 4


def test_generate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["generate", "--config", str(cfg), "--seed", "7", "--out", str(c)]) == 0
    assert c.read_bytes() != a.read_bytes()
    # an integral float reads as its integer
    floats = write_config(tmp_path / "floats.json", dgp={"blocks": 4.0})
    d = tmp_path / "d.json"
    assert main(["generate", "--config", str(floats), "--out", str(d)]) == 0
    assert d.read_bytes() == a.read_bytes()


def test_generate_rejects_defiers_with_monotone_flag(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        dgp={
            "blocks": 4,
            "block_size": 3,
            "strata": {"always_taker": 0.1, "complier": 0.5, "never_taker": 0.3,
                       "defier": 0.1},
            "monotone": True,
        },
    )
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "InvalidConfig" in capsys.readouterr().err


def test_generate_requires_seed(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    cfg = json.loads(write_config(path).read_text())
    del cfg["seed"]
    path.write_text(json.dumps(cfg))
    assert _exit_code(["generate", "--config", str(path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{\n  \"seed\": 1,\n  oops\n}")
    assert _exit_code(["generate", "--config", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_estimands_no_interference_zero_peer_rows(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        dgp={
            "blocks": 3,
            "block_size": 3,
            "strata": {"complier": 0.6, "never_taker": 0.4},
            "outcome": {"representation": "structural", "direct": 2.0},
        },
    )
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    out = tmp_path / "report.json"
    assert main(["estimands", "--config", str(cfg), "--pop", str(pop_path),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for key, entry in report["entries"].items():
        if key.startswith(("pitt", "lpt")):
            assert abs(entry["population"]) <= 1e-12, key


def test_estimands_singleton_blocks_equal_raw_outcomes(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        dgp={
            "blocks": 2,
            "block_size": 1,
            "strata": {"complier": 1.0},
            "outcome": {"representation": "structural", "direct": 2.0},
        },
    )
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    out = tmp_path / "report.json"
    main(["estimands", "--config", str(cfg), "--pop", str(pop_path), "--out", str(out)])
    entries = json.loads(out.read_text())["entries"]
    assert entries["ybar_itt[z=1,mech=phi]"]["per_block"] == [2.0, 2.0]
    assert entries["ybar_itt[z=0,mech=phi]"]["per_block"] == [0.0, 0.0]


def test_estimands_formats(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    capsys.readouterr()
    assert main(["estimands", "--config", str(cfg), "--pop", str(pop_path),
                 "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "estimand,block,value"
    assert main(["estimands", "--config", str(cfg), "--pop", str(pop_path),
                 "--format", "text"]) == 0
    assert "et[1,0]" in capsys.readouterr().out


def test_estimands_csv_quotes_names_that_hold_commas_and_quotes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       mechanisms=[{"name": 'a,"b"', "p": 0.7}, {"name": "psi", "p": 0.3}],
                       design={"mech_a": 'a,"b"'})
    pop_path, out = tmp_path / "pop.json", tmp_path / "estimands.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    assert main(["estimands", "--config", str(cfg), "--pop", str(pop_path),
                 "--format", "csv", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["estimand", "block", "value"]
    assert {len(row) for row in rows} == {3}
    names = {row[0] for row in rows[1:]}
    assert {'ditt[1,0,mech=a,"b"]', 'pitt[z=1,a,"b",psi]', "et[1,0]"} <= names
    assert '"ditt[1,0,mech=a,""b""]",population,' in out.read_text()


def test_simulate_writes_summary_and_data(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    out = tmp_path / "mc.json"
    data_csv = tmp_path / "data.csv"
    assert main(["simulate", "--config", str(cfg), "--pop", str(pop_path),
                 "--out", str(out), "--dump-data", str(data_csv)]) == 0
    summary = json.loads(out.read_text())
    assert summary["replications"] == 60
    names = {e["name"] for e in summary["estimators"]}
    assert "ditt_hat_a" in names and "ldt_hat" in names
    header = data_csv.read_text().splitlines()[0]
    assert header == "block_id,S,unit_id,Z,D,Y"


_SECTION_SEEDS = {"dgp": {"seed": 11}, "design": {"seed": 22},
                  "mc": {"replications": 10, "seed": 33}}


@pytest.mark.parametrize("flag, want", [
    (None, None), ([], 44), (["--seed", "55"], 55),
], ids=["section-seeds", "top-level-seed", "seed-flag"])
def test_each_command_reads_its_own_seed(tmp_path, capsys, flag, want):
    """Every command that draws takes --seed, else the top-level seed 44. A
    config has one seed: a dgp, design or mc seed is an unknown key, which
    every command refuses with one line before it reads --pop or writes."""
    if flag is None:
        for section, seed in _SECTION_SEEDS.items():
            cfg = write_config(tmp_path / "cfg.json", seed=44, **{section: seed})
            for command in ("generate", "estimands", "simulate", "verify"):
                out = tmp_path / "out.json"
                pop = [] if command == "generate" else ["--pop", str(tmp_path / "missing.json")]
                assert _exit_code([command, "--config", str(cfg), *pop, "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"error: InvalidConfig: config {section}: unknown key "
                                      "'seed' (known: ") and len(err.splitlines()) == 1
                assert not out.exists()
        return
    cfg = write_config(tmp_path / "cfg.json", seed=44, mc={"replications": 10})
    pop_path, expected = tmp_path / "pop.json", tmp_path / "expected.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path), *flag]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(expected),
                 "--seed", str(want)]) == 0
    assert pop_path.read_bytes() == expected.read_bytes()
    reports = {}
    for command in ("simulate", "verify"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", str(cfg), "--pop", str(pop_path), "--out", str(out),
                     *flag]) == 0
        reports[command] = json.loads(out.read_text())
    assert reports["simulate"]["seed"] == reports["verify"]["mc"]["seed"] == want


def test_one_config_replicates_from_one_stream(tmp_path):
    """simulate and verify (R > 0) on one config draw the same replicates:
    they report the same seed and the same summaries, and differ only in the
    exact targets, which verify leaves to its identity checks."""
    cfg = write_config(tmp_path / "cfg.json", mc={"replications": 10})
    pop_path, sim, ver = tmp_path / "pop.json", tmp_path / "sim.json", tmp_path / "verify.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    assert main(["simulate", "--config", str(cfg), "--pop", str(pop_path), "--out", str(sim)]) == 0
    assert main(["verify", "--config", str(cfg), "--pop", str(pop_path), "--out", str(ver)]) == 0
    simulated, verified = json.loads(sim.read_text()), json.loads(ver.read_text())["mc"]
    assert simulated["seed"] == verified["seed"] == 424242
    replicated = ("name", "mean", "sd", "mcse", "n_defined", "n_undefined")
    assert [{k: e[k] for k in replicated} for e in simulated["estimators"]] == \
        [{k: e[k] for k in replicated} for e in verified["estimators"]]
    assert {k for e in simulated["estimators"] for k in e} == {*replicated, "target", "std_bias"}


@pytest.fixture
def validations(monkeypatch) -> list:
    """The list every ``design.Design`` construction appends the design to."""
    from peerenc import design

    calls = []
    check = design.Design.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(design.Design, "__post_init__", counted)
    return calls


@pytest.mark.parametrize("command, extra", [
    ("simulate", []), ("simulate", ["--dump-data", "data.csv"]), ("verify", [])])
def test_each_command_validates_its_design_once(tmp_path, monkeypatch, validations, command,
                                                extra):
    """The replicate-0 dump, the exact targets and every batch share one
    ``Design`` construction."""
    cfg = write_config(tmp_path / "cfg.json", mc={"replications": 10})
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    validations.clear()
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(cfg), "--pop", str(pop_path),
                 "--out", "out.json", *extra]) == 0
    assert len(validations) == 1
    assert all(Path(path).is_file() for path in ("out.json", *extra[1:]))


def test_verify_all_complier_population_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--pop", str(pop_path),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    names = {t["name"] for t in report["theorems"]}
    assert {"theorem_1", "theorem_2", "theorem_3[z=0]", "theorem_3[z=1]"} <= names
    assert all(t["identity"]["passed"] for t in report["theorems"])


def test_verify_defier_population_gate(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        dgp={
            "blocks": 4,
            "block_size": 5,
            "strata": {"always_taker": 0.2, "complier": 0.4, "never_taker": 0.2,
                       "defier": 0.2},
            "outcome": {"representation": "structural", "direct": [2.0, 1.0],
                        "peer": [0.5, 0.3], "interaction": [0.4, 0.2],
                        "noise_sd": 0.5},
        },
    )
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    assert main(["verify", "--config", str(cfg), "--pop", str(pop_path)]) == 1
    assert main(["verify", "--config", str(cfg), "--pop", str(pop_path),
                 "--expect-fail", "thm1", "thm2", "thm3"]) == 0


@pytest.mark.parametrize("design", [{"k": 99}, {"k": 0}], ids=["k-too-large", "k-zero"])
def test_verify_without_monte_carlo_builds_no_design(tmp_path, validations, design):
    """With mc.replications 0, verify checks the identities alone: it builds
    no design, so k is not checked."""
    cfg = write_config(tmp_path / "cfg.json", design=design, mc={"replications": 0})
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    validations.clear()
    assert main(["verify", "--config", str(cfg), "--pop", str(pop_path),
                 "--out", str(tmp_path / "verify.json")]) == 0
    assert validations == []


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("k", [0, 4], ids=["k-zero", "k-all-blocks"])
def test_a_design_refusal_names_its_config_section(tmp_path, capsys, command, k):
    """A k that leaves an arm empty is refused in one line that names the
    config's design section, and nothing is written."""
    cfg = write_config(tmp_path / "cfg.json", design={"k": k}, mc={"replications": 10})
    pop_path, out = tmp_path / "pop.json", tmp_path / "out.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--pop", str(pop_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: InvalidDesign: config design: k={k} ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_expect_fail_is_met_when_any_check_of_the_theorem_fails(tmp_path):
    """On this population theorem_3[z=0] fails while its mirror z=1 passes:
    --expect-fail thm3 is met by the one failing check, and without the flag
    the failure gates."""
    cfg = write_config(
        tmp_path / "cfg.json",
        seed=5,
        dgp={
            "blocks": 6,
            "block_size": 4,
            "strata": {"always_taker": 0.4, "complier": 0.6, "never_taker": 0.0,
                       "defier": 0.0},
            "outcome": {"representation": "structural", "direct": [2.0, 1.0],
                        "peer": [0.8, 0.3], "interaction": 0.4, "noise_sd": 0.5},
        },
        design={"k": 3},
        mc={"replications": 0},
    )
    pop_path = tmp_path / "pop.json"
    out = tmp_path / "verify.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    verify = ["verify", "--config", str(cfg), "--pop", str(pop_path), "--out", str(out)]
    assert main([*verify, "--expect-fail", "thm1", "thm2", "thm3"]) == 0
    passed = {t["name"]: t["identity"]["passed"] for t in json.loads(out.read_text())["theorems"]}
    assert passed == {"theorem_1": False, "theorem_2": False, "theorem_3[z=0]": False,
                      "theorem_3[z=1]": True}
    assert main([*verify, "--expect-fail", "thm1", "thm2"]) == 1


def test_verify_text_format(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    assert main(["verify", "--config", str(cfg), "--pop", str(pop_path),
                 "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "theorem_1" in out and "pass" in out


def test_generate_then_load_reproduces_estimands_bitwise(tmp_path):
    from peerenc import _streams
    from peerenc.estimands import compute_estimand_report
    from peerenc.mechanisms import Mechanism
    from peerenc.population import build_population, parse_dgp

    cfg_path = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg_path), "--out", str(pop_path)])
    cfg = json.loads(cfg_path.read_text())
    in_memory = build_population(parse_dgp(cfg["dgp"]), _streams.stream(cfg["seed"], 0))
    a = Mechanism("phi", 0.7)
    b = Mechanism("psi", 0.3)
    from_file = load_population(pop_path)
    assert compute_estimand_report(from_file, a, b).to_json() == \
        compute_estimand_report(in_memory, a, b).to_json()


def test_duplicate_mechanism_names_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        mechanisms=[{"name": "phi", "p": 0.7}, {"name": "phi", "p": 0.3}],
    )
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    assert _exit_code(["estimands", "--config", str(cfg), "--pop", str(pop_path)]) == 2
    assert "more than once" in capsys.readouterr().err


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_non_integer_block_count_is_a_one_line_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", dgp={"blocks": "ten"})
    assert _exit_code(["generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "dgp.blocks" in err and "'ten'" in err


def test_population_entry_missing_d1_is_a_one_line_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    data = json.loads(pop_path.read_text())
    del data["blocks"][2][1]["d1"]
    pop_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _exit_code(["estimands", "--config", str(cfg), "--pop", str(pop_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "block 2 individual 1" in err and "'d1'" in err


@pytest.mark.parametrize("edit", [lambda blocks: blocks[:1], lambda blocks: [blocks[0], []]],
                         ids=["one-block", "empty-block"])
def test_population_shape_is_a_one_line_error(tmp_path, capsys, edit):
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    data = json.loads(pop_path.read_text())
    data["blocks"] = edit(data["blocks"])
    pop_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _exit_code(["estimands", "--config", str(cfg), "--pop", str(pop_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "population" in err


@pytest.mark.parametrize("command, overrides, extra, field", [
    ("generate", {"dgp": {"blocks": 2.7}}, [], "dgp.blocks"),
    ("generate", {"dgp": {"block_size": 2.7}}, [], "dgp.block_size"),
    ("generate", {"dgp": {"block_size": []}}, [], "config dgp.block_size"),
    ("generate", {"dgp": {"block_size": [3]}}, [], "config dgp.block_size"),
    ("generate", {"dgp": {"block_size": [2, 3, 4]}}, [], "config dgp.block_size"),
    ("generate", {"dgp": {"blocks": "4"}}, [], "dgp.blocks"),
    ("generate", {"dgp": {"blocks": " 4 "}}, [], "dgp.blocks"),
    ("generate", {"seed": "1"}, [], "config seed"),
    ("generate", {"seed": "x"}, [], "config seed"),
    ("generate", {"seed": -1}, [], "config seed"),
    ("simulate", {"design": {"seed": "x"}}, [], "config design: unknown key 'seed'"),
    ("simulate", {"mc": {"replications": "many"}}, [], "mc.replications"),
    ("simulate", {"mc": {"replications": "4"}}, [], "mc.replications"),
    ("simulate", {"mc": {"replications": 2.5}}, [], "mc.replications"),
    ("simulate", {"mc": {"replications": 10**15}}, [], "mc.replications"),
    ("verify", {"mc": {"replications": -1}}, [], "mc.replications"),
    ("simulate", {"design": {"k": "two"}}, [], "design.k"),
    ("simulate", {"design": {"k": True}}, [], "design.k"),
    ("simulate", {"design": {"k": "2"}}, [], "design.k"),
    ("verify", {"design": {"k": "two"}}, [], "design.k"),
    ("simulate", {}, ["--threads", "0"], "--threads"),
    ("verify", {}, ["--threads", "-2"], "--threads"),
    ("simulate", {}, ["--threads", " 2"], "--threads: expected an integer, got ' 2'"),
    ("verify", {}, ["--threads", "\u0662"], "--threads: expected an integer"),
    ("generate", {}, ["--seed", "1_0"], "--seed: expected an integer, got '1_0'"),
    ("simulate", {}, ["--seed", " 7"], "--seed: expected an integer, got ' 7'"),
    ("verify", {}, ["--seed", "\u0661\u0660"], "--seed: expected an integer"),
    ("generate", {}, ["--seed", "x"], "--seed: expected an integer, got 'x'"),
    ("generate", {}, ["--seed", "9" * 5000], "--seed: expected an integer, got '99999"),
    ("generate", {}, ["--seed", "-1"], "--seed: expected a non-negative int, got -1"),
], ids=["blocks-2.7", "block-size-2.7", "block-size-empty", "block-size-one",
        "block-size-three", "blocks-string", "blocks-padded-string", "seed-string", "seed-x",
        "seed-negative", "design-seed-x", "replications-many", "replications-string",
        "replications-2.5", "replications-1e15", "verify-replications-negative", "k-two",
        "k-true", "k-string", "verify-k-two", "threads-0", "verify-threads-negative",
        "threads-padded", "verify-threads-arabic-indic", "flag-seed-underscore",
        "flag-seed-padded", "flag-seed-arabic-indic", "flag-seed-x", "flag-seed-5000-digits",
        "flag-seed-negative"])
def test_integer_fields_are_one_line_errors(tmp_path, capsys, command, overrides, extra, field):
    """Integer fields of the config take integral JSON numbers, and integer
    flags ASCII digits after an optional minus sign; anything else is one
    line on stderr and exit 2."""
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(write_config(tmp_path / "good.json")),
          "--out", str(pop_path)])
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    pop = ["--pop", str(pop_path)] if command != "generate" else []
    capsys.readouterr()
    assert _exit_code([command, "--config", str(cfg), *pop, *extra,
                       "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert field in err


_OUTCOME = {"representation": "structural", "direct": 2.0, "peer": 0.4, "interaction": 0.2,
            "noise_sd": 0.5}


def _strata(**masses) -> dict:
    """A dgp strata object: the given masses, every other stratum 0."""
    return {"always_taker": 0.0, "complier": 0.0, "never_taker": 0.0, "defier": 0.0, **masses}


# dgp values of the wrong kind
_DGP_KIND_FAULTS = [
    pytest.param({"outcome": {**_OUTCOME, "direct": ["1e999", 0]}}, "dgp.outcome.direct",
                 id="direct-string-1e999"),
    pytest.param({"outcome": {**_OUTCOME, "direct": [float("inf"), 0]}}, "dgp.outcome.direct",
                 id="direct-infinity"),
    pytest.param({"outcome": {**_OUTCOME, "intercept": 10**400}}, "dgp.outcome.intercept",
                 id="intercept-huge-int"),
    pytest.param({"outcome": {**_OUTCOME, "peer": True}}, "dgp.outcome.peer", id="peer-true"),
    pytest.param({"strata": ["nan", 1.0, 0.0, 0.0]}, "dgp.strata", id="strata-string-nan"),
    pytest.param({"strata": {"complier": float("nan")}}, "dgp.strata.complier", id="strata-nan"),
    pytest.param({"outcome": {**_OUTCOME, "noise_sd": "nan"}}, "dgp.outcome.noise_sd",
                 id="noise-sd-string-nan"),
    pytest.param({"outcome": {**_OUTCOME, "representation": "table", "z_own": "inf"}},
                 "dgp.outcome.z_own", id="z-own-string-inf"),
    pytest.param({"complier_floor": "no"}, "dgp.complier_floor", id="complier-floor-string"),
    pytest.param({"monotone": 1}, "dgp.monotone", id="monotone-1"),
]
# dgp values of the right kind that no population satisfies
_DGP_UNSATISFIABLE = [
    pytest.param({"outcome": {**_OUTCOME, "direct": [1, -2]}}, "config dgp.outcome.direct: ",
                 id="direct-negative-sd"),
    pytest.param({"outcome": {**_OUTCOME, "noise_sd": -1}}, "config dgp.outcome.noise_sd: ",
                 id="noise-sd-negative"),
    pytest.param({"blocks": 1}, "config dgp.blocks: ", id="one-block"),
    pytest.param({"block_size": [3, 2]}, "config dgp.block_size: ", id="block-size-range"),
    pytest.param({"outcome": {**_OUTCOME, "representation": "tabel"}},
                 "config dgp.outcome.representation: ", id="representation-unknown"),
    pytest.param({"outcome": {**_OUTCOME, "representation": "table"}, "block_size": 13},
                 "config dgp.block_size: ", id="table-size-cap"),
    pytest.param({"strata": _strata(complier=0.5)}, "config dgp.strata: ", id="strata-sum"),
    pytest.param({"strata": _strata(complier=0.5, defier=0.5), "monotone": True},
                 "config dgp.monotone: ", id="monotone-with-defiers"),
    pytest.param({"strata": _strata(complier=0.5, always_taker=0.5), "one_sided": True},
                 "config dgp.one_sided: ", id="one-sided-with-always-takers"),
    pytest.param({"outcome": {**_OUTCOME, "z_own": 0.5}}, "config dgp.outcome: ",
                 id="z-own-structural"),
    pytest.param({"blocks": 2**20}, "config dgp: ", id="individuals-bound"),
    pytest.param({"blocks": 2**14, "block_size": 12,
                  "outcome": {**_OUTCOME, "representation": "table"}},
                 "config dgp: ", id="table-entries-bound"),
    pytest.param({"strata": _strata(complier=0.0, never_taker=1.0)},
                 "GenerationFailed: config dgp.complier_floor: ", id="no-complier-mass"),
]


@pytest.mark.parametrize("dgp, field", [*_DGP_KIND_FAULTS, *_DGP_UNSATISFIABLE])
def test_dgp_fields_take_finite_numbers_and_booleans(tmp_path, capsys, dgp, field):
    cfg = write_config(tmp_path / "cfg.json", dgp=dgp)
    out = tmp_path / "pop.json"
    assert _exit_code(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert field in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimands", "simulate", "verify"])
@pytest.mark.parametrize("dgp, field", _DGP_UNSATISFIABLE)
def test_every_command_refuses_a_dgp_no_population_satisfies(tmp_path, capsys, command, dgp,
                                                            field):
    """Each command reads the whole config, so each refuses such a dgp
    section with the line generate prints, before it reads --pop: the
    population file is missing, which would be another error."""
    cfg = write_config(tmp_path / "cfg.json", dgp=dgp)
    assert _exit_code(["generate", "--config", str(cfg), "--out", str(tmp_path / "pop")]) == 2
    expected = capsys.readouterr().err
    out = tmp_path / "out.json"
    assert _exit_code([command, "--config", str(cfg), "--pop", str(tmp_path / "missing.json"),
                       "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == expected and len(err.splitlines()) == 1 and field in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "estimands", "simulate", "verify"])
@pytest.mark.parametrize("mechanisms, design", [
    ([{"name": "phi", "p": 0.7}], {"mech_b": "phi"}),
    ([{"name": "phi", "p": 0.7}, {"name": "chi", "p": 0.7}], {"mech_b": "chi"}),
    ([{"name": "phi", "probs": [0.2, 0.3, 0.4, 0.5]},
      {"name": "chi", "probs": [0.2, 0.3, 0.4, 0.5]}], {"mech_b": "chi"}),
    ([{"name": "phi", "p": 0.5}, {"name": "psi", "probs": [0.5, 0.5, 0.5, 0.5]}],
     {"mech_b": "psi"}),
], ids=["same-name", "same-p", "same-probs", "scalar-equals-vector"])
def test_every_command_refuses_a_mechanism_pair_without_a_contrast(tmp_path, capsys, command,
                                                                   mechanisms, design):
    """A pair that gives every individual the same probability (a scalar
    and a vector of it too) has every pitt and lpt exactly 0, so identities
    would pass with nothing tested: every command refuses it with one line
    naming design.mech_b, before it reads --pop or writes."""
    cfg = write_config(tmp_path / "cfg.json", dgp={"block_size": 4}, mechanisms=mechanisms,
                       design={"mech_a": "phi", **design}, mc={"replications": 0})
    out = tmp_path / "out.json"
    pop = [] if command == "generate" else ["--pop", str(tmp_path / "missing.json")]
    assert _exit_code([command, "--config", str(cfg), *pop, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: config design.mech_b: mechanism ")
    assert len(err.splitlines()) == 1 and not out.exists()


@pytest.mark.parametrize("overrides, where, known", [
    ({"dgp": {"bogus": 1}}, "config dgp",
     "blocks, block_size, strata, outcome, monotone, one_sided, complier_floor"),
    ({"dgp": {"outcome": {"bogus": 1}}}, "config dgp.outcome",
     "representation, intercept, direct, peer, interaction, curvature, noise_sd, z_own, z_peer"),
    ({"dgp": {"strata": {"bogus": 1}}}, "config dgp.strata",
     "always_taker, complier, never_taker, defier"),
    ({"bogus": 1}, "config", "seed, mechanisms, dgp, design, mc"),
    ({"design": {"bogus": 1}}, "config design", "mech_a, mech_b, k"),
    ({"mc": {"bogus": 1}}, "config mc", "replications"),
], ids=["dgp", "outcome", "strata", "file", "design", "mc"])
def test_an_unknown_dgp_key_lists_the_known_keys(tmp_path, capsys, overrides, where, known):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert _exit_code(["generate", "--config", str(cfg), "--out", str(tmp_path / "pop")]) == 2
    assert capsys.readouterr().err == \
        f"error: InvalidConfig: {where}: unknown key 'bogus' (known: {known})\n"
    assert not (tmp_path / "pop").exists()


@pytest.mark.parametrize("command, text, field", [
    ("generate", "[1]", "expected a JSON object"),
    ("estimands", {"mechanisms": [1, 2]}, "mechanisms[0]"),
    ("estimands", {"mechanisms": [{"name": ["a"], "p": 0.5}, {"name": "psi", "p": 0.3}]},
     "mechanisms[0]"),
    ("generate", {"dgp": [1]}, "config dgp"),
    ("generate", {"dgp": {"outcome": [1]}}, "dgp.outcome"),
    ("estimands", {"design": [1]}, "config design"),
    ("simulate", {"mc": [1]}, "config mc"),
    ("estimands", {"design": {"mech_a": ["a"]}}, "design.mech_a"),
    ("generate", {"output": {"path": 5}}, "config: unknown key 'output'"),
    ("generate", {"output": {"path": "p.json"}}, "config: unknown key 'output'"),
    ("estimands", {"mechanisms": []}, "config mechanisms: expected a non-empty list, got []"),
    ("estimands", {"mechanisms": [{"name": "", "p": 0.5}, {"name": "psi", "p": 0.3}]},
     "config mechanisms[0].name: expected a non-empty string"),
    ("estimands", {"design": {"mech_a": "chi"}},
     "config design.mech_a: mechanism 'chi' is not defined"),
], ids=["top-level-list", "mechanisms-not-objects", "mechanism-name-list", "dgp-list",
        "outcome-list", "design-list", "mc-list", "mech-a-list", "output-path-number",
        "output-path", "mechanisms-empty", "mechanism-name-empty", "mech-a-undefined"])
def test_config_sections_of_the_wrong_type_are_one_line_errors(tmp_path, capsys, monkeypatch,
                                                               command, text, field):
    """One line on stderr, and neither --out nor a path the config names
    is written."""
    monkeypatch.chdir(tmp_path)
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(write_config(tmp_path / "good.json")),
          "--out", str(pop_path)])
    cfg = tmp_path / "cfg.json"
    if isinstance(text, str):
        cfg.write_text(text)
    else:
        write_config(cfg, **text)
    pop = ["--pop", str(pop_path)] if command != "generate" else []
    capsys.readouterr()
    assert _exit_code([command, "--config", str(cfg), *pop, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert field in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("mechanism, field", [
    ({"p": "0.7"}, "mechanisms[0].p"),
    ({"p": True}, "mechanisms[0].p"),
    ({"p": float("nan")}, "mechanisms[0].p"),
    ({"probs": ["0.2", "0.3", "0.2"]}, "mechanisms[0].probs"),
    ({"probs": [0.2, None, 0.2]}, "mechanisms[0].probs"),
    ({"probs": "0.5"}, "mechanisms[0].probs"),
    ({"probs": []}, "InvalidMechanism: mechanism 'phi' has no probabilities"),
], ids=["p-string", "p-true", "p-nan", "probs-strings", "probs-null", "probs-string",
        "probs-empty"])
def test_mechanism_probabilities_take_finite_numbers(tmp_path, capsys, mechanism, field):
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(write_config(tmp_path / "good.json")),
          "--out", str(pop_path)])
    cfg = write_config(tmp_path / "cfg.json",
                       mechanisms=[{"name": "phi", **mechanism}, {"name": "psi", "p": 0.3}])
    capsys.readouterr()
    assert _exit_code(["estimands", "--config", str(cfg), "--pop", str(pop_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert field in err


def _set(path, value):
    """Edit for a population file: set the entry at path (keys and indices)."""
    def edit(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value
    return edit


_TABLE = ("blocks", 0, 0, "outcome")


@pytest.mark.parametrize("edit, where", [
    (_set((*_TABLE, "values", "-1"), 5.0), "block 0 individual 0"),
    (_set((*_TABLE, "values", "01"), 5.0), "block 0 individual 0"),
    (_set((*_TABLE, "values", "11"), 5.0), "block 0 individual 0"),
    (_set((*_TABLE, "values", "1"), "2.5"), "block 0 individual 0"),
    (_set(_TABLE, [1]), "block 0 individual 0"),
    (_set(("blocks", 0, 0, "d0"), 0.7), "block 0 individual 0"),
    (_set(("blocks", 0, 0, "d1"), True), "block 0 individual 0"),
    (_set((*_TABLE, "size"), 1.9), "block 0 individual 0"),
    (_set(("blocks", 1, 0, "outcome"), {"kind": "structural", "direct": "1e999"}),
     "block 1 individual 0"),
    (_set(("flags", "monotone"), "yes"), "population flags"),
    (_set((*_TABLE, "kind"), "tabel"), "block 0 individual 0: unknown outcome kind 'tabel'"),
    (_set((*_TABLE, "values"), {"0": 1.0, "x": 2.0}),
     "MissingTableEntry: population block 0 individual 0: table has no entry for '1'"),
], ids=["key-minus-1", "key-01-aliases-1", "key-11", "value-string", "outcome-list",
        "d0-0.7", "d1-true", "size-1.9", "coefficient-string", "flag-string", "kind-unknown",
        "key-not-a-row"])
def test_population_file_defects_are_one_line_errors(tmp_path, capsys, edit, where):
    cfg = write_config(tmp_path / "cfg.json", dgp={
        "blocks": 2, "block_size": 1,
        "outcome": {"representation": "table", "direct": 2.0}})
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    data = json.loads(pop_path.read_text())
    edit(data)
    pop_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _exit_code(["estimands", "--config", str(cfg), "--pop", str(pop_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert where in err


@pytest.mark.parametrize("flag, make, reason", [
    ("--pop", lambda path: None, "No such file or directory"),
    ("--pop", lambda path: path.mkdir(), "Is a directory"),
    ("--pop", lambda path: path.write_bytes(b'{"flags": "\xff"}'), "not UTF-8 text"),
    ("--pop", lambda path: path.write_text('{"flags": {"monotone": tr'), "invalid JSON"),
    ("--config", lambda path: path.mkdir(), "Is a directory"),
    ("--config", lambda path: path.write_bytes(b'{"seed": 1, "dgp": "\xe9"}'), "not UTF-8 text"),
], ids=["pop-missing", "pop-directory", "pop-not-utf8", "pop-truncated-json",
        "config-directory", "config-not-utf8"])
def test_unreadable_input_files_are_one_line_errors(tmp_path, capsys, flag, make, reason):
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    bad = tmp_path / "bad"
    make(bad)
    args = {"--config": str(cfg), "--pop": str(pop_path), flag: str(bad)}
    capsys.readouterr()
    assert _exit_code(["estimands", *(x for kv in args.items() for x in kv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidConfig: {bad}: {reason}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, flag", [
    ("generate", "--out"), ("generate", "default output"),
    ("estimands", "--out"), ("simulate", "--out"), ("simulate", "--dump-data"),
    ("verify", "--out"),
])
@pytest.mark.parametrize("where", ["nodir/out", "adir", "loop"])
def test_unwritable_output_paths_are_one_line_errors_before_any_work(
        tmp_path, capsys, monkeypatch, command, flag, where):
    """An output path in a missing directory, naming a directory, or that
    exists and cannot be written (a symbolic-link loop; file modes would not
    stop a run as root) exits 2 with one line naming its flag and path
    before the population is built or loaded; so simulate never writes its
    --dump-data CSV for a run it cannot finish. generate's built-in default
    is named as the default."""
    (tmp_path / "adir").mkdir()
    os.symlink(tmp_path / "loop-b", tmp_path / "loop")
    os.symlink(tmp_path / "loop", tmp_path / "loop-b")
    bad = tmp_path / where
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr("peerenc.cli.build_population", no_work)
    monkeypatch.setattr("peerenc.cli.load_population", no_work)
    if flag == "default output":
        monkeypatch.setattr("peerenc.cli._DEFAULT_POPULATION", str(bad))
    dump = tmp_path / "data.csv"
    argv = [command, "--config", str(cfg)]
    if command != "generate":
        argv += ["--pop", str(pop_path)]
    if command == "simulate" and flag == "--out":
        argv += ["--dump-data", str(dump)]
    if flag.startswith("--"):
        argv += [flag, str(bad)]
    capsys.readouterr()
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"{flag} {bad}: cannot write" in err
    assert not dump.exists()


@pytest.mark.parametrize("command, flag", [
    ("generate", "--out"), ("generate", "default output"), ("estimands", "--out"),
    ("simulate", "--out"), ("simulate", "--dump-data"), ("verify", "--out"),
])
def test_a_failed_write_is_a_one_line_error(tmp_path, capsys, monkeypatch, command, flag):
    """Every output file is opened by the CLI: a disk that fills up after
    the output path was checked (the opened file's write raises ENOSPC)
    exits 2 with one line naming the flag and path."""
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    full = tmp_path / "full"

    def full_disk(*args, **kwargs):
        fh = open(*args, **kwargs)

        def no_space(*_):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fh.write = fh.writelines = no_space
        return fh

    monkeypatch.setattr("peerenc.cli.open", full_disk, raising=False)
    if flag == "default output":
        monkeypatch.setattr("peerenc.cli._DEFAULT_POPULATION", str(full))
    argv = [command, "--config", str(cfg)]
    if command != "generate":
        argv += ["--pop", str(pop_path)]
    if flag.startswith("--"):
        argv += [flag, str(full)]
    capsys.readouterr()
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: InvalidConfig: {flag} {full}: cannot write (No space left on device)\n"


def test_an_existing_output_without_write_permission_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch):
    """os.access stands in for a read-only file, which file modes cannot
    make for a suite running as root."""
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "pop.json"
    out.write_text("kept")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr("peerenc.cli.build_population", no_work)
    monkeypatch.setattr(os, "access", lambda path, mode: path != str(out))
    capsys.readouterr()
    assert _exit_code(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: InvalidConfig: --out {out}: cannot write (no write permission)\n"
    assert out.read_text() == "kept"


@pytest.mark.parametrize("seed", ["5", "notanumber"])
def test_estimands_takes_no_seed(tmp_path, capsys, seed):
    """estimands draws nothing, so it has no --seed: argparse refuses the
    flag with exit 2 before any file is read or written."""
    missing, out = tmp_path / "missing.json", tmp_path / "out.json"
    assert _exit_code(["estimands", "--config", str(missing), "--pop", str(missing),
                       "--seed", seed, "--out", str(out)]) == 2
    assert f"unrecognized arguments: --seed {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "estimands", "simulate", "verify"])
def test_every_file_is_opened_with_an_encoding(tmp_path, command):
    """Under -X warn_default_encoding with EncodingWarning an error, every
    command still writes its files, the --dump-data CSV among them."""
    src = Path(peerenc.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    cfg = write_config(tmp_path / "cfg.json", mc={"replications": 2})
    pop_path, dump = tmp_path / "pop.json", tmp_path / "data.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    argv = {"generate": ["--out", str(tmp_path / "again.json")],
            "estimands": ["--pop", str(pop_path), "--out", str(tmp_path / "out")],
            "simulate": ["--pop", str(pop_path), "--dump-data", str(dump),
                         "--out", str(tmp_path / "out")],
            "verify": ["--pop", str(pop_path), "--out", str(tmp_path / "out")]}[command]
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-m", "peerenc.cli", command,
                           "--config", str(cfg), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if command == "simulate":
        assert dump.read_bytes().startswith(b"block_id,S,unit_id,Z,D,Y\r\n")


# The process entry as `python -m peerenc.cli` runs it; an atexit hook prints
# the collector's freeze count once the command has exited.
_FREEZE_AT_EXIT = """
import atexit, gc, runpy
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
runpy.run_module("peerenc.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("command", ["generate", "estimands", "simulate", "verify"])
def test_the_process_entry_freezes_the_collector_and_main_does_not(tmp_path, command):
    """``run``, the process entry of ``python -m`` and of the installed
    script, freezes the collector once ``main`` returns and exits with
    ``main``'s code, so the exit-time collections skip every object the
    command's imports made. ``main`` in process freezes nothing."""
    src = Path(peerenc.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    cfg = write_config(tmp_path / "cfg.json", mc={"replications": 2})
    pop_path = tmp_path / "pop.json"
    frozen = gc.get_freeze_count()
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command != "generate":
        argv += ["--pop", str(pop_path)]
    code = main(argv)
    assert gc.get_freeze_count() == frozen
    proc = subprocess.run([sys.executable, "-c", _FREEZE_AT_EXIT, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    label, count = proc.stdout.splitlines()[-1].split()
    assert label == "frozen" and int(count) > 0
    with open(src.parent / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["scripts"]["peerenc"] == "peerenc.cli:run"


@pytest.mark.parametrize("command", ["generate", "estimands"])
def test_a_closed_stdout_pipe_is_a_one_line_error(tmp_path, command):
    """stdout is a pipe whose reader has already gone, so the first write or
    the final flush fails deterministically."""
    src = Path(peerenc.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    argv = {"generate": ["--out", str(tmp_path / "again.json")],
            "estimands": ["--pop", str(pop_path)]}[command]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "peerenc.cli", command,
                               "--config", str(cfg), *argv],
                              env=env, stdout=write, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: InvalidConfig: standard output: cannot write (Broken pipe)\n"


def _open_descriptors() -> int | None:
    """How many file descriptors this process holds, None without /proc."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_a_closed_stdout_pipe_is_a_one_line_error_in_process(tmp_path, monkeypatch):
    """main's BrokenPipe branch in this process: the flush after the command
    fails on a pipe whose read end is closed, stdout is pointed at the null
    device (so closing it loses the rest quietly) without leaving a
    descriptor open, and the error is one stderr line, with no traceback."""
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    read, write = os.pipe()
    os.close(read)
    err = io.StringIO()
    with open(write, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", err)
        fds = _open_descriptors()
        code = main(["estimands", "--config", str(cfg), "--pop", str(pop_path)])
        assert _open_descriptors() == fds
        monkeypatch.undo()
    assert code == 2
    assert err.getvalue() == "error: InvalidConfig: standard output: cannot write (Broken pipe)\n"


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_estimands_writes_utf8_whatever_the_locale(tmp_path, fmt):
    """A mechanism named φ,ψ, under the C locale without coercion or UTF-8
    mode: the same bytes as under the default locale, to a file and to
    stdout, which carries the file's bytes."""
    src = Path(peerenc.__file__).resolve().parent.parent
    cfg = write_config(tmp_path / "cfg.json",
                       mechanisms=[{"name": "φ,ψ", "p": 0.7}, {"name": "psi", "p": 0.3}],
                       design={"mech_a": "φ,ψ"})
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    argv = [sys.executable, "-m", "peerenc.cli", "estimands", "--config", str(cfg),
            "--pop", str(pop_path), "--format", fmt]
    written = {}
    for name, locale in (("default", {}),
                         ("C", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})):
        env = {**os.environ, "PYTHONPATH": str(src), **locale}
        out = tmp_path / f"{name}.{fmt}"
        runs = [subprocess.run(args, env=env, capture_output=True, timeout=120)
                for args in ([*argv, "--out", str(out)], argv)]
        assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
        written[name] = (out.read_bytes(), runs[1].stdout)
    assert written["C"] == written["default"] and written["C"][0] == written["C"][1]
    assert "mech=φ,ψ".encode() in written["C"][0]
    if fmt == "csv":  # the name's comma is quoted
        rows = list(csv.reader(io.StringIO(written["C"][0].decode(), newline="")))
        assert {len(row) for row in rows} == {3}
        assert any(row[0] == "ditt[1,0,mech=φ,ψ]" for row in rows)


@pytest.mark.parametrize("command, replications", [
    ("simulate", 0), ("simulate", 1), ("verify", 1),
])
def test_replication_count_is_checked_before_any_work_or_output(tmp_path, capsys, monkeypatch,
                                                                 command, replications):
    cfg = write_config(tmp_path / "cfg.json", mc={"replications": replications})
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])

    def no_population(path):
        raise AssertionError("the population was loaded before the replication count was checked")

    monkeypatch.setattr("peerenc.cli.load_population", no_population)
    dump = tmp_path / "out.csv"
    extra = ["--dump-data", str(dump)] if command == "simulate" else []
    capsys.readouterr()
    assert _exit_code([command, "--config", str(cfg), "--pop", str(pop_path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "mc.replications" in err
    assert not dump.exists()


def test_verify_without_monte_carlo_takes_zero_replications(tmp_path):
    """At R = 0 verify writes no Monte Carlo summary. The theorem records do
    not depend on the Monte Carlo: at R = 20 they are the same, and each
    plug-in line of the text report prints its estimator's ``mc`` row."""
    cfg = write_config(tmp_path / "cfg.json", mc={"replications": 0})
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--pop", str(pop_path), "--out", str(out)]) == 0
    exact = json.loads(out.read_text())
    assert exact["mc"] is None
    cfg = write_config(tmp_path / "cfg.json", mc={"replications": 20})
    argv = ["verify", "--config", str(cfg), "--pop", str(pop_path), "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["mc"]["replications"] == 20
    assert report["theorems"] == exact["theorems"]
    assert main([*argv, "--format", "text"]) == 0
    rows = {s["name"]: s for s in report["mc"]["estimators"]}
    plugins = re.findall(r"plug-in (\w+): mean=(\S+) std_bias_vs_rhs=(\S+)$",
                         out.read_text(), re.M)
    assert [name for name, _, _ in plugins] == [t["plugin_estimator"] for t in exact["theorems"]]
    for name, mean, std_bias in plugins:
        assert (mean, std_bias) == (f"{rows[name]['mean']:.6g}", f"{rows[name]['std_bias']:.3g}")


def test_verify_without_monte_carlo_needs_no_seed(tmp_path, capsys):
    """At R = 0 verify draws nothing: a config with no seed anywhere writes
    the report the seeded config writes, with the exit status its
    identities give; a --seed flag is still checked. At R > 0 the same
    config is refused for its missing seed."""
    pop_path, seeded, seedless = tmp_path / "pop.json", tmp_path / "a.json", tmp_path / "b.json"
    cfg = write_config(tmp_path / "seeded.json", mc={"replications": 0})
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    code = main(["verify", "--config", str(cfg), "--pop", str(pop_path), "--out", str(seeded)])
    doc = json.loads(cfg.read_text())
    del doc["seed"]
    cfg.write_text(json.dumps(doc))
    argv = ["verify", "--config", str(cfg), "--pop", str(pop_path), "--out", str(seedless)]
    assert main(argv) == code
    assert seedless.read_bytes() == seeded.read_bytes()
    passed = all(t["identity"] is not None and t["identity"]["passed"]
                 for t in json.loads(seedless.read_text())["theorems"])
    assert code == (0 if passed else 1)
    capsys.readouterr()
    assert _exit_code([*argv, "--seed", "x"]) == 2
    assert capsys.readouterr().err == \
        "error: InvalidConfig: --seed: expected an integer, got 'x'\n"
    doc["mc"] = {"replications": 5}
    cfg.write_text(json.dumps(doc))
    seedless.unlink()
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err == ("error: InvalidConfig: config: missing seed (set a"
                                       " top-level \"seed\" or pass --seed)\n")
    assert not seedless.exists()


@pytest.mark.parametrize("command, flag", [
    ("generate", "--out"), ("estimands", "--out"),
    ("simulate", "--out"), ("simulate", "--dump-data"), ("verify", "--out"),
])
def test_empty_output_paths_are_one_line_errors_before_any_work(
        tmp_path, capsys, monkeypatch, command, flag):
    """An empty output path exits 2 with one line naming it before the
    population is built or loaded, instead of falling back to a default file
    or to standard output, or skipping the write."""
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(write_config(tmp_path / "base.json")),
                 "--out", str(pop_path)]) == 0
    cfg = write_config(tmp_path / "cfg.json")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr("peerenc.cli.build_population", no_work)
    monkeypatch.setattr("peerenc.cli.load_population", no_work)
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    argv = [command, "--config", str(cfg)]
    if command != "generate":
        argv += ["--pop", str(pop_path)]
    argv += [flag, ""]
    capsys.readouterr()
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert flag in captured.err
    assert list(workdir.iterdir()) == []


_LOADED_MODULES = """
import sys
from peerenc.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)), file=sys.stderr)
raise SystemExit(code)
"""
# The same probe after a fresh interpreter imports the module sys.argv[1] alone.
_IMPORTED_MODULES = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""


def test_each_command_imports_only_the_layers_it_runs(tmp_path):
    """generate, estimands and verify without replications, each in a fresh
    interpreter, load neither the Monte Carlo, estimator nor design code;
    generate does not load the exact engine either. simulate and verify with
    replications load the layers they run. Every command loads the
    population file's module, and none loads ``csv`` (simulate renders its
    --dump-data CSV itself) or ``dataclasses``, whose classes compile their
    methods at import. Only the CLI joins the exact engine and
    the replication chain: importing either loads nothing of the other, and
    the estimators load no design or CSV code."""
    src = Path(peerenc.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    cfg = write_config(tmp_path / "cfg.json")
    exact_cfg = write_config(tmp_path / "exact-cfg.json", mc={"replications": 0})
    pop_path = tmp_path / "pop.json"

    def loaded(*argv, probe=_LOADED_MODULES):
        proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.split())

    generate = loaded("generate", "--config", str(cfg), "--out", str(pop_path))
    estimands = loaded("estimands", "--config", str(cfg), "--pop", str(pop_path),
                       "--out", str(tmp_path / "estimands.json"))
    simulate = loaded("simulate", "--config", str(cfg), "--pop", str(pop_path),
                      "--out", str(tmp_path / "simulate.json"),
                      "--dump-data", str(tmp_path / "run0.csv"))
    verify = loaded("verify", "--config", str(cfg), "--pop", str(pop_path),
                    "--out", str(tmp_path / "verify.json"))
    exact = loaded("verify", "--config", str(exact_cfg), "--pop", str(pop_path),
                   "--out", str(tmp_path / "exact.json"))
    replication = {"peerenc.montecarlo", "peerenc.estimators", "peerenc.design"}
    never = {"csv", "dataclasses"}
    assert "peerenc.population" in generate and "peerenc.estimands" in estimands
    assert not replication & generate
    assert not replication & estimands
    assert not (replication | {"peerenc._streams"}) & exact and "peerenc.estimands" in exact
    assert "peerenc.estimands" not in generate
    for replicating in (simulate, verify):
        assert replication | {"peerenc.estimands", "peerenc._streams"} <= replicating
    for modules in (generate, estimands, simulate, verify, exact):
        assert "peerenc.popfile" in modules and not never & modules
    assert "peerenc.estimands" not in loaded("peerenc.montecarlo", probe=_IMPORTED_MODULES)
    assert not {"peerenc.design", "csv"} & loaded("peerenc.estimators", probe=_IMPORTED_MODULES)
    assert not ({"peerenc.design", "peerenc.estimators", "peerenc.montecarlo"}
                & loaded("peerenc.estimands", probe=_IMPORTED_MODULES))


def test_importing_the_cli_starts_one_openblas_thread():
    """A fresh interpreter that imports the CLI runs one thread: the CLI asks
    numpy's OpenBLAS for no thread pool. A preset OPENBLAS_NUM_THREADS is
    kept."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc to count threads")
    src = Path(peerenc.__file__).resolve().parent.parent
    # this process imported the CLI already, which set the variable
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src)
    count = "import os, peerenc.cli; print(len(os.listdir('/proc/self/task')))"

    def threads(**preset):
        proc = subprocess.run([sys.executable, "-c", count], env={**env, **preset},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    assert threads() == 1
    if len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS starts no more threads than CPUs
        assert threads(OPENBLAS_NUM_THREADS="2") == 2


@pytest.mark.parametrize("command, fmt", [
    ("estimands", "json"), ("estimands", "csv"), ("estimands", "text"),
    ("simulate", "json"), ("simulate", "text"), ("verify", "json"), ("verify", "text"),
])
def test_stdout_carries_the_bytes_of_the_out_file(tmp_path, capsys, command, fmt):
    cfg = write_config(tmp_path / "cfg.json", mc={"replications": 20})
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    argv = [command, "--config", str(cfg), "--pop", str(pop_path), "--format", fmt]
    out = tmp_path / f"report.{fmt}"
    capsys.readouterr()
    codes = [main([*argv, "--out", str(out)]), main(argv)]
    assert codes[0] == codes[1]
    written = out.read_bytes()
    assert capsys.readouterr().out.encode() == written
    assert written.endswith(b"\n") and not written.endswith(b"\n\n")


def test_each_report_renders_every_format_its_command_offers():
    """A command writes ``report.to_<format>()`` for its --format choice, so
    the report class it writes has a method for each choice."""
    from peerenc.cli import build_parser
    from peerenc.estimands import EstimandReport, VerificationReport
    from peerenc.montecarlo import McSummary

    writes = {"estimands": EstimandReport, "simulate": McSummary, "verify": VerificationReport}
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    offered = {name: action.choices for name, p in subparsers.choices.items()
               for action in p._actions if action.dest == "format"}
    assert offered.keys() == writes.keys()
    for command, choices in offered.items():
        for fmt in choices:
            assert callable(getattr(writes[command], f"to_{fmt}", None)), (command, fmt)


@pytest.mark.parametrize("command, flags, kept, taken", [
    ("generate", {"--out": "cfg.json"}, "cfg.json", "--config"),
    ("estimands", {"--out": "pop.json"}, "pop.json", "--pop"),
    ("estimands", {"--out": "link.json"}, "pop.json", "--pop"),
    ("simulate", {"--dump-data": "x", "--out": "x"}, "x", "--out"),
], ids=["generate-config", "estimands-pop", "estimands-pop-link", "simulate-out"])
def test_an_output_that_names_an_input_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, command, flags, kept, taken):
    """An output path naming the command's config, its population (also
    through a symbolic link) or its other output exits 2 with one line, and
    the file it names keeps its bytes."""
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0
    (tmp_path / "link.json").symlink_to(pop_path)
    (tmp_path / "x").write_text("block_id\n")
    before = (tmp_path / kept).read_bytes()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr("peerenc.cli.build_population", no_work)
    monkeypatch.setattr("peerenc.cli.load_population", no_work)
    argv = [command, "--config", str(cfg)]
    if command != "generate":
        argv += ["--pop", str(pop_path)]
    for flag, name in flags.items():
        argv += [flag, str(tmp_path / name)]
    capsys.readouterr()
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "--dump-data" if command == "simulate" else "--out"
    assert captured.err == (f"error: InvalidConfig: {where} {tmp_path / flags[where]}: "
                            f"cannot write (it is the {taken} file)\n")
    assert (tmp_path / kept).read_bytes() == before
