import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peerenc
from peerenc.cli import main
from peerenc.population import load_population


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
    from peerenc.cli import _parse_dgp
    from peerenc.estimands import compute_estimand_report
    from peerenc.mechanisms import Mechanism
    from peerenc.population import build_population

    cfg_path = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg_path), "--out", str(pop_path)])
    cfg = json.loads(cfg_path.read_text())
    in_memory = build_population(_parse_dgp(cfg), _streams.stream(cfg["seed"], 0))
    a = Mechanism("phi", 0.7)
    b = Mechanism("psi", 0.3)
    from_file = load_population(pop_path)
    assert compute_estimand_report(from_file, a, b).to_json() == \
        compute_estimand_report(in_memory, a, b).to_json()


def test_threads_env_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    monkeypatch.setenv("PEERENC_THREADS", "3")
    assert main(["simulate", "--config", str(cfg), "--pop", str(pop_path),
                 "--out", str(out_env)]) == 0
    monkeypatch.delenv("PEERENC_THREADS")
    assert main(["simulate", "--config", str(cfg), "--pop", str(pop_path),
                 "--threads", "3", "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


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


@pytest.mark.parametrize("command, overrides, extra, env, field", [
    ("generate", {"dgp": {"blocks": 2.7}}, [], {}, "dgp.blocks"),
    ("generate", {"dgp": {"block_size": 2.7}}, [], {}, "dgp.block_size"),
    ("generate", {"dgp": {"block_size": []}}, [], {}, "config dgp.block_size"),
    ("generate", {"dgp": {"block_size": [3]}}, [], {}, "config dgp.block_size"),
    ("generate", {"dgp": {"block_size": [2, 3, 4]}}, [], {}, "config dgp.block_size"),
    ("generate", {"dgp": {"blocks": "4"}}, [], {}, "dgp.blocks"),
    ("generate", {"dgp": {"blocks": " 4 "}}, [], {}, "dgp.blocks"),
    ("generate", {"seed": "1"}, [], {}, "config seed"),
    ("generate", {"seed": "x"}, [], {}, "config seed"),
    ("generate", {"seed": -1}, [], {}, "config seed"),
    ("simulate", {"design": {"seed": "x"}}, [], {}, "design.seed"),
    ("simulate", {"mc": {"replications": "many"}}, [], {}, "mc.replications"),
    ("simulate", {"mc": {"replications": "4"}}, [], {}, "mc.replications"),
    ("simulate", {"mc": {"replications": 2.5}}, [], {}, "mc.replications"),
    ("simulate", {"mc": {"replications": 10**15}}, [], {}, "mc.replications"),
    ("verify", {"mc": {"replications": -1}}, [], {}, "mc.replications"),
    ("simulate", {"design": {"k": "two"}}, [], {}, "design.k"),
    ("simulate", {"design": {"k": True}}, [], {}, "design.k"),
    ("simulate", {"design": {"k": "2"}}, [], {}, "design.k"),
    ("verify", {"design": {"k": "two"}}, [], {}, "design.k"),
    ("simulate", {}, [], {"PEERENC_THREADS": "abc"}, "PEERENC_THREADS"),
    ("simulate", {}, [], {"PEERENC_THREADS": "0"}, "PEERENC_THREADS"),
    ("simulate", {}, ["--threads", "0"], {}, "--threads"),
    ("verify", {}, ["--threads", "-2"], {}, "--threads"),
], ids=["blocks-2.7", "block-size-2.7", "block-size-empty", "block-size-one",
        "block-size-three", "blocks-string", "blocks-padded-string", "seed-string", "seed-x",
        "seed-negative", "design-seed-x", "replications-many", "replications-string",
        "replications-2.5", "replications-1e15", "verify-replications-negative", "k-two",
        "k-true", "k-string", "verify-k-two",
        "threads-env-abc", "threads-env-0", "threads-0", "verify-threads-negative"])
def test_integer_fields_are_one_line_errors(tmp_path, capsys, monkeypatch,
                                            command, overrides, extra, env, field):
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(write_config(tmp_path / "good.json")),
          "--out", str(pop_path)])
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    pop = ["--pop", str(pop_path)] if command != "generate" else []
    capsys.readouterr()
    assert _exit_code([command, "--config", str(cfg), *pop, *extra,
                       "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert field in err


_OUTCOME = {"representation": "structural", "direct": 2.0, "peer": 0.4, "interaction": 0.2,
            "noise_sd": 0.5}


@pytest.mark.parametrize("dgp, field", [
    ({"outcome": {**_OUTCOME, "direct": ["1e999", 0]}}, "dgp.outcome.direct"),
    ({"outcome": {**_OUTCOME, "direct": [float("inf"), 0]}}, "dgp.outcome.direct"),
    ({"outcome": {**_OUTCOME, "intercept": 10**400}}, "dgp.outcome.intercept"),
    ({"outcome": {**_OUTCOME, "peer": True}}, "dgp.outcome.peer"),
    ({"strata": ["nan", 1.0, 0.0, 0.0]}, "dgp.strata"),
    ({"strata": {"complier": float("nan")}}, "dgp.strata.complier"),
    ({"outcome": {**_OUTCOME, "direct": [1, -2]}}, "outcome direct"),
    ({"outcome": {**_OUTCOME, "noise_sd": "nan"}}, "dgp.outcome.noise_sd"),
    ({"outcome": {**_OUTCOME, "noise_sd": -1}}, "outcome noise_sd"),
    ({"outcome": {**_OUTCOME, "representation": "table", "z_own": "inf"}},
     "dgp.outcome.z_own"),
    ({"complier_floor": "no"}, "dgp.complier_floor"),
    ({"monotone": 1}, "dgp.monotone"),
], ids=["direct-string-1e999", "direct-infinity", "intercept-huge-int", "peer-true",
        "strata-string-nan", "strata-nan", "direct-negative-sd", "noise-sd-string-nan",
        "noise-sd-negative", "z-own-string-inf", "complier-floor-string", "monotone-1"])
def test_dgp_fields_take_finite_numbers_and_booleans(tmp_path, capsys, dgp, field):
    cfg = write_config(tmp_path / "cfg.json", dgp=dgp)
    out = tmp_path / "pop.json"
    assert _exit_code(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert field in err
    assert not out.exists()


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
    ("generate", {"output": {"path": 5}}, "config output.path"),
], ids=["top-level-list", "mechanisms-not-objects", "mechanism-name-list", "dgp-list",
        "outcome-list", "design-list", "mc-list", "mech-a-list", "output-path-number"])
def test_config_sections_of_the_wrong_type_are_one_line_errors(tmp_path, capsys,
                                                               command, text, field):
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


@pytest.mark.parametrize("mechanism, field", [
    ({"p": "0.7"}, "mechanisms[0].p"),
    ({"p": True}, "mechanisms[0].p"),
    ({"p": float("nan")}, "mechanisms[0].p"),
    ({"probs": ["0.2", "0.3", "0.2"]}, "mechanisms[0].probs"),
    ({"probs": [0.2, None, 0.2]}, "mechanisms[0].probs"),
    ({"probs": "0.5"}, "mechanisms[0].probs"),
], ids=["p-string", "p-true", "p-nan", "probs-strings", "probs-null", "probs-string"])
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
], ids=["key-minus-1", "key-01-aliases-1", "key-11", "value-string", "outcome-list",
        "d0-0.7", "d1-true", "size-1.9", "coefficient-string", "flag-string"])
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


@pytest.mark.parametrize("flag, make", [
    ("--pop", lambda path: None),
    ("--pop", lambda path: path.mkdir()),
    ("--pop", lambda path: path.write_bytes(b'{"flags": "\xff"}')),
    ("--pop", lambda path: path.write_text('{"flags": {"monotone": tr')),
    ("--config", lambda path: path.mkdir()),
    ("--config", lambda path: path.write_bytes(b'{"seed": 1, "dgp": "\xe9"}')),
], ids=["pop-missing", "pop-directory", "pop-not-utf8", "pop-truncated-json",
        "config-directory", "config-not-utf8"])
def test_unreadable_input_files_are_one_line_errors(tmp_path, capsys, flag, make):
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    bad = tmp_path / "bad"
    make(bad)
    args = {"--config": str(cfg), "--pop": str(pop_path), flag: str(bad)}
    capsys.readouterr()
    assert _exit_code(["estimands", *(x for kv in args.items() for x in kv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(bad) in err


@pytest.mark.parametrize("command, flag", [
    ("generate", "--out"), ("generate", "output.path"), ("estimands", "--out"),
    ("simulate", "--out"), ("simulate", "--dump-data"), ("verify", "--out"),
])
@pytest.mark.parametrize("where", ["nodir/out", "adir"])
def test_unwritable_output_paths_are_one_line_errors_before_any_work(
        tmp_path, capsys, monkeypatch, command, flag, where):
    """An output path in a missing directory, or naming a directory, exits 2
    with one line naming it before the population is built or loaded; so
    simulate never writes its --dump-data CSV for a run it cannot finish."""
    (tmp_path / "adir").mkdir()
    bad = tmp_path / where
    output = {"path": str(bad)} if flag == "output.path" else {}
    cfg = write_config(tmp_path / "cfg.json", output=output)
    pop_path = tmp_path / "pop.json"
    assert main(["generate", "--config", str(cfg), "--out", str(pop_path)]) == 0

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr("peerenc.cli.build_population", no_work)
    monkeypatch.setattr("peerenc.cli.load_population", no_work)
    dump = tmp_path / "data.csv"
    argv = [command, "--config", str(cfg)]
    if command != "generate":
        argv += ["--pop", str(pop_path)]
    if command == "simulate" and flag == "--out":
        argv += ["--dump-data", str(dump)]
    if flag != "output.path":
        argv += [flag, str(bad)]
    capsys.readouterr()
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(bad) in err
    assert not dump.exists()


def test_a_failed_write_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "pop.json"

    def denied(pop, path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("peerenc.cli.save_population", denied)
    capsys.readouterr()
    assert _exit_code(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: InvalidConfig: {out}: cannot write (Permission denied)\n"


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
    cfg = write_config(tmp_path / "cfg.json", mc={"replications": 0})
    pop_path = tmp_path / "pop.json"
    main(["generate", "--config", str(cfg), "--out", str(pop_path)])
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--pop", str(pop_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mc"] is None


@pytest.mark.parametrize("command, flag", [
    ("generate", "output.path"), ("generate", "--out"), ("estimands", "--out"),
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
    output = {"path": ""} if flag == "output.path" else {}
    cfg = write_config(tmp_path / "cfg.json", output=output)

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
    if flag != "output.path":
        argv += [flag, ""]
    capsys.readouterr()
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert ("config output.path" if flag == "output.path" else flag) in captured.err
    assert list(workdir.iterdir()) == []


_LOADED_MODULES = """
import sys
from peerenc.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)), file=sys.stderr)
raise SystemExit(code)
"""


def test_each_command_imports_only_the_layers_it_runs(tmp_path):
    """generate and estimands, each in a fresh interpreter, load neither the
    Monte Carlo, estimator nor CSV code; generate does not load the exact
    engine either."""
    src = Path(peerenc.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    cfg = write_config(tmp_path / "cfg.json")
    pop_path = tmp_path / "pop.json"

    def loaded(*argv):
        proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.split())

    generate = loaded("generate", "--config", str(cfg), "--out", str(pop_path))
    estimands = loaded("estimands", "--config", str(cfg), "--pop", str(pop_path),
                       "--out", str(tmp_path / "estimands.json"))
    never = {"peerenc.montecarlo", "peerenc.estimators", "peerenc.design", "csv"}
    assert "peerenc.population" in generate and "peerenc.estimands" in estimands
    assert not never & generate
    assert not never & estimands
    assert "peerenc.estimands" not in generate
