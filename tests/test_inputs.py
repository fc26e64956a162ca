"""The three inputs, fuzzed: the run config through the CLI,
``population_from_dict`` and ``ExperimentData.from_csv``.

Each property starts from a valid document and applies one mutation chosen
from the document's own keys: an unknown key, a type swap, a deleted key, a
non-finite number, a huge integer or a wrong shape. A loader must return a
valid object or raise a PeerEncError; the CLI must run (exit 0, or 1 when
`verify` finds an identity failing) or exit 2 with one line on stderr. An
unknown key or a non-finite number is always a defect, since every key of
every object is in a closed set and no field takes a non-finite number.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerenc.cli import main
from peerenc.design import Design, ExperimentData, run_design
from peerenc.errors import InvalidConfig, InvalidData, PeerEncError
from peerenc.mechanisms import Mechanism
from peerenc.popfile import population_from_dict
from peerenc.population import Population
from conftest import person, population, strict_json, structural, table
from oracles import population_to_dict

ROOT = Path(__file__).resolve().parent.parent
FUZZ = settings(derandomize=True, max_examples=120, deadline=None, database=None)

# Stand-ins for JSON texts that no Python value serializes to: an integer
# beyond Python's 4300-digit conversion limit, and nesting beyond the
# decoder's recursion limit.
_HUGE_TEXT, _DEEP_TEXT = "9" * 5000, "[" * 100_000 + "]" * 100_000
_MARKERS = {"@huge": _HUGE_TEXT, "@deep": _DEEP_TEXT}

CONFIG = {
    "seed": 5,
    "dgp": {"blocks": 4, "block_size": [3, 3],
            "strata": {"always_taker": 0.2, "complier": 0.6, "never_taker": 0.2},
            "outcome": {"representation": "mixed", "intercept": 0.5, "direct": [2.0, 0.5],
                        "peer": 0.3, "interaction": 0.1, "curvature": 0.0, "noise_sd": 0.2,
                        "z_own": 0.0, "z_peer": 0.0},
            "monotone": True, "one_sided": False, "complier_floor": True},
    "mechanisms": [{"name": "phi", "p": 0.7}, {"name": "psi", "probs": [0.2, 0.3, 0.25]}],
    "design": {"mech_a": "phi", "mech_b": "psi", "k": 2},
    "mc": {"replications": 4},
}


def _paths(doc, prefix=()):
    """Every position in a JSON document, as a path of keys and indices."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _put(doc, path, value):
    """A copy of doc with the value at path replaced."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    _at(doc, head)[last] = value
    return doc


@st.composite
def mutations(draw, doc, huge=(10**400, -10**400, "@huge")):
    """(kind, mutated document) for one mutation of doc."""
    kind = draw(st.sampled_from(["unknown key", "type swap", "deleted key", "non-finite",
                                 "huge integer", "wrong shape"]))
    paths = list(_paths(doc))
    if kind in ("unknown key", "deleted key"):
        objects = [p for p in paths if isinstance(_at(doc, p), dict) and _at(doc, p)]
        path = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(_at(doc, path))))
        out = json.loads(json.dumps(doc))
        if kind == "deleted key":
            del _at(out, path)[key]
        else:
            typo = draw(st.sampled_from([k for k in (key[:-1], key + "_", "_" + key, "extra")
                                         if k not in _at(out, path)]))
            _at(out, path)[typo] = _at(out, path)[key]
        return kind, out
    path = draw(st.sampled_from(paths[1:]))
    old = _at(doc, path)
    if kind == "type swap":
        new = draw(st.sampled_from([None, True, False, "2", "", 2.5, 3, 0, [], {}, ["a"],
                                    {"a": 1}]))
    elif kind == "non-finite":
        new = draw(st.sampled_from([float("inf"), float("-inf"), float("nan")]))
    elif kind == "huge integer":
        new = draw(st.sampled_from(huge))
    else:
        shapes = [[old], [old, old, old], {"value": old}, "@deep"]
        if isinstance(old, list):
            shapes += [old[:-1], [*old, old[-1]] if old else [0], old[0] if old else 0]
        if isinstance(old, dict):
            shapes += [list(old.values())]
        new = draw(st.sampled_from(shapes))
    return kind, _put(doc, path, new)


def _json_text(doc) -> str:
    text = json.dumps(doc)
    for marker, replacement in _MARKERS.items():
        text = text.replace(json.dumps(marker), replacement)
    return text


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pop_file(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "cfg.json").write_text(json.dumps(CONFIG))
    pop = directory / "pop.json"
    assert _run(["generate", "--config", str(directory / "cfg.json"), "--out", str(pop)])[0] == 0
    return pop


def _assert_one_line_error(code, err):
    assert code == 2, err
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err


@FUZZ
@given(data=st.data())
def test_config_mutations_run_or_exit_2_with_one_line(pop_file, data):
    kind, cfg = data.draw(mutations(CONFIG))
    command = data.draw(st.sampled_from(["generate", "estimands", "simulate", "verify"]))
    directory = pop_file.parent
    path, out = directory / "mutated.json", directory / "mutated.out"
    path.write_text(_json_text(cfg))
    out.unlink(missing_ok=True)
    argv = [command, "--config", str(path), "--out", str(out)]
    code, _, err = _run(argv + ([] if command == "generate" else ["--pop", str(pop_file)]))
    if kind in ("unknown key", "non-finite") or code not in (0, 1):
        _assert_one_line_error(code, err)
        assert not out.exists()
    else:
        assert err == ""


def _population_document() -> dict:
    return population_to_dict(population([
        [person("co", structural(direct=2.0, peer=0.5)), person("nt", table([0.0, 1.0, 0.5, 2.0]))],
        [person("at", table(np.arange(16.0).reshape(4, 4))), person("co", structural())],
    ]))


@FUZZ
@given(data=st.data())
def test_population_mutations_load_or_raise(data):
    kind, doc = data.draw(mutations(_population_document(), huge=(10**400, -10**400)))
    try:
        pop = population_from_dict(doc)
    except PeerEncError:
        return
    assert kind not in ("unknown key", "non-finite")
    assert isinstance(pop, Population)


_CSV_FIELDS = {
    "unknown key": ["extra"],
    "type swap": ["x", "", "1.5", "true", "null", "0x1"],
    "non-finite": ["nan", "inf", "-inf", "1e999"],
    "huge integer": ["9" * 400, "9" * 5000, "9" * 140_000],
}


@pytest.fixture(scope="module")
def csv_rows(tmp_path_factory):
    pop = population([[person("co", structural(direct=1.0)) for _ in range(3)]
                      for _ in range(4)])
    path = tmp_path_factory.mktemp("csv") / "run.csv"
    run_design(Design(pop, Mechanism("phi", 0.7), Mechanism("psi", 0.3), k=2, seed=3)).to_csv(path)
    return [line.split(",") for line in path.read_text().splitlines()]


@FUZZ
@given(data=st.data())
def test_csv_mutations_load_or_raise(tmp_path_factory, csv_rows, data):
    kind = data.draw(st.sampled_from(["unknown key", "type swap", "deleted key", "non-finite",
                                      "huge integer", "wrong shape"]))
    rows = [list(row) for row in csv_rows]
    row = data.draw(st.integers(0, len(rows) - 1))
    col = data.draw(st.integers(0, len(rows[0]) - 1))
    if kind == "unknown key":  # a column the schema does not have
        for r in rows:
            r.insert(col, "extra" if r is rows[0] else "0")
    elif kind == "deleted key":  # a column or one field
        for r in rows if data.draw(st.booleans()) else [rows[row]]:
            del r[col]
    elif kind == "wrong shape":
        shape = data.draw(st.sampled_from(["extra field", "short row", "no rows", "empty",
                                           "duplicate row", "dropped row"]))
        if shape == "extra field":
            rows[row].append("0")
        elif shape == "short row":
            rows[row] = rows[row][:col]
        elif shape == "duplicate row":
            rows.insert(row, list(rows[row]))
        elif shape in ("no rows", "empty"):
            rows = rows[:1] if shape == "no rows" else []
        else:
            del rows[max(row, 1)]
    else:
        rows[max(row, 1)][col] = data.draw(st.sampled_from(_CSV_FIELDS[kind]))
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    try:
        loaded = ExperimentData.from_csv(path, Mechanism("phi", 0.7), Mechanism("psi", 0.3))
    except PeerEncError:
        return
    assert kind not in ("unknown key", "non-finite")
    assert isinstance(loaded, ExperimentData)


# --------------------------------------------------------------------------
# Regressions: each input defect, pinned by the case that showed it
# --------------------------------------------------------------------------


@pytest.mark.parametrize("section, where, key", [
    ((), "config", "sed"), (("dgp",), "config dgp", "blcks"),
    (("dgp", "outcome"), "config dgp.outcome", "dirct"),
    (("dgp", "strata"), "config dgp.strata", "complyer"),
    (("mechanisms", 0), "config mechanisms[0]", "prob"), (("design",), "config design", "kk"),
    (("mc",), "config mc", "replicatons"), ((), "config", "output"),
], ids=["top", "dgp", "outcome", "strata", "mechanism", "design", "mc", "output"])
@pytest.mark.parametrize("command", ["generate", "estimands", "simulate", "verify"])
def test_unknown_config_key_is_a_one_line_error_before_any_work(tmp_path, pop_file, section,
                                                                where, key, command):
    """An unknown key in any object of the config exits 2 naming its object,
    whichever command reads the file, and nothing is written; the config has
    no ``output`` section (generate writes to --out)."""
    cfg = json.loads(json.dumps(CONFIG))
    _at(cfg, section)[key] = 1
    path, out = tmp_path / "cfg.json", tmp_path / "out.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--out", str(out)]
    code, stdout, err = _run(argv + ([] if command == "generate" else ["--pop", str(pop_file)]))
    _assert_one_line_error(code, err)
    assert f"{where}: unknown key {key!r}" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("mechanism, message", [
    ({"name": "phi", "p": 0.7, "probs": [0.7, 0.7, 0.7]}, "needs exactly one of 'p' and 'probs'"),
    ({"name": "phi"}, "needs exactly one of 'p' and 'probs'"),
    ({"p": 0.7}, "missing key 'name'"),
], ids=["p-and-probs", "neither", "no-name"])
def test_a_mechanism_needs_a_name_and_exactly_one_of_p_and_probs(tmp_path, pop_file,
                                                                 mechanism, message):
    cfg = _put(CONFIG, ("mechanisms", 0), mechanism)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = _run(["estimands", "--config", str(path), "--pop", str(pop_file)])
    _assert_one_line_error(code, err)
    assert f"config mechanisms[0]: {message}" in err


def test_generate_reads_the_whole_config(tmp_path):
    """A defect in a section `generate` does not run still exits 2: one
    config file serves all four commands."""
    path, out = tmp_path / "cfg.json", tmp_path / "pop.json"
    path.write_text(json.dumps(_put(CONFIG, ("mechanisms", 1, "probs", 0), "0.2")))
    code, _, err = _run(["generate", "--config", str(path), "--out", str(out)])
    _assert_one_line_error(code, err)
    assert "config mechanisms[1].probs" in err and not out.exists()


@pytest.mark.parametrize("where, edit", [
    ("population: unknown key 'extra'", lambda d: d.update(extra=1)),
    ("population flags: unknown key 'extra'", lambda d: d["flags"].update(extra=True)),
    ("individual 0: unknown key 'd2'", lambda d: d["blocks"][0][0].update(d2=0)),
    ("individual 0: outcome: unknown key 'dirct'",
     lambda d: d["blocks"][0][0]["outcome"].update(dirct=1.0)),
    ("individual 1: outcome: unknown key 'direct'",
     lambda d: d["blocks"][0][1]["outcome"].update(direct=1.0)),
    ("individual 0: outcome: unknown key 'size'",
     lambda d: d["blocks"][0][0]["outcome"].update(size=2)),
], ids=["top", "flags", "individual", "structural", "table", "structural-size"])
def test_unknown_population_key_is_invalid(where, edit):
    doc = _population_document()
    edit(doc)
    with pytest.raises(InvalidConfig, match=re.escape(where)):
        population_from_dict(doc)


@pytest.mark.parametrize("text, message", [
    ('{"seed": %s}' % _HUGE_TEXT, "an integer of over 4300 digits"),
    (_DEEP_TEXT, "nested too deeply"),
], ids=["5000-digit-integer", "deep-nesting"])
@pytest.mark.parametrize("flag", ["--config", "--pop"])
def test_json_the_decoder_refuses_is_a_one_line_error(tmp_path, pop_file, text, message, flag):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    args = {"--config": str(pop_file.parent / "cfg.json"), "--pop": str(pop_file), flag: str(bad)}
    code, _, err = _run(["estimands", *(x for kv in args.items() for x in kv)])
    _assert_one_line_error(code, err)
    assert f"{bad}: invalid JSON: {message}" in err


def test_a_csv_field_over_the_csv_limit_is_invalid_data(tmp_path, csv_rows):
    rows = [list(row) for row in csv_rows]
    rows[1][5] = "9" * 140_000
    path = tmp_path / "run.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(InvalidData, match="^" + re.escape(f"{path}: field larger than")):
        ExperimentData.from_csv(path, Mechanism("phi", 0.7), Mechanism("psi", 0.3))


def _workloads():
    """perfbench's workload definitions, imported read-only."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


@pytest.mark.parametrize("outcome, message", [
    ({"direct": [0, 1e308]}, "block 1 individual 1: drawn direct is -inf"),
    ({"representation": "table", "intercept": 1e308, "direct": 1e308},
     "block 0 individual 0: outcome table entry at row 1000 is not finite"),
], ids=["drawn-coefficient", "table-entry"])
def test_a_draw_that_overflows_is_refused_before_anything_is_written(tmp_path, outcome, message):
    """The mc-small-blocks benchmark config at seed 7, with coefficients
    whose draws, or whose sums in a table, overflow."""
    cfg = _workloads().WORKLOADS["mc-small-blocks"].config(7, 60)
    cfg["dgp"]["outcome"].update(outcome)
    path, out = tmp_path / "cfg.json", tmp_path / "pop.json"
    path.write_text(json.dumps(cfg))
    code, stdout, err = _run(["generate", "--config", str(path), "--out", str(out)])
    _assert_one_line_error(code, err)
    assert f"InvalidConfig: {message}" in err
    assert stdout == "" and not out.exists()


def test_a_duplicate_config_key_is_a_one_line_error(tmp_path, pop_file):
    """json keeps the last of repeated keys; the reader refuses them, so
    `"mc": {"replications": 5, "replications": 4}` cannot run 4 replicates."""
    text = json.dumps(CONFIG)
    assert '"mc": {"replications": 4}' in text
    path = tmp_path / "cfg.json"
    path.write_text(text.replace('"mc": {"replications": 4}',
                                 '"mc": {"replications": 5, "replications": 4}'))
    code, stdout, err = _run(["simulate", "--config", str(path), "--pop", str(pop_file)])
    _assert_one_line_error(code, err)
    assert f"{path}: duplicate key 'replications'" in err and stdout == ""


def test_a_duplicate_population_key_is_a_one_line_error(tmp_path, pop_file):
    text = pop_file.read_text()
    assert '"d0": 0,' in text
    path = tmp_path / "pop.json"
    path.write_text(text.replace('"d0": 0,', '"d0": 1,\n    "d0": 0,', 1))
    code, _, err = _run(["estimands", "--config", str(pop_file.parent / "cfg.json"),
                         "--pop", str(path)])
    _assert_one_line_error(code, err)
    assert f"{path}: duplicate key 'd0'" in err


_OVERFLOW = {"intercept": 1e308, "direct": 1e308}


def test_a_structural_outcome_that_overflows_is_refused_when_drawn(tmp_path):
    """The mc-small-blocks benchmark config at seed 7 with finite coefficients
    whose sum overflows: |intercept| + |direct| is not finite."""
    cfg = _workloads().WORKLOADS["mc-small-blocks"].config(7, 60)
    cfg["dgp"]["outcome"].update(_OVERFLOW)
    path, out = tmp_path / "cfg.json", tmp_path / "pop.json"
    path.write_text(json.dumps(cfg))
    code, stdout, err = _run(["generate", "--config", str(path), "--out", str(out)])
    _assert_one_line_error(code, err)
    assert "InvalidConfig: block 0 individual 0: the structural outcome overflows" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["estimands", "simulate", "verify"])
def test_a_structural_outcome_that_overflows_is_refused_when_loaded(tmp_path, pop_file,
                                                                    command):
    data = json.loads(pop_file.read_text())
    individual = next(j for j, r in enumerate(data["blocks"][2])
                      if r["outcome"]["kind"] == "structural")
    data["blocks"][2][individual]["outcome"].update(_OVERFLOW)
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(data))
    code, stdout, err = _run([command, "--config", str(pop_file.parent / "cfg.json"),
                              "--pop", str(path)])
    _assert_one_line_error(code, err)
    assert f"block 2 individual {individual}: the structural outcome overflows" in err
    assert stdout == ""


def test_outcomes_whose_sum_overflows_are_refused_before_anything_is_written(tmp_path):
    """The mc-small-blocks benchmark config at seed 7 with intercept 1e308:
    each outcome is finite, but a block sum of them is not."""
    cfg = _workloads().WORKLOADS["mc-small-blocks"].config(7, 60)
    cfg["dgp"]["outcome"]["intercept"] = 1e308
    path, out = tmp_path / "cfg.json", tmp_path / "pop.json"
    path.write_text(json.dumps(cfg))
    code, stdout, err = _run(["generate", "--config", str(path), "--out", str(out)])
    _assert_one_line_error(code, err)
    assert "InvalidConfig: block 0: the outcomes overflow" in err
    assert stdout == "" and not out.exists()


def _singletons(tmp_path, intercept: float, p_a: float, p_b: float):
    """A config and a population file of two blocks of one complier each."""
    pop = population([[person("co", structural(intercept=intercept))]] * 2)
    pop_path, cfg_path = tmp_path / "pop.json", tmp_path / "cfg.json"
    pop_path.write_text(json.dumps(population_to_dict(pop)))
    cfg_path.write_text(json.dumps({
        "seed": 3, "mechanisms": [{"name": "a", "p": p_a}, {"name": "b", "p": p_b}],
        "design": {"k": 1}, "mc": {"replications": 20}}))
    return ["--config", str(cfg_path), "--pop", str(pop_path)]


def test_a_design_whose_weighted_outcomes_overflow_is_refused(tmp_path):
    """The population is within its bound (2 * 8e307), but inverse-probability
    weights of 1 / 0.2 take the design past the float range."""
    argv = _singletons(tmp_path, 4e307, 0.2, 0.5)
    assert _run(["estimands", *argv])[0] == 0
    for command in ("simulate", "verify"):
        code, stdout, err = _run([command, *argv])
        _assert_one_line_error(code, err)
        assert ("InvalidDesign: config design: mechanism 'a': inverse-probability weighted"
                " outcomes") in err
        assert stdout == ""


def test_a_population_and_design_just_inside_both_bounds_run(tmp_path):
    """2 * (2 / 0.4999) * 2.2e307 is about 1.76e308, just below the largest
    float; pytest turns any RuntimeWarning into an error. At 2.3e307 the
    design is refused. (A block of one never shows both encouragements, so
    the uptake estimate and the ratio estimators are undefined here.)"""
    argv = _singletons(tmp_path, 2.2e307, 0.5, 0.4999)
    outputs = {}
    for command in ("estimands", "simulate", "verify"):
        code, outputs[command], err = _run([command, *argv])
        assert (code, err) == (0, ""), err
    assert "null" not in outputs["estimands"]
    itt = [s for s in json.loads(outputs["simulate"])["estimators"]
           if s["name"].startswith(("ditt", "pitt"))]
    assert len(itt) == 4
    assert all(s["n_defined"] == 20 and abs(s["mean"]) < 1.8e308 for s in itt)
    code, _, err = _run(["simulate", *_singletons(tmp_path, 2.3e307, 0.5, 0.4999)])
    _assert_one_line_error(code, err)


@pytest.mark.parametrize("bound, value, message", [
    ("MAX_INDIVIDUALS", 1, "2 individuals exceed the bound of 1 individuals"),
    ("MAX_TABLE_ENTRIES", 3, "4 table entries exceed the bound of 3"),
])
def test_a_population_file_over_a_bound_is_a_one_line_error(tmp_path, monkeypatch, bound, value,
                                                           message):
    """The constructor's bounds, lowered so that a small file exceeds them
    (test_population checks them at their real values, from arrays): two
    blocks of one plain-table member each hold 2 individuals and 4 table
    entries. The config has no dgp section, which the lowered bounds would
    refuse first."""
    pop_path, cfg_path = tmp_path / "pop.json", tmp_path / "cfg.json"
    doc = population_to_dict(population([[person("co", table([1.0, 2.0]))]] * 2))
    pop_path.write_text(json.dumps(doc))
    cfg_path.write_text(json.dumps({k: v for k, v in CONFIG.items() if k != "dgp"}))
    monkeypatch.setattr(f"peerenc.population.{bound}", value)
    code, stdout, err = _run(["estimands", "--config", str(cfg_path), "--pop", str(pop_path)])
    _assert_one_line_error(code, err)
    assert f"InvalidConfig: population file: {message}" in err
    assert stdout == ""


@pytest.mark.parametrize("shape", ["zero-uptake", "mc-small-blocks"])
def test_every_json_report_is_strict_json(tmp_path, shape):
    """`estimands`, `simulate` and `verify` write JSON with null for every
    undefined number: on a population where nobody ever takes treatment
    (every ratio estimator undefined) and on a benchmark-shaped one."""
    cfg = _workloads().WORKLOADS["mc-small-blocks"].config(1, 20)
    cfg_path, pop_path = tmp_path / "cfg.json", tmp_path / "pop.json"
    if shape == "zero-uptake":
        cfg["design"]["k"] = 3
        pop_path.write_text(json.dumps({
            "flags": {"monotone": True, "one_sided": True, "exclusion_ok": True},
            "blocks": [[{"d0": 0, "d1": 0, "outcome": {"kind": "structural", "intercept": i,
                                                       "direct": 2.0, "peer": 0.5 * j}}
                        for j in range(3)] for i in range(6)],
        }))
    cfg_path.write_text(json.dumps(cfg))
    if shape != "zero-uptake":
        assert _run(["generate", "--config", str(cfg_path), "--out", str(pop_path)])[0] == 0
    reports = {}
    for command in ("estimands", "simulate", "verify"):
        out = tmp_path / f"{command}.json"
        code, _, err = _run([command, "--config", str(cfg_path), "--pop", str(pop_path),
                             "--out", str(out)])
        assert code == (1 if command == "verify" else 0), err
        reports[command] = strict_json(out.read_text())
    assert reports["verify"]["mc"]["replications"] == 20
    if shape == "zero-uptake":
        theorems = {t["name"]: t for t in reports["verify"]["theorems"]}
        rows = {s["name"]: s for s in reports["verify"]["mc"]["estimators"]}
        for name in ("theorem_1", "theorem_2"):
            assert theorems[name]["identity"] is None
        for name in ("ldt_hat", "lpt_diff_hat"):
            assert rows[name]["mean"] is None and rows[name]["mcse"] is None


# --------------------------------------------------------------------------
# Configs that must keep loading under the closed key sets
# --------------------------------------------------------------------------


class _WorkStarted(Exception):
    pass


def _readme_config() -> dict:
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def _benchmark_configs():
    workloads = _workloads()
    for name, w in workloads.WORKLOADS.items():
        yield pytest.param(w.config(1, w.sim_replications), id=f"{name}-simulate")
        yield pytest.param(w.config(1, workloads.VERIFY_REPLICATIONS), id=f"{name}-verify")


@pytest.mark.parametrize("cfg", [*_benchmark_configs(),
                                 pytest.param(_readme_config(), id="readme")])
@pytest.mark.parametrize("command", ["generate", "estimands", "simulate", "verify"])
def test_benchmark_and_readme_configs_pass_every_config_check(tmp_path, monkeypatch, cfg,
                                                              command):
    """Each command gets as far as its first piece of work (building or
    loading the population) on the benchmark's configs and the README's."""
    def work(*args, **kwargs):
        raise _WorkStarted

    monkeypatch.setattr("peerenc.cli.build_population", work)
    monkeypatch.setattr("peerenc.cli.load_population", work)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    with pytest.raises(_WorkStarted):
        main(argv + ([] if command == "generate" else ["--pop", str(tmp_path / "pop.json")]))
