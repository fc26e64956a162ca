"""Command-line entry point: generate populations, evaluate exact estimands,
replicate the design, and verify the identification identities.

All outputs are deterministic functions of (config file, seed); seeds are
mandatory and never default to the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

from . import _streams
from .design import DesignConfig, run_design
from .errors import PeerEncError, InvalidConfig
from .estimands import compute_estimand_report
from .mechanisms import Mechanism
from .montecarlo import MAX_REPLICATIONS, replicate, verification_passes, verify_theorems
from .population import DgpConfig, OutcomeConfig, build_population, load_population, \
    read_json, save_population, validate

_DGP_STREAM = 0

_STRATA_KEYS = ("always_taker", "complier", "never_taker", "defier")

_THREADS_HELP = ("accepted for compatibility and checked to be an int >= 1 (default: "
                "PEERENC_THREADS); replication runs in one thread, so it changes neither "
                "output nor speed")


def _fail(msg: str) -> "NoReturn":  # noqa: F821 - py>=3.10 has NoReturn in typing only
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _load_json(path: str) -> dict:
    try:
        data = read_json(path)
    except InvalidConfig as exc:
        _fail(str(exc))
    if not isinstance(data, dict):
        _fail(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _section(cfg: dict, key: str, parent: str = "") -> dict:
    """cfg[key] when it is a JSON object, {} when absent; else exit 2 naming it."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        _fail(f"config {parent}{key}: expected an object, got {type(value).__name__}")
    return value


def _integer(value, where: str) -> int:
    """An integral JSON number as an int, or exit 2 naming the config field:
    2.7, true or "2" is an error, not 2, 1 or 2."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    _fail(f"{where}: expected an integer, got {value!r}")


def _number(value, where: str) -> float:
    """A finite JSON number as a float, or exit 2 naming the config field:
    a string, a boolean, an infinity or a NaN is an error."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    _fail(f"{where}: expected a finite number, got {value!r}")


def _flag(section: dict, key: str, where: str, default):
    """A JSON boolean, or the default when absent; else exit 2 naming it."""
    value = section.get(key, default)
    if not isinstance(value, bool) and value is not default:
        _fail(f"{where}: expected true or false, got {value!r}")
    return value


def _parse_param(value, where: str):
    if isinstance(value, list) and len(value) == 2:
        return tuple(_number(x, where) for x in value)
    if isinstance(value, list):
        _fail(f"{where}: expected a number or [mean, sd] pair, got {value!r}")
    return _number(value, where)


def _parse_dgp(cfg: dict) -> DgpConfig:
    if "dgp" not in cfg:
        _fail("config: missing 'dgp' section")
    d = _section(cfg, "dgp")
    try:
        blocks = _integer(d["blocks"], "config dgp.blocks")
        raw_size = d["block_size"]
        raw_strata = d["strata"]
    except KeyError as exc:
        _fail(f"config dgp: missing key {exc}")
    if isinstance(raw_size, list) and len(raw_size) == 2:
        size = tuple(_integer(x, "config dgp.block_size") for x in raw_size)
    elif isinstance(raw_size, list):
        _fail(f"config dgp.block_size: expected an integer or a [low, high] pair, got {raw_size!r}")
    else:
        size = _integer(raw_size, "config dgp.block_size")
    if isinstance(raw_strata, dict):
        unknown = set(raw_strata) - set(_STRATA_KEYS)
        if unknown:
            _fail(f"config dgp.strata: unknown strata {sorted(unknown)}")
        strata = tuple(_number(raw_strata.get(k, 0.0), f"config dgp.strata.{k}")
                       for k in _STRATA_KEYS)
    elif isinstance(raw_strata, list):
        strata = tuple(_number(x, "config dgp.strata") for x in raw_strata)
    else:
        _fail(f"config dgp.strata: expected an object or a list, got {raw_strata!r}")
    oc = _section(d, "outcome", "dgp.")
    outcome = OutcomeConfig(
        representation=oc.get("representation", "structural"),
        **{k: _parse_param(oc.get(k, 0.0), f"config dgp.outcome.{k}")
           for k in ("intercept", "direct", "peer", "interaction", "curvature")},
        **{k: _number(oc.get(k, 0.0), f"config dgp.outcome.{k}")
           for k in ("noise_sd", "z_own", "z_peer")},
    )
    return DgpConfig(
        blocks=blocks,
        block_size=size,
        strata=strata,
        outcome=outcome,
        monotone=_flag(d, "monotone", "config dgp.monotone", None),
        one_sided=_flag(d, "one_sided", "config dgp.one_sided", None),
        complier_floor=_flag(d, "complier_floor", "config dgp.complier_floor", True),
    )


def _parse_mechanisms(cfg: dict) -> dict[str, Mechanism]:
    raw = cfg.get("mechanisms")
    if not raw or not isinstance(raw, list):
        _fail(f"config mechanisms: expected a non-empty list, got {raw!r}")
    mechs: dict[str, Mechanism] = {}
    for i, m in enumerate(raw):
        where = f"config mechanisms[{i}]"
        if not isinstance(m, dict):
            _fail(f"{where}: expected an object, got {type(m).__name__}")
        name = m.get("name")
        if not name or not isinstance(name, str):
            _fail(f"{where}: expected a name string, got {name!r}")
        if name in mechs:
            _fail(f"config mechanisms: {name!r} defined more than once")
        if "p" in m:
            mechs[name] = Mechanism(name=name, probs=_number(m["p"], f"{where}.p"))
        elif "probs" in m:
            probs = m["probs"]
            if not isinstance(probs, list):
                _fail(f"{where}.probs: expected a list of numbers, got {probs!r}")
            mechs[name] = Mechanism(name=name,
                                    probs=tuple(_number(p, f"{where}.probs") for p in probs))
        else:
            _fail(f"{where} ({name!r}): needs 'p' or 'probs'")
    return mechs


def _resolve_seed(cli_seed, cfg: dict, section: str) -> int:
    """--seed, else the section's seed, else the top-level one."""
    for value, where in ((cli_seed, "--seed"),
                         (_section(cfg, section).get("seed"), f"config {section}.seed"),
                         (cfg.get("seed"), "config seed")):
        if value is not None:
            seed = _integer(value, where)
            if seed < 0:
                _fail(f"{where}: expected a non-negative int, got {value!r}")
            return seed
    _fail("config: missing seed (set a top-level \"seed\" or pass --seed)")


def _design_pair(cfg: dict, mechs: dict[str, Mechanism]) -> tuple[Mechanism, Mechanism, dict]:
    d = _section(cfg, "design")
    names = list(mechs)
    a_name = d.get("mech_a", names[0] if names else None)
    b_name = d.get("mech_b", names[1] if len(names) > 1 else None)
    for label, name in (("mech_a", a_name), ("mech_b", b_name)):
        if not isinstance(name, str) or name not in mechs:
            _fail(f"config design.{label}: mechanism {name!r} is not defined")
    return mechs[a_name], mechs[b_name], d


def _replications(cfg: dict, default: int, optional: bool = False) -> int:
    """mc.replications, checked before any work starts: 2..MAX_REPLICATIONS,
    or 0 (no Monte Carlo) when the Monte Carlo run is optional."""
    r = _integer(_section(cfg, "mc").get("replications", default), "config mc.replications")
    if not (2 <= r <= MAX_REPLICATIONS or optional and r == 0):
        low = "0 or 2" if optional else "2"
        _fail(f"config mc.replications: expected {low}..{MAX_REPLICATIONS}, got {r}")
    return r


def _check_threads(args) -> None:
    """Validate --threads, else PEERENC_THREADS; both are text. Replication
    runs in one thread whatever the count, so it changes neither output nor
    speed."""
    value, where = args.threads, "--threads"
    if value is None:
        value, where = os.environ.get("PEERENC_THREADS") or None, "PEERENC_THREADS"
    if value is None:
        return
    try:
        count = int(value)
    except ValueError:
        _fail(f"{where}: expected an integer, got {value!r}")
    if count < 1:
        _fail(f"{where}: expected a thread count of at least 1, got {value!r}")


def _check_output(path: str | None, where: str) -> None:
    """Exit 2 naming the path unless its directory exists and it is not
    itself a directory; checked before any work starts, so no run is lost at
    its final write. ``_writing`` reports any other write failure."""
    if not path:
        return
    target = Path(path)
    if not target.parent.is_dir():
        _fail(f"{where} {path}: cannot write (no directory {str(target.parent)!r})")
    if target.is_dir():
        _fail(f"{where} {path}: cannot write (it is a directory)")


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError of the write in the body into exit 2 naming the path."""
    try:
        yield
    except OSError as exc:
        _fail(f"{path}: cannot write ({exc.strerror or exc})")


def _emit(text: str, out: str | None) -> None:
    if out:
        with _writing(out):
            Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_generate(args) -> int:
    cfg = _load_json(args.config)
    seed = _resolve_seed(args.seed, cfg, "dgp")
    dgp = _parse_dgp(cfg)
    path = _section(cfg, "output").get("path")
    if path is not None and not isinstance(path, str):
        _fail(f"config output.path: expected a string, got {path!r}")
    out = args.out or path or "population.json"
    _check_output(out, "--out" if args.out else "config output.path")
    pop = build_population(dgp, _streams.stream(seed, _DGP_STREAM))
    report = validate(pop)
    with _writing(out):
        save_population(pop, out)
    print(f"wrote {out}")
    for line in report.summary_lines():
        print(line)
    return 0


def cmd_estimands(args) -> int:
    cfg = _load_json(args.config)
    _check_output(args.out, "--out")
    mechs = _parse_mechanisms(cfg)
    mech_a, mech_b, _ = _design_pair(cfg, mechs)
    pop = load_population(args.pop)
    report = compute_estimand_report(pop, mech_a, mech_b)
    if args.format == "csv":
        _emit(report.to_csv(), args.out)
    elif args.format == "text":
        lines = [f"{k:<44}{v.population:>16.8g}" for k, v in report.entries.items()]
        lines += [f"skipped {k}: {v}" for k, v in report.skipped.items()]
        _emit("\n".join(lines), args.out)
    else:
        _emit(report.to_json(), args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    _check_output(args.out, "--out")
    _check_output(args.dump_data, "--dump-data")
    mechs = _parse_mechanisms(cfg)
    mech_a, mech_b, design_section = _design_pair(cfg, mechs)
    _check_threads(args)
    seed = _resolve_seed(args.seed, cfg, "design")
    r = _replications(cfg, 1000)
    pop = load_population(args.pop)
    k = _integer(design_section.get("k", pop.n_blocks // 2), "config design.k")
    dcfg = DesignConfig(mech_a=mech_a, mech_b=mech_b, k=k, seed=seed)
    if args.dump_data:
        with _writing(args.dump_data):
            run_design(pop, dcfg, replicate=0).to_csv(args.dump_data)
    summary = replicate(pop, dcfg, r)
    if args.format == "text":
        _emit(summary.text_table(), args.out)
    else:
        _emit(summary.to_json(), args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = _load_json(args.config)
    _check_output(args.out, "--out")
    mechs = _parse_mechanisms(cfg)
    mech_a, mech_b, design_section = _design_pair(cfg, mechs)
    _check_threads(args)
    seed = _resolve_seed(args.seed, cfg, "mc")
    r = _replications(cfg, 0, optional=True)
    k = design_section.get("k")
    if k is not None:
        k = _integer(k, "config design.k")
    pop = load_population(args.pop)
    report = verify_theorems(pop, mech_a, mech_b, replications=r, seed=seed, k=k)
    if args.format == "text":
        _emit(report.text_table(), args.out)
    else:
        _emit(report.to_json(), args.out)
    ok = verification_passes(report, expect_fail=set(args.expect_fail or ()))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerenc",
        description="Peer encouragement designs: exact estimands, protocol simulation, "
        "and verification of the identification identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pop=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        if pop:
            p.add_argument("--pop", required=True, help="population JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    g = sub.add_parser("generate", help="build and validate a synthetic population")
    common(g)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("estimands", help="exact estimand report for a population")
    common(e, pop=True)
    e.add_argument("--format", choices=("json", "csv", "text"), default="json")
    e.set_defaults(func=cmd_estimands)

    s = sub.add_parser("simulate", help="replicate the design and summarize estimators")
    common(s, pop=True)
    s.add_argument("--format", choices=("json", "text"), default="json")
    s.add_argument("--threads", default=None, help=_THREADS_HELP)
    s.add_argument("--dump-data", default=None, help="write replicate 0 as CSV")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="check the identification identities")
    common(v, pop=True)
    v.add_argument("--format", choices=("json", "text"), default="json")
    v.add_argument("--threads", default=None, help=_THREADS_HELP)
    v.add_argument("--expect-fail", nargs="*", choices=("thm1", "thm2", "thm3"),
                   default=None, help="theorems that must fail (negative tests)")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PeerEncError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
