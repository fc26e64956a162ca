"""Command-line entry point: generate populations, evaluate exact estimands,
replicate the design, and verify the identification identities.

All outputs are deterministic functions of (config file, seed); seeds are
mandatory and never default to the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

# Only the layers every command needs load here; each command imports the
# rest itself, so `generate` never loads the Monte Carlo, estimator or CSV
# code and `estimands` never loads the Monte Carlo or CSV code.
from . import _json
from .errors import PeerEncError, InvalidConfig
from .mechanisms import Mechanism
from .population import DgpConfig, OutcomeConfig, build_population, load_population, \
    save_population, validate

_DGP_STREAM = 0

_STRATA_KEYS = ("always_taker", "complier", "never_taker", "defier")
_PARAMS = ("intercept", "direct", "peer", "interaction", "curvature")
# Each config section's closed key set.
_SECTIONS = {
    "dgp": ("seed", "blocks", "block_size", "strata", "outcome", "monotone", "one_sided",
            "complier_floor"),
    "design": ("mech_a", "mech_b", "k", "seed"),
    "mc": ("replications", "seed"),
    "output": ("path",),
}

_THREADS_HELP = ("accepted for compatibility and checked to be an int >= 1 (default: "
                "PEERENC_THREADS); replication runs in one thread, so it changes neither "
                "output nor speed")


def _parse_dgp(cfg: dict) -> DgpConfig:
    d = _json.obj(cfg["dgp"], "config dgp", _SECTIONS["dgp"],
                  required=("blocks", "block_size", "strata"))
    oc = _json.obj(d.get("outcome", {}), "config dgp.outcome",
                   ("representation", *_PARAMS, "noise_sd", "z_own", "z_peer"))
    outcome = OutcomeConfig(
        representation=_json.typed(oc.get("representation", "structural"),
                                   "config dgp.outcome.representation", str),
        **{k: _json.pair_or(_json.number, oc.get(k, 0.0), f"config dgp.outcome.{k}",
                            "a number or [mean, sd] pair") for k in _PARAMS},
        **{k: _json.number(oc.get(k, 0.0), f"config dgp.outcome.{k}")
           for k in ("noise_sd", "z_own", "z_peer")},
    )
    return DgpConfig(
        blocks=_json.integer(d["blocks"], "config dgp.blocks"),
        block_size=_json.pair_or(_json.integer, d["block_size"], "config dgp.block_size",
                                 "an integer or a [low, high] pair"),
        strata=_json.numbers_by_key(d["strata"], "config dgp.strata", _STRATA_KEYS),
        outcome=outcome,
        **{k: _json.typed(d[k], f"config dgp.{k}", bool) for k in
           ("monotone", "one_sided", "complier_floor") if k in d},
    )


def _mechanism_pair(cfg: dict, design: dict) -> tuple[Mechanism, Mechanism]:
    """The mechanisms design.mech_a and mech_b name, by default the first two."""
    raw = _json.typed(cfg["mechanisms"], "config mechanisms", list, "a non-empty list")
    if not raw:
        raise InvalidConfig("config mechanisms: expected a non-empty list, got []")
    mechs: dict[str, Mechanism] = {}
    for i, m in enumerate(raw):
        where = f"config mechanisms[{i}]"
        m = _json.obj(m, where, ("name", "p", "probs"), required=("name", ("p", "probs")))
        name = _json.typed(m["name"], f"{where}.name", str)
        if not name:
            raise InvalidConfig(f"{where}.name: expected a non-empty string")
        if name in mechs:
            raise InvalidConfig(f"config mechanisms: {name!r} defined more than once")
        probs = (_json.number(m["p"], f"{where}.p") if "p" in m else
                 tuple(_json.number(p, f"{where}.probs") for p in
                       _json.typed(m["probs"], f"{where}.probs", list)))
        mechs[name] = Mechanism(name=name, probs=probs)
    pair = []
    for label, default in zip(("mech_a", "mech_b"), [*mechs, None, None]):
        name = design.get(label, default)
        if name is None or _json.typed(name, f"config design.{label}", str) not in mechs:
            raise InvalidConfig(f"config design.{label}: mechanism {name!r} is not defined")
        pair.append(mechs[name])
    return tuple(pair)


def _seed(value, where: str) -> int | None:
    """A non-negative integer seed, or None when absent."""
    seed = None if value is None else _json.integer(value, where)
    if seed is not None and seed < 0:
        raise InvalidConfig(f"{where}: expected a non-negative int, got {value!r}")
    return seed


def _read_config(path: str, needs: str) -> dict:
    """The config read whole before any work, whichever command runs (one
    file serves all four): every key against its object's closed set, every
    value present against its kind. ``needs`` is the top-level key the
    command cannot run without; an absent field reads None."""
    cfg = _json.obj(_json.read_json(path), "config", ("seed", "mechanisms", *_SECTIONS),
                    required=(needs,))
    sections = {s: _json.obj(cfg.get(s, {}), f"config {s}", keys) for s, keys in _SECTIONS.items()}
    design, mc, path = sections["design"], sections["mc"], sections["output"].get("path")
    return {
        "dgp": _parse_dgp(cfg) if "dgp" in cfg else None,
        "pair": _mechanism_pair(cfg, design) if "mechanisms" in cfg else None,
        "k": None if "k" not in design else _json.integer(design["k"], "config design.k"),
        "replications": (None if "replications" not in mc else
                         _json.integer(mc["replications"], "config mc.replications")),
        "path": None if path is None else _json.typed(path, "config output.path", str),
        "seeds": {"": _seed(cfg.get("seed"), "config seed"),
                  **{s: _seed(sections[s].get("seed"), f"config {s}.seed")
                     for s in ("dgp", "design", "mc")}},
    }


def _resolve_seed(cli_seed, cfg: dict, section: str) -> int:
    """--seed, else the section's seed, else the top-level one."""
    for seed in (_seed(cli_seed, "--seed"), cfg["seeds"][section], cfg["seeds"][""]):
        if seed is not None:
            return seed
    raise InvalidConfig("config: missing seed (set a top-level \"seed\" or pass --seed)")


def _replications(cfg: dict, default: int, optional: bool = False) -> int:
    """mc.replications, checked before any work starts: 2..MAX_REPLICATIONS,
    or 0 (no Monte Carlo) when the Monte Carlo run is optional."""
    from .montecarlo import MAX_REPLICATIONS

    r = default if cfg["replications"] is None else cfg["replications"]
    if not (2 <= r <= MAX_REPLICATIONS or optional and r == 0):
        low = "0 or 2" if optional else "2"
        raise InvalidConfig(f"config mc.replications: expected {low}..{MAX_REPLICATIONS}, got {r}")
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
        raise InvalidConfig(f"{where}: expected an integer, got {value!r}") from None
    if count < 1:
        raise InvalidConfig(f"{where}: expected a thread count of at least 1, got {value!r}")


def _check_output(path: str | None, where: str) -> None:
    """InvalidConfig naming the path when it is empty, its directory is
    missing or it is a directory; checked before any work starts, so no run
    is lost at its final write. ``_writing`` reports any other write failure."""
    if path is None:
        return
    if not path:
        raise InvalidConfig(f"{where}: expected a file path, got an empty string")
    target = Path(path)
    if not target.parent.is_dir():
        raise InvalidConfig(f"{where} {path}: cannot write (no directory {str(target.parent)!r})")
    if target.is_dir():
        raise InvalidConfig(f"{where} {path}: cannot write (it is a directory)")


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError of the write in the body into InvalidConfig naming the path."""
    try:
        yield
    except OSError as exc:
        raise InvalidConfig(f"{path}: cannot write ({exc.strerror or exc})") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with _writing(out):
            Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_generate(args) -> int:
    from . import _streams

    cfg = _read_config(args.config, "dgp")
    seed = _resolve_seed(args.seed, cfg, "dgp")
    if cfg["path"] == "":
        _check_output("", "config output.path")
    out = args.out if args.out is not None else cfg["path"] or "population.json"
    _check_output(out, "--out" if args.out is not None else "config output.path")
    pop = build_population(cfg["dgp"], _streams.stream(seed, _DGP_STREAM))
    report = validate(pop)
    with _writing(out):
        save_population(pop, out)
    print(f"wrote {out}", *report.summary_lines(), sep="\n")
    return 0


def cmd_estimands(args) -> int:
    from .estimands import compute_estimand_report

    cfg = _read_config(args.config, "mechanisms")
    _check_output(args.out, "--out")
    pop = load_population(args.pop)
    report = compute_estimand_report(pop, *cfg["pair"])
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
    from .design import DesignConfig, run_design
    from .montecarlo import replicate

    cfg = _read_config(args.config, "mechanisms")
    _check_output(args.out, "--out")
    _check_output(args.dump_data, "--dump-data")
    _check_threads(args)
    seed = _resolve_seed(args.seed, cfg, "design")
    r = _replications(cfg, 1000)
    pop = load_population(args.pop)
    k = pop.n_blocks // 2 if cfg["k"] is None else cfg["k"]
    dcfg = DesignConfig(*cfg["pair"], k=k, seed=seed)
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
    from .montecarlo import verification_passes, verify_theorems

    cfg = _read_config(args.config, "mechanisms")
    _check_output(args.out, "--out")
    _check_threads(args)
    seed = _resolve_seed(args.seed, cfg, "mc")
    r = _replications(cfg, 0, optional=True)
    pop = load_population(args.pop)
    report = verify_theorems(pop, *cfg["pair"], replications=r, seed=seed, k=cfg["k"])
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except (PeerEncError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):
            # a failed write like any other; the flush at exit then goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            exc = InvalidConfig(f"standard output: cannot write ({exc.strerror})")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
