"""Command-line entry point: generate populations, evaluate exact estimands,
replicate the design, and verify the identification identities.

All outputs are deterministic functions of (config file, seed); a command
that draws needs a seed, which never defaults to the clock.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import reprlib
import sys
from pathlib import Path

# No command makes a BLAS call (test_every_digest_holds_under_each_openblas_kernel
# pins it), so OpenBLAS's thread pool is only start-up cost; set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Only the layers every command needs load here; each command imports the
# rest itself, so `generate` never loads the Monte Carlo, estimator or design
# code, and neither `estimands` nor `verify` without replications loads the
# Monte Carlo, estimator or design code. No command loads the csv module.
from . import _json
from .errors import PeerEncError, InvalidConfig, InvalidDesign
from .mechanisms import Mechanism, identical_marginals
from .popfile import load_population, population_text
from .population import DgpConfig, build_population, parse_dgp, validate

# Each config section's closed key set.
_SECTIONS = {
    "dgp": DgpConfig._fields,
    "design": ("mech_a", "mech_b", "k"),
    "mc": ("replications",),
}

_THREADS_HELP = ("accepted for compatibility and checked to be an integer >= 1; replication "
                 "runs in one thread, so it changes neither output nor speed")
# Where `generate` writes without --out.
_DEFAULT_POPULATION = "population.json"
# An integer on the command line: ASCII digits after an optional minus sign,
# the data CSV's integer numeral. "1_0", " 7" and non-ASCII digits are not.
_INTEGER = re.compile(r"-?[0-9]+")


def _mechanism_pair(cfg: dict, design: dict) -> tuple[Mechanism, Mechanism]:
    """The mechanisms design.mech_a and mech_b name, by default the first
    two; a pair that gives every individual the same probability contrasts
    nothing on any population, so it is refused before one is read."""
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
    if identical_marginals(*pair):
        raise InvalidConfig(f"config design.mech_b: mechanism {pair[1].name!r} has the "
                            f"probabilities of mech_a {pair[0].name!r}; no contrast")
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
    value present against its kind, and a ``dgp`` section against the
    ``DgpConfig`` constructor's checks. ``needs`` is the top-level key the
    command cannot run without; an absent field reads None."""
    cfg = _json.obj(_json.read_json(path), "config", ("seed", "mechanisms", *_SECTIONS),
                    required=(needs,))
    sections = {s: _json.obj(cfg.get(s, {}), f"config {s}", keys) for s, keys in _SECTIONS.items()}
    design, mc = sections["design"], sections["mc"]
    return {
        "dgp": parse_dgp(cfg["dgp"]) if "dgp" in cfg else None,
        "pair": _mechanism_pair(cfg, design) if "mechanisms" in cfg else None,
        "k": None if "k" not in design else _json.integer(design["k"], "config design.k"),
        "replications": (None if "replications" not in mc else
                         _json.integer(mc["replications"], "config mc.replications")),
        "seed": _seed(cfg.get("seed"), "config seed"),
    }


def _flag_integer(text: str | None, where: str) -> int | None:
    """The integer a command-line flag spells (``_INTEGER``), or None when
    the flag is absent."""
    if text is None:
        return None
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # int() refuses over 4300 digits
        pass
    raise InvalidConfig(f"{where}: expected an integer, got {reprlib.repr(text)}")


def _resolve_seed(cli_seed: str | None, cfg: dict, needed: bool = True) -> int | None:
    """--seed, else the config's seed, the same for every command; None when
    neither is set and the command draws nothing (not ``needed``)."""
    seed = _seed(_flag_integer(cli_seed, "--seed"), "--seed")
    seed = cfg["seed"] if seed is None else seed
    if seed is None and needed:
        raise InvalidConfig("config: missing seed (set a top-level \"seed\" or pass --seed)")
    return seed


def _check_threads(text: str | None) -> None:
    """Validate --threads. Replication runs in one thread whatever the
    count, so it changes neither output nor speed."""
    count = _flag_integer(text, "--threads")
    if count is not None and count < 1:
        raise InvalidConfig(f"--threads: expected a thread count of at least 1, got {text!r}")


def _check_output(path: str | None, where: str, *taken: tuple[str, str | None]) -> None:
    """InvalidConfig naming the flag and path when the path is empty, its
    directory is missing, it resolves (through symbolic links) to one of the
    ``taken`` (flag, path) pairs: the command's inputs and its other
    outputs, or it exists and cannot be written. Checked before any work
    starts, so no run is lost at its final write and no input is
    overwritten. ``_write`` reports any other write failure."""
    if path is None:
        return
    if not path:
        raise InvalidConfig(f"{where}: expected a file path, got an empty string")
    parent = Path(path).parent
    if not parent.is_dir():
        raise InvalidConfig(f"{where} {path}: cannot write (no directory {str(parent)!r})")
    for flag, other in taken:
        if other and os.path.realpath(path) == os.path.realpath(other):
            raise InvalidConfig(f"{where} {path}: cannot write (it is the {flag} file)")
    try:
        os.stat(path)  # through symbolic links: a loop fails here
    except FileNotFoundError:  # the write creates it (a dangling link's target too)
        return
    except OSError as exc:
        raise InvalidConfig(f"{where} {path}: cannot write ({exc.strerror})") from None
    if os.path.isdir(path):
        raise InvalidConfig(f"{where} {path}: cannot write (it is a directory)")
    if not os.access(path, os.W_OK):
        raise InvalidConfig(f"{where} {path}: cannot write (no write permission)")


def _inputs(args) -> tuple[tuple[str, str], ...]:
    """The (flag, path) pairs a command reads, which no output may name."""
    return ("--config", args.config), ("--pop", args.pop)


def _write(where: str, path: str, pieces) -> None:
    """Write the text ``pieces`` to ``path`` as UTF-8, newlines as given; an
    OSError becomes InvalidConfig naming the flag and path. The one place
    peerenc opens a file for writing."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise InvalidConfig(f"{where} {path}: cannot write ({exc.strerror or exc})") from None


def _emit(report, fmt: str, out: str | None) -> None:
    """Write ``report.to_<fmt>()``, ending in one newline, to ``out`` or to
    stdout: the same bytes either way."""
    text = getattr(report, f"to_{fmt}")()
    if not text.endswith("\n"):
        text += "\n"
    if out:
        _write("--out", out, (text,))
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    from . import _streams

    cfg = _read_config(args.config, "dgp")
    seed = _resolve_seed(args.seed, cfg)
    out, where = ((_DEFAULT_POPULATION, "default output") if args.out is None else
                  (args.out, "--out"))
    _check_output(out, where, ("--config", args.config))
    pop = build_population(cfg["dgp"], _streams.stream(seed, _streams.POPULATION))
    report = validate(pop)
    _write(where, out, population_text(pop))
    print(f"wrote {out}", report.to_text(), sep="\n")
    return 0


def cmd_estimands(args) -> int:
    from .estimands import compute_estimand_report

    cfg = _read_config(args.config, "mechanisms")
    _check_output(args.out, "--out", *_inputs(args))
    pop = load_population(args.pop)
    _emit(compute_estimand_report(pop, *cfg["pair"]), args.format, args.out)
    return 0


def _design(cfg: dict, pop, seed: int):
    """The validated design of the config's mechanism pair on ``pop``, with
    k = design.k, by default half the blocks rounded down; its refusal
    names the config section."""
    from .design import Design

    k = pop.n_blocks // 2 if cfg["k"] is None else cfg["k"]
    try:
        return Design(pop, *cfg["pair"], k=k, seed=seed)
    except InvalidDesign as exc:
        raise InvalidDesign(f"config design: {exc}") from None


def cmd_simulate(args) -> int:
    from .design import run_design
    from .estimands import exact_targets
    from .montecarlo import check_replications, replicate

    cfg = _read_config(args.config, "mechanisms")
    _check_output(args.out, "--out", *_inputs(args))
    _check_output(args.dump_data, "--dump-data", *_inputs(args), ("--out", args.out))
    _check_threads(args.threads)
    seed = _resolve_seed(args.seed, cfg)
    r = 1000 if cfg["replications"] is None else cfg["replications"]
    check_replications(r, where="config mc.replications")
    design = _design(cfg, load_population(args.pop), seed)
    if args.dump_data:
        _write("--dump-data", args.dump_data, (run_design(design).to_csv(),))
    _emit(replicate(design, r, exact_targets(design.pop, *cfg["pair"])), args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    from .estimands import verification_passes, verify_theorems

    cfg = _read_config(args.config, "mechanisms")
    _check_output(args.out, "--out", *_inputs(args))
    _check_threads(args.threads)
    r = cfg["replications"] or 0
    seed = _resolve_seed(args.seed, cfg, needed=r > 0)  # only replications draw
    if r:
        from .montecarlo import check_replications, replicate

        check_replications(r, optional=True, where="config mc.replications")
    pop = load_population(args.pop)
    design = _design(cfg, pop, seed) if r else None
    report = verify_theorems(pop, *cfg["pair"])
    if design is not None:
        report = report.replace(mc=replicate(design, r, report.targets))
    _emit(report, args.format, args.out)
    ok = verification_passes(report, expect_fail=set(args.expect_fail or ()))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerenc",
        description="Peer encouragement designs: exact estimands, protocol simulation, "
        "and verification of the identification identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pop=False, seed=True):
        p.add_argument("--config", required=True, help="JSON run configuration")
        if pop:
            p.add_argument("--pop", required=True, help="population JSON file")
        if seed:  # estimands draws nothing
            p.add_argument("--seed", help="override the config seed (an integer >= 0)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    g = sub.add_parser("generate", help="build and validate a synthetic population")
    common(g)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("estimands", help="exact estimand report for a population")
    common(e, pop=True, seed=False)
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
    if hasattr(sys.stdout, "reconfigure"):  # output bytes do not depend on the locale
        sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except (PeerEncError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):
            # a failed write like any other; the flush at exit then goes nowhere
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            exc = InvalidConfig(f"standard output: cannot write ({exc.strerror})")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry (the ``peerenc`` script and ``python -m``): ``main``,
    then exit with its code. Freezing the collector first spares the
    interpreter's exit-time collections a walk over the ~21,000 objects that
    numpy and peerenc imported; teardown still frees them, and atexit
    handlers and the stdout flush still run. In-process callers of ``main``
    never freeze, so their cyclic garbage is still collected."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
