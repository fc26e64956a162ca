"""Mutation sweep of peerenc's modules: stdlib only, and not a test module,
so pytest does not collect it.

A mutation point lies inside a function or lambda body: a binary or
augmented operator swapped for its partner (``+ -``, ``* /``, ``& |``), a
comparison swapped (``< <=``, ``> >=``, ``== !=``, ``is``/``is not``,
``in``/``not in``), ``and``/``or`` swapped, or a numeric constant raised by
1. Annotations are
not points: under ``from __future__ import annotations`` they are strings,
so a mutant there is equivalent by construction. Defaults and decorators run
at definition time and are not points either.

Each mutant is spliced into a copy of the repository in a temporary
directory, never into the checkout, and a pytest selection runs in the copy
with ``-x``, so a test that starts pytest or the CLI in a subprocess imports
the mutant too. One line per mutant, then a tally:

    killed     estimators.py _estimates [ratio_ok = np.abs(uptake) >= ET_ZERO_TOL  # False for NaN]: >= -> >  (line 73, 1.3 s)

A mutant's key, which EQUIVALENT is keyed on, names the module, the function,
the source line and the swap, with ``(#n)`` for the n-th like swap on that
line; it holds while that line is unchanged, wherever the line moves.

Run from the repository root; a module may carry a line range that bounds
its points, and the pytest arguments after ``--`` default to the whole suite:

    python tests/mutate.py src/peerenc/estimators.py --all
    python tests/mutate.py src/peerenc/estimands.py:249-448 --all -- tests/test_estimands.py
    python tests/mutate.py src/peerenc/design.py --seed 7 --count 10

The unmutated copy must pass the selection and the whole suite. A mutant that
survives a narrower selection runs again on the whole suite before it counts
as a survivor. The exit status is 1 when a survivor is not in EQUIVALENT.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900.0  # per pytest run: a mutant that hangs counts as killed
# Not run on a mutant: it compares EQUIVALENT with the source text, so it
# fails on a mutant of a listed line whatever the mutant computes.
_BOOKKEEPING = "tests/test_mutate.py::test_every_equivalent_key_names_a_point_in_src"
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out")

# Survivors that compute the same result on every input the package
# accepts, keyed as this script prints them, with the reason.
_KEYED = "for u in _chunks(np.flatnonzero(pop.z_dependent & (size_of == n)), 2 * 2**n):"
EQUIVALENT = {
    "estimands.py _chunks [step = max(1, GATHER_ENTRIES // entries)]: 1 -> 2":
        "memory only: the chunk step's floor of one member matters only above "
        "GATHER_ENTRIES entries per member, and a member's averages read only its entries",
    f"estimands.py member_averages [{_KEYED}]: 2 -> 3":
        "memory only: the keyed entries per member set the chunk size, and no byte moves",
    f"estimands.py member_averages [{_KEYED}]: 2 -> 3 (#2)":
        "memory only: the keyed entries per member set the chunk size, and no byte moves",
    "estimators.py _block_stats [missing = np.where(count[1] == 0, 1, "
    "np.where(count[0] == 0, 0, -1))]: 1 -> 2 (#3)":
        "any negative code marks a block with both encouragement values: readers "
        "test only missing >= 0 or missing < 0",
    "design.py run_design [sizes, *rows = _draw(design, replicate, 1)]: 1 -> 2":
        "draws replicates r and r + 1 and keeps row 0: row r depends only on r",
    "montecarlo.py batch_size [return max(1, BATCH_DRAWS // pop.n_individuals)]: 1 -> 2":
        "memory only: above BATCH_DRAWS individuals a batch holds two replicates "
        "instead of one, and each row depends only on its replicate index",
    "_json.py numbers [if set(map(type, values)) <= {int, float}:]: <= -> <":
        "speed only: a list that mixes ints and floats is read one by one "
        "instead, to the same floats",
}

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.BitAnd: "&", ast.BitOr: "|",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.And: "and", ast.Or: "or",
}


class Point:
    """One mutation: the source span of ``node`` is replaced by ``text``."""

    def __init__(self, path: Path, key: str, line: int, node: ast.AST, text: str):
        self.path, self.key, self.line, self.node, self.text = path, key, line, node, text

    def mutant(self, source: bytes) -> bytes:
        lines = source.splitlines(keepends=True)
        offset = [0]
        for line in lines:
            offset.append(offset[-1] + len(line))
        n = self.node  # ast columns count UTF-8 bytes
        start = offset[n.lineno - 1] + n.col_offset
        end = offset[n.end_lineno - 1] + n.end_col_offset
        return source[:start] + self.text.encode() + source[end:]


def _mutations(node: ast.AST):
    """(location node, before, after, replacement text) for each mutation of node."""
    if isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
        swapped = _SWAPS[type(node.op)]
        yield (node.right, _SYMBOL[type(node.op)], _SYMBOL[swapped],
               f"({ast.unparse(ast.BinOp(node.left, swapped(), node.right))})")
    elif isinstance(node, ast.AugAssign) and type(node.op) in _SWAPS:
        swapped = _SWAPS[type(node.op)]
        yield (node.value, _SYMBOL[type(node.op)] + "=", _SYMBOL[swapped] + "=",
               ast.unparse(ast.AugAssign(node.target, swapped(), node.value)))
    elif isinstance(node, ast.BoolOp):
        swapped = _SWAPS[type(node.op)]
        yield (node, _SYMBOL[type(node.op)], _SYMBOL[swapped],
               f"({ast.unparse(ast.BoolOp(swapped(), node.values))})")
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = _SWAPS[type(op)]()
            yield (node.comparators[i], _SYMBOL[type(op)], _SYMBOL[type(ops[i])],
                   f"({ast.unparse(ast.Compare(node.left, ops, node.comparators))})")
    elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
          and not isinstance(node.value, bool)):
        yield node, repr(node.value), repr(node.value + 1), repr(node.value + 1)


def points(path: Path, first: int = 1, last: int = sys.maxsize) -> list[Point]:
    """Every mutation point of a module whose line lies in [first, last]."""
    source = path.read_bytes()
    lines = source.decode().splitlines()
    found: list[Point] = []
    seen: Counter[str] = Counter()

    def visit(node: ast.AST, func: str | None, prefix: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}"
            inner = name if not isinstance(node, ast.ClassDef) else func
            for child in node.body:
                visit(child, inner, f"{name}.")
            return
        if isinstance(node, ast.Lambda):
            visit(node.body, func or "<lambda>", prefix)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                visit(node.value, func, prefix)
            return
        if func is not None and first <= getattr(node, "lineno", 0) <= last:
            for at, before, after, text in _mutations(node):
                key = f"{path.name} {func} [{lines[at.lineno - 1].strip()}]: {before} -> {after}"
                seen[key] += 1
                key += f" (#{seen[key]})" if seen[key] > 1 else ""
                found.append(Point(path, key, at.lineno, node, text))
        for child in ast.iter_child_nodes(node):
            visit(child, func, prefix)

    visit(ast.parse(source, str(path)), None, "")
    return found


def _run_pytest(copy: Path, tests: list[str]) -> str:
    """Run the selection in the copy, whose pyproject puts its own src/ on the path."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # no stale bytecode of a mutant
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--deselect", _BOOKKEEPING, *tests]
    try:
        code = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "killed"  # a hang is caught as well as a failure
    if code == 5:
        raise SystemExit(f"no tests collected by {tests}")
    return "survived" if code == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tests = argv[argv.index("--") + 1:] if "--" in argv else []
    argv = argv[:argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module paths, each as path or path:first-last")
    pick = parser.add_mutually_exclusive_group(required=True)
    pick.add_argument("--all", action="store_true", help="every point")
    pick.add_argument("--count", type=int, help="a random sample of this many points")
    parser.add_argument("--seed", type=int, default=0, help="the sample's seed")
    args = parser.parse_args(argv)

    chosen: list[Point] = []
    for spec in args.modules:
        path, _, span = spec.partition(":")
        first, _, last = span.partition("-")
        chosen += points(ROOT / path, int(first or 1), int(last or sys.maxsize))
    if args.count is not None:
        chosen = random.Random(args.seed).sample(chosen, min(args.count, len(chosen)))

    tally = {"killed": 0, "equivalent": 0, "survived": 0}
    with tempfile.TemporaryDirectory(prefix="peerenc-mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        for selection in ([tests, []] if tests else [[]]):
            if _run_pytest(copy, selection) != "survived":
                raise SystemExit(f"the unmutated copy fails {selection or 'the whole suite'}")
        for point in chosen:
            target = copy / point.path.relative_to(ROOT)
            original = target.read_bytes()
            target.write_bytes(point.mutant(original))
            t0 = time.perf_counter()
            try:
                outcome = _run_pytest(copy, tests)
                if outcome == "survived" and tests:  # a narrow selection: ask the whole suite
                    outcome = _run_pytest(copy, [])
            finally:
                target.write_bytes(original)
            why = EQUIVALENT.get(point.key) if outcome == "survived" else None
            tally["equivalent" if why else outcome] += 1
            print(f"{outcome:<10} {point.key}  (line {point.line}, {time.perf_counter() - t0:.1f} s)"
                  + (f"  equivalent: {why}" if why else ""), flush=True)
    print(", ".join(f"{n} {k}" for k, n in tally.items()))
    return int(tally["survived"] > 0)


if __name__ == "__main__":
    sys.exit(main())
