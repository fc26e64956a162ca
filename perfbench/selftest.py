"""Self-test of the benchmark's span arithmetic and counters.

    python3 perfbench/selftest.py

Exits 0 when every check holds. The stream count check pins the stream
layout of the code it was written against: one stream per block per
replicate plus one for the arm assignment, i.e. (B+1)*R streams for R
replicates. A change of that layout must update the expectation here.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from tracing import ROOT, Spans, Tracer, self_times  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def test_self_time_arithmetic() -> None:
    # span 0 [0, 5] has sequential children 1 [0.5, 1.5] and 2 [2, 4];
    # span 3 [2.5, 3] is inside 2. Self = duration - sum of direct children.
    start = [0.0, 0.5, 2.0, 2.5]
    end = [5.0, 1.5, 4.0, 3.0]
    parent = [ROOT, 0, 0, 2]
    got = self_times(start, end, parent)
    expect(np.allclose(got, [2.0, 1.0, 1.5, 0.5]), f"nested self times {got.tolist()}")


def test_traced_replicates() -> None:
    import peerenc
    from peerenc import cli, design, mechanisms, montecarlo, population

    out = HERE.parent / ".bench_out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    b, r = 5, 4
    config = out / "config.json"
    config.write_text(
        '{"seed": 3, "dgp": {"blocks": %d, "block_size": 3, "strata": [0.2, 0.5, 0.3, 0.0],'
        ' "outcome": {"direct": 1.0, "peer": 0.5}}}' % b
    )
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["generate", "--config", str(config), "--out", str(out / "pop.json")])
    pop = population.load_population(out / "pop.json")
    cfg = design.DesignConfig(mechanisms.Mechanism("a", 0.7), mechanisms.Mechanism("b", 0.2),
                              k=2, seed=9)
    original = montecarlo.run_design

    tracer = Tracer({"montecarlo.replicate_values":
                     lambda t, args, kwargs, res: t.count("replicates", res.shape[0])})
    tracer.install(peerenc)
    try:
        expect(montecarlo.run_design is design.run_design is not original,
               "run_design is wrapped where montecarlo imported it by name")
        values = montecarlo.replicate_values(pop, cfg, r)
    finally:
        tracer.uninstall()
    expect(montecarlo.run_design is original, "uninstall restores the original binding")
    spans: Spans = tracer.spans()

    expect(tracer.counters.get("replicates") == r == values.shape[0],
           f"replicate counter {tracer.counters.get('replicates')} == R = {r}")
    derived = spans.calls_under("streams.stream", "montecarlo.replicate_values")
    expect(derived == (b + 1) * r, f"streams.derived {derived} == (B+1)*R = {(b + 1) * r}")
    expect(spans.calls("design.run_design") == r, "one run_design span per replicate")

    roots = spans.parent == ROOT
    total_self = float(spans.self_time.sum())
    root_time = float(spans.duration[roots].sum())
    expect(abs(total_self - root_time) <= 1e-9 * max(1.0, root_time),
           f"self times add up to the root spans ({total_self:.6f} s vs {root_time:.6f} s)")
    expect(bool((spans.self_time >= -1e-12).all()), "no negative self time")
    layers = spans.layer_self()
    expect(abs(sum(layers.values()) - total_self) <= 1e-9 * max(1.0, total_self),
           f"layer self times add up: {sorted(layers)}")


def main() -> int:
    test_self_time_arithmetic()
    test_traced_replicates()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
