"""peerenc benchmark: timed researcher sessions and a traced run per module.

    python3 perfbench/run.py --workload mc-small-blocks --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; peerenc is imported from `src/`.

With `--trace 0` the benchmark times a researcher session as separate CLI
processes, one at a time: `generate`, `estimands --format json`,
`simulate --dump-data` at `--threads 1` and at `--threads $(nproc)`, and
`verify`. It repeats sessions until `--seconds` have passed and reports
medians. Set-up (`generate`) also runs a few extra times first.

On a shared host the speed of a vCPU drifts, by up to about 2x for minutes
at a time, and that moves every wall time alike. So before each command the
benchmark also times a fixed calibration program (a fresh interpreter running
a pure-Python loop and small numpy operations, importing nothing from
peerenc), whose samples cover the run as the commands' samples do. Reported
times are wall medians divided by the host's slowdown, median(calibration
wall) / CALIBRATION_NOMINAL_S. The wall medians and the slowdown are printed
beside them and kept in result.json.

With `--trace 1` the same session runs in this process through
`peerenc.cli.main(argv)` at `--threads 1`, alternately untraced and with every
public peerenc function wrapped (see tracing.py), and reports per-module
numbers. The dumped CSV is also read back with `ExperimentData.from_csv` and
passed to `estimate_report`.

Every output is checked (see checks.py). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. `--workload
all` runs every workload in turn. The first session's outputs and a
result.json with machine facts and raw samples go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import MECH_A, MECH_B, WORKLOADS, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 2
# A run must end within 180 s; leave room for checks and output.
DEADLINE_S = 150.0
NPROC = len(os.sched_getaffinity(0))
# A CLI call in miniature: interpreter start-up, the numpy import, a
# pure-Python loop and small numpy operations. It never changes with peerenc.
CALIBRATION = """\
import numpy as np
s = 0
for i in range(600_000):
    s += i * i % 7
x = np.arange(400.0)
for i in range(6_000):
    x = np.sqrt(x + 1.0)
"""
# About the calibration's wall time on a lightly loaded 2.1 GHz Xeon vCPU.
# It sets the scale of the reported times, not their spread.
CALIBRATION_NOMINAL_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "estimands_s": "s",
    "simulate_s": "s",
    "simulate_nproc_s": "s",
    "verify_s": "s",
    "session_s": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "population.build_s": "s",
    "population.validate_s": "s",
    "population.save_s": "s",
    "population.load_s": "s",
    "population.json_mb": "MB",
    "population.self_s": "s",
    "estimands.report_s": "s",
    "estimands.theorems_s": "s",
    "estimands.self_s": "s",
    "estimands.pmf_calls": "count",
    "estimands.indiv_evals.structural": "count",
    "estimands.indiv_evals.table": "count",
    "estimands.enum_rows": "count",
    "mechanisms.self_s": "s",
    "mechanisms.sample_calls": "count",
    "mechanisms.enum_calls": "count",
    "streams.self_s": "s",
    "streams.derived": "count",
    "design.self_s": "s",
    "design.run_design_ms_p50": "ms",
    "design.run_design_ms_p99": "ms",
    "design.validate_calls": "count",
    "design.csv_write_s": "s",
    "design.csv_read_s": "s",
    "estimators.self_s": "s",
    "estimators.battery_ms_p50": "ms",
    "estimators.battery_ms_p99": "ms",
    "estimators.et_blocks_dropped": "count",
    "estimators.et_blocks_kept_ratio": "ratio",
    "montecarlo.self_s": "s",
    "montecarlo.exact_targets_s": "s",
    "montecarlo.replicates": "count",
    "montecarlo.defined_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Run:
    """Operation bookkeeping shared by both modes: every CLI call (or in-process
    step) is one attempted operation, failed when its exit code or output
    check is wrong."""

    def __init__(self, w: Workload, seed: int, out: Path):
        self.w = w
        self.seed = seed
        self.out = out
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self._blocks = None
        self.sim_cfg, self.ver_cfg = w.write_configs(seed, out)

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def window_done(self, t0: float, seconds: float, last: float) -> bool:
        """True when stopping now lands closer to --seconds than one more
        session as long as the last, or when the run's deadline nears."""
        return time.perf_counter() - t0 + last / 2 >= seconds or self.elapsed() > DEADLINE_S / 2

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)

    def same_bytes(self, key: str, path: Path) -> list[str]:
        """Outputs are a function of (config, seed): every repeat, thread count
        and traced or untraced run must write the same bytes."""
        d = digest(path)
        if d is None:
            return [f"{path.name} was not written"]
        first = self.digests.setdefault(key, d)
        return [] if d == first else [f"{path.name} differs from the first {key} output"]

    def argv(self, d: Path, threads: int) -> dict[str, list[str]]:
        common = ["--pop", str(d / "pop.json")]
        return {
            "generate": ["generate", "--config", str(self.sim_cfg), "--out", str(d / "pop.json")],
            "estimands": ["estimands", "--config", str(self.sim_cfg), *common,
                          "--format", "json", "--out", str(d / "estimands.json")],
            "simulate": ["simulate", "--config", str(self.sim_cfg), *common,
                         "--threads", str(threads), "--dump-data", str(d / "replicate0.csv"),
                         "--out", str(d / "simulate.json")],
            "verify": ["verify", "--config", str(self.ver_cfg), *common,
                       "--threads", str(threads),
                       "--out", str(d / "verify.json")],
        }

    def check(self, op: str, d: Path, code: int, full: bool) -> list[str]:
        """Exit code, byte identity with earlier repeats, and (once per
        artifact) the semantic checks."""
        try:
            return self._check(op, d, code, full)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def _check(self, op: str, d: Path, code: int, full: bool) -> list[str]:
        w = self.w
        want = w.verify_exit if op == "verify" else 0
        if code != want:
            return [f"exit code {code}, expected {want}"]
        if op == "generate":
            return self.same_bytes("population", d / "pop.json")
        if op == "estimands":
            problems = self.same_bytes("estimands", d / "estimands.json")
            if full and not problems:
                problems = checks.check_estimands(read_json(d / "estimands.json"),
                                                  self.blocks(d), w.name, self.seed)
            return problems
        if op == "simulate":
            problems = (self.same_bytes("simulate", d / "simulate.json")
                        + self.same_bytes("replicate0.csv", d / "replicate0.csv"))
            if full and not problems:
                est = read_json(d / "estimands.json")
                problems = (checks.check_simulate(read_json(d / "simulate.json"), est, w, self.seed)
                            + checks.check_csv(d / "replicate0.csv", self.blocks(d), w))
            return problems
        problems = self.same_bytes("verify", d / "verify.json")
        if full and not problems:
            est = read_json(d / "estimands.json")
            problems = checks.check_verify(read_json(d / "verify.json"), est, self.blocks(d), w)
        return problems

    def blocks(self, d: Path) -> list[dict]:
        """The population as checks.py reads it, parsed once per run."""
        if self._blocks is None:
            self._blocks = checks.read_population(d / "pop.json")
        return self._blocks


# --------------------------------------------------------------------------
# Untraced sessions: one CLI process at a time
# --------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PEERENC_THREADS", None)  # --threads is always passed explicitly
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(run: Run, args: list[str], log: Path) -> tuple[int, float, float]:
    """Run one peerenc CLI command; see run_child."""
    return run_child(run, [sys.executable, "-m", "peerenc.cli", *args], log)


def calibrate(run: Run, log: Path) -> float:
    """Wall time of the calibration program."""
    code, wall, _ = run_child(run, [sys.executable, "-c", CALIBRATION], log)
    if code != 0:
        raise RuntimeError(f"calibration program exited {code}; see {log}")
    return wall


def run_child(run: Run, cmd: list[str], log: Path) -> tuple[int, float, float]:
    """Run one child process to completion; (exit code, wall s, max RSS MB)."""
    timeout = max(1.0, DEADLINE_S - run.elapsed())
    with open(log, "wb") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=sink, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024.0


def cli_mode(run: Run, seconds: float) -> dict:
    times: dict[str, list[float]] = {k: [] for k in
                                     ("generate", "estimands", "simulate", "simulate_nproc",
                                      "verify", "session", "rss", "calibration")}
    setup = run.out / "setup"
    setup.mkdir()
    for k in range(SETUP_REPEATS):
        times["calibration"].append(calibrate(run, setup / "calibration.log"))
        code, wall, _ = run_cli(run, run.argv(setup, 1)["generate"], setup / f"generate{k}.log")
        times["generate"].append(wall)
        run.record("generate", run.check("generate", setup, code, full=False))

    session = 0
    measure_t0 = time.perf_counter()
    while True:
        d = run.out / f"session{session}"
        d.mkdir()
        full = session == 0
        walls = {}
        rss = []
        cal = []
        ops = run.argv(d, 1)
        nproc_ops = run.argv(d, NPROC)
        plan = [("generate", ops["generate"]), ("estimands", ops["estimands"]),
                ("simulate", ops["simulate"]), ("simulate_nproc", nproc_ops["simulate"]),
                ("verify", ops["verify"])]
        for label, args in plan:
            cal.append(calibrate(run, d / "calibration.log"))
            code, wall, mb = run_cli(run, args, d / f"{label}.log")
            walls[label] = wall
            rss.append(mb)
            op = label.replace("_nproc", "")
            run.record(label, run.check(op, d, code, full and label != "simulate_nproc"))
        for label, wall in walls.items():
            times[label].append(wall)
        times["session"].append(sum(walls[k] for k in ("generate", "estimands", "simulate",
                                                       "verify")))
        times["rss"].append(max(rss))
        times["calibration"].extend(cal)
        if session > 0:
            shutil.rmtree(d)  # checked against session 0's digests; keep only that one
        session += 1
        if run.window_done(measure_t0, seconds, sum(walls.values()) + sum(cal)):
            break

    med = {k: statistics.median(v) for k, v in times.items()}
    slowdown = med["calibration"] / CALIBRATION_NOMINAL_S
    raw = {
        "setup_s": med["generate"],
        "estimands_s": med["estimands"],
        "simulate_s": med["simulate"],
        "simulate_nproc_s": med["simulate_nproc"],
        "verify_s": med["verify"],
        "session_s": med["session"],
    }
    metrics = {k: v / slowdown for k, v in raw.items()}
    metrics["replicates_per_s"] = run.w.sim_replications / metrics["simulate_s"]
    metrics["peak_rss_mb"] = med["rss"]
    return {"metrics": metrics, "samples": times, "sessions": session,
            "wall_medians": raw, "host_slowdown": slowdown}


# --------------------------------------------------------------------------
# Traced run: the same session in this process
# --------------------------------------------------------------------------


def _count_indiv_eval(tracer, args, kwargs, result):
    pop, i, j = args[:3]  # estimands passes (pop, i, j, ...) positionally
    kind = "structural" if type(pop.blocks[i][j].y).__name__ == "StructuralOutcome" else "table"
    tracer.count(f"estimands.indiv_evals.{kind}")


def _count_enum_rows(tracer, args, kwargs, result):
    caller = tracer.stack[-1]
    if caller != -1 and tracer.names[tracer.name_id[caller]].startswith("estimands."):
        tracer.count("estimands.enum_rows", result.shape[0])


def _count_et(tracer, args, kwargs, result):
    tracer.count("estimators.et_blocks_dropped", len(result.dropped))
    tracer.count("estimators.et_blocks_total", len(result.per_block))


def _count_replicates(tracer, args, kwargs, result):
    tracer.count("montecarlo.replicates", result.shape[0])
    tracer.count("montecarlo.defined", int(np.isfinite(result).sum()))
    tracer.count("montecarlo.values", result.size)


HOOKS = {
    "estimands.ybar_indiv_itt": _count_indiv_eval,
    "estimands.ybar_indiv_local": _count_indiv_eval,
    "mechanisms.enumerate_assignments": _count_enum_rows,
    "estimators.et_hat": _count_et,
    "montecarlo.replicate_values": _count_replicates,
}


def run_inprocess(run: Run, peerenc, d: Path) -> tuple[float, dict[str, int]]:
    """One session through peerenc.cli.main; returns (wall s, exit codes)."""
    d.mkdir()
    codes = {}
    wall = 0.0
    for op, argv in run.argv(d, 1).items():
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[op] = peerenc.cli.main(argv)
        except SystemExit as exc:
            codes[op] = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            codes[op] = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
    t0 = time.perf_counter()
    try:
        from peerenc import design, estimators, mechanisms

        data = design.ExperimentData.from_csv(d / "replicate0.csv",
                                              mechanisms.Mechanism(*MECH_A),
                                              mechanisms.Mechanism(*MECH_B))
        report = estimators.estimate_report(data)
        codes["csv_read"] = 0 if report.arm_sizes == (run.w.k, run.w.blocks - run.w.k) else 1
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        codes["csv_read"] = f"{type(exc).__name__}: {exc}"
    wall += time.perf_counter() - t0
    return wall, codes


def layer_metrics(spans, counters: dict, pop_bytes: int) -> dict[str, float]:
    layer_self = spans.layer_self()
    run_design = spans.durations("design.run_design") * 1e3
    battery = spans.durations("estimators.estimator_battery") * 1e3
    et_total = counters.get("estimators.et_blocks_total", 0)
    dropped = counters.get("estimators.et_blocks_dropped", 0)
    values = counters.get("montecarlo.values", 0)

    def pct(x, q):
        return float(np.percentile(x, q)) if x.size else 0.0

    return {
        "population.build_s": spans.total("population.build_population"),
        "population.validate_s": spans.total("population.validate"),
        "population.save_s": spans.total("population.save_population"),
        "population.load_s": spans.total("population.load_population"),
        "population.json_mb": pop_bytes / 1e6,
        "population.self_s": layer_self.get("population", 0.0),
        "estimands.report_s": spans.total("estimands.compute_estimand_report"),
        "estimands.theorems_s": spans.total("estimands.theorem_1_check",
                                            "estimands.theorem_2_check",
                                            "estimands.theorem_3_check"),
        "estimands.self_s": layer_self.get("estimands", 0.0),
        "estimands.pmf_calls": spans.calls("estimands.poisson_binomial_pmf"),
        "estimands.indiv_evals.structural": counters.get("estimands.indiv_evals.structural", 0),
        "estimands.indiv_evals.table": counters.get("estimands.indiv_evals.table", 0),
        "estimands.enum_rows": counters.get("estimands.enum_rows", 0),
        "mechanisms.self_s": layer_self.get("mechanisms", 0.0),
        "mechanisms.sample_calls": spans.calls("mechanisms.sample_assignment"),
        "mechanisms.enum_calls": spans.calls("mechanisms.enumerate_assignments"),
        "streams.self_s": layer_self.get("streams", 0.0),
        "streams.derived": spans.calls_under("streams.stream", "montecarlo.replicate_values"),
        "design.self_s": layer_self.get("design", 0.0),
        "design.run_design_ms_p50": pct(run_design, 50),
        "design.run_design_ms_p99": pct(run_design, 99),
        "design.validate_calls": spans.calls("design.validate_design"),
        "design.csv_write_s": spans.total("design.ExperimentData.to_csv"),
        "design.csv_read_s": spans.total("design.ExperimentData.from_csv"),
        "estimators.self_s": layer_self.get("estimators", 0.0),
        "estimators.battery_ms_p50": pct(battery, 50),
        "estimators.battery_ms_p99": pct(battery, 99),
        "estimators.et_blocks_dropped": dropped,
        "estimators.et_blocks_kept_ratio": (et_total - dropped) / et_total if et_total else 0.0,
        "montecarlo.self_s": layer_self.get("montecarlo", 0.0),
        "montecarlo.exact_targets_s": spans.total("montecarlo.exact_targets"),
        "montecarlo.replicates": counters.get("montecarlo.replicates", 0),
        "montecarlo.defined_ratio": (counters.get("montecarlo.defined", 0) / values
                                     if values else 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
    }


COUNT_METRICS = [k for k, unit in PER_LAYER.items() if unit == "count"] + ["population.json_mb"]


def trace_mode(run: Run, seconds: float) -> dict:
    sys.path.insert(0, str(SRC))
    import peerenc
    import peerenc.cli  # noqa: F401 - the package does not import its CLI

    tracer = Tracer(HOOKS)
    untraced, traced, samples = [], [], []
    measure_t0 = time.perf_counter()
    i = 0
    while True:
        order = ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")
        for kind in order:
            d = run.out / f"{kind}{i}"
            if kind == "traced":
                tracer.reset()
                tracer.install(peerenc)
                try:
                    wall, codes = run_inprocess(run, peerenc, d)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                counters = dict(tracer.counters)
                spans = tracer.spans()
                tracer.reset()
                samples.append(layer_metrics(spans, counters, (d / "pop.json").stat().st_size
                                             if (d / "pop.json").exists() else 0))
                del spans
            else:
                wall, codes = run_inprocess(run, peerenc, d)
                untraced.append(wall)
            for op, code in codes.items():
                if op == "csv_read":
                    run.record(op, [] if code == 0 else [f"estimate_report from CSV: {code}"])
                elif isinstance(code, str):
                    run.record(op, [code])
                else:
                    run.record(op, run.check(op, d, code, full=(i == 0 and kind == order[0])))
            if i > 0:
                shutil.rmtree(d)
        i += 1
        if run.window_done(measure_t0, seconds, untraced[-1] + traced[-1]):
            break

    counts = {k: samples[0][k] for k in COUNT_METRICS}
    for s in samples[1:]:
        if {k: s[k] for k in COUNT_METRICS} != counts:
            run.record("trace", ["counts differ between traced sessions"])
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return {"metrics": metrics, "samples": {"traced": traced, "untraced": untraced},
            "sessions": i}


# --------------------------------------------------------------------------


def environment() -> dict:
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    run = Run(w, seed, out)
    result = (trace_mode if trace else cli_mode)(run, seconds)
    env["loadavg_end"] = list(os.getloadavg())
    units = PER_LAYER if trace else END_TO_END
    metrics = {k: {"value": result["metrics"][k], "unit": units[k]} for k in units}
    record = {
        "workload": name, "why": w.why, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "sessions": result["sessions"], "samples": result["samples"],
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
        "metrics": metrics,
        **{k: result[k] for k in ("wall_medians", "host_slowdown") if k in result},
    }
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# {name} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{result['sessions']} sessions): {w.why}")
    wall = result.get("wall_medians", {})
    for k, m in metrics.items():
        raw = f"   (wall {wall[k]:.6g} s)" if k in wall else ""
        print(f"{name:<20} {k:<34} {m['value']:>14.6g} {m['unit']}{raw}")
    if "host_slowdown" in result:
        print(f"{name:<20} {'host_slowdown':<34} {result['host_slowdown']:>14.6g} ratio "
              f"(calibration wall / {CALIBRATION_NOMINAL_S} s; times above are divided by it)")
    print(f"{name:<20} {'error_rate':<34} {run.failed / run.attempted:>14.6g} ratio "
          f"({run.failed} of {run.attempted} operations failed)")
    for p in run.problems:
        print(f"{name:<20} FAILED {p}")
    print(f"# environment: {json.dumps(env)}")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "peerenc" / "cli.py").is_file():
        print(f"error: no peerenc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
