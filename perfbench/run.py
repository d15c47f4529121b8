"""stream-mwm benchmark: end-to-end CLI runs, checked, with a traced mode.

Usage (from the repository root)::

    python3 perfbench/run.py --workload er-file --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/METRICS.md``):

- ``er-file``: ``stream-mwm run --input FILE --eps 1/2`` on an Erdos-Renyi
  file with average degree 16;
- ``stars-evict``: the same command on a file of disjoint stars whose
  centres all pass ``queue_cap`` and evict;
- ``verify-small``: a batch of in-process ``cli.main`` calls with
  ``--gen er --n 20 --p 0.5 --oracle --monitors``.

The inputs are built from ``--seed`` and the package source under ``src``.
Every sample runs in a fresh child process, one at a time, for
``--seconds`` seconds after one warm-up sample. Every report is checked.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the same samples are split across the package's layers. The last line of
standard output is one JSON object; the exit code is 1 when any run failed
a check and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

#: Each workload and the calibration job whose work resembles its samples.
WORKLOADS = {"er-file": "stream", "stars-evict": "bigstream", "verify-small": "subsets"}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-up is repeated until this many seconds have passed, at least
#: ``MIN_SAMPLES`` times, and its median reported.
SETUP_SECONDS = 4
#: A child that runs longer than this is killed and its runs count as failed.
CHILD_TIMEOUT_S = 60
#: The least number of timed samples, whatever ``--seconds`` says.
MIN_SAMPLES = 3
#: Times are reported in seconds of a machine on which each ``calibrate.py``
#: job takes this long (a 2-CPU cloud VM with Python 3.11 in its faster moments).
CALIB_REF_S = {"stream": 0.25, "bigstream": 0.25, "subsets": 0.15}


@dataclass
class Sample:
    wall_ns: int
    rss_mb: float
    reports: list[dict | None]
    child: dict = field(default_factory=dict)
    t0_ns: int = 0
    #: Mean slowdown of the calibration jobs run just before and just after.
    slowdown: float = 1.0

    @property
    def wall_s(self) -> float:
        """Wall seconds divided by the slowdown around them."""
        return self.wall_ns / 1e9 / self.slowdown


def spawn(cmd: list[str], env: dict, log: Path) -> tuple[int, int, float, int]:
    """Run ``cmd`` to completion; return (start ns, wall ns, peak RSS MB, exit code).

    The peak RSS is the child's own ``ru_maxrss``, read with ``os.wait4``.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, usage.ru_maxrss / 1024, proc.returncode


def calibrate(job: str, log: Path) -> float:
    """Slowdown of the machine now: the wall time of calibration ``job``, run
    in its own process, over the job's reference time."""
    cmd = [sys.executable, str(HERE / "calibrate.py"), job]
    _, wall, _, code = spawn(cmd, dict(os.environ), log)
    if code != 0:
        raise RuntimeError(f"calibrate.py {job} exited with {code}; see {log}")
    return wall / 1e9 / CALIB_REF_S[job]


def package_env() -> dict:
    """The environment of a child that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Runner:
    """Runs and checks samples of one prepared workload."""

    def __init__(self, name: str, prep: checks.Prepared, work: Path) -> None:
        self.name, self.prep, self.work = name, prep, work
        self.repeats = checks.Repeats()
        self.env = package_env()
        self.argv_file = work / "argv.json"
        self.argv_file.write_text(json.dumps(prep.argvs), encoding="utf-8")
        self.attempted = 0
        self.failures: list[str] = []

    def sample(self, mode: str = "") -> Sample:
        outs = [Path(argv[argv.index("--out") + 1]) for argv in self.prep.argvs]
        result = self.work / "child.json"
        for path in outs + [result]:
            path.unlink(missing_ok=True)
        if not self.prep.batch and not mode:
            cmd = [sys.executable, "-m", "stream_mwm.cli", *self.prep.argvs[0]]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), str(self.argv_file), str(result)]
            cmd += [f"--{mode}"] if mode else []
        t0, wall, rss, code = spawn(cmd, self.env, self.work / "stderr.log")

        child: dict = {}
        codes = [code] * len(outs)
        if cmd[1] != "-m":
            try:
                child = json.loads(result.read_text(encoding="utf-8"))
                codes = child["exit_codes"]
            except (OSError, ValueError, KeyError):
                codes = [code or 1] * len(outs)
        reports, failures = [], []
        for i, (path, expect, exit_code) in enumerate(zip(outs, self.prep.expects, codes)):
            try:
                report = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                report = None
            bad = checks.report_failures(exit_code, report, expect)
            bad += self.repeats.failures(i, report)
            if bad:
                failures.append(f"{self.name} run {i}: " + "; ".join(bad))
            reports.append(report)
        if failures:
            log = (self.work / "stderr.log").read_text(encoding="utf-8", errors="replace")
            failures[-1] += f"\n{log[-2000:]}" if log else ""
        self.attempted += len(outs)
        self.failures += failures
        return Sample(wall, rss, reports, child, t0)

    def timed(self, seconds: float, mode: str = "") -> list[Sample]:
        log = self.work / "stderr.log"
        return bracketed(lambda: self.sample(mode), seconds, WORKLOADS[self.name], log)


def bracketed(step, seconds: float, job: str, log: Path) -> list:
    """Repeat ``step`` for ``seconds`` (at least ``MIN_SAMPLES`` times) with
    a calibration job before the first and after each; return the results,
    each with the mean slowdown of the two calibrations around it."""
    results = []
    start = time.perf_counter()
    before = calibrate(job, log)
    while len(results) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        result = step()
        after = calibrate(job, log)
        result.slowdown = (before + after) / 2
        before = after
        results.append(result)
    return results


@dataclass
class SetupRun:
    wall_ns: int
    prepared: checks.Prepared
    slowdown: float = 1.0


def prepare(name: str, work: Path, seed: int, seconds: float) -> tuple[checks.Prepared, float]:
    """Build the inputs repeatedly for ``seconds``, each time in a process of
    its own; return (prepared, median set-up seconds scaled like the samples).
    The set-up time is measured inside that process, without its start-up."""
    out = work / "prepared.json"
    log = work / "stderr.log"
    cmd = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(work), str(out)]

    def setup() -> SetupRun:
        out.unlink(missing_ok=True)
        code = spawn(cmd, package_env(), log)[3]
        if code != 0:
            raise RuntimeError(f"set-up of {name} exited with {code}: {log.read_text()[-2000:]}")
        prepared, setup_ns = checks.Prepared.from_json(out.read_text(encoding="utf-8"))
        return SetupRun(setup_ns, prepared)

    runs = bracketed(setup, seconds, WORKLOADS[name], log)
    times = [r.wall_ns / 1e9 / r.slowdown for r in runs]
    return runs[-1].prepared, statistics.median(times)


def ref_ratio(prep: checks.Prepared, reports: list[dict]) -> float:
    """Reference weight over output weight, worst instance (0 when no run
    produced a positive output weight)."""
    return max(
        (ref / rep["output_weight"] for ref, rep in zip(prep.ref_weights, reports)
         if rep and rep.get("output_weight")),
        default=0.0,
    )


def highest_supported(walls: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(walls)
    pct = 100 * (n - 10) // n if n >= 20 else 0
    if pct < 50:
        return None
    return pct, statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> dict:
    runner.sample()  # warm-up: byte-compiles the package, fills the file cache
    samples = runner.timed(seconds)
    walls = [s.wall_s for s in samples]
    wall = statistics.median(walls)
    raw = statistics.median(s.wall_ns / 1e9 for s in samples)
    slowdown = statistics.median(s.slowdown for s in samples)
    metrics = {
        "wall_s": (wall, "s"),
        "edges_per_s": (runner.prep.edges / wall, "1/s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in samples), "MB"),
        "setup_s": (setup_s, "s"),
        "ref_ratio": (ref_ratio(runner.prep, samples[0].reports), "ratio"),
    }
    hi = highest_supported(walls)
    tail = f"p{hi[0]} = {hi[1]:.4f} s" if hi else "no percentile from p50 up has 10 samples beyond it"
    print(f"wall_s: p50 = {wall:.4f} s, {tail}, over {len(walls)} samples;"
          f" unscaled p50 = {raw:.4f} s at a slowdown p50 of {slowdown:.4f}")
    return metrics


def traced(runner: Runner, seconds: float) -> dict:
    """Untraced, traced and tracemalloc passes over the same inputs."""
    runner.sample()
    untraced = runner.timed(seconds / 2)
    spans = runner.timed(seconds / 2, "trace")
    memory = runner.sample("tracemalloc").child.get("memory", {})

    spans.sort(key=lambda s: s.wall_s)
    rep = spans[(len(spans) - 1) // 2]  # the median-wall traced sample
    t = rep.child.get("trace") or {}
    span_ns, self_ns, edges = t.get("span_ns", {}), t.get("self_ns", {}), t.get("edges", {})
    # Every time below is scaled like ``wall_s``, so the parts still add up.
    k = 1 / rep.slowdown
    wall = rep.wall_s
    prep = runner.prep
    reports = [r for r in rep.reports if r]

    def span_s(*names: str) -> float:
        return sum(ns for name, ns in span_ns.items() if name.startswith(names)) * k / 1e9

    def bucket(name: str, key: str) -> float:
        return edges.get(name, {}).get(key, 0)

    def bucket_ns(name: str, key: str) -> float:
        return bucket(name, key) * k

    processed = sum(bucket(b, "count") for b in ("light", "push", "evict"))
    pushed = bucket("push", "count") + bucket("evict", "count")
    read_s = span_s("streamio.read_stream")
    peak_live = max((r["peak_live_entries"] for r in reports), default=0)
    live_frac = max(
        (r["peak_live_entries"] / (r["n"] * r["queue_cap"]) for r in reports), default=0.0
    )
    layers = ("streamio", "generators", "engine", "core", "reference", "monitors", "report", "cli")
    metrics = {
        "streamio.read_s": (read_s, "s"),
        "streamio.ns_per_line": (read_s * 1e9 / prep.lines if prep.lines else 0.0, "ns"),
        "streamio.input_mb": (memory.get("input_bytes", 0) / 2**20, "MB"),
        "engine.light_edges": (bucket("light", "count"), "count"),
        "engine.light_ns.p50": (bucket_ns("light", "p50"), "ns"),
        "engine.light_ns.p99": (bucket_ns("light", "p99"), "ns"),
        "engine.light_s": (bucket_ns("light", "sum_ns") / 1e9, "s"),
        "engine.heavy_frac": (pushed / processed if processed else 0.0, "ratio"),
        "engine.pushed_edges": (pushed, "count"),
        "engine.push_ns.p50": (bucket_ns("push", "p50"), "ns"),
        "engine.push_ns.p99": (bucket_ns("push", "p99"), "ns"),
        "engine.push_s": (bucket_ns("push", "sum_ns") / 1e9, "s"),
        "engine.evictions": (t.get("evictions", 0), "count"),
        "engine.evict_push_ns.p50": (bucket_ns("evict", "p50"), "ns"),
        "engine.evict_push_s": (bucket_ns("evict", "sum_ns") / 1e9, "s"),
        "engine.compactions": (t.get("calls", {}).get("engine.compact", 0), "count"),
        "engine.unwind_s": (span_s("engine.finalize"), "s"),
        "engine.peak_live_entries": (peak_live, "count"),
        "engine.live_bound_frac": (live_frac, "ratio"),
        "engine.bytes_per_live_entry": (
            memory["engine_peak_bytes"] / memory["peak_live_entries"]
            if memory.get("peak_live_entries") else 0.0,
            "B",
        ),
        "python.gc_pause_s": (self_ns.get("python", 0) * k / 1e9, "s"),
        "python.gc_collections": (t.get("gc_collections", 0), "count"),
        "reference.exact_s": (span_s("reference.exact_mwm"), "s"),
        "monitors.replay_s": (span_s("monitors."), "s"),
        "generators.generate_s": (span_s("generators.generate"), "s"),
    }
    for layer in layers:
        metrics[f"{layer}.self_s"] = (self_ns.get(layer, 0) * k / 1e9, "s")
    metrics["process.self_s"] = (wall - sum(self_ns.values()) * k / 1e9, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (
        rep.wall_s / statistics.median(s.wall_s for s in untraced),
        "ratio",
    )

    trace_file = runner.work / "trace.json"
    trace_file.write_text(
        json.dumps({"t0_ns": rep.t0_ns, "wall_ns": rep.wall_ns, "spans": t.get("spans", [])}),
        encoding="utf-8",
    )
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in layers)
    print(f"self time: layers {self_total:.4f} s + gc {metrics['python.gc_pause_s'][0]:.4f} s"
          f" + process {metrics['process.self_s'][0]:.4f} s = wall {wall:.4f} s;"
          f" spans in {trace_file.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stream_mwm" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep, setup_s = prepare(args.workload, work, args.seed, 0 if args.trace else SETUP_SECONDS)
        runner = Runner(args.workload, prep, work)
        if args.trace:
            metrics = traced(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds, setup_s)
    finally:
        for path in work.glob("*.mwm"):
            path.unlink()

    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"failed_frac = {failed / runner.attempted} ({failed} of {runner.attempted} runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
