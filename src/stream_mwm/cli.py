"""Command-line surface: single runs and benchmark sweeps.

``run`` is one pipeline: read or generate the stream, decide once whether
the oracle (n <= 22) and the trace replay (n <= 64) apply, read a file
input into memory only if some step needs random access, then run, check
and emit the report. Any I/O, parse, capacity or epsilon error along the
way, or a node count too large to allocate, ends it with exit code 2.

Exit codes for ``run``: 0 success, 1 approximation-ratio violation (with
--oracle), 2 input/IO errors, 3 monitor failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import os
import random
import sys
from fractions import Fraction

from .core import EdgeStream, Matching, compute_params, parse_epsilon
from .engine import run_stream
from .generators import GeneratorKind, GeneratorSpec, StreamOrder, generate
from .monitors import (
    MonitorFailure,
    TRACE_MAX_EDGES,
    TRACE_MAX_NODES,
    check_eviction_gap,
    check_phi_growth,
    check_ratio_bound,
    check_terminal_weights,
)
from .reference import EXACT_MAX_NODES, exact_mwm, greedy_sorted, mwm_simple
from .report import RUN_CSV_HEADER, RunReport
from .streamio import LazyEdgeStream, read_stream

__all__ = ["main", "cmd_run", "cmd_bench"]

_GUARANTEE = {"simple": Fraction(2), "greedy": Fraction(2), "exact": Fraction(1)}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="stream-mwm",
        description="Single-pass bounded-memory maximum weight matching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm over one stream")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list file, or '-' for stdin")
    src.add_argument(
        "--gen", choices=[k.value for k in GeneratorKind], help="generate the stream"
    )
    _add_generator_flags(run)
    run.add_argument("--eps", default="1/2", help="epsilon as 'p/q' or decimal")
    run.add_argument(
        "--alg", choices=["semi", "simple", "greedy", "exact"], default="semi"
    )
    run.add_argument(
        "--oracle",
        action="store_true",
        help=f"compare against the exact solver (n <= {EXACT_MAX_NODES} only)",
    )
    run.add_argument(
        "--monitors",
        action="store_true",
        help="replay the runtime checks on a recorded trace (small instances)",
    )
    run.add_argument("--timing", action="store_true", help="collect per-edge timings")
    run.add_argument("--report", choices=["json", "csv"], default="json")
    run.add_argument("--out", default="-", help="report destination ('-' = stdout)")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="sweep generated streams, emit CSV rows")
    bench.add_argument(
        "--gen", choices=[k.value for k in GeneratorKind], default="er"
    )
    _add_generator_flags(bench)
    bench.add_argument("--ns", default="1000,10000,100000", help="comma-separated n sweep")
    bench.add_argument("--eps", default="1/2")
    bench.add_argument("--reps", type=int, default=1)
    bench.add_argument(
        "--degree",
        type=float,
        default=16.0,
        help="target average degree for er (sets p = degree/(n-1))",
    )
    bench.add_argument("--out", default="-")
    bench.set_defaults(func=cmd_bench)
    return parser


def _add_generator_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, help="node count for --gen")
    sub.add_argument("--p", type=float, help="edge probability (er)")
    sub.add_argument("--wmax", type=int, default=1000, help="max edge weight")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--base", type=float, default=1.9, help="growth base (chain)")
    sub.add_argument(
        "--order", choices=[o.value for o in StreamOrder], default="as-generated"
    )
    sub.add_argument("--order-seed", type=int, default=None)


def _spec_from_args(args: argparse.Namespace, n: int | None = None) -> GeneratorSpec:
    if n is None:
        if args.n is None:
            raise ValueError("--gen requires --n")
        n = args.n
    return GeneratorSpec(
        kind=GeneratorKind(args.gen),
        n=n,
        weight_max=args.wmax,
        seed=args.seed,
        p=args.p,
        base=args.base,
        order=StreamOrder(args.order),
        order_seed=args.order_seed,
    )


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)


def _fail(message: str) -> int:
    print(f"stream-mwm: error: {message}", file=sys.stderr)
    return 2


def cmd_run(args: argparse.Namespace) -> int:
    source: LazyEdgeStream | None = None
    n = args.n
    try:
        if args.input is not None:
            stream = source = read_stream(args.input)
        else:
            stream = generate(_spec_from_args(args))
        n = stream.n
        oracle = args.oracle and stream.n <= EXACT_MAX_NODES
        replay = args.monitors and stream.n <= TRACE_MAX_NODES
        if source is not None and (args.alg != "semi" or oracle or replay):
            stream = source.materialize()
        eps = parse_epsilon(args.eps)
        if args.alg == "semi":
            matching, report = _run_semi(args, stream, eps, replay)
        else:
            matching, report = _run_reference(args, stream, eps)
        violation = False
        if oracle:
            best = exact_mwm(stream).total_weight
            got = matching.total_weight
            report.oracle_weight = best
            if got == 0:
                report.ratio = 1.0 if best == 0 else float("inf")
            else:
                report.ratio = best / got
            violation = best > got * Fraction(report.ratio_bound)
        if args.report == "json":
            _emit(args, report.to_json())
        else:
            _emit(args, _as_csv([RUN_CSV_HEADER, report.to_csv_row()]))
    except (OSError, ValueError) as exc:
        # Parse, capacity and decode errors are all ValueErrors; a streamed
        # input is read, and may fail, during the run.
        return _fail(str(exc))
    except MemoryError:
        # A MemoryError carries no message: name the size that did not fit.
        size = "the input" if n is None else f"a graph of {n} nodes"
        return _fail(f"out of memory for {size}")
    finally:
        if source is not None:
            source.close()

    if violation:
        print("stream-mwm: approximation ratio violated", file=sys.stderr)
        return 1
    if "fail" in report.monitor_verdicts.values():
        print("stream-mwm: monitor failure", file=sys.stderr)
        return 3
    return 0


def _run_semi(
    args: argparse.Namespace,
    stream: EdgeStream | LazyEdgeStream,
    eps: Fraction,
    replay: bool,
) -> tuple[Matching, RunReport]:
    # A stream to replay is materialized, so it has a length.
    trace = [] if replay and len(stream.edges) <= TRACE_MAX_EDGES else None
    matching, report = run_stream(
        stream, eps, trace_sink=trace, collect_timing=args.timing
    )
    if args.monitors:
        params = compute_params(stream.n, eps)
        if trace is None:
            verdicts = dict.fromkeys(
                ("phi_growth", "eviction_gap", "terminal_weights"), "skipped"
            )
        else:
            verdicts = {
                "phi_growth": _verdict(check_phi_growth(trace, params).ok),
                "eviction_gap": _verdict(check_eviction_gap(trace, params).ok),
                "terminal_weights": _verdict(
                    check_terminal_weights(stream, trace, params).ok
                ),
            }
        try:
            check_ratio_bound(params, report.heavy_edges_k or 0)
            verdicts["ratio_bound"] = "pass"
        except MonitorFailure:
            verdicts["ratio_bound"] = "fail"
        report.monitor_verdicts = verdicts
    return matching, report


def _run_reference(
    args: argparse.Namespace, stream: EdgeStream, eps: Fraction
) -> tuple[Matching, RunReport]:
    solver = {"simple": mwm_simple, "greedy": greedy_sorted, "exact": exact_mwm}[
        args.alg
    ]
    matching = solver(stream)
    report = RunReport(
        algorithm=args.alg,
        n=stream.n,
        m=len(stream.edges),
        epsilon=str(eps),
        output_weight=matching.total_weight,
        ratio_bound=str(_GUARANTEE[args.alg]),
    )
    return matching, report


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _as_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


BENCH_CSV_HEADER = [
    "n",
    "m",
    "rep",
    "epsilon",
    "p50_ns",
    "p99_ns",
    "max_ns",
    "peak_live_entries",
    "queue_cap",
    "n_times_queue_cap",
    "max_queue_len",
    "heavy_edges_k",
    "evictions_total",
    "output_weight",
]


def _rep_spec(spec: GeneratorSpec, rep: int) -> GeneratorSpec:
    """Give repetition ``rep`` its own stream; rep 0 keeps ``--seed``."""
    if rep == 0:
        return spec
    return dataclasses.replace(
        spec, seed=random.Random(f"{spec.seed}/rep/{rep}").getrandbits(63)
    )


def _bench_task(task: tuple[GeneratorSpec, str, int]) -> dict[str, str]:
    """One `bench` row, keyed by column name."""
    spec, eps, rep = task
    _, report = run_stream(generate(spec), eps, collect_timing=True)
    row = dict(zip(RUN_CSV_HEADER, report.to_csv_row()))
    row["rep"] = str(rep)
    row["n_times_queue_cap"] = str(spec.n * (report.queue_cap or 0))
    return row


def _worker_count(tasks: int) -> int:
    env = os.environ.get("STREAM_MWM_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"STREAM_MWM_THREADS must be an integer, got {env!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"STREAM_MWM_THREADS must be at least 1, got {workers}")
        return workers
    return max(1, min(tasks, os.cpu_count() or 1))


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        ns = [int(part) for part in args.ns.split(",") if part]
        if not ns:
            raise ValueError(f"--ns lists no node count: {args.ns!r}")
        if args.reps < 1:
            raise ValueError(f"--reps must be at least 1, got {args.reps}")
        eps = parse_epsilon(args.eps)
        tasks = []
        for n in ns:
            if n < 2:
                raise ValueError(f"--ns values must be at least 2, got {n}")
            spec = _spec_from_args(args, n=n)
            if spec.kind is GeneratorKind.ERDOS_RENYI and args.p is None:
                # min(1.0, nan) is 1.0: a NaN degree would sweep complete graphs.
                if math.isnan(args.degree):
                    raise ValueError(f"--degree must be a number, got {args.degree}")
                spec = dataclasses.replace(spec, p=min(1.0, args.degree / (n - 1)))
            for rep in range(args.reps):
                tasks.append((_rep_spec(spec, rep), str(eps), rep))
        workers = _worker_count(len(tasks))
    except ValueError as exc:
        return _fail(str(exc))

    try:
        if workers == 1:
            rows = [_bench_task(t) for t in tasks]
        else:
            # Imported here: it is the costliest import of the module, and
            # only a parallel sweep uses it.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_bench_task, tasks))
    except ValueError as exc:
        return _fail(str(exc))

    rows.sort(key=lambda r: (int(r["n"]), int(r["rep"])))
    text = _as_csv([BENCH_CSV_HEADER] + [[r[c] for c in BENCH_CSV_HEADER] for r in rows])
    try:
        _emit(args, text)
    except OSError as exc:
        return _fail(str(exc))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
