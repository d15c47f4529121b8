"""Command-line surface: single runs and benchmark sweeps.

``run`` is one pipeline: read or generate the stream, decide once whether
the oracle (n <= 22) applies, then run, check and emit the report. Every
solver, the engine and the three reference ones alike, reads its input
once, in order, so a file or stdin is parsed as it runs, and nothing else
reads it: ``--alg semi --monitors`` replays each chunk after the pass, in
the engine, and the oracle's pair table is filled from each chunk as the
solver reads it. Every run's oracle is `optimum_weight` on that table, the
optimum's weight alone, so an exact run's oracle checks `exact_mwm`.
`reference` is imported only by a run that calls it, with the oracle or
a baseline ``--alg``; a plain semi run does not load it.
Every ``--alg`` refuses an epsilon that the engine refuses, checked once,
before the input is opened or generated. Any I/O, parse,
capacity or epsilon error along the way, or a node count too large to
allocate, ends it with exit code 2.
``bench`` checks epsilon before it generates, then runs each row as its own
pass, in up to min(rows, CPUs) worker processes; it exits 2 on the same errors.

Exit codes for ``run``: 0 success, 1 approximation-ratio violation (with
--oracle), 2 input/IO errors, 3 monitor failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import random
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import EXACT_MAX_NODES, EdgeStream, _check_epsilon, parse_epsilon
from .engine import run_stream
from .generators import GeneratorKind, GeneratorSpec, StreamOrder, generate

# Unused here: `run_stream` calls these itself. They stay names of this
# module, where perfbench's tracer looks up the calls it times.
from .core import compute_params  # noqa: F401
from .monitors import (  # noqa: F401
    check_eviction_gap,
    check_phi_growth,
    check_ratio_bound,
    check_terminal_weights,
)
from .report import RUN_CSV_HEADER, RunReport
from .streamio import LazyEdgeStream, open_edges, read_stream

if TYPE_CHECKING:
    from .reference import (
        _heaviest_copies,
        exact_mwm,
        greedy_sorted,
        mwm_simple,
        optimum_weight,
    )

__all__ = ["main", "cmd_run", "cmd_bench"]

#: The names of `reference` that `run` calls: its baselines, its exact
#: solver and its oracle, bound here by the first run that calls one.
_REFERENCE = (
    "_heaviest_copies",
    "exact_mwm",
    "greedy_sorted",
    "mwm_simple",
    "optimum_weight",
)


def _import_reference() -> None:
    """Import `reference` and bind the names of `_REFERENCE` here, each one
    not bound already: perfbench's tracer binds its wrappers in their place,
    and a run calls those."""
    from . import reference

    for name in _REFERENCE:
        globals().setdefault(name, getattr(reference, name))


def __getattr__(name: str):
    # A lookup on the module, as the tracer's, imports `reference` too.
    if name not in _REFERENCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _import_reference()
    return globals()[name]


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
    run.add_argument("--n", type=int, help="node count for --gen")
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
        help="check the pass's invariants (--alg semi)",
    )
    run.add_argument("--timing", action="store_true", help="collect per-edge timings")
    run.add_argument("--report", choices=["json", "csv"], default="json")
    run.add_argument("--out", default="-", help="report destination ('-' = stdout)")
    run.set_defaults(func=cmd_run)

    # No abbreviations: "--n" would read as "--ns", and sweep a node count
    # meant for `run`.
    bench = sub.add_parser(
        "bench", help="sweep generated streams, emit CSV rows", allow_abbrev=False
    )
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
    n = args.n
    try:
        # The engine's epsilon rule holds for every --alg, before the input
        # is opened or generated.
        eps = _check_epsilon(parse_epsilon(args.eps))
        if args.input is not None:
            stream = read_stream(args.input)
        else:
            stream = generate(_spec_from_args(args))
        n = stream.n
        oracle = args.oracle and stream.n <= EXACT_MAX_NODES
        if oracle or args.alg != "semi":
            _import_reference()
        if oracle:
            # The oracle keeps one edge per node pair, from the run's read.
            pairs: dict = {}
            chunks = functools.partial(_filling, open_edges(stream).chunks, pairs)
            stream = LazyEdgeStream(stream.n, stream.m, chunks)
        if args.alg == "semi":
            # Only a semi run has monitors.
            matching, report = run_stream(
                stream, eps, monitors=args.monitors, collect_timing=args.timing
            )
        else:
            solver = {"simple": mwm_simple, "greedy": greedy_sorted, "exact": exact_mwm}
            matching = solver[args.alg](stream)
            report = RunReport(
                algorithm=args.alg,
                n=stream.n,
                m=stream.m,
                epsilon=str(eps),
                output_weight=matching.total_weight,
                ratio_bound=str(_GUARANTEE[args.alg]),
            )
        violation = False
        if oracle:
            got = matching.total_weight
            best = optimum_weight(EdgeStream(stream.n, list(pairs.values())))
            if got == 0:
                ratio = 1.0 if best == 0 else float("inf")
            else:
                ratio = best / got
            report = report._replace(oracle_weight=best, ratio=ratio)
            violation = best > got * Fraction(report.ratio_bound)
        if args.report == "json":
            _emit(args, report.to_json())
        else:
            _emit(args, _as_csv([RUN_CSV_HEADER, report.to_csv_row()]))
    except (OSError, ValueError) as exc:
        # Parse, capacity and decode errors are all ValueErrors; a streamed
        # input is read, and may fail, during the run.
        return _fail(str(exc))
    except (MemoryError, OverflowError):
        # A MemoryError carries no message, and an OverflowError (a node
        # count past 2**63) does not name the count: name the size that did
        # not fit.
        size = "the input" if n is None else f"a graph of {n} nodes"
        return _fail(f"out of memory for {size}")

    if violation:
        print("stream-mwm: approximation ratio violated", file=sys.stderr)
        return 1
    if "fail" in report.monitor_verdicts.values():
        print("stream-mwm: monitor failure", file=sys.stderr)
        return 3
    return 0


def _filling(chunks, pairs: dict):
    """Each chunk of ``chunks()``, handed on once its edges are in the
    oracle's pair table ``pairs``."""
    for chunk in chunks():
        _heaviest_copies(chunk, pairs)
        yield chunk
        del chunk  # the next chunk is parsed without this one


def _as_csv(rows: list[list[str]]) -> str:
    # Imported here: only a CSV report or a sweep writes CSV.
    import csv

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
    return spec._replace(seed=random.Random(f"{spec.seed}/rep/{rep}").getrandbits(63))


def _bench_task(eps: Fraction, spec: GeneratorSpec, rep: int) -> dict[str, str]:
    """One `bench` row, keyed by column name."""
    try:
        _, report = run_stream(generate(spec), eps, collect_timing=True)
    except (MemoryError, OverflowError):
        # As in `cmd_run`; as a ValueError it names the n that did not fit
        # and comes back from a worker like any other.
        raise ValueError(f"out of memory for a graph of {spec.n} nodes") from None
    row = dict(zip(RUN_CSV_HEADER, report.to_csv_row()))
    row["rep"] = str(rep)
    row["n_times_queue_cap"] = str(spec.n * (report.queue_cap or 0))
    return row


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        ns = [int(part) for part in args.ns.split(",") if part]
        if not ns:
            raise ValueError(f"--ns lists no node count: {args.ns!r}")
        if args.reps < 1:
            raise ValueError(f"--reps must be at least 1, got {args.reps}")
        task = functools.partial(_bench_task, _check_epsilon(parse_epsilon(args.eps)))
        specs, reps = [], []
        for n in ns:
            if n < 2:
                raise ValueError(f"--ns values must be at least 2, got {n}")
            spec = _spec_from_args(args, n=n)
            if spec.kind is GeneratorKind.ERDOS_RENYI and args.p is None:
                # min(1.0, nan) is 1.0: a NaN degree would sweep complete graphs.
                if math.isnan(args.degree):
                    raise ValueError(f"--degree must be a number, got {args.degree}")
                spec = spec._replace(p=min(1.0, args.degree / (n - 1)))
            for rep in range(args.reps):
                specs.append(_rep_spec(spec, rep))
                reps.append(rep)
        # Each row is an independent pass, so rows run in parallel on every
        # CPU there is; one row or one CPU skips the pool's start-up cost.
        workers = min(len(specs), os.cpu_count() or 1)
        if workers == 1:
            rows = list(map(task, specs, reps))
        else:
            # Imported here: it is the costliest import of the module, and
            # only a parallel sweep uses it.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(task, specs, reps))
        rows.sort(key=lambda r: (int(r["n"]), int(r["rep"])))
        lines = [[r[c] for c in BENCH_CSV_HEADER] for r in rows]
        _emit(args, _as_csv([BENCH_CSV_HEADER] + lines))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
