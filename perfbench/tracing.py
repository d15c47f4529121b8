"""Spans and self time per layer, recorded from outside the package.

``install`` replaces public functions of ``stream_mwm`` with wrappers that
open a span around each call. The layer of a span is the module part of
its name (``engine.finalize`` belongs to ``engine``). Self time is charged
to the innermost open layer whenever a span opens or closes, so the self
times of all layers add up to the time covered by the outermost spans.

``StreamingState.process_edge`` is not a span (there is one call per
edge): each call is timed and put in a bucket by its outcome, read from
the deltas of ``live_entries`` and ``stats.evictions_total``.
Garbage-collector pauses, seen through ``gc.callbacks``, are spans of the
``python`` layer, and their time is moved out of the layer they
interrupted.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from array import array

BUCKETS = ("light", "push", "evict")


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        #: [name, start_ns, end_ns, parent index or -1]
        self.spans: list[list] = []
        self.self_ns: dict[str, int] = {}
        self.edge_ns = {b: array("q") for b in BUCKETS}
        self.evictions = 0
        self.gc_collections = 0
        self._stack: list[tuple[str, int]] = []
        self._last = self.clock()
        self._gc_start = 0

    def enter(self, name: str) -> None:
        now = self.clock()
        self._charge(now)
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append((name.split(".", 1)[0], len(self.spans)))
        self.spans.append([name, now, 0, parent])

    def exit(self) -> None:
        now = self.clock()
        self._charge(now)
        _, idx = self._stack.pop()
        self.spans[idx][2] = now

    def _charge(self, now: int) -> None:
        if self._stack:
            layer = self._stack[-1][0]
            self.self_ns[layer] = self.self_ns.get(layer, 0) + now - self._last
        self._last = now

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        now = self.clock()
        if phase == "start":
            self._gc_start = now
            return
        pause = now - self._gc_start
        self.gc_collections += 1
        parent = self._stack[-1][1] if self._stack else -1
        self.spans.append(["python.gc", self._gc_start, now, parent])
        self.self_ns["python"] = self.self_ns.get("python", 0) + pause
        if self._stack:
            # The pause lies inside the open layer's interval, which will be
            # charged to that layer when the interval closes.
            layer = self._stack[-1][0]
            self.self_ns[layer] = self.self_ns.get(layer, 0) - pause

    def summary(self) -> dict:
        span_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for name, start, end, _ in self.spans:
            span_ns[name] = span_ns.get(name, 0) + end - start
            calls[name] = calls.get(name, 0) + 1
        edges = {}
        for bucket, ns in self.edge_ns.items():
            edges[bucket] = {
                "count": len(ns),
                "sum_ns": sum(ns),
                "p50": _quantile(ns, 50),
                "p99": _quantile(ns, 99),
            }
        return {
            "self_ns": self.self_ns,
            "span_ns": span_ns,
            "calls": calls,
            "edges": edges,
            "evictions": self.evictions,
            "gc_collections": self.gc_collections,
            "spans": self.spans,
        }


def _quantile(values, pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


#: (span name, attribute of ``stream_mwm.cli``) for the calls ``cli`` makes
#: into the other layers by module-level name.
CLI_CALLS = (
    ("streamio.read_stream", "read_stream"),
    ("generators.generate", "generate"),
    ("core.parse_epsilon", "parse_epsilon"),
    ("core.compute_params", "compute_params"),
    ("engine.run_stream", "run_stream"),
    ("reference.exact_mwm", "exact_mwm"),
    ("monitors.check_phi_growth", "check_phi_growth"),
    ("monitors.check_eviction_gap", "check_eviction_gap"),
    ("monitors.check_terminal_weights", "check_terminal_weights"),
    ("monitors.check_ratio_bound", "check_ratio_bound"),
)


def install(tracer: Tracer) -> None:
    """Wrap the package's public calls; call once per process."""
    from stream_mwm import cli, engine
    from stream_mwm.core import Matching
    from stream_mwm.engine import StreamingState
    from stream_mwm.reference import Graph
    from stream_mwm.report import RunReport

    for name, attr in CLI_CALLS:
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    engine.compute_params = tracer.wrap("core.compute_params", engine.compute_params)
    StreamingState.finalize = tracer.wrap("engine.finalize", StreamingState.finalize)
    StreamingState.compact = tracer.wrap("engine.compact", StreamingState.compact)
    Matching.of = classmethod(tracer.wrap("core.Matching.of", Matching.of.__func__))
    Graph.from_stream = classmethod(
        tracer.wrap("reference.Graph.from_stream", Graph.from_stream.__func__)
    )
    RunReport.to_json = tracer.wrap("report.to_json", RunReport.to_json)

    process_edge = StreamingState.process_edge
    clock = tracer.clock
    light, push, evict = (tracer.edge_ns[b] for b in BUCKETS)

    def bucketed(state, edge):
        live, evicted = state.live_entries, state.stats.evictions_total
        t0 = clock()
        outcome = process_edge(state, edge)
        dt = clock() - t0
        evicted = state.stats.evictions_total - evicted
        if evicted:
            tracer.evictions += evicted
            evict.append(dt)
        elif state.live_entries != live:
            push.append(dt)
        else:
            light.append(dt)
        return outcome

    StreamingState.process_edge = bucketed
    gc.callbacks.append(tracer.on_gc)


def install_tracemalloc(memory: dict) -> None:
    """Measure, under tracemalloc, the bytes a parsed stream keeps and the
    engine's peak bytes per live entry; call once per process."""
    import tracemalloc

    from stream_mwm import cli

    read_stream, run_stream = cli.read_stream, cli.run_stream

    def measured_read(path):
        before = tracemalloc.get_traced_memory()[0]
        stream = read_stream(path)
        memory["input_bytes"] += tracemalloc.get_traced_memory()[0] - before
        return stream

    def measured_run(stream, *args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        matching, report = run_stream(stream, *args, **kwargs)
        memory["engine_peak_bytes"] += tracemalloc.get_traced_memory()[1] - before
        memory["peak_live_entries"] += report.peak_live_entries or 0
        return matching, report

    memory.update(input_bytes=0, engine_peak_bytes=0, peak_live_entries=0)
    cli.read_stream, cli.run_stream = measured_read, measured_run
    tracemalloc.start()
