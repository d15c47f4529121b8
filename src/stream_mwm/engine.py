"""Single-pass bounded-memory matching engine.

One pass over the edge stream: each arriving edge is tested against the
endpoint potentials (exact integer filter), heavy edges are pushed onto a
stack with their reduced weight and both potentials grow by that amount,
and per-node FIFO queues cap how many live stack edges any node may own.
The stack is an insertion-ordered dict from each live edge to its reduced
weight; a queue is a plain list of the edges of its node in push order.
When a queue hits the cap its oldest edge leaves the stack and both
endpoint queues at once (a ``pop(0)`` and a ``remove``, each linear in the
queue length but done in C), so the stack never holds more than the live
edges. After the pass `Matching.greedy` unwinds the stack newest-first
into the matching. A trace records the pass only: one ``light`` or
``pushed`` event per edge and one ``evicted`` event per eviction.

Edges arrive as plain ``(u, v, w)`` triples and are stored as such: a
light edge, most of a typical stream, leaves nothing behind, a pushed edge
is one tuple shared by the stack and both queues, and only a matched edge
becomes a `WeightedEdge` (as do the edges of a trace and of
`StreamingState.live_edges`). `run_stream` consumes the edges once, so a
`LazyEdgeStream` from `read_stream` is parsed as the pass runs, and it
pauses the cyclic garbage collector for the pass, which makes no cycles.

Node potentials never exceed the largest edge weight seen, so they stay in
64 bits: a push sets ``phi(x)`` to ``w - phi(other) <= w <= 2^63 - 1``, as
potentials are never negative.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

from .core import (
    I64_MAX,
    EdgeStream,
    Matching,
    Params,
    StreamFormatError,
    WeightedEdge,
    compute_params,
)
from .monitors import (
    EVICTED,
    LIGHT as EV_LIGHT,
    PUSHED,
    TRACE_MAX_EDGES,
    TRACE_MAX_NODES,
    MonitorStats,
    TraceEvent,
)
from .report import RunReport, TimingStats
from .streamio import LazyEdgeStream, Triple

__all__ = ["StreamingState", "run_stream"]

#: ``collect_timing`` samples every edge up to this many; every 64th after.
_TIMING_DENSE_LIMIT = 1_000_000


class StreamingState:
    """Mutable single-writer engine state for one pass.

    ``process_edge`` calls must arrive in stream order; ``finalize``
    consumes the state. Independent states are safe to run in parallel.
    """

    def __init__(self, params: Params, trace: list[TraceEvent] | None = None) -> None:
        self.params = params
        self.phi: list[int] = [0] * params.n
        self._n = params.n
        self._cap = params.queue_cap
        self._queues: list[list[Triple] | None] = [None] * params.n
        # Live edge -> reduced weight, in push order. Keying by the edge
        # value here, and finding it by value in a queue, is safe because
        # each value is pushed at most once: a push raises the endpoints'
        # potential sum from s0 to 2w - s0 >= w, and potentials never fall,
        # so an identical (u, v, w) is light ever after.
        self._stack: dict[Triple, int] = {}
        self._finalized = False
        self._trace = trace
        self._p = params.alpha_sq.numerator
        self._q = params.alpha_sq.denominator
        self.stats = MonitorStats()

    @property
    def live_entries(self) -> int:
        return len(self._stack)

    def queue_len(self, node: int) -> int:
        q = self._queues[node]
        return 0 if q is None else len(q)

    def live_edges(self) -> list[WeightedEdge]:
        """Live stack edges, oldest first (diagnostics and tests)."""
        return list(map(WeightedEdge._make, self._stack))

    def process_edge(self, edge: tuple[int, int, int]) -> bool:
        """Classify one arriving edge, update the state, and return whether
        the edge was pushed.

        ``edge`` is any ``(u, v, w)`` triple; a pushed edge is stored as the
        plain tuple ``(u, v, w)``. Light edges (weight at or below alpha
        times the endpoint potential sum) leave the state untouched. A heavy
        edge is pushed with reduced weight ``weight - (phi(u) + phi(v))``;
        note the reduction subtracts the plain potential sum while the
        filter compares against alpha times it. Both endpoint potentials
        then grow by the same reduced weight, and each endpoint queue that
        reached the cap evicts its oldest edge.
        """
        if self._finalized:
            raise RuntimeError("state already finalized")
        u, v, w = edge
        n = self._n
        if not (0 <= u < n and 0 <= v < n):
            raise StreamFormatError(f"endpoint out of range for n={n}: ({u}, {v})")
        if u == v:
            raise StreamFormatError(f"self-loop at node {u}")
        if not (0 <= w <= I64_MAX):
            raise StreamFormatError(f"weight {w} outside [0, 2^63-1]")

        phi = self.phi
        phi_u = phi[u]
        phi_v = phi[v]
        pot_sum = phi_u + phi_v
        p = self._p
        q = self._q
        if q * w * w <= p * pot_sum * pot_sum:
            if self._trace is not None:
                self._trace.append(
                    TraceEvent(EV_LIGHT, WeightedEdge(u, v, w), None, tuple(phi))
                )
            return False

        edge = (u, v, w)
        reduced = w - pot_sum
        stack = self._stack
        stack[edge] = reduced
        stats = self.stats
        stats.heavy_edges_total += 1
        if len(stack) > stats.peak_live_entries:
            stats.peak_live_entries = len(stack)

        phi[u] = new_u = phi_u + reduced
        phi[v] = new_v = phi_v + reduced
        # Growth monitor: each push must scale phi(x) by at least alpha.
        if q * new_u * new_u < p * phi_u * phi_u:
            stats.phi_growth_violations += 1
        if q * new_v * new_v < p * phi_v * phi_v:
            stats.phi_growth_violations += 1
        queues = self._queues
        queue_u = queues[u]
        if queue_u is None:
            queue_u = queues[u] = []
        queue_u.append(edge)
        queue_v = queues[v]
        if queue_v is None:
            queue_v = queues[v] = []
        queue_v.append(edge)
        len_u = len(queue_u)
        len_v = len(queue_v)
        longest = len_u if len_u > len_v else len_v
        if longest > stats.max_queue_len:
            stats.max_queue_len = longest

        if self._trace is not None:
            self._trace.append(
                TraceEvent(PUSHED, WeightedEdge(u, v, w), reduced, tuple(phi))
            )

        cap = self._cap
        if longest >= cap:
            # Queue-cap monitor: a queue may reach the cap, never pass it.
            stats.queue_cap_violations += (len_u > cap) + (len_v > cap)
            # Evicting at u may shorten v's queue (a parallel edge), so each
            # length is read again just before its test.
            for x, queue in ((u, queue_u), (v, queue_v)):
                if len(queue) >= cap:
                    victim = queue.pop(0)
                    victim_reduced = stack.pop(victim)
                    stats.evictions_total += 1
                    # The victim is live, so it also sits in its other
                    # endpoint's queue.
                    vu, vv, vw = victim
                    queues[vv if vu == x else vu].remove(victim)
                    if self._trace is not None:
                        self._trace.append(TraceEvent(
                            EVICTED, WeightedEdge(vu, vv, vw), victim_reduced, None
                        ))
        return True

    def compact(self) -> None:
        """Rebuild the stack dict to release the slots of evicted edges.

        Evicted edges leave the stack at once, so this changes no output
        and the engine never needs to call it.
        """
        self._stack = dict(self._stack)

    def finalize(self) -> tuple[Matching, MonitorStats]:
        """Unwind the live stack newest-first into a greedy matching.

        Single-shot: the state is consumed. The matching carries original
        input weights.
        """
        if self._finalized:
            raise RuntimeError("state already finalized")
        self._finalized = True
        return Matching.greedy(self._n, reversed(self._stack)), self.stats


def run_stream(
    stream: EdgeStream | LazyEdgeStream,
    epsilon: Fraction | int | str,
    *,
    trace_sink: list[TraceEvent] | None = None,
    collect_timing: bool = False,
) -> tuple[Matching, RunReport]:
    """Run the full pass over ``stream`` and build the run report.

    ``stream.edges`` is consumed once, in order, so a `LazyEdgeStream`
    from `read_stream` is parsed as it runs and ``m`` is counted on the way.
    ``trace_sink`` receives the event trace and is limited to small
    streams (n <= 64 and at most 100_000 edges); a traced `LazyEdgeStream`
    is read into memory first to count its edges. Recording snapshots at
    benchmark scale would defeat the space bound. With
    ``collect_timing`` each edge is timed with a monotonic clock (every
    64th edge beyond the first million, to keep the observer cheap).
    """
    params = compute_params(stream.n, epsilon)
    if trace_sink is not None:
        if isinstance(stream, LazyEdgeStream) and stream.n <= TRACE_MAX_NODES:
            # The trace holds O(m) events anyway; the edge count needs a list.
            stream = stream.materialize()
        if stream.n > TRACE_MAX_NODES or len(stream.edges) > TRACE_MAX_EDGES:
            raise ValueError(
                f"tracing is limited to n <= {TRACE_MAX_NODES} and m <= {TRACE_MAX_EDGES}"
            )
    state = StreamingState(params, trace=trace_sink)
    process = state.process_edge

    # A malformed edge is named by its line in the canonical file format,
    # where line 1 is the header. Errors raised by the iteration itself
    # (the parser's) already name their line and pass through as they are.
    m = 0
    samples: list[int] | None = None
    # A pass makes no reference cycles (the state is ints, int tuples, lists
    # of tuples and one dict), so the cyclic collector could only rescan the
    # live stack edges again and again. It is paused for the pass and left
    # as it was found.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if collect_timing:
            samples = []
            clock = time.perf_counter_ns
            for edge in stream.edges:
                try:
                    if m < _TIMING_DENSE_LIMIT or not m % 64:
                        t0 = clock()
                        process(edge)
                        samples.append(clock() - t0)
                    else:
                        process(edge)
                except StreamFormatError as exc:
                    raise StreamFormatError(f"line {m + 2}: {exc}") from None
                m += 1
        else:
            for edge in stream.edges:
                try:
                    process(edge)
                except StreamFormatError as exc:
                    raise StreamFormatError(f"line {m + 2}: {exc}") from None
                m += 1
        matching, stats = state.finalize()
        # Freed while the collector is paused, the state is not rescanned
        # when it resumes.
        del state, process
    finally:
        if gc_was_enabled:
            gc.enable()

    report = RunReport(
        algorithm="semi",
        n=stream.n,
        m=m,
        epsilon=str(params.epsilon),
        output_weight=matching.total_weight,
        ratio_bound=str(params.ratio_bound),
        peak_live_entries=stats.peak_live_entries,
        queue_cap=params.queue_cap,
        heavy_edges_k=stats.heavy_edges_total,
        max_queue_len=stats.max_queue_len,
        evictions_total=stats.evictions_total,
        per_edge_ns=TimingStats.from_samples(samples) if samples else None,
    )
    return matching, report
