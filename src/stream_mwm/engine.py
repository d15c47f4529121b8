"""Single-pass bounded-memory matching engine.

One pass over the edge stream: each arriving edge is tested against the
endpoint potentials (exact integer filter), heavy edges are pushed onto a
stack with their reduced weight and both potentials grow by that amount,
and per-node FIFO queues cap how many live stack edges any node may own.
The stack is an insertion-ordered dict from each live edge to its reduced
weight; a queue holds the edges of its node in push order. When a queue
hits the cap its oldest edge leaves the stack and both endpoint queues at
once, in O(1), so the stack never holds more than the live edges. After
the pass the stack is unwound newest-first, greedily, into the matching.

Edges arrive as plain ``(u, v, w)`` triples, and only a pushed edge
becomes a `WeightedEdge`: a light edge, most of a typical stream, leaves
nothing behind. `run_stream` consumes the edges once, so a `LazyEdgeStream`
from `read_stream` is parsed as the pass runs.

Node potentials never exceed the largest edge weight seen (a push sets
``phi(v)`` to ``weight - phi(other)``), so the 64-bit overflow guard on
potential updates is purely defensive.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from fractions import Fraction

from .core import (
    I64_MAX,
    EdgeStream,
    Matching,
    Params,
    PotentialOverflowError,
    StreamFormatError,
    WeightedEdge,
    compute_params,
)
from .monitors import (
    EVICTED,
    LIGHT as EV_LIGHT,
    MATCHED,
    PUSHED,
    TRACE_MAX_EDGES,
    TRACE_MAX_NODES,
    MonitorStats,
    TraceEvent,
)
from .report import RunReport, TimingStats
from .streamio import LazyEdgeStream

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
        self._queues: list[OrderedDict[WeightedEdge, None] | None] = [None] * params.n
        # Live edge -> reduced weight, in push order. Keying by the edge
        # value is safe because each value is pushed at most once: a push
        # raises the endpoints' potential sum from s0 to 2w - s0 >= w, and
        # potentials never fall, so an identical (u, v, w) is light ever after.
        self._stack: dict[WeightedEdge, int] = {}
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
        return list(self._stack)

    def process_edge(self, edge: tuple[int, int, int]) -> bool:
        """Classify one arriving edge, update the state, and return whether
        the edge was pushed.

        ``edge`` is any ``(u, v, w)`` triple; a pushed edge is stored as a
        `WeightedEdge`. Light edges (weight at or below alpha times the
        endpoint potential sum) leave the state untouched. A heavy edge is
        pushed with reduced weight ``weight - (phi(u) + phi(v))``; note the
        reduction subtracts the plain potential sum while the filter
        compares against alpha times it. Both endpoint potentials then grow
        by the same reduced weight, and each endpoint queue that reached the
        cap evicts its oldest edge.
        """
        if self._finalized:
            raise RuntimeError("state already finalized")
        u, v, w = edge
        n = self.params.n
        if not (0 <= u < n and 0 <= v < n):
            raise StreamFormatError(f"endpoint out of range for n={n}: ({u}, {v})")
        if u == v:
            raise StreamFormatError(f"self-loop at node {u}")
        if not (0 <= w <= I64_MAX):
            raise StreamFormatError(f"weight {w} outside [0, 2^63-1]")

        phi = self.phi
        pot_sum = phi[u] + phi[v]
        p = self._p
        q = self._q
        if q * w * w <= p * pot_sum * pot_sum:
            if self._trace is not None:
                self._trace.append(
                    TraceEvent(EV_LIGHT, WeightedEdge(u, v, w), None, tuple(phi))
                )
            return False

        if edge.__class__ is not WeightedEdge:
            edge = WeightedEdge._make(edge)
        reduced = w - pot_sum
        stack = self._stack
        stack[edge] = reduced
        stats = self.stats
        stats.heavy_edges_total += 1
        if len(stack) > stats.peak_live_entries:
            stats.peak_live_entries = len(stack)

        cap = self.params.queue_cap
        for x in (u, v):
            old_phi = phi[x]
            new_phi = old_phi + reduced
            if new_phi > I64_MAX:
                raise PotentialOverflowError(
                    f"potential at node {x} would reach {new_phi} > 2^63-1"
                )
            phi[x] = new_phi
            # Growth monitor: each push must scale phi(x) by at least alpha.
            if q * new_phi * new_phi < p * old_phi * old_phi:
                stats.phi_growth_violations += 1
            queue = self._queues[x]
            if queue is None:
                queue = self._queues[x] = OrderedDict()
            queue[edge] = None
            qlen = len(queue)
            if qlen > stats.max_queue_len:
                stats.max_queue_len = qlen
            if qlen > cap:
                stats.queue_cap_violations += 1

        if self._trace is not None:
            self._trace.append(TraceEvent(PUSHED, edge, reduced, tuple(phi)))

        for x in (u, v):
            queue = self._queues[x]
            if len(queue) >= cap:
                victim, _ = queue.popitem(last=False)
                victim_reduced = stack.pop(victim)
                stats.evictions_total += 1
                # The victim is live, so it also sits in its other
                # endpoint's queue.
                other = victim.v if victim.u == x else victim.u
                del self._queues[other][victim]
                if self._trace is not None:
                    self._trace.append(TraceEvent(EVICTED, victim, victim_reduced, None))
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
        matched = bytearray(self.params.n)
        chosen: list[WeightedEdge] = []
        for e, reduced in reversed(self._stack.items()):
            if not matched[e.u] and not matched[e.v]:
                matched[e.u] = matched[e.v] = 1
                chosen.append(e)
                if self._trace is not None:
                    self._trace.append(TraceEvent(MATCHED, e, reduced, None))
        return Matching.of(chosen), self.stats


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
