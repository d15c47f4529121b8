"""Single-pass bounded-memory matching engine.

One pass over the edge stream: each arriving edge is tested against the
endpoint potentials (exact integer filter), heavy edges are pushed onto a
stack with their reduced weight and both potentials grow by that amount,
and per-node FIFO queues cap how many live stack entries any node may
own. A queue holds the stack entries themselves, in insertion order; when
it hits the cap its oldest entry is tombstoned and dropped from both
endpoint queues in O(1). The stack sheds tombstones by a list filter once
they outnumber the live entries, so the newest-to-oldest unwind order
survives at amortized O(1) cost per edge. After the pass the stack is
unwound greedily into the matching.

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

__all__ = ["StackEntry", "StreamingState", "run_stream"]

#: Sample every edge up to this stream length; every 64th beyond it.
_TIMING_DENSE_LIMIT = 1_000_000


class StackEntry:
    """One stack slot: the edge, its reduced weight at push time, and a
    tombstone flag. The original weight stays around for the final
    matching; the reduced weight is internal. Entries hash by identity
    (there is no ``__eq__``), so they key the per-node queues directly."""

    __slots__ = ("edge", "reduced_weight", "alive")

    def __init__(self, edge: WeightedEdge, reduced_weight: int) -> None:
        self.edge = edge
        self.reduced_weight = reduced_weight
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "dead"
        return f"StackEntry({self.edge}, w'={self.reduced_weight}, {state})"


class StreamingState:
    """Mutable single-writer engine state for one pass.

    ``process_edge`` calls must arrive in stream order; ``finalize``
    consumes the state. Independent states are safe to run in parallel.
    """

    def __init__(self, params: Params, trace: list[TraceEvent] | None = None) -> None:
        self.params = params
        self.phi: list[int] = [0] * params.n
        self._queues: list[OrderedDict[StackEntry, None] | None] = [None] * params.n
        self._arena: list[StackEntry] = []
        self._live = 0
        self._dead = 0
        self._finalized = False
        self._trace = trace
        self._p = params.alpha_sq.numerator
        self._q = params.alpha_sq.denominator
        self.stats = MonitorStats()

    @property
    def live_entries(self) -> int:
        return self._live

    def queue_len(self, node: int) -> int:
        q = self._queues[node]
        return 0 if q is None else len(q)

    def live_edges(self) -> list[WeightedEdge]:
        """Live stack edges, oldest first (diagnostics and tests)."""
        return [entry.edge for entry in self._arena if entry.alive]

    def process_edge(self, edge: WeightedEdge) -> bool:
        """Classify one arriving edge, update the state, and return whether
        the edge was pushed.

        Light edges (weight at or below alpha times the endpoint potential
        sum) leave the state untouched. A heavy edge is pushed with
        reduced weight ``weight - (phi(u) + phi(v))``; note the reduction
        subtracts the plain potential sum while the filter compares
        against alpha times it. Both endpoint potentials then grow by the
        same reduced weight, and each endpoint queue that reached the cap
        evicts its oldest entry.
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
                self._trace.append(TraceEvent(EV_LIGHT, edge, None, tuple(phi)))
            return False

        reduced = w - pot_sum
        entry = StackEntry(edge, reduced)
        self._arena.append(entry)
        self._live += 1
        stats = self.stats
        stats.heavy_edges_total += 1
        if self._live > stats.peak_live_entries:
            stats.peak_live_entries = self._live

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
            queue[entry] = None
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
                oldest, _ = queue.popitem(last=False)
                self._kill(oldest)

        if self._dead > self._live:
            self.compact()
        return True

    def _kill(self, entry: StackEntry) -> None:
        """Tombstone a stack entry and drop it from both endpoint queues."""
        entry.alive = False
        self._live -= 1
        self._dead += 1
        self.stats.evictions_total += 1
        # A live entry sits in both endpoint queues; the caller may already
        # have popped it from one of them.
        self._queues[entry.edge.u].pop(entry, None)
        self._queues[entry.edge.v].pop(entry, None)
        if self._trace is not None:
            self._trace.append(
                TraceEvent(EVICTED, entry.edge, entry.reduced_weight, None)
            )

    def compact(self) -> None:
        """Drop tombstoned slots from the stack, preserving live order.

        Runs automatically whenever dead entries outnumber live ones,
        which keeps per-edge work amortized O(1) and the arena within a
        constant factor of the live size. Queues hold only live entries,
        so they need no update.
        """
        self._arena = [e for e in self._arena if e.alive]
        self._dead = 0

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
        for entry in reversed(self._arena):
            if not entry.alive:
                continue
            e = entry.edge
            if not matched[e.u] and not matched[e.v]:
                matched[e.u] = matched[e.v] = 1
                chosen.append(e)
                if self._trace is not None:
                    self._trace.append(TraceEvent(MATCHED, e, entry.reduced_weight, None))
        return Matching.of(chosen), self.stats


def run_stream(
    stream: EdgeStream,
    epsilon: Fraction | int | str,
    *,
    trace_sink: list[TraceEvent] | None = None,
    collect_timing: bool = False,
) -> tuple[Matching, RunReport]:
    """Run the full pass over ``stream`` and build the run report.

    ``trace_sink`` receives the event trace and is limited to small
    instances (n <= 64 and at most 100_000 edges); recording snapshots at
    benchmark scale would defeat the space bound. With ``collect_timing``
    each edge is timed with a monotonic clock (every 64th edge beyond one
    million edges, to keep the observer cheap).
    """
    params = compute_params(stream.n, epsilon)
    m = len(stream.edges)
    if trace_sink is not None and (stream.n > TRACE_MAX_NODES or m > TRACE_MAX_EDGES):
        raise ValueError(
            f"tracing is limited to n <= {TRACE_MAX_NODES} and m <= {TRACE_MAX_EDGES}"
        )
    state = StreamingState(params, trace=trace_sink)
    process = state.process_edge

    samples: list[int] | None = None
    try:
        if collect_timing:
            samples = []
            stride = 1 if m <= _TIMING_DENSE_LIMIT else 64
            clock = time.perf_counter_ns
            for idx, edge in enumerate(stream.edges):
                if idx % stride == 0:
                    t0 = clock()
                    process(edge)
                    samples.append(clock() - t0)
                else:
                    process(edge)
        else:
            for idx, edge in enumerate(stream.edges):
                process(edge)
    except StreamFormatError as exc:
        # Line 1 of the canonical file format is the header.
        raise StreamFormatError(f"line {idx + 2}: {exc}") from None

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
