"""Single-pass bounded-memory matching engine.

One pass over the edge stream: each arriving edge is tested against the
endpoint potentials (exact integer filter), heavy edges are pushed with
their reduced weight and both potentials grow by that amount, and per-node
FIFO queues cap how many live pushed edges any node may own. After the
pass `Matching.greedy` unwinds the live pushed edges newest-first into the
matching.

The push arena. Pushed edges live in an append-only arena of four unsigned
64-bit ``array`` columns: row r holds the r-th pushed edge's u, v, w and
reduced weight, and no Python object. An evicted row stays where it is and
gets reduced weight 0, a safe mark because every push reduces by at least
1 (heavy means w > alpha * (phi(u) + phi(v)) >= phi(u) + phi(v)). A node's
queue slot is ``None``, the bare row number of its one live edge, or, once
a second edge arrives, an ``array`` of its row numbers in push order; a
node that never owns two live edges at once, such as a star's leaf, never
gets an array. When a queue hits the cap (only an array can: the cap is at
least 4) its oldest row is zeroed and leaves both endpoint queues (a
``pop(0)`` and, unless the row sits alone in its other endpoint's slot,
which is then emptied, a ``remove``; each linear in the queue length). A
push visits only the endpoints whose queue reached the cap, u first, then
v, whose queue is measured again: evicting at u shortens it when the
victim is a parallel edge. The live count falls only at an eviction, so
the peak live count is taken just before each eviction and once at the end
of each chunk. The unwind reads the rows with a nonzero reduced weight,
newest first. It reads only the arena, so `finalize` releases the queues
before it: the matching is built in the memory they held, and the pass's
own state, not the unwind, sets the high-water mark of a run.

The push budget bounds the arena without compaction. A push at x sets
``phi(x)`` to ``w - phi(other) > alpha * phi(x)``, so every push multiplies
the node's potential by more than alpha; the first leaves it at least 1,
and it never exceeds ``2^63 - 1`` (below). So a node is pushed at most
``B = 1 + floor(63 * ln 2 / ln alpha)`` times (392 at epsilon = 1/2), and
the arena never holds more than ``min(m, n * B / 2)`` rows. ``B`` is at
most ``8 * queue_cap`` for every n from 2 to 10^6 and epsilon from 1/1000
to 59/10 (the worst case is 64 against 8, at n = 2 and epsilon = 59/10),
so the arena is at most ``4 * n * queue_cap`` rows of 32 bytes.

The pass is one loop, `StreamingState.process_edges`, over a chunk of
``(u, v, w)`` edges: it holds the light filter, the push, the queue upkeep
and the eviction, with the state bound to locals for the chunk, and takes
the per-edge time samples and trace events itself. It checks nothing:
every edge it gets is three exact ints, endpoints distinct and below n,
weight in ``[0, 2^63-1]``, and `streamio` is the one module that checks
them. `run_stream` reads one `chunks()` of `open_edges`, the one way to
checked edges: a file is parsed, and an in-memory `EdgeStream` checked
edge by edge, as the pass runs, and either names a bad edge by its line in
the file format. `process_edge` is `check_edge` followed by the loop on a
chunk of one.

The loop counts, at O(1) a push, each potential that grows by less than
alpha, each queue past its cap and each eviction short of its weight gap.
`run_stream` with ``monitors`` reads the counts and then the stream once
more, to run the filter and the pushes again against ``rows()`` and
``phi``. It records no trace: the ``trace`` of `StreamingState` is a hook
for tests.

A light edge, most of a typical stream, leaves nothing behind, and only a
matched edge becomes a `WeightedEdge` (as do the edges of a trace and of
`StreamingState.live_edges`). `run_stream` pauses the cyclic garbage
collector for the pass, which makes no cycles.

Node potentials never exceed the largest edge weight seen, so they stay in
64 bits: a push sets ``phi(x)`` to ``w - phi(other) <= w <= 2^63 - 1``, as
potentials are never negative. ``phi`` is therefore an ``array('q')``: 8
bytes a node and no int object per potential.
"""

from __future__ import annotations

import time
from array import array
from fractions import Fraction
from itertools import compress
from math import isclose
from typing import Iterable, Iterator

from .core import (
    EdgeStream,
    Matching,
    Params,
    WeightedEdge,
    compute_params,
    gc_paused,
)
from .monitors import (
    EVICTED,
    GAP_REL_TOL,
    LIGHT as EV_LIGHT,
    PUSHED,
    MonitorStats,
    TraceEvent,
    check_eviction_gap,
    check_phi_growth,
    check_ratio_bound,
    check_terminal_weights,
)
from .report import RunReport, TimingStats
from .streamio import LazyEdgeStream, check_edge, open_edges

__all__ = ["StreamingState", "run_stream"]

#: ``collect_timing`` samples every edge up to this many; every 64th after.
_TIMING_DENSE_LIMIT = 1_000_000

#: Arena and queue items are never negative, and an unsigned array stores
#: an int faster than ``'q'`` does; ``'L'`` is the fastest where it is 64 bits.
_ROW_TYPECODE = "L" if array("L").itemsize == 8 else "Q"


class StreamingState:
    """Mutable single-writer engine state for one pass.

    ``process_edge`` and ``process_edges`` calls must arrive in stream
    order; ``finalize`` consumes the state. Independent states are safe to
    run in parallel. ``trace`` receives one event per edge and eviction;
    ``samples`` receives the nanoseconds each edge took, for every edge up
    to the millionth and every 64th after.
    """

    def __init__(
        self,
        params: Params,
        trace: list[TraceEvent] | None = None,
        samples: list[int] | None = None,
    ) -> None:
        self.params = params
        # Signed 64-bit slots hold every potential (see the module notes);
        # repeating a one-item array fails with MemoryError for a huge n.
        self.phi = array("q", [0]) * params.n
        self._n = params.n
        self._cap = params.queue_cap
        # A slot holds nothing, the bare row number of the node's one live
        # edge, or, from the second edge on, an array of its row numbers in
        # push order.
        self._queues: list[int | array | None] | None = [None] * params.n
        # The push arena: row r is the r-th pushed edge, in four columns.
        # An evicted row keeps its place and gets reduced weight 0.
        self._us = array(_ROW_TYPECODE)
        self._vs = array(_ROW_TYPECODE)
        self._ws = array(_ROW_TYPECODE)
        self._reduced = array(_ROW_TYPECODE)
        self._finalized = False
        self._trace = trace
        self._samples = samples
        # The stream index of the next edge, counted only when timing.
        self._timed_edges = 0
        self._p = params.alpha_sq.numerator
        self._q = params.alpha_sq.denominator
        self._gap = 2.0 * params.alpha * params.gamma
        self.stats = MonitorStats()

    @property
    def live_entries(self) -> int:
        return self.stats.heavy_edges_total - self.stats.evictions_total

    def queue_len(self, node: int) -> int:
        return len(self._queue(node))

    def _queue(self, node: int) -> list[tuple[int, int, int]]:
        """The node's queued edges as ``(u, v, w)``, oldest first."""
        if self._finalized:
            raise RuntimeError("state already finalized")
        q = self._queues[node]
        rows = () if q is None else (q,) if type(q) is int else q
        return [(self._us[r], self._vs[r], self._ws[r]) for r in rows]

    def rows(self) -> Iterator[tuple[int, int, int, int]]:
        """The arena rows ``(u, v, w, reduced weight)`` in push order; an
        evicted row has reduced weight 0."""
        return zip(self._us, self._vs, self._ws, self._reduced)

    def live_edges(self) -> list[WeightedEdge]:
        """Live arena edges, oldest first (diagnostics and tests)."""
        return [WeightedEdge(u, v, w) for u, v, w, reduced in self.rows() if reduced]

    def process_edge(self, edge: tuple[int, int, int]) -> bool:
        """Check one arriving edge, run the pass over it, and return whether
        it was pushed.

        ``edge`` is any ``(u, v, w)`` triple that `check_edge` accepts; any
        other raises `StreamFormatError` and leaves the state untouched.
        The checked edge goes through `process_edges` as a chunk of one.
        """
        return self.process_edges((check_edge(edge, self._n),)) == 1

    def process_edges(self, edges: Iterable[tuple[int, int, int]]) -> int:
        """Run the pass over a chunk of checked ``(u, v, w)`` edges, in
        stream order, and return how many of them were pushed.

        Every edge must be as `check_edge` returns it, three exact ints:
        nothing here checks it again. An edge is light when
        its weight is at or below alpha times the endpoint potential sum,
        and leaves the state untouched. A heavy edge becomes the next arena
        row with reduced weight ``weight - (phi(u) + phi(v))``; note the
        reduction subtracts the plain potential sum while the filter
        compares against alpha times it. Both endpoint potentials then grow
        by the same reduced weight, and each endpoint queue that reached
        the cap evicts its oldest edge.
        """
        if self._finalized:
            raise RuntimeError("state already finalized")
        phi = self.phi
        queues = self._queues
        arena_u, arena_v, arena_w, arena_r = self._us, self._vs, self._ws, self._reduced
        push_u, push_v = arena_u.append, arena_v.append
        push_w, push_r = arena_w.append, arena_r.append
        p, q, cap, gap, tol = self._p, self._q, self._cap, self._gap, GAP_REL_TOL
        trace = self._trace
        if trace is not None:
            record = trace.append
        samples = self._samples
        timed = samples is not None
        if timed:
            clock = time.perf_counter_ns
            dense = _TIMING_DENSE_LIMIT
            index = self._timed_edges
            start = 0
        # The counters live in locals for the chunk and go back to the
        # stats object however the loop ends.
        stats = self.stats
        heavy = first_heavy = stats.heavy_edges_total
        evicted = stats.evictions_total
        peak = stats.peak_live_entries
        longest_queue = stats.max_queue_len
        growth_violations = stats.phi_growth_violations
        cap_violations = stats.queue_cap_violations
        gap_violations = stats.eviction_gap_violations
        try:
            for u, v, w in edges:
                if timed:
                    # A sample runs from the start of its edge to the start
                    # of the next one, or to the end of the chunk.
                    now = clock()
                    if start:
                        samples.append(now - start)
                    start = now if index < dense or not index % 64 else 0
                    index += 1
                phi_u = phi[u]
                phi_v = phi[v]
                pot_sum = phi_u + phi_v
                # 0 < epsilon < 6 gives 1 < alpha < 2: a weight up to the
                # potential sum is light and one above twice the sum is
                # heavy, so only the band between needs the exact squares.
                if w <= pot_sum or (
                    w <= 2 * pot_sum and q * w * w <= p * pot_sum * pot_sum
                ):
                    if trace is not None:
                        edge = WeightedEdge(u, v, w)
                        record(TraceEvent(EV_LIGHT, edge, None, phi_u, phi_v))
                    continue

                push_w(w)
                # Heavy means w > alpha * pot_sum >= pot_sum, so the reduced
                # weight is at least 1 and 0 can mark an evicted row.
                reduced = w - pot_sum
                row = heavy
                heavy += 1
                push_u(u)
                push_v(v)
                push_r(reduced)

                phi[u] = new_u = phi_u + reduced
                phi[v] = new_v = phi_v + reduced
                # Growth monitor: each push must scale phi(x) by at least
                # alpha. A potential that at least doubles (from 0, say, or
                # by a reduced weight of at least phi(x)) passes, as alpha < 2.
                if reduced < phi_u and q * new_u * new_u < p * phi_u * phi_u:
                    growth_violations += 1
                if reduced < phi_v and q * new_v * new_v < p * phi_v * phi_v:
                    growth_violations += 1
                queue_u = queues[u]
                if queue_u is None:
                    queues[u] = row
                    len_u = 1
                elif type(queue_u) is int:
                    queues[u] = array(_ROW_TYPECODE, (queue_u, row))
                    len_u = 2
                else:
                    queue_u.append(row)
                    len_u = len(queue_u)
                queue_v = queues[v]
                if queue_v is None:
                    queues[v] = row
                    len_v = 1
                elif type(queue_v) is int:
                    queues[v] = array(_ROW_TYPECODE, (queue_v, row))
                    len_v = 2
                else:
                    queue_v.append(row)
                    len_v = len(queue_v)
                longest = len_u if len_u > len_v else len_v
                if longest > longest_queue:
                    longest_queue = longest

                if trace is not None:
                    # Read back from the array: the event shows what was stored.
                    edge = WeightedEdge(u, v, w)
                    record(TraceEvent(PUSHED, edge, reduced, phi[u], phi[v]))

                if longest >= cap:
                    # Queue-cap monitor: a queue may reach the cap, never
                    # pass it.
                    cap_violations += (len_u > cap) + (len_v > cap)
                    # The live count falls only at an eviction, so its peak
                    # is taken just before one, or at the chunk's end.
                    if heavy - evicted > peak:
                        peak = heavy - evicted
                    # Only a full queue evicts, u's first. Evicting at u
                    # may shorten v's queue (a parallel edge), so a full
                    # one is measured again; only an array reaches the
                    # cap, which is at least 4. An evicted edge is live, so
                    # it also sits in its other endpoint's slot: alone
                    # there, or in an array.
                    for x, queue_x, len_x in (
                        (u, queue_u, len_u), (v, queue_v, len_v)
                    ):
                        if len_x < cap or len(queue_x) < cap:
                            continue
                        victim = queue_x.pop(0)
                        victim_reduced = arena_r[victim]
                        arena_r[victim] = 0
                        evicted += 1
                        # Gap monitor: the push must outweigh its victim
                        # by 2 * alpha * gamma, a real factor.
                        need = gap * victim_reduced
                        if reduced < need and not isclose(reduced, need, rel_tol=tol):
                            gap_violations += 1
                        vu = arena_u[victim]
                        vv = arena_v[victim]
                        y = vv if vu == x else vu
                        other = queues[y]
                        if type(other) is array:
                            other.remove(victim)
                        else:
                            queues[y] = None
                        if trace is not None:
                            edge = WeightedEdge(vu, vv, arena_w[victim])
                            record(TraceEvent(EVICTED, edge, victim_reduced))
        finally:
            if timed:
                if start:
                    samples.append(clock() - start)
                self._timed_edges = index
            stats.heavy_edges_total = heavy
            stats.evictions_total = evicted
            stats.peak_live_entries = max(peak, heavy - evicted)
            stats.max_queue_len = longest_queue
            stats.phi_growth_violations = growth_violations
            stats.queue_cap_violations = cap_violations
            stats.eviction_gap_violations = gap_violations
        return heavy - first_heavy

    def compact(self) -> None:
        """Do nothing: the arena is append-only and the push budget bounds
        its rows (see the module notes), so there is nothing to release."""

    def finalize(self) -> tuple[Matching, MonitorStats]:
        """Release the queues, then unwind the live arena rows newest-first
        into a greedy matching.

        Single-shot: the state is consumed, and the queues can no longer be
        read. ``phi``, ``stats`` and the arena (``live_edges``) stay. The
        matching carries original input weights.
        """
        if self._finalized:
            raise RuntimeError("state already finalized")
        self._finalized = True
        # The unwind reads only the arena (see the module notes).
        self._queues = None
        rows = zip(reversed(self._us), reversed(self._vs), reversed(self._ws))
        live = compress(rows, reversed(self._reduced))
        return Matching.greedy(self._n, live), self.stats


def run_stream(
    stream: EdgeStream | LazyEdgeStream,
    epsilon: Fraction | int | str,
    *,
    monitors: bool = False,
    collect_timing: bool = False,
) -> tuple[Matching, RunReport]:
    """Run the full pass over ``stream`` and build the run report.

    ``stream`` is read once, in order, through `open_edges`: a file is
    parsed, and an in-memory `EdgeStream` checked, as the pass runs. With
    ``monitors`` the report gets all four ``monitor_verdicts``, from the
    pass's counters and one more read of ``stream``, at any m and in O(n)
    more memory (see `monitors`); a one-shot stream is refused with
    ``ValueError`` before its first edge is read.
    With ``collect_timing`` each edge is timed with a monotonic clock inside
    the pass (every 64th edge beyond the first million, to keep the
    observer cheap).
    """
    params = compute_params(stream.n, epsilon)
    stream = open_edges(stream)
    if monitors and stream.one_shot:
        raise ValueError("a one-shot stream can be read only once")
    samples: list[int] | None = [] if collect_timing else None
    state = StreamingState(params, samples=samples)

    # A pass makes no reference cycles (the state is int arrays, ints and
    # one list of queue slots), so the cyclic collector could free nothing
    # and would only rescan the pass's short-lived containers.
    with gc_paused():
        # The chunks are checked, and raise unless they hold exactly m edges.
        for chunk in stream.chunks():
            state.process_edges(chunk)
            del chunk  # the next chunk is parsed without this one
        matching, stats = state.finalize()
        verdicts = _monitor_verdicts(stream, state) if monitors else {}
        # Freed while the collector is paused, the state is not rescanned
        # when it resumes.
        del state

    report = RunReport(
        algorithm="semi",
        n=stream.n,
        m=stream.m,
        epsilon=str(params.epsilon),
        output_weight=matching.total_weight,
        ratio_bound=str(params.ratio_bound),
        peak_live_entries=stats.peak_live_entries,
        queue_cap=params.queue_cap,
        heavy_edges_k=stats.heavy_edges_total,
        max_queue_len=stats.max_queue_len,
        evictions_total=stats.evictions_total,
        per_edge_ns=TimingStats.from_samples(samples) if samples else None,
        monitor_verdicts=verdicts,
    )
    return matching, report


def _monitor_verdicts(stream: LazyEdgeStream, state: StreamingState) -> dict[str, str]:
    """The four verdicts on a finalized pass over ``stream``."""
    params, stats = state.params, state.stats
    rows, phi = state.rows(), state.phi
    verdicts = {
        "phi_growth": check_phi_growth(stats),
        "eviction_gap": check_eviction_gap(stats),
        "terminal_weights": check_terminal_weights(stream, stream.m, rows, phi, params),
        "ratio_bound": check_ratio_bound(params, stats.heavy_edges_total),
    }
    return {name: "pass" if v.ok else "fail" for name, v in verdicts.items()}
