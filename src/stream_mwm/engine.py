"""Single-pass bounded-memory matching engine.

One pass over the edge stream: each arriving edge is tested against the
endpoint potentials (exact integer filter), heavy edges are pushed with
their reduced weight and both potentials grow by that amount, and per-node
FIFO queues cap how many live pushed edges any node may own. After the
pass `Matching.greedy` unwinds the live pushed edges newest-first into the
matching.

The push arena. Pushed edges live in an append-only arena of four unsigned
``array`` columns: row r holds the r-th pushed edge's u, v, w and reduced
weight, and no Python object. An evicted row stays where it is and gets
reduced weight 0, a safe mark because every push reduces by at least 1
(heavy means w > alpha * (phi(u) + phi(v)) >= phi(u) + phi(v)). A node's
FIFO queue is a circular singly linked list of its rows, threaded through
the arena by two more row columns: ``_next_u[r]`` is row r's successor in
its u's circle, and ``_next_v[r]`` in its v's. Per node, ``_tail`` holds
the newest row, whose link names the oldest, or the all-ones empty mark,
and ``_count`` the number of live rows in the circle; no node has a
container of its own. A push links its row after each endpoint's newest
row. When a queue reaches the cap, its node x walks from its oldest row
past any dead ones to the oldest live row, zeroes that row, and unlinks
every row it passed, the victim included. The victim's other endpoint y
only has its count lowered: the row stays in y's circle, dead, until y's
own walk passes it. A row is passed at most once from each endpoint, so an
eviction costs O(1) amortized. A push visits only the endpoints whose queue
reached the cap, u first, then v, whose count is read again: evicting at u
lowers it when the victim is a parallel edge. The live count falls only at
an eviction, so the peak live count is taken just before each eviction and
once at the end of each chunk. The unwind reads the rows with a nonzero
reduced weight, newest first. It reads only the arena, so `finalize`
releases the links, tails and counts before it, and builds the matching in
the memory they held: a ``bytearray(n)`` of marks and three int columns of
at most n/2 rows (`Matching.greedy`), with no `WeightedEdge` and no
endpoint sort. Under ``tracemalloc``, on ER at average degree 16 in
generated or shuffled order, `finalize` adds nothing to the peak: it stays
the state at the end of the pass, at n = 2*10^4 and 2*10^5. A test bounds
it at 1.2 times that state, and CI at 1.05 times on shuffled ER at 2*10^5.

The push budget bounds the arena without compaction. A push at x sets
``phi(x)`` to ``w - phi(other) > alpha * phi(x)``, so every push multiplies
the node's potential by more than alpha; the first leaves it at least 1,
and it never exceeds ``2^63 - 1`` (below). So a node is pushed at most
``B = 1 + floor(63 * ln 2 / ln alpha)`` times (392 at epsilon = 1/2), and
the arena never holds more than ``min(m, n * B / 2)`` rows. ``B`` is at
most ``8 * queue_cap`` for every n from 2 to 10^6 and epsilon from 1/1000
to 59/10 (the worst case is 64 against 8, at n = 2 and epsilon = 59/10),
so the arena is at most ``4 * n * queue_cap`` rows.

Each column is as narrow as these bounds allow, with one code path: the
widths follow from n and epsilon alone. w and the reduced weight are 64-bit,
as potentials are (below). A node id is below n, so u and v are 32-bit
(``'I'``) whenever n <= 2^32. A row number is below ``n * B / 2`` and must
never be the empty mark, so the links and the tails are 32-bit whenever
``n * B / 2 < 2^32 - 1``, which holds up to about 2.2 * 10^7 nodes at
epsilon = 1/2. Past its bound a column is 64-bit. A node owns at most B
live rows, as it takes at most B pushes, so its count is as narrow as B
allows (``'H'`` at epsilon = 1/2) and cannot wrap before the queue-cap
monitor counts a violation. With ids and rows 32-bit, a row takes 32
bytes (four 32-bit and two 64-bit items), and at epsilon = 1/2 a node 14
(its potential, its tail and its count).

The pass is one loop, `StreamingState.process_edges`, over a chunk of
``(u, v, w)`` edges: it holds the light filter, the push, the queue upkeep
and the eviction, with the state bound to locals for the chunk, and takes
the per-edge time samples itself. It checks nothing: every edge it gets is
three exact ints, endpoints distinct and below n, weight in
``[0, 2^63-1]``, and `streamio` is the one module that checks them.
`run_stream` reads one `chunks()` of `open_edges`, the one way to checked
edges: a file is parsed, and an in-memory `EdgeStream` checked edge by
edge, as the pass runs, and either names a bad edge by its line in the
file format. `process_edge` is `check_edge` followed by the loop on a
chunk of one.

The loop counts, at O(1) a push, each potential that grows by less than
alpha, each queue past its cap and each eviction short of its weight gap.
`run_stream` reads the stream once, through one feed, `_passed`: each
chunk once the pass has read it, with the number of its first pushed row.
With ``monitors`` it reads the counts, and `check_terminal_weights` reads
the feed first, each chunk with its arena rows, runs the filter and the
pushes again on potentials of its own and ends on ``phi``. An unmonitored
run only drains the feed, and reads no row.

A light edge, most of a typical stream, leaves nothing behind, and an edge
becomes a `WeightedEdge` only when a matching's ``edges`` is read. The pass
makes no cycles, so `run_stream` pauses the cyclic garbage collector for it.

Node potentials never exceed the largest edge weight seen, so they stay in
64 bits: a push sets ``phi(x)`` to ``w - phi(other) <= w <= 2^63 - 1``, as
potentials are never negative. ``phi`` is therefore an unsigned 64-bit
``array``, as w and the reduced weight are: 8 bytes a node and no int
object per potential.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from fractions import Fraction
from itertools import compress
from math import floor, isclose, log
from typing import Iterable, Iterator

from .core import (
    EdgeStream,
    Matching,
    Params,
    compute_params,
    gc_paused,
)
from .monitors import (
    GAP_REL_TOL,
    CheckVerdict,
    MonitorStats,
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

#: The largest value of a 32-bit column, the empty mark of a 32-bit tail.
_U32_MAX = (1 << 32) - 1


def _push_budget(params: Params) -> int:
    """The most pushes one node can take, ``B`` (see the module notes)."""
    return 1 + floor(63 * log(2) / log(params.alpha))


def _typecodes(n: int, budget: int) -> tuple[str, str]:
    """The typecodes of node ids and of row numbers for ``n`` nodes that
    take at most ``budget`` pushes each.

    A node id is below n. A row number is below the arena bound
    ``n * budget / 2`` and must never be the empty mark, the all-ones
    value of its width. Each is 32-bit (``'I'``) when its bound allows it,
    else `_ROW_TYPECODE`.
    """
    node = "I" if n <= _U32_MAX + 1 else _ROW_TYPECODE
    row = "I" if n * budget < 2 * _U32_MAX else _ROW_TYPECODE
    return node, row


def _count_typecode(budget: int) -> str:
    """The narrowest unsigned typecode of a node's live count: a node owns
    at most ``budget`` live rows, as it takes at most ``budget`` pushes."""
    return next((c for c in "BHI" if budget < 1 << 8 * array(c).itemsize), _ROW_TYPECODE)


class StreamingState:
    """Mutable single-writer engine state for one pass.

    ``process_edge`` and ``process_edges`` calls must arrive in stream
    order; ``finalize`` consumes the state. Independent states are safe to
    run in parallel. ``samples`` receives the nanoseconds each edge took,
    for every edge up to the millionth and every 64th after.
    """

    def __init__(
        self,
        params: Params,
        samples: list[int] | None = None,
    ) -> None:
        self.params = params
        # Unsigned 64-bit slots hold every potential (see the module notes);
        # repeating a one-item array fails with MemoryError for a huge n.
        self.phi = array(_ROW_TYPECODE, [0]) * params.n
        self._n = params.n
        self._cap = params.queue_cap
        budget = _push_budget(params)
        node_code, row_code = _typecodes(params.n, budget)
        # The push arena: row r is the r-th pushed edge, in four columns.
        # An evicted row keeps its place and gets reduced weight 0.
        self._us = array(node_code)
        self._vs = array(node_code)
        self._ws = array(_ROW_TYPECODE)
        self._reduced = array(_ROW_TYPECODE)
        # A node's queue is a circle of its rows, threaded through the arena:
        # row r's successor in its u's circle is ``_next_u[r]``, and in its
        # v's ``_next_v[r]``. ``_tail`` holds each node's newest row, whose
        # successor is its oldest, or the all-ones empty mark; ``_count``
        # holds how many rows of the circle are live.
        self._empty = (1 << 8 * array(row_code).itemsize) - 1
        self._next_u: array | None = array(row_code)
        self._next_v: array | None = array(row_code)
        self._tail: array | None = array(row_code, [self._empty]) * params.n
        self._count: array | None = array(_count_typecode(budget), [0]) * params.n
        self._finalized = False
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

    def rows(self, start: int = 0) -> Iterator[tuple[int, int, int, int]]:
        """The arena rows ``(u, v, w, reduced weight)`` from row ``start``
        on, in push order, as they stand now; an evicted row has reduced
        weight 0."""
        columns = self._us, self._vs, self._ws, self._reduced
        return zip(*[column[start:] for column in columns])

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
        tail, count, empty = self._tail, self._count, self._empty
        next_u, next_v = self._next_u, self._next_v
        link_u, link_v = next_u.append, next_v.append
        arena_u, arena_v, arena_r = self._us, self._vs, self._reduced
        push_u, push_v = arena_u.append, arena_v.append
        push_w, push_r = self._ws.append, arena_r.append
        p, q, cap, gap, tol = self._p, self._q, self._cap, self._gap, GAP_REL_TOL
        samples = self._samples
        timed = samples is not None
        if timed:
            clock = time.perf_counter_ns
            dense = _TIMING_DENSE_LIMIT
            index = self._timed_edges
            start = 0
        # The counters live in locals for the chunk, and a new snapshot of
        # them becomes the stats however the loop ends.
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
                # The row joins each endpoint's circle after the endpoint's
                # newest row: it takes over that row's link to the oldest,
                # or links to itself in an empty circle, and becomes the
                # newest. A node's first push needs no count read.
                last = tail[u]
                tail[u] = row
                if last == empty:
                    link_u(row)
                    count[u] = len_u = 1
                else:
                    if arena_u[last] == u:
                        link_u(next_u[last])
                        next_u[last] = row
                    else:
                        link_u(next_v[last])
                        next_v[last] = row
                    count[u] = len_u = count[u] + 1
                last = tail[v]
                tail[v] = row
                if last == empty:
                    link_v(row)
                    count[v] = len_v = 1
                else:
                    if arena_u[last] == v:
                        link_v(next_u[last])
                        next_u[last] = row
                    else:
                        link_v(next_v[last])
                        next_v[last] = row
                    count[v] = len_v = count[v] + 1
                longest = len_u if len_u > len_v else len_v
                if longest > longest_queue:
                    longest_queue = longest

                if longest >= cap:
                    # Queue-cap monitor: a queue may reach the cap, never
                    # pass it.
                    cap_violations += (len_u > cap) + (len_v > cap)
                    # The live count falls only at an eviction, so its peak
                    # is taken just before one, or at the chunk's end.
                    if heavy - evicted > peak:
                        peak = heavy - evicted
                    # Only a full queue evicts, u's first. Evicting at u
                    # may shorten v's queue (a parallel edge), so v's count
                    # is read again.
                    for x, links in ((u, next_u), (v, next_v)):
                        len_x = count[x]
                        if len_x < cap:
                            continue
                        # x's oldest row follows its newest, this push's row.
                        # Rows evicted at their other endpoint stay in x's
                        # circle, dead: the walk skips them, and they leave
                        # the circle with the victim, the oldest live row.
                        victim = links[row]
                        while not (victim_reduced := arena_r[victim]):
                            victim = next_u[victim] if arena_u[victim] == x else next_v[victim]
                        arena_r[victim] = 0
                        evicted += 1
                        # Gap monitor: the push must outweigh its victim
                        # by 2 * alpha * gamma, a real factor.
                        need = gap * victim_reduced
                        if reduced < need and not isclose(reduced, need, rel_tol=tol):
                            gap_violations += 1
                        # The victim leaves the live count of its other
                        # endpoint y too, but stays in y's circle, dead.
                        if arena_u[victim] == x:
                            y = arena_v[victim]
                            links[row] = next_u[victim]
                        else:
                            y = arena_u[victim]
                            links[row] = next_v[victim]
                        count[x] = len_x - 1
                        count[y] -= 1
        finally:
            if timed:
                if start:
                    samples.append(clock() - start)
                self._timed_edges = index
            self.stats = MonitorStats(
                peak_live_entries=max(peak, heavy - evicted),
                heavy_edges_total=heavy,
                phi_growth_violations=growth_violations,
                queue_cap_violations=cap_violations,
                max_queue_len=longest_queue,
                evictions_total=evicted,
                eviction_gap_violations=gap_violations,
            )
        return heavy - first_heavy

    def compact(self) -> None:
        """Do nothing: the arena is append-only and the push budget bounds
        its rows (see the module notes), so there is nothing to release."""

    def finalize(self) -> tuple[Matching, MonitorStats]:
        """Release the queues (the links, tails and counts), then unwind the
        live arena rows newest-first into a greedy matching.

        Single-shot: the state is consumed. ``phi``, ``stats`` and the arena
        (``rows``) stay. The matching carries original input weights.
        """
        if self._finalized:
            raise RuntimeError("state already finalized")
        self._finalized = True
        # The unwind reads only the arena (see the module notes).
        self._next_u = self._next_v = self._tail = self._count = None
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
    parsed, and an in-memory `EdgeStream` checked, as the pass runs, all
    through one feed of chunks. With ``monitors`` the report gets all four
    ``monitor_verdicts``, from the pass's counters and a replay of each
    chunk after the pass, in the same read, at any m and in O(n) more
    memory (see `monitors`).
    With ``collect_timing`` each edge is timed with a monotonic clock inside
    the pass (every 64th edge beyond the first million, to keep the
    observer cheap).
    """
    params = compute_params(stream.n, epsilon)
    stream = open_edges(stream)
    samples: list[int] | None = [] if collect_timing else None
    state = StreamingState(params, samples=samples)

    # A pass makes no reference cycles (the state is int arrays and ints),
    # so the cyclic collector could free nothing and would only rescan the
    # pass's short-lived containers.
    with gc_paused():
        # The chunks are checked, and raise unless they hold exactly m edges.
        chunks = _passed(stream, state)
        if monitors:
            # Only the replay reads the rows the pass pushed on a chunk.
            replay = ((chunk, state.rows(first)) for chunk, first in chunks)
            terminal = check_terminal_weights(replay, state.phi, params)
        # What the replay left, or the whole stream, goes to the pass alone;
        # a deque of length 0 keeps no chunk.
        deque(chunks, maxlen=0)
        matching, stats = state.finalize()
        verdicts = _monitor_verdicts(state, terminal) if monitors else {}
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


def _passed(stream: LazyEdgeStream, state: StreamingState) -> Iterator[tuple]:
    """Each chunk of ``stream`` once the pass has read it, with the number
    of the first arena row that the pass pushed on it."""
    for chunk in stream.chunks():
        first = state.stats.heavy_edges_total
        state.process_edges(chunk)
        yield chunk, first
        del chunk  # the next chunk is parsed without this one


def _monitor_verdicts(state: StreamingState, terminal: CheckVerdict) -> dict[str, str]:
    """The four verdicts on a finalized pass, given the replay's."""
    params, stats = state.params, state.stats
    verdicts = {
        "phi_growth": check_phi_growth(stats),
        "eviction_gap": check_eviction_gap(stats),
        "terminal_weights": terminal,
        "ratio_bound": check_ratio_bound(params, stats.heavy_edges_total),
    }
    return {name: "pass" if v.ok else "fail" for name, v in verdicts.items()}
