"""Shared test helpers: the reference pass, the readers of a pass's queues,
independent oracles, input strategies and fixtures."""

from __future__ import annotations

import gc
import io
import math
import random

import pytest

from stream_mwm.core import EdgeStream, WeightedEdge, compute_params
from stream_mwm.engine import StreamingState
from stream_mwm.monitors import MonitorStats
from stream_mwm.streamio import open_edges


@pytest.fixture
def gc_state():
    """Restore the collector's on/off state after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def is_heavy(weight: int, potential_sum: int, params) -> bool:
    """The exact filter as a spec: does ``weight`` strictly exceed alpha
    times ``potential_sum``?

    For non-negative operands ``w > alpha * s`` is equivalent to
    ``q * w*w > p * s*s`` with ``alpha_sq = p/q`` in lowest terms, so the
    comparison never touches floating point. Equality (a weight landing
    exactly on the threshold) counts as light.
    """
    p = params.alpha_sq.numerator
    q = params.alpha_sq.denominator
    return q * weight * weight > p * potential_sum * potential_sum


def circle(state, node):
    """The node's circle of arena rows, oldest first, as ``(row, live)``:
    walked through the link columns from the row after its newest row,
    ``_tail``, back to it. Asserts that the node's live count is its live
    rows, and that the links are as wide as the tails. Once `finalize` has
    released the queue columns, asserts that all four are gone and returns
    None.

    The one reader of the link columns in the tests.
    """
    next_u, next_v, tail = state._next_u, state._next_v, state._tail
    if tail is None:
        assert next_u is next_v is state._count is None
        return None
    assert next_u.typecode == next_v.typecode == tail.typecode
    newest = tail[node]
    rows = []
    if newest != state._empty:
        row = newest
        while True:
            row = (next_u if state._us[row] == node else next_v)[row]
            rows.append((row, state._reduced[row] != 0))
            if row == newest:
                break
    assert state._count[node] == sum(live for _, live in rows)
    return rows


def queues(state) -> list[list[tuple[int, int, int]]]:
    """Each node's queued edges as ``(u, v, w)``, oldest first: the live
    rows of its circle."""
    rows = list(state.rows())
    return [
        [rows[r][:3] for r, live in circle(state, x) if live]
        for x in range(state.params.n)
    ]


def live_edges(state) -> list[tuple[int, int, int]]:
    """The live arena rows as ``(u, v, w)``, oldest first."""
    return [(u, v, w) for u, v, w, reduced in state.rows() if reduced]


def byte_stdin(text: str) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` that holds ``text`` as UTF-8 bytes, as
    the process's stdin does."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


class NaivePass:
    """The reference pass: a textbook simulation over plain lists keyed by
    push index, fed plain ``(u, v, w)`` triples in stream order.

    ``events`` holds one ``(kind, (u, v, w), reduced, phi_u, phi_v)`` per
    edge, ``"light"`` or ``"pushed"`` with its endpoints' potentials after
    the edge, and one ``("evicted", edge, reduced, None, None)`` per
    eviction. ``counters`` are the `MonitorStats` fields.
    """

    def __init__(self, params):
        self.params = params
        self.phi = [0] * params.n
        self.stack = []  # [(u, v, w), reduced, alive], in push order
        self.queues = [[] for _ in range(params.n)]  # stack indices, oldest first
        self.counters = dict.fromkeys(MonitorStats._fields, 0)
        self.events = []
        self._live = 0

    def feed(self, edges) -> int:
        """Run the pass over ``edges``; return how many were pushed."""
        params, phi, stack, queues = self.params, self.phi, self.stack, self.queues
        counters, events = self.counters, self.events
        cap = params.queue_cap
        p, q = params.alpha_sq.numerator, params.alpha_sq.denominator
        pushed = 0
        for u, v, w in edges:
            edge = (u, v, w)
            s = phi[u] + phi[v]
            if not is_heavy(w, s, params):
                events.append(("light", edge, None, phi[u], phi[v]))
                continue
            reduced = w - s
            idx = len(stack)
            stack.append([edge, reduced, True])
            for x in (u, v):
                new = phi[x] + reduced
                counters["phi_growth_violations"] += q * new * new < p * phi[x] * phi[x]
                phi[x] = new
                queues[x].append(idx)
            pushed += 1
            counters["heavy_edges_total"] += 1
            self._live += 1
            counters["peak_live_entries"] = max(counters["peak_live_entries"], self._live)
            lengths = [len(queues[u]), len(queues[v])]
            counters["max_queue_len"] = max(counters["max_queue_len"], *lengths)
            counters["queue_cap_violations"] += sum(length > cap for length in lengths)
            events.append(("pushed", edge, reduced, phi[u], phi[v]))
            for x in (u, v):
                if len(queues[x]) >= cap:
                    victim = queues[x].pop(0)
                    stack[victim][2] = False
                    self._live -= 1
                    counters["evictions_total"] += 1
                    (vu, vv, vw), vr, _ = stack[victim]
                    need = 2 * params.alpha * params.gamma * vr
                    counters["eviction_gap_violations"] += not (
                        reduced >= need or math.isclose(reduced, need, rel_tol=1e-6)
                    )
                    for y in (vu, vv):
                        if victim in queues[y]:
                            queues[y].remove(victim)
                    events.append(("evicted", (vu, vv, vw), vr, None, None))
        return pushed

    @property
    def rows(self) -> list[tuple[int, int, int, int]]:
        """The pushed edges ``(u, v, w, reduced)`` in push order, reduced
        weight 0 once evicted."""
        return [(*e, reduced if alive else 0) for e, reduced, alive in self.stack]

    @property
    def live(self) -> list[tuple[int, int, int]]:
        return [e for e, _, alive in self.stack if alive]

    @property
    def queued(self) -> list[list[tuple[int, int, int]]]:
        """Each node's queued edges, oldest first."""
        return [[self.stack[i][0] for i in queue] for queue in self.queues]

    @property
    def chosen(self) -> list[tuple[int, int, int]]:
        """The greedy unwind of the live edges, newest first, sorted."""
        matched = set()
        chosen = []
        for (u, v, w), _, alive in reversed(self.stack):
            if alive and u not in matched and v not in matched:
                matched.update((u, v))
                chosen.append((u, v, w))
        return sorted(chosen)


def naive_pass(params, edges) -> NaivePass:
    """The reference pass over all of ``edges``."""
    model = NaivePass(params)
    model.feed(edges)
    return model


def modelled_pass(params, chunks):
    """Run the pass over ``chunks`` and the model beside it, and assert
    after every chunk that the state is the model's: arena rows,
    potentials, counters, and every node's queue and live count. Return
    the state, not yet finalized, and the model."""
    state, model = StreamingState(params), NaivePass(params)
    for chunk in chunks:
        chunk = list(chunk)
        pushed = state.process_edges(chunk)
        assert pushed == model.feed(chunk)
        assert list(state.rows()) == model.rows
        assert list(state.phi) == model.phi
        assert state.stats._asdict() == model.counters
        assert queues(state) == model.queued
    return state, model


def checked_pass(stream, eps):
    """`modelled_pass` over ``stream`` in the chunks of `open_edges`, as
    `run_stream` reads it."""
    return modelled_pass(compute_params(stream.n, eps), open_edges(stream).chunks())


def enumerate_best_weight(n: int, edges: list[WeightedEdge]) -> int:
    """Maximum matching weight by exhaustive backtracking over edge subsets.

    Independent of the package's solvers; intended for small inputs only.
    """
    best = 0

    def extend(idx: int, used: int, total: int) -> None:
        nonlocal best
        if total > best:
            best = total
        for j in range(idx, len(edges)):
            u, v, w = edges[j]
            bits = (1 << u) | (1 << v)
            if used & bits == 0:
                extend(j + 1, used | bits, total + w)

    extend(0, 0, 0)
    return best


def enumerate_best_edge_sets(n: int, edges: list[WeightedEdge]) -> list[tuple[int, ...]]:
    """All optimum matchings, as sorted tuples of edge indices."""
    best = enumerate_best_weight(n, edges)
    sets: list[tuple[int, ...]] = []

    def extend(idx: int, used: int, total: int, chosen: list[int]) -> None:
        if total == best:
            sets.append(tuple(chosen))
        for j in range(idx, len(edges)):
            u, v, w = edges[j]
            bits = (1 << u) | (1 << v)
            if used & bits == 0:
                chosen.append(j)
                extend(j + 1, used | bits, total + w, chosen)
                chosen.pop()

    extend(0, 0, 0, [])
    return sets


def random_simple_stream(
    seed: int, max_n: int = 10, max_weight: int = 100, p: float = 0.5
) -> EdgeStream:
    """Seeded random simple graph presented in random arrival order."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    edges = [
        WeightedEdge(u, v, rng.randint(0, max_weight))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    rng.shuffle(edges)
    return EdgeStream(n, edges)


def random_multigraph_stream(
    seed: int, max_n: int = 10, max_weight: int = 100, p: float = 0.5
) -> EdgeStream:
    """Seeded random multigraph in random arrival order: a simple graph plus
    up to two repeats of each pair, in either orientation, each repeat with
    the pair's weight or a fresh one."""
    base = random_simple_stream(seed, max_n, max_weight, p)
    rng = random.Random(f"{seed}/multi")
    edges = list(base.edges)
    for u, v, w in base.edges:
        for _ in range(rng.randint(0, 2)):
            a, b = (u, v) if rng.random() < 0.5 else (v, u)
            weight = w if rng.random() < 0.5 else rng.randint(0, max_weight)
            edges.append(WeightedEdge(a, b, weight))
    rng.shuffle(edges)
    return EdgeStream(base.n, edges)
