"""`Matching.greedy` against the unwind it replaced.

`old_walk` is the earlier `Matching.greedy`, kept as a test oracle: it
copies each taken triple into a `WeightedEdge` and hands the list to
`Matching.of`, whose endpoint check runs on it. The current walk keeps its
picks as int columns and checks nothing again. For every caller of the
walk (`StreamingState.finalize`, `greedy_sorted` and `mwm_simple`) the
order it walks is recorded, and its matching must equal the old walk's on
that order: the edge set, `total_weight`, ``==`` both ways and the hash,
on seeded multigraphs, ER streams in every order, and an evicting chain.
"""

from __future__ import annotations

import pytest

from conftest import random_multigraph_stream
from stream_mwm.core import EdgeStream, Matching, WeightedEdge
from stream_mwm.engine import run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, StreamOrder, generate
from stream_mwm.reference import greedy_sorted, mwm_simple


def old_walk(n: int, order: list[tuple[int, int, int]]) -> Matching:
    """The earlier `Matching.greedy`, verbatim apart from its name."""
    matched = bytearray(n)
    chosen: list[WeightedEdge] = []
    append, new = chosen.append, tuple.__new__
    for edge in order:
        u, v, _ = edge
        if not matched[u] and not matched[v]:
            matched[u] = matched[v] = 1
            append(new(WeightedEdge, edge))
    return Matching.of(chosen)


SOLVERS = {
    "finalize": lambda stream: run_stream(stream, 2)[0],
    "greedy_sorted": greedy_sorted,
    "mwm_simple": mwm_simple,
}


def _streams() -> list[tuple[str, EdgeStream]]:
    streams = [
        (f"multigraph-{seed}", random_multigraph_stream(seed, max_n=12))
        for seed in range(40)
    ]
    for order in StreamOrder:
        spec = GeneratorSpec(
            GeneratorKind.ERDOS_RENYI, n=300, p=0.05, seed=3, order=order
        )
        streams.append((f"er-{order.value}", generate(spec)))
    chain = GeneratorSpec(GeneratorKind.GEOMETRIC_CHAIN, n=60)
    streams.append(("chain", generate(chain)))
    return streams


STREAMS = _streams()


@pytest.mark.parametrize("name, stream", STREAMS, ids=[name for name, _ in STREAMS])
@pytest.mark.parametrize("solver", SOLVERS)
def test_the_walk_equals_the_checked_matching_of_the_old_walk(
    monkeypatch, solver, name, stream
):
    walks = []
    greedy = Matching.greedy.__func__

    def recording(cls, n, order):
        order = list(order)
        walks.append((n, order))
        return greedy(cls, n, order)

    monkeypatch.setattr(Matching, "greedy", classmethod(recording))
    got = SOLVERS[solver](stream)
    monkeypatch.undo()
    [(n, order)] = walks
    want = old_walk(n, order)
    # Compared before its edges are built, then after.
    assert got == want and want == got
    assert got.total_weight == want.total_weight
    assert got.edges == want.edges
    assert hash(got) == hash(want)
    assert all(type(e) is WeightedEdge for e in got.edges)
    ends = [x for u, v, _ in got.edges for x in (u, v)]
    assert len(set(ends)) == len(ends)
