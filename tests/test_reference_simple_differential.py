"""`mwm_simple` and `greedy_sorted` against the solvers they replaced.

`scan_mwm_simple` is the earlier weight-reduction baseline, kept as a test
oracle: it subtracts each stacked residual from every edge that shares
exactly one node with the stacked edge. The current `mwm_simple` keeps one
potential per node instead, so the oracle pins its one subtle rule: a
parallel edge is not reduced by its own earlier copies. `index_greedy` is
the earlier greedy, which sorted edge indices rather than edges. The
current solvers must return the same `Matching` (edge set and weight) on
every input, multigraphs included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_multigraph_stream, random_simple_stream
from stream_mwm.core import I64_MAX, EdgeStream, Matching, WeightedEdge
from stream_mwm.reference import Graph, greedy_sorted, mwm_simple


def scan_mwm_simple(g: Graph) -> Matching:
    """The earlier `mwm_simple`, verbatim apart from its name and docstring."""
    residual = [e.weight for e in g.edges]
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for idx, e in enumerate(g.edges):
        incident[e.u].append(idx)
        incident[e.v].append(idx)

    stack: list[int] = []
    for idx, e in enumerate(g.edges):
        r = residual[idx]
        if r <= 0:
            continue
        stack.append(idx)
        for jdx in set(incident[e.u]) | set(incident[e.v]):
            if jdx == idx:
                continue
            other = g.edges[jdx]
            shared = (other.u in (e.u, e.v)) + (other.v in (e.u, e.v))
            if shared == 1:
                residual[jdx] -= r
        residual[idx] = 0

    return _unwind(g, stack)


def _unwind(g: Graph, stack: list[int]) -> Matching:
    matched = bytearray(g.n)
    chosen: list[WeightedEdge] = []
    for idx in reversed(stack):
        e = g.edges[idx]
        if not matched[e.u] and not matched[e.v]:
            matched[e.u] = matched[e.v] = 1
            chosen.append(e)
    return Matching.of(chosen)


def index_greedy(g: Graph) -> Matching:
    """The earlier `greedy_sorted`, verbatim apart from its name and docstring."""
    order = sorted(range(len(g.edges)), key=lambda i: -g.edges[i].weight)
    matched = bytearray(g.n)
    chosen: list[WeightedEdge] = []
    for idx in order:
        e = g.edges[idx]
        if not matched[e.u] and not matched[e.v]:
            matched[e.u] = matched[e.v] = 1
            chosen.append(e)
    return Matching.of(chosen)


def assert_same(g: EdgeStream) -> None:
    pairs = ((mwm_simple, scan_mwm_simple), (greedy_sorted, index_greedy))
    for solver, oracle in pairs:
        got, want = solver(g), oracle(g)
        assert got.edges == want.edges
        assert got.total_weight == want.total_weight


@pytest.mark.parametrize("seed", range(150))
def test_simple_graphs(seed):
    assert_same(random_simple_stream(seed, max_n=14))


@pytest.mark.parametrize("seed", range(150))
def test_multigraphs(seed):
    assert_same(random_multigraph_stream(seed, max_n=10, max_weight=6))


@pytest.mark.parametrize(
    "edges",
    [
        [],
        [(0, 1, 0)],
        [(0, 1, 4), (0, 1, 4)],
        [(0, 1, 4), (1, 0, 4), (1, 2, 5)],
        [(0, 1, 3), (1, 2, 5), (0, 1, 9), (2, 3, 4)],
        [(1, 2, 5), (0, 1, 3), (1, 0, 9), (2, 3, 6)],
        [(0, 1, I64_MAX), (1, 2, I64_MAX), (1, 0, I64_MAX), (2, 3, I64_MAX)],
        [(0, 1, 0), (1, 2, I64_MAX), (2, 1, I64_MAX - 1), (2, 3, 0)],
    ],
    ids=[
        "empty", "zero", "identical-repeat", "flipped-repeat", "heavier-copy",
        "flipped-heavier-copy", "all-max", "zero-and-max",
    ],
)
def test_parallel_edge_cases(edges):
    assert_same(EdgeStream(4, [WeightedEdge(*e) for e in edges]))


_WEIGHTS = st.one_of(
    st.sampled_from([0, 1, I64_MAX]), st.integers(0, 6), st.integers(0, I64_MAX)
)


@st.composite
def multigraphs(draw) -> EdgeStream:
    """Random arrival order over edges and their repeats: identical, flipped,
    or with a fresh weight."""
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    edges = draw(
        st.lists(
            st.builds(WeightedEdge, node, node, _WEIGHTS).filter(lambda e: e.u != e.v),
            max_size=16,
        )
    )
    if edges:
        for u, v, w in draw(st.lists(st.sampled_from(edges), max_size=12)):
            if draw(st.booleans()):
                u, v = v, u
            if draw(st.booleans()):
                w = draw(_WEIGHTS)
            edges.append(WeightedEdge(u, v, w))
    return EdgeStream(n, draw(st.permutations(edges)))


@settings(max_examples=400, deadline=None)
@given(multigraphs())
def test_random_multigraphs(g):
    assert_same(g)
