"""`exact_mwm` against the subset DP it replaced, and against networkx.

`scan_exact_mwm` is the earlier DP kept as a test oracle: it scans every
neighbour of the lowest node and recurses before it consults the memo.
The current DP must return the same `Matching` (edge set and weight) on
every input, ties included.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_multigraph_stream, random_simple_stream
from stream_mwm.core import I64_MAX, CapacityError, EdgeStream, Matching, WeightedEdge
from stream_mwm.generators import GeneratorKind, GeneratorSpec, StreamOrder, generate
from stream_mwm.reference import EXACT_MAX_NODES, Graph, exact_mwm


def scan_exact_mwm(g: Graph) -> Matching:
    """The earlier subset DP, verbatim apart from its name and docstring."""
    if g.n > EXACT_MAX_NODES:
        raise CapacityError(
            f"exact solver handles at most {EXACT_MAX_NODES} nodes, got {g.n}"
        )

    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in g.edges:
        adj[e.u].append((e.v, e.weight))
        adj[e.v].append((e.u, e.weight))

    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)  # mask without its lowest node
        value = best(rest)
        for u, w in adj[v]:
            bit = 1 << u
            if mask & bit:
                cand = w + best(rest & ~bit)
                if cand > value:
                    value = cand
        memo[mask] = value
        return value

    full = (1 << g.n) - 1
    chosen: list[WeightedEdge] = []
    mask = full
    remaining = best(full)
    # Greedy lexicographic reconstruction: commit the smallest edge index
    # through which an optimum of the remaining subproblem still passes.
    # Stop once the optimum weight is reached; a shorter index tuple beats
    # any extension by free zero-weight edges.
    for e in g.edges:
        if remaining == 0:
            break
        bits = (1 << e.u) | (1 << e.v)
        if mask & bits == bits and e.weight + best(mask & ~bits) == remaining:
            chosen.append(e)
            mask &= ~bits
            remaining -= e.weight
    return Matching.of(chosen)


def assert_same(g: Graph) -> None:
    got, want = exact_mwm(g), scan_exact_mwm(g)
    assert got.edges == want.edges
    assert got.total_weight == want.total_weight


@pytest.mark.parametrize("seed", range(150))
def test_simple_graphs(seed):
    assert_same(Graph.from_stream(random_simple_stream(seed, max_n=14)))


@pytest.mark.parametrize("seed", range(100))
def test_multigraphs(seed):
    assert_same(Graph.from_stream(random_multigraph_stream(seed, max_n=14)))


@pytest.mark.parametrize("weight", [0, 1, 7])
@pytest.mark.parametrize("seed", range(40))
def test_uniform_weights_stress_the_tie_break(seed, weight):
    maker = random_multigraph_stream if seed % 2 else random_simple_stream
    stream = maker(seed + 3000, max_n=12, p=0.6)
    edges = [WeightedEdge(e.u, e.v, weight) for e in stream.edges]
    assert_same(Graph(stream.n, edges))


def parallel_copies_stream(seed: int, weight) -> EdgeStream:
    """Seeded multigraph of up to four copies per pair, in either
    orientation, interleaved at random. The copies of a pair arrive
    lightest first, so a later copy is never lighter than an earlier one
    and copies of equal weight are common."""
    rng = random.Random(f"{seed}/copies")
    n = rng.randint(2, 12)
    copies = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.5
        for _ in range(rng.randint(1, 4))
    ]
    rng.shuffle(copies)
    weights: dict[frozenset[int], list[int]] = {}
    for pair in copies:
        weights.setdefault(frozenset(pair), []).append(weight(rng))
    for ws in weights.values():
        ws.sort(reverse=True)
    edges = [WeightedEdge(u, v, weights[frozenset((u, v))].pop()) for u, v in copies]
    return EdgeStream(n, edges)


_COPY_WEIGHTS = {
    "ties": lambda rng: rng.randint(0, 3),
    "mostly-zero": lambda rng: rng.choice([0, 0, 0, 5]),
    "63-bit": lambda rng: rng.choice([I64_MAX, I64_MAX - 1, rng.getrandbits(63)]),
}


@pytest.mark.parametrize("weights", sorted(_COPY_WEIGHTS))
@pytest.mark.parametrize("seed", range(40))
def test_parallel_copies_lightest_first(seed, weights):
    assert_same(parallel_copies_stream(seed, _COPY_WEIGHTS[weights]))


@pytest.mark.parametrize(
    "n, seed", [(20, seed) for seed in range(8)] + [(22, seed) for seed in range(4)]
)
def test_shuffled_er_instances(n, seed):
    """Shuffled arrival order: edge indices follow neither node numbers nor
    the DP's node labels."""
    spec = GeneratorSpec(
        kind=GeneratorKind.ERDOS_RENYI, n=n, p=0.5, seed=seed + 500,
        order=StreamOrder.SHUFFLED,
    )
    assert_same(Graph.from_stream(generate(spec)))


@pytest.mark.parametrize(
    "g",
    [
        Graph(0, []),
        Graph(1, []),
        Graph(2, []),
        Graph(2, [WeightedEdge(1, 0, 0)]),
        Graph(2, [WeightedEdge(0, 1, 4)]),
        Graph(2, [WeightedEdge(0, 1, 3), WeightedEdge(1, 0, 9), WeightedEdge(0, 1, 9)]),
    ],
    ids=["n0", "n1", "n2-empty", "n2-zero", "n2-edge", "n2-parallel"],
)
def test_tiny_graphs(g):
    assert_same(g)


def test_verify_small_instances():
    """ER n = 20, p = 0.5, drawn the way the verify-small benchmark draws them."""
    rng = random.Random(2024)
    for _ in range(16):
        spec = GeneratorSpec(
            kind=GeneratorKind.ERDOS_RENYI, n=20, p=0.5, seed=rng.randrange(2**31)
        )
        assert_same(Graph.from_stream(generate(spec)))


def test_complete_graph_at_capacity():
    g = Graph.from_stream(
        generate(GeneratorSpec(kind=GeneratorKind.COMPLETE, n=EXACT_MAX_NODES, seed=5))
    )
    assert_same(g)


def test_weight_matches_networkx():
    """An independent exact solver: networkx's blossom algorithm, which is
    exact on integer weights. Multigraphs are collapsed to the heaviest edge
    of each pair, which is all a matching can use."""
    nx = pytest.importorskip("networkx")
    for seed in range(200):
        maker = random_multigraph_stream if seed % 2 else random_simple_stream
        stream = maker(seed + 7000, max_n=14)
        heaviest: dict[tuple[int, int], int] = {}
        for u, v, w in stream.edges:
            pair = (min(u, v), max(u, v))
            heaviest[pair] = max(w, heaviest.get(pair, 0))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(stream.n))
        nxg.add_weighted_edges_from((u, v, w) for (u, v), w in heaviest.items())
        want = sum(nxg[u][v]["weight"] for u, v in nx.max_weight_matching(nxg))
        assert exact_mwm(Graph.from_stream(stream)).total_weight == want, seed
