"""`exact_mwm` against the subset DP it replaced, and against networkx.

`exact_mwm` runs the primal-dual blossom algorithm
(`_max_weight_matching`) on perturbed weights. `scan_exact_mwm` is the
subset DP kept as a test oracle: it scans every neighbour of the lowest
node and recurses before it consults the memo. The blossom must return the
same `Matching` (edge set and weight) on every input, ties included. Random
graphs seldom reach the blossom's rarer branches, so the classic small
graphs of van Rantwijk's test suite (blossom creation, relabelling,
expansion, nesting) and blossoms of zero-weight edges are checked edge for
edge too, and `_max_weight_matching` is checked on its own, on the classic
graphs and against networkx well past the 22-node cap.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_multigraph_stream, random_simple_stream
from stream_mwm.core import I64_MAX, CapacityError, EdgeStream, Matching, WeightedEdge
from stream_mwm.generators import GeneratorKind, GeneratorSpec, StreamOrder, generate
from stream_mwm.reference import EXACT_MAX_NODES, Graph, _max_weight_matching, exact_mwm


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
    """Shuffled arrival order: edge indices do not follow node numbers."""
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


#: Van Rantwijk's classic blossom cases (weights >= 0 only), numbered as in
#: his suite, so node 0 is isolated, each with its optimum's node pairs.
CLASSIC_BLOSSOMS = {
    "s-blossom": (
        [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7)],
        {(1, 2), (3, 4)},
    ),
    "s-blossom-augment": (
        [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7), (1, 6, 5), (4, 5, 6)],
        {(1, 6), (2, 3), (4, 5)},
    ),
    "s-relabel-t-augment": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 4), (1, 6, 3)],
        {(1, 6), (2, 3), (4, 5)},
    ),
    "s-relabel-t-augment-2": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (1, 6, 4)],
        {(1, 6), (2, 3), (4, 5)},
    ),
    "s-relabel-t-augment-3": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (3, 6, 4)],
        {(1, 2), (3, 6), (4, 5)},
    ),
    "nested-s-augment": (
        [(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8), (4, 5, 10),
         (5, 6, 6)],
        {(1, 3), (2, 4), (5, 6)},
    ),
    "s-relabel-s-nested": (
        [(1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20), (3, 5, 20), (4, 5, 25),
         (5, 6, 10), (6, 7, 10), (7, 8, 8)],
        {(1, 2), (3, 4), (5, 6), (7, 8)},
    ),
    "nested-s-expand-recursively": (
        [(1, 2, 8), (1, 3, 8), (2, 3, 10), (2, 4, 12), (3, 5, 12), (4, 5, 14),
         (4, 6, 12), (5, 7, 12), (6, 7, 14), (7, 8, 12)],
        {(1, 2), (3, 5), (4, 6), (7, 8)},
    ),
    "s-relabel-t-expand": (
        [(1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25), (3, 4, 22), (4, 5, 25),
         (4, 8, 14), (5, 7, 13)],
        {(1, 6), (2, 3), (4, 8), (5, 7)},
    ),
    "nested-s-relabel-t-expand": (
        [(1, 2, 19), (1, 3, 20), (1, 8, 8), (2, 3, 25), (2, 4, 18), (3, 5, 18),
         (4, 5, 13), (4, 7, 7), (5, 6, 7)],
        {(1, 8), (2, 3), (4, 7), (5, 6)},
    ),
    "t-relabel-two-ways-expand-augment": (
        [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
         (3, 9, 35), (4, 8, 35), (5, 7, 26), (9, 10, 5)],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)},
    ),
    "t-relabel-two-ways-expand-augment-2": (
        [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
         (3, 9, 35), (4, 8, 26), (5, 7, 40), (9, 10, 5)],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)},
    ),
    "t-expand-new-least-slack-edge": (
        [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
         (3, 9, 35), (4, 8, 28), (5, 7, 26), (9, 10, 5)],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)},
    ),
    "t-expand-augment-through-nested": (
        [(1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45), (4, 5, 95), (4, 6, 94),
         (5, 6, 94), (6, 7, 50), (1, 8, 30), (3, 11, 35), (5, 9, 36), (7, 10, 26),
         (11, 12, 5)],
        {(1, 8), (2, 3), (4, 6), (5, 9), (7, 10), (11, 12)},
    ),
    "nested-s-relabel-s-expand-recursively": (
        [(1, 2, 40), (1, 3, 40), (2, 3, 60), (2, 4, 55), (3, 5, 55), (4, 5, 50),
         (1, 8, 15), (5, 7, 30), (7, 6, 10), (8, 10, 10), (4, 9, 30)],
        {(1, 2), (3, 5), (4, 9), (6, 7), (8, 10)},
    ),
}

#: Blossoms closed by zero-weight edges, which the perturbation still ranks.
ZERO_WEIGHT_BLOSSOMS = {
    "zero-triangle": [(1, 2, 0), (1, 3, 0), (2, 3, 0), (3, 4, 0)],
    "zero-triangle-pendant": [(1, 2, 0), (1, 3, 0), (2, 3, 0), (3, 4, 5)],
    "zero-s-blossom-augment": [
        (1, 2, 0), (1, 3, 0), (2, 3, 0), (3, 4, 7), (1, 6, 5), (4, 5, 6),
    ],
    "zero-pentagon-pendants": [
        (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 1, 0), (1, 6, 3), (3, 7, 3),
    ],
    "zero-inner-nested-s": [
        (1, 2, 0), (1, 3, 0), (2, 3, 0), (2, 4, 8), (3, 5, 8), (4, 5, 10), (5, 6, 6),
    ],
    "zero-outer-t-expand": [
        (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 0),
        (3, 9, 35), (4, 8, 0), (5, 7, 0), (9, 10, 0),
    ],
}


def _graph(edges: list[tuple[int, int, int]]) -> Graph:
    n = 1 + max(max(u, v) for u, v, _ in edges)
    return Graph(n, [WeightedEdge(*e) for e in edges])


def _flipped(edges: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """The same graph with each edge turned round and the order reversed,
    which reverses every rank the tie-break reads."""
    return [(v, u, w) for u, v, w in reversed(edges)]


@pytest.mark.parametrize("name", sorted(CLASSIC_BLOSSOMS))
def test_classic_blossom_graphs(name):
    edges, pairs = CLASSIC_BLOSSOMS[name]
    for order in (edges, _flipped(edges)):
        g = _graph(order)
        assert_same(g)
        assert {(min(u, v), max(u, v)) for u, v, _ in exact_mwm(g).edges} == pairs


@pytest.mark.parametrize("name", sorted(CLASSIC_BLOSSOMS))
def test_classic_blossom_graphs_on_their_own_weights(name):
    """Without the perturbation, as the suite runs them: these weights tie
    where the branches they were built for need ties (a zero-dual blossom
    expanded at the end of a stage, a T-blossom expanded round a reached
    sub-blossom), and perturbed weights on random graphs were not seen to
    reach those branches."""
    edges, pairs = CLASSIC_BLOSSOMS[name]
    for order in (edges, _flipped(edges)):
        got = _max_weight_matching(1 + max(max(u, v) for u, v, _ in order), order)
        assert {(min(order[k][:2]), max(order[k][:2])) for k in got} == pairs


@pytest.mark.parametrize("name", sorted(ZERO_WEIGHT_BLOSSOMS))
def test_zero_weight_blossoms(name):
    edges = ZERO_WEIGHT_BLOSSOMS[name]
    for order in (edges, _flipped(edges)):
        g = _graph(order)
        assert_same(g)
        got = _max_weight_matching(g.n, order)
        assert sum(order[k][2] for k in got) == exact_mwm(g).total_weight


def test_blossom_weight_matches_networkx_beyond_the_cap():
    """`_max_weight_matching` itself has no node cap: on seeded random
    simple graphs and collapsed multigraphs with 40 to 200 nodes its weight
    equals networkx's."""
    nx = pytest.importorskip("networkx")
    for seed in range(10):
        rng = random.Random(f"{seed}/beyond-cap")
        n = rng.randint(40, 200)
        p = rng.choice([0.03, 0.06, 0.12])
        wmax = rng.choice([3, 1000, I64_MAX])
        copies = 3 if seed % 2 else 1
        heaviest: dict[tuple[int, int], int] = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    for _ in range(rng.randint(1, copies)):
                        w = rng.randint(0, wmax)
                        heaviest[u, v] = max(w, heaviest.get((u, v), 0))
        edges = [(u, v, w) for (u, v), w in heaviest.items()]
        rng.shuffle(edges)
        got = _max_weight_matching(n, edges)
        nodes = [x for k in got for x in edges[k][:2]]
        assert len(nodes) == len(set(nodes)), seed
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_weighted_edges_from(edges)
        want = sum(nxg[u][v]["weight"] for u, v in nx.max_weight_matching(nxg))
        assert sum(edges[k][2] for k in got) == want, seed
