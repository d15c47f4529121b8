"""`optimum_weight` against `exact_mwm` and networkx.

`optimum_weight` runs the blossom algorithm on the plain weights, where
`exact_mwm` runs it on perturbed ones to pin one matching; the two must
agree on the optimum's weight everywhere `exact_mwm` is defined: on the
differential corpus of `exact_mwm`, on the inputs the ``verify-small``
benchmark draws, and on parallel copies, ties, zero weights and empty
graphs. Like every reader of a stream it reads its input once, in order,
and like the engine it refuses a bad edge.
Past the 22-node cap, where `exact_mwm` refuses, networkx is the oracle.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_multigraph_stream, random_simple_stream
from test_reference_differential import (
    _COPY_WEIGHTS,
    CLASSIC_BLOSSOMS,
    ZERO_WEIGHT_BLOSSOMS,
    _flipped,
    _graph,
    parallel_copies_stream,
)

from stream_mwm.core import I64_MAX, EdgeStream, StreamFormatError, WeightedEdge
from stream_mwm.engine import run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, StreamOrder, generate
from stream_mwm.reference import EXACT_MAX_NODES, Graph, exact_mwm, optimum_weight
from stream_mwm.streamio import read_stream, serialize_stream


def assert_same_weight(g: EdgeStream) -> None:
    assert optimum_weight(g) == exact_mwm(g).total_weight


def _corpus():
    """The inputs of `exact_mwm`'s differential tests, by family."""
    for seed in range(150):
        yield Graph.from_stream(random_simple_stream(seed, max_n=14))
    for seed in range(100):
        yield Graph.from_stream(random_multigraph_stream(seed, max_n=14))
    for weight in (0, 1, 7):
        for seed in range(40):
            maker = random_multigraph_stream if seed % 2 else random_simple_stream
            stream = maker(seed + 3000, max_n=12, p=0.6)
            yield Graph(stream.n, [WeightedEdge(u, v, weight) for u, v, _ in stream.edges])
    for name in sorted(_COPY_WEIGHTS):
        for seed in range(40):
            yield parallel_copies_stream(seed, _COPY_WEIGHTS[name])
    for n, seeds in ((20, 8), (22, 4)):
        for seed in range(seeds):
            spec = GeneratorSpec(
                kind=GeneratorKind.ERDOS_RENYI, n=n, p=0.5, seed=seed + 500,
                order=StreamOrder.SHUFFLED,
            )
            yield Graph.from_stream(generate(spec))
    for edges in [e for e, _ in CLASSIC_BLOSSOMS.values()] + list(
        ZERO_WEIGHT_BLOSSOMS.values()
    ):
        yield _graph(edges)
        yield _graph(_flipped(edges))
    yield Graph.from_stream(
        generate(GeneratorSpec(kind=GeneratorKind.COMPLETE, n=EXACT_MAX_NODES, seed=5))
    )


def test_the_differential_corpus():
    graphs = 0
    for g in _corpus():
        assert_same_weight(g)
        graphs += 1
    assert graphs == 150 + 100 + 120 + 120 + 12 + 2 * 21 + 1


def test_the_verify_small_draws():
    """The 64 inputs of the ``verify-small`` benchmark at seed 50, drawn as
    its set-up draws them: ER, n = 20, p = 0.5, one seed per instance."""
    rng = random.Random(50)
    for _ in range(64):
        spec = GeneratorSpec(
            kind=GeneratorKind.ERDOS_RENYI, n=20, p=0.5, seed=rng.randrange(2**31)
        )
        assert_same_weight(Graph.from_stream(generate(spec)))


@pytest.mark.parametrize(
    "g",
    [
        Graph(0, []),
        Graph(1, []),
        Graph(5, []),
        Graph(2, [WeightedEdge(1, 0, 0)]),
        Graph(4, [WeightedEdge(0, 1, 0), WeightedEdge(2, 3, 0), WeightedEdge(1, 2, 0)]),
        Graph(4, [WeightedEdge(0, 1, 0), WeightedEdge(1, 2, 6), WeightedEdge(2, 3, 0)]),
        # Copies in both orientations; the heaviest (9) is met second and third.
        Graph(2, [WeightedEdge(0, 1, 3), WeightedEdge(1, 0, 9), WeightedEdge(0, 1, 9)]),
        # Equal-weight ties: a 4-cycle of equal copies, each pair twice.
        Graph(4, [
            WeightedEdge(u, v, 5) if k % 2 else WeightedEdge(v, u, 5)
            for k, (u, v) in enumerate([(0, 1), (1, 2), (2, 3), (3, 0)] * 2)
        ]),
        # A heavy copy in one orientation beats two light ties in the other.
        Graph(3, [
            WeightedEdge(0, 1, 4), WeightedEdge(1, 2, 4), WeightedEdge(2, 1, 9),
            WeightedEdge(1, 0, 4),
        ]),
        Graph(3, [WeightedEdge(0, 1, I64_MAX), WeightedEdge(2, 1, I64_MAX)]),
    ],
    ids=[
        "n0", "n1", "n5-empty", "zero", "zero-path", "zero-ends", "parallel",
        "tied-cycle", "heavy-copy", "max-weight",
    ],
)
def test_parallel_copies_ties_zeros_and_empty_graphs(g):
    assert_same_weight(g)


def test_weights_by_hand():
    assert optimum_weight(Graph(4, [])) == 0
    assert optimum_weight(Graph(2, [WeightedEdge(0, 1, 0)])) == 0
    # A path 2-3-2: the two ends beat the middle.
    path = [WeightedEdge(0, 1, 2), WeightedEdge(1, 2, 3), WeightedEdge(2, 3, 2)]
    assert optimum_weight(Graph(4, path)) == 4
    # Parallel copies: only the heaviest can count.
    copies = [WeightedEdge(1, 0, 3), WeightedEdge(0, 1, 8), WeightedEdge(1, 0, 8)]
    assert optimum_weight(Graph(2, copies)) == 8


class _OneShot(list):
    """A list of edges that may be iterated once and not indexed."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        assert self.reads == 1, "edges read twice"
        return super().__iter__()

    def __getitem__(self, index):
        raise AssertionError("edges indexed")


@pytest.mark.parametrize("seed", range(6))
def test_plain_tuples_and_a_streamed_file_are_read_once(seed, tmp_path):
    stream = random_multigraph_stream(seed, max_n=14)
    want = exact_mwm(stream).total_weight

    edges = _OneShot(tuple(e) for e in stream.edges)
    assert optimum_weight(EdgeStream(stream.n, edges)) == want
    assert edges.reads == 1

    path = tmp_path / "stream.mwm"
    path.write_text(serialize_stream(stream), encoding="utf-8")
    lazy = read_stream(str(path))
    assert optimum_weight(lazy) == want
    # The file is read once.
    with pytest.raises(ValueError, match="can be read only once$"):
        lazy.chunks()


@pytest.mark.parametrize(
    "g, message",
    [
        (Graph(2, [(0, 1, -4)]), "line 2: weight -4 outside [0, 2^63-1]"),
        (Graph(3, [(0, 0, 5), (1, 2, 3)]), "line 2: self-loop at node 0"),
        (
            Graph(3, [(1, 2, 3), (0, 3, 5)]),
            "line 3: endpoint out of range for n=3: (0, 3)",
        ),
        (Graph(3, [(0, 1, 2**63)]), f"line 2: weight {2**63} outside [0, 2^63-1]"),
        (Graph(3, [(0, 1, 5.0)]), "line 2: weight 5.0 is not an int"),
    ],
    ids=["negative", "self-loop", "out-of-range", "weight-2^63", "float"],
)
@pytest.mark.parametrize(
    "solver",
    [optimum_weight, exact_mwm, lambda g: run_stream(g, "1/2")],
    ids=["optimum_weight", "exact_mwm", "run_stream"],
)
def test_the_oracle_refuses_what_the_engine_refuses(g, message, solver):
    # The optimum of a graph with a negative edge is the empty matching;
    # neither the weight -4 nor a matching that drops the self-loop is an
    # answer: the exact solvers refuse the input as the engine does.
    with pytest.raises(StreamFormatError) as info:
        solver(g)
    assert str(info.value) == message


def test_weight_matches_networkx_beyond_the_cap():
    """No node cap: on seeded simple graphs and multigraphs with 40 to 200
    nodes, copies of a pair in either orientation, the weight equals
    networkx's on the graph collapsed to each pair's heaviest copy."""
    nx = pytest.importorskip("networkx")
    for seed in range(10):
        rng = random.Random(f"{seed}/optimum-weight")
        n = rng.randint(40, 200)
        p = rng.choice([0.03, 0.06, 0.12])
        wmax = rng.choice([3, 1000, I64_MAX])
        copies = 3 if seed % 2 else 1
        edges = [
            (u, v, rng.randint(0, wmax)) if rng.random() < 0.5
            else (v, u, rng.randint(0, wmax))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
            for _ in range(rng.randint(1, copies))
        ]
        rng.shuffle(edges)
        heaviest: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            pair = (min(u, v), max(u, v))
            heaviest[pair] = max(w, heaviest.get(pair, 0))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_weighted_edges_from((u, v, w) for (u, v), w in heaviest.items())
        want = sum(nxg[u][v]["weight"] for u, v in nx.max_weight_matching(nxg))
        assert optimum_weight(Graph(n, edges)) == want, seed
