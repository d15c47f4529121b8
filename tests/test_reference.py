import gc
from operator import itemgetter

import pytest

from conftest import (
    enumerate_best_edge_sets,
    enumerate_best_weight,
    random_multigraph_stream,
    random_simple_stream,
)
from stream_mwm.core import CapacityError, Matching, StreamFormatError, WeightedEdge
from stream_mwm import generators
from stream_mwm.generators import GeneratorKind, GeneratorSpec, StreamOrder, generate
from stream_mwm.engine import run_stream
from stream_mwm.reference import Graph, exact_mwm, greedy_sorted, mwm_simple


def _path(weights):
    return Graph(
        len(weights) + 1,
        [WeightedEdge(i, i + 1, w) for i, w in enumerate(weights)],
    )


def test_mwm_simple_path_example():
    # Processing (0,1,3) drives the residual of (1,2,2) to -1.
    m = mwm_simple(_path([3, 2]))
    assert sorted(m.edges) == [WeightedEdge(0, 1, 3)]
    assert m.total_weight == 3


def test_mwm_simple_single_edge():
    m = mwm_simple(Graph(2, [WeightedEdge(0, 1, 7)]))
    assert m.total_weight == 7


def test_mwm_simple_empty():
    assert mwm_simple(Graph(2, [])).total_weight == 0


def test_greedy_path_example():
    m = greedy_sorted(_path([2, 3, 2]))
    assert sorted(m.edges) == [WeightedEdge(1, 2, 3)]
    assert m.total_weight == 3


def test_greedy_equal_weights_perfect_matching():
    g = Graph(6, [WeightedEdge(0, 1, 4), WeightedEdge(2, 3, 4), WeightedEdge(4, 5, 4)])
    assert greedy_sorted(g).total_weight == 12


def test_greedy_empty():
    assert greedy_sorted(Graph(3, [])).total_weight == 0


def test_exact_triangle():
    g = Graph(3, [WeightedEdge(0, 1, 1), WeightedEdge(1, 2, 2), WeightedEdge(0, 2, 3)])
    assert exact_mwm(g).total_weight == 3


def test_exact_path_example():
    m = exact_mwm(_path([2, 3, 2]))
    assert m.total_weight == 4
    assert sorted(m.edges) == [WeightedEdge(0, 1, 2), WeightedEdge(2, 3, 2)]


def test_exact_empty():
    assert exact_mwm(Graph(4, [])).total_weight == 0


def test_exact_rejects_large_graphs():
    with pytest.raises(CapacityError):
        exact_mwm(Graph(23, []))
    exact_mwm(Graph(22, []))  # boundary is fine


def test_exact_lexicographic_tie_break():
    # 4-cycle with equal weights: optima are edges {0,2} and {1,3} by
    # index; the sorted-index lexicographic minimum is {0,2}.
    cycle = Graph(
        4,
        [
            WeightedEdge(0, 1, 5),
            WeightedEdge(1, 2, 5),
            WeightedEdge(2, 3, 5),
            WeightedEdge(3, 0, 5),
        ],
    )
    m = exact_mwm(cycle)
    assert m.edges == frozenset({WeightedEdge(0, 1, 5), WeightedEdge(2, 3, 5)})


def test_exact_takes_heaviest_parallel_edge_first_by_index():
    g = Graph(2, [WeightedEdge(0, 1, 3), WeightedEdge(0, 1, 9), WeightedEdge(1, 0, 9)])
    m = exact_mwm(g)
    assert m.total_weight == 9
    assert m.edges == frozenset({g.edges[1]})


def _streams(simple_seeds, simple_max_n, multi_seeds, multi_max_n):
    """Simple graphs (ids are their seeds) and multigraphs with repeated
    pairs in both orientations (ids ``multi-<seed>``)."""
    return [
        pytest.param(random_simple_stream(seed, max_n=simple_max_n), id=str(i))
        for i, seed in enumerate(simple_seeds)
    ] + [
        pytest.param(random_multigraph_stream(seed, max_n=multi_max_n), id=f"multi-{i}")
        for i, seed in enumerate(multi_seeds)
    ]


@pytest.mark.parametrize("stream", _streams(range(120), 8, range(60), 8))
def test_exact_agrees_with_enumeration(stream):
    g = Graph(stream.n, list(stream.edges))
    assert exact_mwm(g).total_weight == enumerate_best_weight(g.n, list(g.edges))


@pytest.mark.parametrize("stream", _streams(range(900, 940), 6, range(900, 960), 5))
def test_exact_edge_set_is_lex_minimal_optimum(stream):
    g = Graph(stream.n, list(stream.edges))
    if len(g.edges) > 12:
        pytest.skip("enumeration fixture kept small")
    got = exact_mwm(g)
    # An edge value repeated in the stream stands for its first index.
    index_of: dict[WeightedEdge, int] = {}
    for i, e in enumerate(g.edges):
        index_of.setdefault(e, i)
    got_indices = tuple(sorted(index_of[e] for e in got.edges))
    assert got_indices == min(enumerate_best_edge_sets(g.n, list(g.edges)))


@pytest.mark.parametrize("seed", range(200))
def test_two_approximations_meet_their_guarantee(seed):
    stream = random_simple_stream(seed + 500, max_n=8)
    g = Graph(stream.n, list(stream.edges))
    opt = enumerate_best_weight(g.n, list(g.edges))
    simple = mwm_simple(g)
    greedy = greedy_sorted(g)
    assert 2 * simple.total_weight >= opt
    assert 2 * greedy.total_weight >= opt
    # Oracle dominance over every reference output.
    exact = exact_mwm(g)
    assert exact.total_weight == opt
    assert exact.total_weight >= simple.total_weight
    assert exact.total_weight >= greedy.total_weight


@pytest.mark.parametrize(
    "edge, message",
    [
        ((0, 1, -4), "line 2: weight -4 outside [0, 2^63-1]"),
        ((1, 1, 5), "line 2: self-loop at node 1"),
        ((-1, 1, 3), "line 2: endpoint out of range for n=3: (-1, 1)"),
        ((0, 1, 2.5), "line 2: weight 2.5 is not an int"),
        ((0, 5, 3), "line 2: endpoint out of range for n=3: (0, 5)"),
    ],
    ids=["negative", "self-loop", "node-minus-1", "float", "out-of-range"],
)
@pytest.mark.parametrize("solver", [mwm_simple, greedy_sorted], ids=lambda f: f.__name__)
def test_the_baselines_refuse_what_the_engine_refuses(solver, edge, message):
    # Unchecked, these give greedy_sorted a weight of -4, put the self-loop
    # or node -1 in a matching, or raise a bare TypeError or IndexError.
    g = Graph(3, [edge])
    with pytest.raises(StreamFormatError) as engine:
        run_stream(g, "1/2")
    assert str(engine.value) == message
    with pytest.raises(StreamFormatError) as info:
        solver(g)
    assert str(info.value) == message


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("weight_max", [1, 2])
def test_greedy_matches_the_lambda_sort_on_ties(weight_max, seed):
    """Tie-heavy streams: greedy_sorted breaks ties by input order."""
    kind = GeneratorKind.ERDOS_RENYI
    g = generate(GeneratorSpec(kind, n=40, p=0.3, weight_max=weight_max, seed=seed))
    old_order = sorted(g.edges, key=lambda e: -e.weight)
    assert sorted(g.edges, key=itemgetter(2), reverse=True) == old_order
    expected = Matching.greedy(g.n, old_order)
    got = greedy_sorted(g)
    assert sorted(got.edges) == sorted(expected.edges)
    assert got.total_weight == expected.total_weight


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_generate_and_the_baselines_leave_the_collector_as_they_found_it(
    gc_state, monkeypatch, enabled
):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    spec = GeneratorSpec(GeneratorKind.ERDOS_RENYI, n=60, p=0.2, seed=1)
    g = generate(spec)
    assert gc.isenabled() is enabled
    greedy_sorted(g)
    assert gc.isenabled() is enabled
    mwm_simple(g)
    assert gc.isenabled() is enabled
    # Each raises inside its pause.
    monkeypatch.setattr(generators, "MAX_EDGES", len(g.edges) - 1)
    with pytest.raises(CapacityError, match=f"stream exceeds {len(g.edges) - 1} edges"):
        generate(spec)
    assert gc.isenabled() is enabled
    bad = Graph(2, [WeightedEdge(0, 5, 1)])
    with pytest.raises(StreamFormatError, match="^line 2: endpoint out of range"):
        greedy_sorted(bad)
    assert gc.isenabled() is enabled
    with pytest.raises(StreamFormatError, match="^line 2: endpoint out of range"):
        mwm_simple(bad)
    assert gc.isenabled() is enabled


_GARBAGE_SPECS = {
    GeneratorKind.ERDOS_RENYI: dict(n=40, p=0.3),
    GeneratorKind.COMPLETE: dict(n=15),
    GeneratorKind.PATH: dict(n=50),
    GeneratorKind.GEOMETRIC_CHAIN: dict(n=30),
    GeneratorKind.ADVERSARIAL_INCREASING: dict(n=10),
}


@pytest.mark.parametrize("order", list(StreamOrder), ids=lambda o: o.value)
@pytest.mark.parametrize("kind", list(GeneratorKind), ids=lambda k: k.value)
def test_generators_and_baselines_leave_no_cyclic_garbage(gc_state, kind, order):
    # This is what makes pausing the collector in them safe.
    spec = GeneratorSpec(kind, seed=4, order=order, **_GARBAGE_SPECS[kind])
    gc.collect()
    gc.disable()
    g = generate(spec)
    greedy = greedy_sorted(g)
    simple = mwm_simple(g)
    assert gc.collect() == 0
    assert len(g.edges) > 0 and greedy.total_weight > 0 and simple.total_weight > 0
