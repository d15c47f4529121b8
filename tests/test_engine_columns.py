"""Differential tests of the pass loop: `StreamingState.process_edges`,
fed a stream in chunks of any size, agrees with the reference pass of
`conftest` on its whole state after every chunk (arena rows, potentials,
counters and queues), and on its live edges and matching; and an in-memory
stream whose bad edge sits in a later chunk fails with the message and line
number of the edge-by-edge path. A run over the corpus holds at most
``n * queue_cap / 2`` live edges."""

import re
import warnings
from fractions import Fraction

import pytest

from conftest import (
    checked_pass,
    circle,
    live_edges,
    modelled_pass,
    naive_pass,
    random_multigraph_stream,
)
from test_engine import _SLOTS, _chain, _doubling_edges, _heavy_chain_stars
from test_golden import HUB_EPS, _hub
from test_trace_golden import _inputs
from stream_mwm import streamio
from stream_mwm.core import (
    I64_MAX,
    EdgeStream,
    StreamFormatError,
    WeightedEdge,
    compute_params,
)
from stream_mwm.engine import StreamingState, run_stream

CHUNK_SIZES = [1, 2, 3, 7, 4096]


def _parallel_eviction_edges(v_holds):
    """Copy 1 of (0, 1), fillers until node 0's queue is one short of the
    cap, then copy 2: evicting copy 1 at node 0 shortens node 1's queue."""
    fillers = range(2, _SLOTS.queue_cap)
    pairs = [(0, 1)] + [(0, a) for a in fillers]
    if v_holds == "list":
        pairs += [(1, a) for a in fillers]
    return _doubling_edges(pairs + [(0, 1)])


def _streams():
    for seed in range(40):
        eps = [Fraction(1, 10), Fraction(1, 2), Fraction(2)][seed % 3]
        yield f"multi{seed}", random_multigraph_stream(seed), eps
    yield "chain64", _chain(64), Fraction(2)
    yield "stars", _heavy_chain_stars(3, "1/2"), Fraction(1, 2)
    for seed in range(3):
        yield f"hub{seed}", _hub(seed), HUB_EPS
    for v_holds in ("alone", "list"):
        stream = EdgeStream(_SLOTS.n, _parallel_eviction_edges(v_holds))
        yield f"parallel-{v_holds}", stream, _SLOTS.epsilon


STREAMS = list(_streams())
#: The corpus and the inputs of `TRACE_DIGEST`; an input in both is the
#: same stream at the same epsilon.
GUARDED = STREAMS + [
    case for case in _inputs() if case[0] not in {tag for tag, _, _ in STREAMS}
]


def _run_in_chunks(params, edges, size):
    """`modelled_pass` over ``edges`` in chunks of ``size``."""
    chunks = (edges[start : start + size] for start in range(0, len(edges), size))
    return modelled_pass(params, chunks)


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("tag, stream, eps", STREAMS, ids=[t for t, _, _ in STREAMS])
def test_column_loop_matches_the_naive_pass_at_any_chunk_size(tag, stream, eps, size):
    params = compute_params(stream.n, eps)
    edges = list(stream.edges)
    naive = naive_pass(params, edges)
    counters = naive.counters

    state = StreamingState(params)
    pushed = sum(
        state.process_edges(edges[start : start + size])
        for start in range(0, len(edges), size)
    )
    assert pushed == counters["heavy_edges_total"]
    assert state.stats._asdict() == counters
    assert list(state.phi) == naive.phi
    assert live_edges(state) == naive.live
    matching, stats = state.finalize()
    assert sorted(matching.edges) == naive.chosen
    assert stats is state.stats

    # run_stream cuts an in-memory stream into chunks of the same size, and
    # checked_pass holds the pass over those chunks to the model.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streamio, "_CHUNK_EDGES", size)
        run_matching, report = run_stream(stream, eps)
        checked_pass(stream, eps)
    assert run_matching == matching
    assert report.m == len(edges)
    assert report.heavy_edges_k == counters["heavy_edges_total"]
    assert report.evictions_total == counters["evictions_total"]


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("tag, stream, eps", GUARDED, ids=[t for t, _, _ in GUARDED])
def test_the_state_matches_the_naive_pass_after_every_chunk(tag, stream, eps, size):
    # The loop keeps its counters in locals and writes them back, the peak
    # included, when a chunk ends: modelled_pass asserts that each chunk
    # leaves the arena rows, the potentials, every counter and every queue
    # as the model's. At size 1 that is after every edge.
    _run_in_chunks(compute_params(stream.n, eps), list(stream.edges), size)


#: Rows evicted at their other endpoint, then walked past, at a queue cap
#: of 4. Row r is edge r; node 1 is B and node 5 is C.
#: - Node 0 fills and evicts rows 0 and 1, the copies of (0, 1), at the
#:   copies' u and then v: B loses every live row, and keeps both, dead.
#: - B gains rows 5 and 6; node 6 fills and evicts row 6, so B's circle
#:   holds a dead row behind its oldest live one.
#: - B fills at row 12 and walks past rows 0 and 1 to evict row 5, the
#:   first copy of (5, 1), at its v; at row 13 it walks past row 6 to
#:   evict row 10, the second copy, at its u.
#: - C, whose rows were both evicted at B, gains rows 14 to 17, fills, and
#:   walks past rows 5 and 10 to evict row 14.
DEAD_ROWS = _doubling_edges([
    (0, 1), (1, 0), (0, 2), (0, 3), (0, 4),
    (5, 1), (1, 6), (6, 7), (6, 8), (6, 9),
    (1, 5), (1, 10), (1, 11), (1, 12),
    (5, 13), (5, 14), (5, 15), (5, 16),
])


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_an_eviction_walks_past_rows_evicted_at_their_other_endpoint(size):
    params = compute_params(17, Fraction(59, 10))._replace(queue_cap=4)
    state, model = _run_in_chunks(params, DEAD_ROWS, size)
    victims = [edge for kind, edge, *_ in model.events if kind == "evicted"]
    assert victims == [DEAD_ROWS[r] for r in (0, 1, 6, 5, 10, 14)]
    # Each walk unlinked the dead rows it passed, with its victim.
    assert circle(state, 0) == [(2, True), (3, True), (4, True)]
    assert circle(state, 1) == [(11, True), (12, True), (13, True)]
    assert circle(state, 5) == [(15, True), (16, True), (17, True)]
    assert circle(state, 6) == [(7, True), (8, True), (9, True)]
    matching, _ = state.finalize()
    assert sorted(matching.edges) == model.chosen


@pytest.mark.parametrize("cap", [4, 9])
def test_gap_violations_match_the_naive_pass_under_a_forced_cap(cap):
    # Below the paper's queue_cap, evictions come before the weight gap.
    # _run_in_chunks holds every counter to the model after every chunk.
    params = compute_params(64, 2)._replace(queue_cap=cap)
    _, naive = _run_in_chunks(params, list(_chain(64).edges), 7)
    assert naive.counters["eviction_gap_violations"] > 0


#: One node pair fed heavy parallel edges: both queues fill together, so
#: the live count reaches n * queue_cap / 2 just before the first eviction.
TIGHT_PAIR = "tight-pair", EdgeStream(2, _doubling_edges([(0, 1)] * 12)), Fraction(59, 10)
BOUNDED = STREAMS + [TIGHT_PAIR]


@pytest.mark.parametrize("tag, stream, eps", BOUNDED, ids=[t for t, _, _ in BOUNDED])
def test_a_run_holds_at_most_n_times_queue_cap_over_two_live_edges(tag, stream, eps):
    # Each live edge holds one slot in each endpoint's queue, and a queue
    # holds at most queue_cap slots, so 2 * live <= n * queue_cap.
    _, report = run_stream(stream, eps)
    assert 2 * report.peak_live_entries <= report.n * report.queue_cap
    if tag == "tight-pair":
        assert report.evictions_total > 0
        assert 2 * report.peak_live_entries == report.n * report.queue_cap


def test_the_corpus_evicts_at_both_endpoints_of_one_push():
    # Evicting at u may shorten v's full queue, or leave it to evict too.
    both = 0
    for _, stream, eps in STREAMS:
        events = naive_pass(compute_params(stream.n, eps), stream.edges).events
        kinds = [kind for kind, *_ in events]
        both += sum(
            kinds[i : i + 3] == ["pushed", "evicted", "evicted"] for i in range(len(kinds))
        )
    assert both >= 10


def test_the_corpus_evicts_in_many_streams():
    evicting = 0
    for _, stream, eps in STREAMS:
        params = compute_params(stream.n, eps)
        counters = naive_pass(params, stream.edges).counters
        evicting += counters["evictions_total"] > 0
    assert evicting >= 7


# The exact messages of the edge-by-edge path, after its "line N: ".
BAD_EDGES = {
    "self-loop": (WeightedEdge(0, 0, 7), "self-loop at node 0"),
    "range-high": (WeightedEdge(0, 3, 1), "endpoint out of range for n=3: (0, 3)"),
    "range-low": (WeightedEdge(-1, 1, 1), "endpoint out of range for n=3: (-1, 1)"),
    "negative": (WeightedEdge(0, 1, -2), "weight -2 outside [0, 2^63-1]"),
    "too-heavy": (WeightedEdge(0, 1, I64_MAX + 1),
                  "weight 9223372036854775808 outside [0, 2^63-1]"),
    "float-endpoint": ((0, 1.0, 5), "edge (0, 1.0, 5) is not made of ints"),
    "str-weight": ((0, 1, "5"), "edge (0, 1, '5') is not made of ints"),
    "heavy-float": ((1, 2, 7.0), "weight 7.0 is not an int"),
}


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("kind", list(BAD_EDGES))
def test_a_bad_edge_in_a_later_chunk_is_named_by_its_line(kind, timed):
    # Zero-weight edges are light and leave every potential at 0, so the
    # bad edge is the first heavy one; it sits in the second chunk.
    bad, message = BAD_EDGES[kind]
    good = [WeightedEdge(0, 1, 0)] * (streamio._CHUNK_EDGES + 5)
    stream = EdgeStream(3, [*good, bad, *good])
    expected = f"line {len(good) + 2}: {message}"
    with pytest.raises(StreamFormatError, match=f"^{re.escape(expected)}$"):
        run_stream(stream, 2, collect_timing=timed)


class _Int(int):
    """An int subclass: `check_edge` hands it on as an exact int."""


def test_a_chunk_that_fails_the_bulk_check_may_still_be_valid():
    # An int-subclass weight, a bool endpoint and a list for an edge pass
    # check_edge, so their chunks run to the same result.
    ints = [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 5), WeightedEdge(1, 2, 9)]
    odd = [WeightedEdge(0, True, 5), (1, 2, _Int(5)), [1, 2, 9]]
    _, want = run_stream(EdgeStream(3, ints), 2)
    _, got = run_stream(EdgeStream(3, odd), 2)
    assert got == want


@pytest.mark.parametrize("weight", [5.0, Fraction(5)], ids=["float", "fraction"])
@pytest.mark.parametrize("before", [[], [(0, 1, 9)]], ids=["heavy", "light"])
def test_a_weight_that_is_not_an_int_is_refused_light_or_heavy(weight, before):
    # After (0, 1, 9) the bad edge would be light: it is refused all the same.
    stream = EdgeStream(3, [*before, (0, 1, weight)])
    expected = f"line {len(before) + 2}: weight {weight!r} is not an int"
    with pytest.raises(StreamFormatError, match=f"^{re.escape(expected)}$"):
        run_stream(stream, 2)


def test_process_edge_refuses_a_light_float_and_leaves_the_state_as_it_was():
    state = StreamingState(compute_params(3, 2))
    assert state.process_edge((0, 1, 9))
    phi, stats = list(state.phi), state.stats._replace()
    with pytest.raises(StreamFormatError, match="^weight 5.0 is not an int$"):
        state.process_edge((0, 1, 5.0))
    assert list(state.phi) == phi
    assert state.stats == stats


@pytest.mark.parametrize("bad", [(1, 2), (1, 2, 3, 4), 7, None], ids=repr)
def test_an_edge_that_is_not_a_triple_is_named_by_its_line(bad):
    with pytest.raises(StreamFormatError, match="^line 3: "):
        run_stream(EdgeStream(3, [(0, 1, 5), bad]), 2)


def test_numpy_integers_are_read_as_exact_ints():
    np = pytest.importorskip("numpy")
    # q * w * w overflows int64 for these weights at epsilon = 1/2.
    big = 2**40
    edges = [(0, 1, big), (1, 2, big + big // 3), (2, 3, 3 * big)]
    wrapped = [tuple(map(np.int64, edge)) for edge in edges]
    _, want = run_stream(EdgeStream(4, edges), "1/2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, got = run_stream(EdgeStream(4, wrapped), "1/2")
    assert got == want
    assert want.heavy_edges_k == 3


@pytest.mark.parametrize("tag, stream, eps", STREAMS, ids=[t for t, _, _ in STREAMS])
def test_int_subclass_weights_take_the_per_edge_path_to_the_same_pass(tag, stream, eps):
    # Every edge goes through check_edge, which hands on exact ints.
    wrapped = [(u, v, _Int(w)) for u, v, w in stream.edges]
    want_matching, want = run_stream(stream, eps)
    got_matching, got = run_stream(EdgeStream(stream.n, wrapped), eps)
    # Each pass is held to the model after every chunk.
    got_events = checked_pass(EdgeStream(stream.n, wrapped), eps)[1].events
    assert got_events == checked_pass(stream, eps)[1].events
    assert got == want
    assert got_matching == want_matching
    assert {type(e.weight) for e in got_matching.edges} <= {int}

    params = compute_params(stream.n, eps)
    plain, odd = StreamingState(params), StreamingState(params)
    for edge, odd_edge in zip(stream.edges, wrapped):
        assert odd.process_edge(odd_edge) == plain.process_edge(edge)
    assert odd.stats == plain.stats
    assert list(odd.phi) == list(plain.phi)
    assert odd.finalize() == plain.finalize()
