"""Differential tests of the pass loop: `StreamingState.process_edges`,
fed a stream in chunks of any size, agrees with a textbook simulation of the
pass on every counter, live edge, matching and trace event; and an in-memory
stream whose bad edge sits in a later chunk fails with the message and line
number of the edge-by-edge path. A run over the corpus holds at most
``n * queue_cap / 2`` live edges."""

import dataclasses
import re
import warnings
from fractions import Fraction

import pytest

from conftest import random_multigraph_stream, traced_pass
from test_engine import _SLOTS, _chain, _doubling_edges, _heavy_chain_stars, _naive_pass
from test_golden import HUB_EPS, _hub
from stream_mwm import streamio
from stream_mwm.core import (
    I64_MAX,
    EdgeStream,
    StreamFormatError,
    WeightedEdge,
    compute_params,
)
from stream_mwm.engine import StreamingState, run_stream
from stream_mwm.monitors import EVICTED, PUSHED

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


def _events(trace):
    return [
        (ev.kind, ev.edge, ev.reduced_weight, ev.phi_u, ev.phi_v) for ev in trace
    ]


def _run_in_chunks(params, edges, size):
    trace = []
    state = StreamingState(params, trace=trace)
    pushed = 0
    for start in range(0, len(edges), size):
        pushed += state.process_edges(edges[start : start + size])
    return state, trace, pushed


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("tag, stream, eps", STREAMS, ids=[t for t, _, _ in STREAMS])
def test_column_loop_matches_the_naive_pass_at_any_chunk_size(tag, stream, eps, size):
    params = compute_params(stream.n, eps)
    edges = list(stream.edges)
    naive = _naive_pass(params, edges)
    counters, events = naive.counters, naive.events

    state, trace, pushed = _run_in_chunks(params, edges, size)
    assert dataclasses.asdict(state.stats) == counters
    assert pushed == counters["heavy_edges_total"]
    assert list(state.phi) == naive.phi
    assert state.live_edges() == naive.live
    assert _events(trace) == events
    matching, stats = state.finalize()
    assert matching.sorted_edges() == naive.chosen
    assert stats is state.stats

    # run_stream cuts an in-memory stream into chunks of the same size, as
    # the trace hook's helper does.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streamio, "_CHUNK_EDGES", size)
        run_matching, report = run_stream(stream, eps)
        assert _events(traced_pass(stream, eps)[1]) == events
    assert run_matching == matching
    assert report.m == len(edges)
    assert report.heavy_edges_k == counters["heavy_edges_total"]
    assert report.evictions_total == counters["evictions_total"]


@pytest.mark.parametrize("cap", [4, 9])
def test_gap_violations_match_the_naive_pass_under_a_forced_cap(cap):
    # Below the paper's queue_cap, evictions come before the weight gap.
    params = dataclasses.replace(compute_params(64, 2), queue_cap=cap)
    edges = list(_chain(64).edges)
    naive = _naive_pass(params, edges)
    state, trace, _ = _run_in_chunks(params, edges, 7)
    assert dataclasses.asdict(state.stats) == naive.counters
    assert _events(trace) == naive.events
    assert naive.counters["eviction_gap_violations"] > 0


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("tag, stream, eps", STREAMS, ids=[t for t, _, _ in STREAMS])
def test_counters_match_the_naive_pass_after_every_chunk(tag, stream, eps, size):
    # The loop keeps its counters in locals and writes them back, the peak
    # included, when a chunk ends: each chunk must leave them exact.
    params = compute_params(stream.n, eps)
    edges = list(stream.edges)
    history = []
    _naive_pass(params, edges, history)
    state = StreamingState(params)
    for start in range(0, len(edges), size):
        chunk = edges[start : start + size]
        state.process_edges(chunk)
        end = start + len(chunk)
        assert dataclasses.asdict(state.stats) == history[end - 1], end


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
        events = _naive_pass(compute_params(stream.n, eps), stream.edges).events
        kinds = [kind for kind, *_ in events]
        both += sum(
            kinds[i : i + 3] == [PUSHED, EVICTED, EVICTED] for i in range(len(kinds))
        )
    assert both >= 10


def test_the_corpus_evicts_in_many_streams():
    evicting = 0
    for _, stream, eps in STREAMS:
        params = compute_params(stream.n, eps)
        counters = _naive_pass(params, stream.edges).counters
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
    phi, stats = list(state.phi), dataclasses.replace(state.stats)
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
    got_trace = traced_pass(EdgeStream(stream.n, wrapped), eps)[1]
    assert _events(got_trace) == _events(traced_pass(stream, eps)[1])
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
