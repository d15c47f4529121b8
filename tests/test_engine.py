import functools
import gc
import itertools
import math
import random
import re
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    checked_pass,
    circle,
    enumerate_best_weight,
    is_heavy,
    live_edges,
    modelled_pass,
    queues,
    random_multigraph_stream,
    random_simple_stream,
)
from test_golden import HUB_EPS, _hub
from stream_mwm.core import (
    I64_MAX,
    EdgeStream,
    StreamFormatError,
    WeightedEdge,
    compute_params,
)
from stream_mwm.engine import (
    _ROW_TYPECODE,
    StreamingState,
    _count_typecode,
    _push_budget,
    _typecodes,
    run_stream,
)
from stream_mwm.generators import GeneratorKind, GeneratorSpec, StreamOrder, generate
from stream_mwm.monitors import ratio_factor
from stream_mwm.report import RunReport
from stream_mwm.streamio import open_edges, parse_stream, read_stream, serialize_stream


def fresh(n=3, eps=2):
    return StreamingState(compute_params(n, eps))


def test_initial_state():
    st4 = fresh(4)
    assert list(st4.phi) == [0, 0, 0, 0]
    assert st4.live_entries == 0
    assert st4.stats.peak_live_entries == 0
    st2 = fresh(2, Fraction(1, 2))
    assert list(st2.phi) == [0, 0]


def test_process_edge_hand_trace():
    s = fresh()
    assert s.process_edge(WeightedEdge(0, 1, 5)) is True
    # Both potentials grow by the reduced weight 5 - (0 + 0).
    assert list(s.phi) == [5, 5, 0]

    assert s.process_edge(WeightedEdge(1, 2, 5)) is False
    assert list(s.phi) == [5, 5, 0]

    assert s.process_edge(WeightedEdge(1, 2, 8)) is True
    # Reduced weight 8 - (5 + 0) = 3: node 2 grows from 0 to 3.
    assert list(s.phi) == [5, 8, 3]

    matching, stats = s.finalize()
    assert sorted(matching.edges) == [WeightedEdge(1, 2, 8)]
    assert matching.total_weight == 8
    assert stats.peak_live_entries == 2
    assert stats.evictions_total == 0
    assert stats.heavy_edges_total == 2
    # The arena keeps a row per push, in push order.
    assert list(s.rows()) == [(0, 1, 5, 5), (1, 2, 8, 3)]
    heavy_per_node = [0, 0, 0]
    for u, v, _, _ in s.rows():
        heavy_per_node[u] += 1
        heavy_per_node[v] += 1
    assert heavy_per_node == [1, 2, 1]


@pytest.mark.parametrize(
    "edge",
    [WeightedEdge(0, 0, 7), WeightedEdge(0, 3, 1), WeightedEdge(-1, 1, 1),
     WeightedEdge(0, 1, -2), WeightedEdge(0, 1, I64_MAX + 1),
     (0, 1.0, 5), (0, 1, "5")],
)
def test_process_edge_rejects_bad_edges(edge):
    state = fresh()
    with pytest.raises(StreamFormatError):
        state.process_edge(edge)
    assert list(state.phi) == [0, 0, 0]
    assert state.live_entries == 0
    with pytest.raises(StreamFormatError, match="^line 3: "):
        run_stream(EdgeStream(3, [WeightedEdge(0, 2, 5), edge]), 2)


@pytest.mark.parametrize("weight", [7.0, Fraction(7)], ids=["float", "fraction"])
def test_a_heavy_weight_that_is_not_an_int_leaves_the_state_as_it_was(weight):
    # The bad edge is heavy (its endpoints' potentials are 0) and inside
    # [0, 2^63-1], so only the arena's int columns can refuse it.
    good = [(0, 1, 5), (2, 3, 9), (1, 2, 40)]
    state, clean = fresh(4), fresh(4)
    state.process_edge(good[0])
    with pytest.raises(StreamFormatError, match=re.escape(f"weight {weight!r} is not")):
        state.process_edge((2, 3, weight))
    for edge in good[1:]:
        state.process_edge(edge)
    for edge in good:
        clean.process_edge(edge)
    assert state.stats == clean.stats
    assert list(state.phi) == list(clean.phi)
    assert live_edges(state) == live_edges(clean) == good
    assert state.finalize() == clean.finalize()
    stream = EdgeStream(4, [WeightedEdge(0, 1, 5), WeightedEdge(2, 3, weight)])
    with pytest.raises(StreamFormatError, match="^line 3: weight "):
        run_stream(stream, 2)


def test_zero_weight_edges_are_light():
    s = fresh()
    assert not s.process_edge(WeightedEdge(0, 1, 0))


def test_duplicate_arrival_sees_updated_potentials():
    s = fresh()
    assert s.process_edge(WeightedEdge(0, 1, 5))
    assert not s.process_edge(WeightedEdge(0, 1, 5))


@pytest.mark.parametrize("eps", ["1/10", "1/2", "2", "59/10"])
@pytest.mark.parametrize(
    "pot_sum", [0, 1, 2, 7, 10**6, 2**40 + 1, I64_MAX // 2, I64_MAX, 2 * I64_MAX]
)
def test_filter_shortcuts_agree_with_the_exact_test(eps, pot_sum):
    # The engine decides w <= s and w > 2s without squaring; the band
    # between, and both sides of ceil(alpha * s) in it, must still agree
    # with the exact test. Nodes 0 and 2 get potentials summing to s.
    params = compute_params(4, eps)
    p, q = params.alpha_sq.numerator, params.alpha_sq.denominator
    last_light = math.isqrt(p * pot_sum * pot_sum // q)
    weights = {0, pot_sum - 1, pot_sum, pot_sum + 1, 2 * pot_sum - 1, 2 * pot_sum,
               2 * pot_sum + 1, I64_MAX, *range(last_light - 1, last_light + 3)}
    half = pot_sum // 2
    for w in sorted(x for x in weights if 0 <= x <= I64_MAX):
        state = StreamingState(params)
        state.process_edge((0, 1, pot_sum - half))
        state.process_edge((2, 3, half))
        assert state.phi[0] + state.phi[2] == pot_sum
        assert state.process_edge((0, 2, w)) == is_heavy(w, pot_sum, params), w
        assert state.stats.phi_growth_violations == 0, w


def test_finalize_empty():
    matching, _ = fresh().finalize()
    assert matching.total_weight == 0 and not matching.edges


def test_finalize_disjoint_edges_all_match():
    s = fresh(4)
    s.process_edge(WeightedEdge(0, 1, 5))
    s.process_edge(WeightedEdge(2, 3, 7))
    matching, _ = s.finalize()
    assert matching.total_weight == 12
    assert len(matching.edges) == 2


def test_finalize_is_single_shot():
    s = fresh()
    s.finalize()
    with pytest.raises(RuntimeError):
        s.finalize()
    with pytest.raises(RuntimeError):
        s.process_edge(WeightedEdge(0, 1, 1))


def test_finalize_releases_the_queues_and_keeps_the_potentials_and_arena():
    s = fresh(4)
    s.process_edge(WeightedEdge(0, 1, 5))
    s.process_edge(WeightedEdge(1, 2, 8))
    live = live_edges(s)
    s.finalize()
    # The walker asserts that the links, tails and counts are all released.
    assert circle(s, 1) is None
    assert list(s.phi) == [5, 8, 3, 0]
    assert live_edges(s) == live and s.live_entries == 2
    assert s.stats.heavy_edges_total == 2


def test_the_unwind_takes_little_memory_beyond_the_pass():
    # finalize releases the queues before it builds the matching as int
    # columns: the pass's own state stays the high-water mark. With the
    # queues kept and a set of all matched nodes, the unwind peaked at about
    # 1.9 times the state; with a frozenset of WeightedEdge and a sort of
    # their endpoints, at 1.05 (as generated) and 1.29 (shuffled).
    n = 20_000
    for order in (StreamOrder.AS_GENERATED, StreamOrder.SHUFFLED):
        spec = GeneratorSpec(
            kind=GeneratorKind.ERDOS_RENYI, n=n, p=16 / (n - 1), seed=1, order=order
        )
        edges = generate(spec).edges
        tracemalloc.start()
        try:
            state = StreamingState(compute_params(n, "1/2"))
            state.process_edges(edges)
            end_of_pass = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state.finalize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * end_of_pass, (order, peak, end_of_pass)


def test_process_edge_accepts_plain_triples_and_stores_weighted_edges():
    s = fresh()
    assert s.process_edge((0, 1, 5)) is True
    assert s.process_edge([1, 2, 8]) is True
    assert s.process_edge((0, 1, 5)) is False
    matching, _ = s.finalize()
    assert sorted(matching.edges) == [WeightedEdge(1, 2, 8)]
    assert all(type(e) is WeightedEdge for e in matching.edges)


def test_run_stream_timing_is_dense_up_to_the_limit_then_every_64th(monkeypatch):
    import stream_mwm.engine as engine

    monkeypatch.setattr(engine, "_TIMING_DENSE_LIMIT", 10)
    stream = EdgeStream(201, [WeightedEdge(0, v, v) for v in range(1, 201)])
    _, report = run_stream(stream, 2, collect_timing=True)
    # Edges 0..9, then 64, 128 and 192.
    assert report.per_edge_ns.samples == 13


def test_run_stream_timing_of_a_single_edge():
    stream = EdgeStream(2, [WeightedEdge(0, 1, 9)])
    _, report = run_stream(stream, 2, collect_timing=True)
    t = report.per_edge_ns
    assert t.samples == 1
    assert t.p50 == t.p99 == t.max >= 0


def test_run_stream_path_example():
    stream = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 5)])
    matching, report = run_stream(stream, 2)
    assert matching.total_weight == 5
    assert report.heavy_edges_k == 1
    assert report.output_weight == 5


def test_run_stream_single_edge():
    stream = EdgeStream(2, [WeightedEdge(0, 1, 9)])
    for eps in (Fraction(1, 10), Fraction(1, 2), 2):
        matching, _ = run_stream(stream, eps)
        assert sorted(matching.edges) == [WeightedEdge(0, 1, 9)]


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
def test_run_stream_reports_offending_line(timed):
    stream = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(0, 7, 5)])
    with pytest.raises(StreamFormatError, match="line 3"):
        run_stream(stream, 2, collect_timing=timed)


def test_traced_run_over_a_lazy_stream_matches_the_parsed_stream(tmp_path):
    text = "c chain of 40 with evictions\n" + serialize_stream(_chain(40))
    path = tmp_path / "chain.mwm"
    path.write_text(text, encoding="utf-8")
    # Each pass is held to the model after every chunk.
    lazy_state, lazy_model = checked_pass(read_stream(str(path)), 2)
    parsed_state, parsed_model = checked_pass(
        parse_stream(text.splitlines(keepends=True)), 2
    )
    assert lazy_model.events == parsed_model.events
    assert any(kind == "evicted" for kind, *_ in lazy_model.events)
    assert lazy_state.finalize() == parsed_state.finalize()
    lazy = run_stream(read_stream(str(path)), 2, monitors=True)
    assert lazy == run_stream(parse_stream(text.splitlines(keepends=True)), 2, monitors=True)
    assert set(lazy[1].monitor_verdicts.values()) == {"pass"}


def test_only_a_monitored_run_reads_the_arena_rows(monkeypatch):
    # Both runs take their chunks from one feed; the replay alone reads the
    # rows the pass pushed on each, once per chunk.
    stream = _chain(40)
    want = run_stream(stream, 2)
    calls = []
    real_rows = StreamingState.rows

    def counted_rows(self, start=0):
        calls.append(start)
        return real_rows(self, start)

    monkeypatch.setattr(StreamingState, "rows", counted_rows)
    assert run_stream(stream, 2) == want
    assert calls == []
    _, report = run_stream(stream, 2, monitors=True)
    assert set(report.monitor_verdicts.values()) == {"pass"}
    assert len(calls) == len(list(open_edges(stream).chunks()))


@pytest.mark.parametrize("n, m", [(4, 100_001)], ids=["m100001"])
def test_traced_run_over_a_lazy_stream_keeps_the_limits(tmp_path, n, m):
    # No edge count is too large to monitor, and the header's m still
    # binds the body: a monitored run reads it and names its first fault.
    path = tmp_path / "big.mwm"
    path.write_text(f"p mwm {n} {m}\n0 1 0\n0 0 0\n", encoding="utf-8")
    stream = read_stream(str(path))
    with pytest.raises(StreamFormatError, match="^line 3: self-loop at node 0$"):
        run_stream(stream, 2, monitors=True)
    path.write_text(f"p mwm {n} {m}\n0 1 0\n", encoding="utf-8")
    with pytest.raises(StreamFormatError, match=f"header declared {m} edges but found 1"):
        run_stream(read_stream(str(path)), 2, monitors=True)
    assert stream.m == m


def _chain(n, base=1.9):
    return generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=n, base=base))


def test_chain_run_evicts_and_respects_space_bounds():
    stream = _chain(64)
    matching, report = run_stream(stream, 2)
    assert report.evictions_total >= 1
    assert report.max_queue_len <= report.queue_cap
    assert report.peak_live_entries <= 64 * report.queue_cap
    # Newest chain edge survives every eviction and wins the unwind.
    assert matching.total_weight == stream.edges[-1].weight


def _heavy_chain_stars(stars, eps):
    """Disjoint stars, each fed the minimal heavy chain with fresh leaves:
    every edge is heavy, and each centre passes the queue cap and evicts."""
    alpha_sq = compute_params(2, eps).alpha_sq
    p, q = alpha_sq.numerator, alpha_sq.denominator
    chain = [1]
    while True:
        prev = chain[-1]
        w = math.isqrt(p * prev * prev // q)
        while q * w * w <= p * prev * prev:
            w += 1
        if w > I64_MAX:
            break
        chain.append(w)
    size = len(chain) + 1
    edges = [
        WeightedEdge(s * size, s * size + 1 + i, w)
        for i, w in enumerate(chain)
        for s in range(stars)
    ]
    return EdgeStream(stars * size, edges)


@functools.cache
def _stars_bytes_per_live_entry():
    """The tracemalloc peak of a pass over 20 evicting stars, per live entry,
    measured once per session for the four tests that bound it."""
    stream = _heavy_chain_stars(20, "1/2")
    tracemalloc.start()
    try:
        _, report = run_stream(stream, "1/2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.evictions_total > 0
    assert report.heavy_edges_k == len(stream.edges)
    return peak / report.peak_live_entries


def test_engine_state_is_small_per_live_entry():
    # The push arena, its queue links and the potentials take about 96 B
    # per live entry on CPython 3.11.
    assert _stars_bytes_per_live_entry() <= 600


def test_a_star_needs_no_list_per_leaf_nor_an_int_per_potential():
    # A leaf's queue is its one row, linked to itself, and potentials are
    # packed into 8 bytes each; with a list per leaf and an int object per
    # potential the same run takes about 390 B per live entry.
    assert _stars_bytes_per_live_entry() <= 300


def test_a_pushed_edge_is_an_arena_row_with_no_objects_of_its_own():
    # Each pushed edge is one row of four 64-bit ints; a stack dict from
    # (u, v, w) tuples to int reduced weights takes about 240 B per live
    # entry on the same run.
    assert _stars_bytes_per_live_entry() <= 160


def test_a_packed_pass_is_small_per_live_entry():
    # Node ids and row numbers are 32-bit, and the queues are circles
    # threaded through the arena: 96.2 B per live entry on CPython 3.11.
    # With a one-row column and an array per centre it took 96 to 98 B on
    # CPython 3.10-3.13, and with 64-bit ids and rows and an int object per
    # leaf 138 to 140 B.
    assert _stars_bytes_per_live_entry() <= 110


@pytest.mark.parametrize("n", [2, 20, 10**3, 3 * 10**4, 94_250, 10**6])
def test_the_push_budget_is_at_most_eight_queue_caps(n):
    # So the arena, at most n * budget / 2 rows, is O(n * queue_cap).
    for eps in ["1/1000", "1/100", "1/10", "1/2", "1", "2", "4", "59/10"]:
        params = compute_params(n, eps)
        assert _push_budget(params) <= 8 * params.queue_cap, eps


def test_queue_invariants_after_each_edge():
    params = compute_params(64, 2)
    s = StreamingState(params)
    for e in _chain(64).edges:
        s.process_edge(e)
        assert len(queues(s)[0]) < params.queue_cap
    # White-box: queues hold only live edges.
    live = set(live_edges(s))
    for queue in queues(s):
        assert all(edge in live for edge in queue)


def test_compact_preserves_finalize_result():
    edges = _chain(64).edges
    a = StreamingState(compute_params(64, 2))
    b = StreamingState(compute_params(64, 2))
    for i, e in enumerate(edges):
        a.process_edge(e)
        b.process_edge(e)
        if i % 7 == 0:
            b.compact()
    b.compact()
    assert live_edges(a) == live_edges(b)
    matching_a, _ = a.finalize()
    matching_b, _ = b.finalize()
    assert matching_a == matching_b


def test_finalize_is_maximal_on_live_edges():
    for seed in range(40):
        stream = random_simple_stream(seed, max_n=10, p=0.7)
        s = StreamingState(compute_params(stream.n, Fraction(1, 2)))
        for e in stream.edges:
            s.process_edge(e)
        live = live_edges(s)
        matching, _ = s.finalize()
        matched_nodes = {x for e in matching.edges for x in (e.u, e.v)}
        for u, v, w in live:
            if (u, v, w) not in matching.edges:
                assert u in matched_nodes or v in matched_nodes


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    eps=st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2)]),
)
def test_engine_invariants_on_random_streams(seed, eps):
    stream = random_simple_stream(seed, max_n=12)
    params = compute_params(stream.n, eps)
    s = StreamingState(params)
    prev_phi = list(s.phi)
    for e in stream.edges:
        if s.process_edge(e):
            # Both endpoints grow by the same reduced weight, at least 1.
            reduced = s.phi[e.u] - prev_phi[e.u]
            assert reduced >= 1 and s.phi[e.v] - prev_phi[e.v] == reduced
        assert all(new >= old for new, old in zip(s.phi, prev_phi))
        prev_phi = list(s.phi)
    matching, stats = s.finalize()
    assert stats.phi_growth_violations == 0
    assert stats.queue_cap_violations == 0
    assert stats.max_queue_len <= params.queue_cap
    assert stats.peak_live_entries <= stream.n * params.queue_cap
    # Feasibility plus the approximation guarantee against enumeration.
    opt = enumerate_best_weight(stream.n, list(stream.edges))
    bound = params.ratio_bound
    assert matching.total_weight * bound.numerator >= opt * bound.denominator


def _assert_matches_naive(params, chunks):
    """`modelled_pass` over ``chunks``, then the unwind against the
    model's; return the pass's counters."""
    state, model = modelled_pass(params, chunks)
    matching, stats = state.finalize()
    assert sorted(matching.edges) == model.chosen
    return stats


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    eps=st.sampled_from([Fraction(1, 2), Fraction(2)]),
)
def test_engine_matches_naive_simulation(seed, eps):
    stream = random_simple_stream(seed, max_n=12, p=0.8)
    _assert_matches_naive(compute_params(stream.n, eps), [stream.edges])


def test_engine_matches_naive_simulation_under_eviction_churn():
    _assert_matches_naive(compute_params(64, 2), [_chain(64).edges])


def _contended_hub_edges(seed):
    # Few nodes, large epsilon (small cap) and fast-growing weights: many
    # evictions whose victims sit in two active queues at once.
    rng = random.Random(seed)
    edges = []
    for i in range(40):
        u, v = rng.sample(range(4), 2)
        edges.append(WeightedEdge(u, v, math.ceil(2.6**i)))
    return edges


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_engine_matches_naive_on_contended_hubs(seed):
    edges = _contended_hub_edges(seed)
    params = compute_params(4, Fraction(59, 10))
    probe = StreamingState(params)
    for e in edges:
        probe.process_edge(e)
    assert probe.stats.evictions_total >= 1
    _assert_matches_naive(params, [edges])


@pytest.mark.parametrize(
    "params, edges",
    [
        (compute_params(64, 2), _chain(64).edges),
        (compute_params(4, Fraction(59, 10)), _contended_hub_edges(1)),
    ],
    ids=["chain64", "hub1"],
)
def test_stack_holds_exactly_the_queued_edges(params, edges):
    # Both streams evict; an evicted edge must stop being live at once.
    s = StreamingState(params)
    for e in edges:
        s.process_edge(e)
        queued, live = queues(s), live_edges(s)
        assert set(live) == set().union(*queued)
        for edge in live:
            assert edge in queued[edge[0]] and edge in queued[edge[1]]
        assert s.live_entries == len(live) <= params.n * params.queue_cap
    assert s.stats.evictions_total >= 1
    _assert_matches_naive(params, [edges])


@pytest.mark.parametrize(
    "stream, eps",
    [
        (_chain(64), 2),
        *((_hub(seed), HUB_EPS) for seed in range(10)),
        (_heavy_chain_stars(20, "1/2"), "1/2"),
    ],
    ids=["chain64", *(f"hub{seed}" for seed in range(10)), "stars20"],
)
def test_no_node_is_pushed_past_the_push_budget(stream, eps):
    # The budget bounds the append-only arena: each row is a push at two
    # nodes, so there are at most n * budget / 2 rows, evicted ones included.
    params = compute_params(stream.n, eps)
    budget = _push_budget(params)
    s = StreamingState(params)
    pushes = [0] * params.n
    for e in stream.edges:
        if s.process_edge(e):
            pushes[e[0]] += 1
            pushes[e[1]] += 1
    assert s.stats.evictions_total >= 1
    assert max(pushes) <= budget
    assert s.stats.heavy_edges_total <= params.n * budget / 2


def _doubling_edges(pairs):
    """Edges on ``pairs`` with weights 4^i. Potentials never exceed the
    largest weight seen, so each edge is more than alpha < 2 times the
    potential sum of its endpoints: every edge is heavy, at any epsilon."""
    assert len(pairs) <= 31  # 4^31 <= 2^63 - 1
    return [WeightedEdge(u, v, 4**i) for i, (u, v) in enumerate(pairs)]


def _assert_queues_match_naive_after_each_edge(params, edges):
    """`_assert_matches_naive` in chunks of one edge, every one pushed."""
    stats = _assert_matches_naive(params, [[e] for e in edges])
    assert stats.heavy_edges_total == len(edges)


_SLOTS = compute_params(16, Fraction(59, 10))


def test_a_queue_grows_as_a_circle_of_rows_and_evicts_its_oldest():
    cap = _SLOTS.queue_cap
    edges = _doubling_edges([(0, leaf) for leaf in range(1, cap + 1)])
    s = StreamingState(_SLOTS)
    circles, lengths = [circle(s, 0)], [len(queues(s)[0])]
    for e in edges:
        s.process_edge(e)
        circles.append(circle(s, 0))
        lengths.append(len(queues(s)[0]))
    # Row r is the r-th push. The cap-th push fills the queue, and its
    # oldest row is evicted and leaves the centre's circle.
    assert circles == [[(r, True) for r in range(k)] for k in range(cap)] + [
        [(r, True) for r in range(1, cap)]
    ]
    assert lengths == [*range(cap), cap - 1]
    # The victim stays, dead, in its leaf's circle.
    assert circle(s, 1) == [(0, False)]
    assert s.stats.evictions_total == 1
    assert s.stats.max_queue_len == cap
    _assert_queues_match_naive_after_each_edge(_SLOTS, edges)


def test_a_leaf_edge_evicted_from_the_centre_stays_dead_in_the_leaf_circle():
    cap = _SLOTS.queue_cap
    star = [(0, leaf) for leaf in range(1, cap + 1)]
    # Leaf 1 is pushed again: on a fresh node, then back at the centre.
    edges = _doubling_edges(star + [(1, cap + 1), (1, 0)])
    s = StreamingState(_SLOTS)
    for e in edges[:cap]:
        s.process_edge(e)
    assert s.stats.evictions_total == 1
    assert circle(s, 1) == [(0, False)] and len(queues(s)[1]) == 0
    assert circle(s, 2) == [(1, True)] and len(queues(s)[2]) == 1
    s.process_edge(edges[cap])
    assert circle(s, 1) == [(0, False), (cap, True)] and len(queues(s)[1]) == 1
    s.process_edge(edges[cap + 1])
    assert circle(s, 1) == [(0, False), (cap, True), (cap + 1, True)]
    assert len(queues(s)[1]) == 2
    # The centre is full again and evicts leaf 2's edge, which stays dead
    # in leaf 2's circle and leaves the centre's.
    assert s.stats.evictions_total == 2
    assert circle(s, 2) == [(1, False)] and len(queues(s)[0]) == cap - 1
    assert circle(s, 0) == [(r, True) for r in [*range(2, cap), cap + 1]]
    _assert_queues_match_naive_after_each_edge(_SLOTS, edges)


@pytest.mark.parametrize("v_holds", ["alone", "list"])
def test_an_eviction_at_u_shortens_the_queue_of_a_parallel_copy_at_v(v_holds):
    # Copy 1 of (0, 1), then fillers at 0 until its queue is one short of
    # the cap, then copy 2: node 0 evicts copy 1, which also leaves node 1's
    # queue. With "alone", node 1 held copy 1 in its slot and copy 2 makes
    # that an array; with "list", node 1 has its own fillers and reaches the
    # cap with copy 2 too, but the eviction at 0 takes it back below.
    cap = _SLOTS.queue_cap
    fillers = range(2, cap)
    pairs = [(0, 1)] + [(0, a) for a in fillers]
    if v_holds == "list":
        pairs += [(1, a) for a in fillers]
    edges = _doubling_edges(pairs + [(0, 1)])
    # Copy 2 is the last row; node 1's own fillers, if any, come before it.
    copy_2 = len(edges) - 1
    own = [(r, True) for r in range(cap - 1, copy_2)]
    s = StreamingState(_SLOTS)
    for e in edges[:-1]:
        s.process_edge(e)
    assert circle(s, 1) == [(0, True)] + own
    lengths = [len(queue) for queue in queues(s)[:2]]
    assert lengths == [cap - 1, 1 if v_holds == "alone" else cap - 1]
    s.process_edge(edges[-1])
    assert s.stats.evictions_total == 1
    # Copy 1 stays, dead, in node 1's circle, which did not evict.
    assert circle(s, 1) == [(0, False)] + own + [(copy_2, True)]
    queue_0, queue_1 = queues(s)[:2]
    assert queue_1[-1] == edges[-1] and edges[0] not in queue_1
    assert [len(queue_0), len(queue_1)] == lengths
    _assert_queues_match_naive_after_each_edge(_SLOTS, edges)


def test_node_ids_are_32_bit_up_to_two_to_the_32_nodes():
    # Ids run from 0 to n - 1; the push budget plays no part.
    assert _typecodes(2**32, 1)[0] == "I"
    assert _typecodes(2**32 + 1, 1)[0] == _ROW_TYPECODE
    assert array("I").itemsize == 4


@pytest.mark.parametrize(
    "budget, code",
    [(255, "B"), (256, "H"), (392, "H"), (65_535, "H"), (65_536, "I"),
     (174_717, "I"), (2**32 - 1, "I"), (2**32, _ROW_TYPECODE)],
)
def test_a_live_count_is_as_wide_as_the_push_budget(budget, code):
    # A node owns at most as many live rows as it takes pushes, so its
    # count cannot wrap before the queue-cap monitor sees a violation.
    assert _count_typecode(budget) == code
    assert 1 << 8 * array(code).itemsize > budget


def test_a_live_count_is_16_bit_at_epsilon_one_half():
    params = compute_params(30_000, "1/2")
    assert _push_budget(params) == 392
    assert StreamingState(params)._count.typecode == "H"


@pytest.mark.parametrize(
    "n, budget, code",
    [
        # The arena bound n * budget / 2 just below the empty mark 2^32 - 1,
        # at it, and, at epsilon = 1/2 (budget 392), either side of it.
        (2**32 - 2, 2, "I"),
        (2**33 - 3, 1, "I"),
        (2**32 - 1, 2, _ROW_TYPECODE),
        (21_913_098, 392, "I"),
        (21_913_099, 392, _ROW_TYPECODE),
    ],
)
def test_row_numbers_are_32_bit_while_the_arena_bound_is_below_the_empty_mark(
    n, budget, code
):
    assert _typecodes(n, budget)[1] == code


# At epsilon = 1/1000 the push budget is 174,717, so n * B / 2 passes
# 2^32 - 1 between these node counts.
@pytest.mark.parametrize("n, row_code", [(49_000, "I"), (50_000, _ROW_TYPECODE)])
def test_both_row_widths_match_the_naive_pass_after_every_chunk(n, row_code):
    params = compute_params(n, "1/1000")
    assert _push_budget(params) == 174_717
    assert _typecodes(n, _push_budget(params)) == ("I", row_code)
    # A multigraph on the top node ids, in chunks of 7: nodes gain one row,
    # then more, and the highest id, n - 1, takes part.
    stream = random_multigraph_stream(3, max_n=12)
    edges = [(n - 1 - u, n - 1 - v, w) for u, v, w in stream.edges]
    chunks = [edges[start : start + 7] for start in range(0, len(edges), 7)]
    state, model = modelled_pass(params, chunks)
    assert n - 1 in state._us or n - 1 in state._vs
    assert state._us.typecode == state._vs.typecode == "I"
    # The walker holds the links to the width of the tails.
    assert state._tail.typecode == row_code
    # A live count holds up to the push budget, past 16 bits here.
    assert state._count.typecode == "I"
    assert max(state._count) >= 2
    matching, _ = state.finalize()
    assert sorted(matching.edges) == model.chosen


def _heavy_chain_down_from(top, eps):
    """Weights ending at ``top``, each just heavy against the one before:
    the largest w with p*w^2 < q*next^2."""
    alpha_sq = compute_params(2, eps).alpha_sq
    p, q = alpha_sq.numerator, alpha_sq.denominator
    chain = [top]
    while (prev := math.isqrt((q * chain[-1] ** 2 - 1) // p)) > 0:
        chain.append(prev)
    return chain[::-1]


def test_potentials_reach_exactly_two_to_the_63_minus_1():
    # Nodes 0 and 1 take one edge of weight 2^63 - 1; centre 2 takes a heavy
    # chain ending at 2^63 - 1 on fresh leaves 3, 4, ..., and evicts.
    chain = _heavy_chain_down_from(I64_MAX, "1/2")
    edges = [WeightedEdge(0, 1, I64_MAX)]
    edges += [WeightedEdge(2, 3 + i, w) for i, w in enumerate(chain)]
    stream = EdgeStream(3 + len(chain), edges)
    params = compute_params(stream.n, "1/2")
    s = StreamingState(params)
    assert all(s.process_edge(e) for e in edges)
    assert s.phi.typecode == _ROW_TYPECODE
    assert s.phi[0] == s.phi[1] == s.phi[2] == I64_MAX
    assert s.phi[-1] == I64_MAX - chain[-2]
    matching, report = run_stream(stream, "1/2")
    assert sorted(matching.edges) == [
        WeightedEdge(0, 1, I64_MAX), WeightedEdge(2, 2 + len(chain), I64_MAX)
    ]
    # The report of the engine that kept potentials as a list of ints.
    assert report == RunReport(
        algorithm="semi", n=379, m=377, epsilon="1/2",
        output_weight=2 * I64_MAX, ratio_bound="5/2",
        peak_live_entries=157, queue_cap=156, heavy_edges_k=377,
        max_queue_len=156, evictions_total=221,
    )


@st.composite
def _repeating_multigraph_streams(draw):
    """Parallel edges with growing weights, each followed by up to two exact
    repeats of earlier ``(u, v, w)`` tuples; the last edge is always a repeat."""
    n = draw(st.integers(3, 4))
    edges = []
    for i in range(draw(st.integers(1, 40))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        top = math.ceil(2.6**i)
        edges.append(WeightedEdge(u, v, draw(st.integers(top // 2, top))))
        edges.extend(draw(st.lists(st.sampled_from(edges), max_size=2)))
    edges.append(draw(st.sampled_from(edges)))
    return n, edges


@settings(max_examples=60, deadline=None)
@given(
    stream=_repeating_multigraph_streams(),
    eps=st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(59, 10)]),
)
def test_each_edge_value_is_pushed_at_most_once(stream, eps):
    # A pushed (u, v, w) is light on every later arrival: the push raised
    # its endpoints' potential sum to at least w, and potentials never fall.
    n, edges = stream
    params = compute_params(n, eps)
    s = StreamingState(params)
    for e in edges:
        s.process_edge(e)
    # The arena keeps one row per push, evicted or not.
    pushed = [row[:3] for row in s.rows()]
    assert len(pushed) == len(set(pushed))
    _assert_matches_naive(params, [edges])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_ratio_holds_under_any_arrival_order(seed):
    stream = random_simple_stream(seed, max_n=5, p=0.6)
    if len(stream.edges) > 6:
        edges = list(stream.edges)[:6]
        stream = EdgeStream(stream.n, edges)
    opt = enumerate_best_weight(stream.n, list(stream.edges))
    params = compute_params(stream.n, Fraction(1, 2))
    for perm in itertools.permutations(stream.edges):
        s = StreamingState(params)
        for e in perm:
            s.process_edge(e)
        matching, _ = s.finalize()
        assert matching.total_weight * params.ratio_bound.numerator >= (
            opt * params.ratio_bound.denominator
        )


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_stream_leaves_the_collector_as_it_found_it(gc_state, tmp_path, enabled):
    good = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 8)])
    path = tmp_path / "bad.mwm"
    # The bad line sits in the second 64 KiB chunk, so it fails mid-pass.
    path.write_text("p mwm 3 12001\n" + "0 1 5\n" * 12000 + "0 1 x\n", encoding="utf-8")
    if enabled:
        gc.enable()
    else:
        gc.disable()
    run_stream(good, 2)
    assert gc.isenabled() is enabled
    stream = read_stream(str(path))
    with pytest.raises(StreamFormatError, match="line 12002"):
        run_stream(stream, 2)
    assert gc.isenabled() is enabled
    with pytest.raises(StreamFormatError, match="line 3"):
        run_stream(EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(2, 2, 1)]), 2)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("source", ["stars", "er-file"])
def test_a_pass_leaves_no_cyclic_garbage(gc_state, tmp_path, source):
    # This is what makes pausing the collector for the pass safe.
    if source == "stars":
        stream = _heavy_chain_stars(20, "1/2")
    else:
        spec = GeneratorSpec(kind=GeneratorKind.ERDOS_RENYI, n=2000, p=0.01, seed=3)
        path = tmp_path / "er.mwm"
        path.write_text(serialize_stream(generate(spec)), encoding="utf-8")
        stream = read_stream(str(path))
    gc.collect()
    gc.disable()
    _, report = run_stream(stream, "1/2")
    assert gc.collect() == 0
    assert report.heavy_edges_k > 0
    if source == "stars":
        assert report.evictions_total > 0


def _path_gadgets(copies, w, z):
    """Disjoint 3-edge paths: the middle edge (weight ``w``) arrives first,
    then the two outer edges (weight ``z`` each)."""
    edges = []
    for c in range(copies):
        a, b, x, y = 4 * c, 4 * c + 1, 4 * c + 2, 4 * c + 3
        edges += [WeightedEdge(a, b, w), WeightedEdge(a, x, z), WeightedEdge(b, y, z)]
    return EdgeStream(4 * copies, edges)


_COPIES = 5_000
_MIDDLE = 10**9


def test_tight_gadgets_reach_two_alpha():
    # Each outer edge takes the largest z that is still light against the
    # potential sum w: q*z^2 <= p*w^2. The engine keeps only the middle
    # edges, the optimum takes the outer ones, and OPT/output is 2z/w.
    params = compute_params(4 * _COPIES, "1/2")
    p, q = params.alpha_sq.numerator, params.alpha_sq.denominator
    z = math.isqrt(p * _MIDDLE * _MIDDLE // q)
    matching, report = run_stream(_path_gadgets(_COPIES, _MIDDLE, z), "1/2")
    opt = _COPIES * 2 * z
    assert matching.total_weight == _COPIES * _MIDDLE
    beta1 = ratio_factor(params, report.heavy_edges_k)
    assert opt <= beta1 * matching.total_weight
    assert abs(opt / matching.total_weight - 2 * params.alpha) <= 1e-6


def test_gadgets_just_past_alpha_are_pushed_and_matched():
    # Each outer edge takes the largest z that a filter loosened to alpha^2
    # would call light: q*z <= p*w. Such a filter would output w per copy,
    # a ratio of 2*alpha^2 = 2 + eps, above beta1; the engine pushes the
    # outer edges and matches them.
    params = compute_params(4 * _COPIES, "1/2")
    p, q = params.alpha_sq.numerator, params.alpha_sq.denominator
    z = p * _MIDDLE // q
    matching, report = run_stream(_path_gadgets(_COPIES, _MIDDLE, z), "1/2")
    opt = _COPIES * 2 * z
    assert matching.total_weight == opt
    beta1 = ratio_factor(params, report.heavy_edges_k)
    assert opt <= beta1 * matching.total_weight
