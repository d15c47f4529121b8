import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_best_weight, random_simple_stream
from stream_mwm.core import (
    I64_MAX,
    EdgeStream,
    StreamFormatError,
    WeightedEdge,
    compute_params,
    is_heavy,
)
from stream_mwm.engine import StreamingState, run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate
from stream_mwm.monitors import EVICTED, PUSHED, check_ratio_bound
from stream_mwm.streamio import parse_stream, read_stream, serialize_stream


def fresh(n=3, eps=2, trace=None):
    return StreamingState(compute_params(n, eps), trace=trace)


def test_initial_state():
    st4 = fresh(4)
    assert st4.phi == [0, 0, 0, 0]
    assert st4.live_entries == 0
    assert st4.stats.peak_live_entries == 0
    st2 = fresh(2, Fraction(1, 2))
    assert st2.phi == [0, 0]


def test_process_edge_hand_trace():
    trace = []
    s = fresh(trace=trace)
    assert s.process_edge(WeightedEdge(0, 1, 5)) is True
    # Both potentials grow by the reduced weight 5 - (0 + 0).
    assert s.phi == [5, 5, 0]

    assert s.process_edge(WeightedEdge(1, 2, 5)) is False
    assert s.phi == [5, 5, 0]

    assert s.process_edge(WeightedEdge(1, 2, 8)) is True
    # Reduced weight 8 - (5 + 0) = 3: node 2 grows from 0 to 3.
    assert s.phi == [5, 8, 3]

    matching, stats = s.finalize()
    assert matching.sorted_edges() == [WeightedEdge(1, 2, 8)]
    assert matching.total_weight == 8
    assert stats.peak_live_entries == 2
    assert stats.evictions_total == 0
    assert stats.heavy_edges_total == 2
    heavy_per_node = [0, 0, 0]
    for ev in trace:
        if ev.kind == PUSHED:
            heavy_per_node[ev.edge.u] += 1
            heavy_per_node[ev.edge.v] += 1
    assert heavy_per_node == [1, 2, 1]


@pytest.mark.parametrize(
    "edge",
    [WeightedEdge(0, 0, 7), WeightedEdge(0, 3, 1), WeightedEdge(-1, 1, 1),
     WeightedEdge(0, 1, -2), WeightedEdge(0, 1, I64_MAX + 1)],
)
def test_process_edge_rejects_bad_edges(edge):
    with pytest.raises(StreamFormatError):
        fresh().process_edge(edge)


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
    # with core.is_heavy. Nodes 0 and 2 get potentials summing to s.
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


def test_process_edge_accepts_plain_triples_and_stores_weighted_edges():
    s = fresh()
    assert s.process_edge((0, 1, 5)) is True
    assert s.process_edge([1, 2, 8]) is True
    assert s.process_edge((0, 1, 5)) is False
    assert all(type(e) is WeightedEdge for e in s.live_edges())
    matching, _ = s.finalize()
    assert matching.sorted_edges() == [WeightedEdge(1, 2, 8)]
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
        assert matching.sorted_edges() == [WeightedEdge(0, 1, 9)]


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
def test_run_stream_reports_offending_line(timed):
    stream = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(0, 7, 5)])
    with pytest.raises(StreamFormatError, match="line 3"):
        run_stream(stream, 2, collect_timing=timed)


def test_run_stream_trace_rejected_beyond_small_instances():
    stream = EdgeStream(65, [WeightedEdge(0, 1, 5)])
    with pytest.raises(ValueError, match="trac"):
        run_stream(stream, 2, trace_sink=[])


def test_traced_run_over_a_lazy_stream_matches_the_parsed_stream(tmp_path):
    text = "c chain of 40 with evictions\n" + serialize_stream(_chain(40))
    path = tmp_path / "chain.mwm"
    path.write_text(text, encoding="utf-8")
    lazy_trace, parsed_trace = [], []
    lazy = run_stream(read_stream(str(path)), 2, trace_sink=lazy_trace)
    parsed = run_stream(
        parse_stream(text.splitlines(keepends=True)), 2, trace_sink=parsed_trace
    )
    assert lazy_trace == parsed_trace
    assert any(ev.kind == EVICTED for ev in lazy_trace)
    assert lazy == parsed


@pytest.mark.parametrize("n, m", [(65, 1), (4, 100_001)], ids=["n65", "m100001"])
def test_traced_run_over_a_lazy_stream_keeps_the_limits(tmp_path, n, m):
    path = tmp_path / "big.mwm"
    path.write_text(f"p mwm {n} {m}\n" + "0 1 0\n" * m, encoding="utf-8")
    stream = read_stream(str(path))
    try:
        with pytest.raises(ValueError, match="tracing is limited"):
            run_stream(stream, 2, trace_sink=[])
    finally:
        stream.close()


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


def test_engine_state_is_small_per_live_entry():
    stream = _heavy_chain_stars(20, "1/2")
    tracemalloc.start()
    try:
        _, report = run_stream(stream, "1/2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.evictions_total > 0
    assert report.heavy_edges_k == len(stream.edges)
    # The stack dict, plain-list queues and potentials take about 330 B
    # per live entry on CPython 3.10-3.12.
    assert peak / report.peak_live_entries <= 600


def test_queue_invariants_after_each_edge():
    params = compute_params(64, 2)
    s = StreamingState(params)
    for e in _chain(64).edges:
        s.process_edge(e)
        assert s.queue_len(0) < params.queue_cap
    # White-box: queues hold only live stack edges.
    for q in s._queues:
        if q:
            assert all(edge in s._stack for edge in q)


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
    assert a.live_edges() == b.live_edges()
    matching_a, _ = a.finalize()
    matching_b, _ = b.finalize()
    assert matching_a == matching_b


def test_finalize_is_maximal_on_live_edges():
    for seed in range(40):
        stream = random_simple_stream(seed, max_n=10, p=0.7)
        s = StreamingState(compute_params(stream.n, Fraction(1, 2)))
        for e in stream.edges:
            s.process_edge(e)
        live = s.live_edges()
        matching, _ = s.finalize()
        matched_nodes = {x for e in matching.edges for x in (e.u, e.v)}
        for e in live:
            if e not in matching.edges:
                assert e.u in matched_nodes or e.v in matched_nodes


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


def _naive_pass(params, edges):
    """Textbook simulation of the pass: plain lists keyed by stack index."""
    phi = [0] * params.n
    stack = []  # [edge, alive]
    queues = [[] for _ in range(params.n)]
    p, q = params.alpha_sq.numerator, params.alpha_sq.denominator
    for e in edges:
        s = phi[e.u] + phi[e.v]
        if q * e.weight * e.weight <= p * s * s:
            continue
        w = e.weight - s
        idx = len(stack)
        stack.append([e, True])
        for x in (e.u, e.v):
            phi[x] += w
            queues[x].append(idx)
        for x in (e.u, e.v):
            if len(queues[x]) >= params.queue_cap:
                victim = queues[x].pop(0)
                stack[victim][1] = False
                ve = stack[victim][0]
                for y in (ve.u, ve.v):
                    if victim in queues[y]:
                        queues[y].remove(victim)
    matched = set()
    chosen = []
    for e, alive in reversed(stack):
        if alive and e.u not in matched and e.v not in matched:
            matched.update((e.u, e.v))
            chosen.append(e)
    live = [e for e, alive in stack if alive]
    return phi, live, sorted(chosen)


def _assert_matches_naive(params, edges):
    s = StreamingState(params)
    for e in edges:
        s.process_edge(e)
    live = s.live_edges()
    matching, _ = s.finalize()
    phi, naive_live, naive_chosen = _naive_pass(params, edges)
    assert s.phi == phi
    assert live == naive_live
    assert matching.sorted_edges() == naive_chosen


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    eps=st.sampled_from([Fraction(1, 2), Fraction(2)]),
)
def test_engine_matches_naive_simulation(seed, eps):
    stream = random_simple_stream(seed, max_n=12, p=0.8)
    _assert_matches_naive(compute_params(stream.n, eps), stream.edges)


def test_engine_matches_naive_simulation_under_eviction_churn():
    _assert_matches_naive(compute_params(64, 2), _chain(64).edges)


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
    _assert_matches_naive(params, edges)


@pytest.mark.parametrize(
    "params, edges",
    [
        (compute_params(64, 2), _chain(64).edges),
        (compute_params(4, Fraction(59, 10)), _contended_hub_edges(1)),
    ],
    ids=["chain64", "hub1"],
)
def test_stack_holds_exactly_the_queued_edges(params, edges):
    # Both streams evict; an evicted edge must leave the stack at once.
    s = StreamingState(params)
    for e in edges:
        s.process_edge(e)
        queued = set().union(*(q for q in s._queues if q))
        assert set(s._stack) == queued
        for live in s._stack:
            assert live in s._queues[live[0]] and live in s._queues[live[1]]
        assert s.live_entries == len(s.live_edges()) <= params.n * params.queue_cap
    assert s.stats.evictions_total >= 1
    _assert_matches_naive(params, edges)


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
    # The engine keys its stack by edge value; that is sound only if a
    # pushed (u, v, w) is light on every later arrival.
    n, edges = stream
    params = compute_params(n, eps)
    trace = []
    s = StreamingState(params, trace=trace)
    for e in edges:
        s.process_edge(e)
    pushed = [ev.edge for ev in trace if ev.kind == PUSHED]
    assert len(pushed) == len(set(pushed))
    _assert_matches_naive(params, edges)


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


@pytest.fixture
def gc_state():
    """Restore the collector's on/off state after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


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
    beta1 = check_ratio_bound(params, report.heavy_edges_k)
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
    beta1 = check_ratio_bound(params, report.heavy_edges_k)
    assert opt <= beta1 * matching.total_weight
