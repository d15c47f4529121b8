import math
from fractions import Fraction

import pytest

from stream_mwm.core import EdgeStream, Params, WeightedEdge, compute_params, is_heavy
from stream_mwm.engine import run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate
from stream_mwm.monitors import (
    EVICTED,
    LIGHT,
    PUSHED,
    MonitorFailure,
    TraceEvent,
    check_eviction_gap,
    check_phi_growth,
    check_ratio_bound,
    check_terminal_weights,
)
from stream_mwm.reference import Graph
from test_trace_golden import _inputs


def _traced_run(stream: EdgeStream, eps):
    trace = []
    run_stream(stream, eps, trace_sink=trace)
    return trace, compute_params(stream.n, eps)


def _two_push_stream():
    return EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 8)])


def _chain_stream(n=64):
    return generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=n))


def test_phi_growth_two_push_example():
    trace, params = _traced_run(_two_push_stream(), 2)
    verdict = check_phi_growth(trace, params)
    assert verdict.ok and verdict.checked == 1  # node 1 goes 5 -> 8


def test_trace_holds_only_pass_events():
    """One light or pushed event per edge, one evicted event per eviction."""
    for _, stream, eps in _inputs():
        trace = []
        _, report = run_stream(stream, eps, trace_sink=trace)
        assert {ev.kind for ev in trace} <= {LIGHT, PUSHED, EVICTED}
        assert len(trace) == report.m + report.evictions_total


def test_phi_growth_vacuous_with_one_push_per_node():
    trace, params = _traced_run(
        EdgeStream(4, [WeightedEdge(0, 1, 5), WeightedEdge(2, 3, 9)]), 2
    )
    verdict = check_phi_growth(trace, params)
    assert verdict.ok and verdict.checked == 0


def test_phi_growth_detects_frozen_potential():
    trace, params = _traced_run(_two_push_stream(), 2)
    # The push of (1, 2) records its endpoints as they were before it: node
    # 1 at 5, where the push of (0, 1) left it, and node 2 at 0.
    frozen = [
        ev._replace(phi_u=trace[0].phi_v, phi_v=0) if i == 1 else ev
        for i, ev in enumerate(trace)
    ]
    verdict = check_phi_growth(frozen, params)
    assert not verdict.ok and verdict.event_index == 1


@pytest.mark.parametrize(
    "check",
    [
        check_phi_growth,
        check_eviction_gap,
        lambda trace, params: check_terminal_weights(
            Graph.from_stream(_two_push_stream()), trace, params
        ),
    ],
    ids=["phi_growth", "eviction_gap", "terminal_weights"],
)
def test_replay_checks_require_snapshots(check):
    # Each replay check refuses a trace without endpoint potentials.
    trace, params = _traced_run(_two_push_stream(), 2)
    stripped = [ev._replace(phi_u=None, phi_v=None) for ev in trace]
    with pytest.raises(ValueError, match="lacks the endpoint potentials"):
        check(stripped, params)


def test_eviction_gap_vacuous_without_evictions():
    trace, params = _traced_run(_two_push_stream(), 2)
    verdict = check_eviction_gap(trace, params)
    assert verdict.ok and verdict.checked == 0


def test_eviction_gap_on_geometric_chain():
    trace, params = _traced_run(_chain_stream(), 2)
    verdict = check_eviction_gap(trace, params)
    assert verdict.ok
    assert verdict.checked == sum(1 for ev in trace if ev.kind == EVICTED)
    assert verdict.checked >= 1


def test_eviction_gap_detects_reordered_eviction():
    trace, params = _traced_run(_chain_stream(), 2)
    evict_at = next(i for i, ev in enumerate(trace) if ev.kind == EVICTED)
    first_push = next(i for i, ev in enumerate(trace) if ev.kind == PUSHED)
    moved = trace[:]
    ev = moved.pop(evict_at)
    moved.insert(first_push + 1, ev)
    verdict = check_eviction_gap(moved, params)
    assert not verdict.ok


def test_eviction_gap_fails_without_any_push():
    params = compute_params(4, 2)
    orphan = [
        TraceEvent(EVICTED, WeightedEdge(0, 1, 5), 5, None),
    ]
    assert not check_eviction_gap(orphan, params).ok


def test_terminal_weights_path_example():
    stream = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 5)])
    trace, params = _traced_run(stream, 2)
    assert check_terminal_weights(Graph.from_stream(stream), trace, params).ok


def test_terminal_weights_single_edge_and_empty():
    stream = EdgeStream(2, [WeightedEdge(0, 1, 7)])
    trace, params = _traced_run(stream, 2)
    assert check_terminal_weights(Graph.from_stream(stream), trace, params).ok

    empty = EdgeStream(2, [])
    trace, params = _traced_run(empty, 2)
    verdict = check_terminal_weights(Graph.from_stream(empty), trace, params)
    assert verdict.ok and verdict.checked == 0


def test_terminal_weights_detects_underreduced_light_edge():
    # Bump a light edge's weight past the filter line in both the graph
    # and the trace: its recorded potentials no longer justify dropping it.
    stream = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 5)])
    trace, params = _traced_run(stream, 2)
    big = WeightedEdge(1, 2, 50)
    g = Graph(3, [WeightedEdge(0, 1, 5), big])
    corrupt = [
        ev._replace(edge=big) if ev.kind == LIGHT else ev for ev in trace
    ]
    verdict = check_terminal_weights(g, corrupt, params)
    assert not verdict.ok


# At epsilon = 5/2, alpha**2 = 9/4, so alpha = 3/2 exactly and a weight of
# 3 against a potential sum of 2 sits on the threshold, which is light.
EPS_ALPHA_3_2 = Fraction(5, 2)


@pytest.mark.parametrize(
    "kind, w, reduced, phi, ok",
    [
        (LIGHT, 3, None, 1, True),  # w = alpha * 2: light, rightly dropped
        (LIGHT, 4, None, 1, False),  # w > alpha * 2: dropped but heavy
        (PUSHED, 3, 1, 2, False),  # pre-push sum 2, w = alpha * 2: not heavy
        (PUSHED, 4, 2, 3, True),  # pre-push sum 2, w > alpha * 2: heavy
    ],
    ids=["light-at-threshold", "light-above", "push-at-threshold", "push-above"],
)
def test_terminal_weights_count_equality_as_light(kind, w, reduced, phi, ok):
    """The replay makes `is_heavy`'s test inline, ties included: a forged
    one-edge trace passes exactly when `is_heavy` says it should."""
    params = compute_params(2, EPS_ALPHA_3_2)
    assert params.alpha_sq == Fraction(9, 4)
    edge = WeightedEdge(0, 1, w)
    pre_push_sum = 2
    assert is_heavy(w, pre_push_sum, params) is (w == 4)
    trace = [TraceEvent(kind, edge, reduced, phi, phi)]
    verdict = check_terminal_weights(Graph(2, [edge]), trace, params)
    assert verdict.ok is ok
    assert verdict.checked == 1
    assert verdict.event_index == (None if ok else 0)


def test_trace_events_are_immutable_hashable_tuples():
    ev = TraceEvent(LIGHT, WeightedEdge(0, 1, 3), None, 1, 1)
    with pytest.raises(AttributeError):
        ev.phi_u = 2
    same = TraceEvent(LIGHT, WeightedEdge(0, 1, 3), None, 1, 1)
    assert hash(ev) == hash(same) and len({ev, same}) == 1
    assert ev._replace(phi_u=2) != ev and ev.phi_u == 1
    evicted = TraceEvent(EVICTED, WeightedEdge(0, 1, 5), 5)
    assert (evicted.phi_u, evicted.phi_v) == (None, None)
    assert repr(evicted) == (
        "TraceEvent(kind='evicted', edge=WeightedEdge(u=0, v=1, weight=5), "
        "reduced_weight=5, phi_u=None, phi_v=None)"
    )
    # The engine builds its events with tuple.__new__; they are the same type.
    trace = []
    for _, stream, eps in _inputs():
        trace += _traced_run(stream, eps)[0]
    assert {type(ev) for ev in trace} == {TraceEvent}
    assert {type(ev.edge) for ev in trace} == {WeightedEdge}
    assert {ev.kind for ev in trace} == {LIGHT, PUSHED, EVICTED}


def test_terminal_weights_detects_missing_edges():
    stream = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 5)])
    trace, params = _traced_run(stream, 2)
    verdict = check_terminal_weights(Graph.from_stream(stream), trace[:1], params)
    assert not verdict.ok


def test_terminal_weights_detects_swapped_edges():
    # Two edges swapped keep the count: only comparing each stream edge with
    # its trace event finds the fault, at the first swapped position.
    edges = [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 8), WeightedEdge(2, 3, 4)]
    trace, params = _traced_run(EdgeStream(4, edges), 2)
    swapped = Graph(4, [edges[0], edges[2], edges[1]])
    verdict = check_terminal_weights(swapped, trace, params)
    assert verdict.ok is False
    assert not verdict
    assert (verdict.event_index, verdict.checked) == (1, 1)
    assert verdict.detail == (
        "trace edge WeightedEdge(u=1, v=2, weight=8) does not match "
        "stream edge WeightedEdge(u=2, v=3, weight=4)"
    )


def test_ratio_bound_k_zero_is_two_alpha():
    params = compute_params(10, 2)
    assert check_ratio_bound(params, 0) == pytest.approx(2 * math.sqrt(2), rel=1e-12)


def test_ratio_bound_example_n10_eps2_k100():
    params = compute_params(10, 2)
    beta1 = check_ratio_bound(params, 100)
    # Direct evaluation: 2*sqrt(2)*(1 + 1/gamma)**100 with gamma = 100/ln(sqrt 2).
    gamma = 100 / math.log(math.sqrt(2))
    assert beta1 == pytest.approx(2 * math.sqrt(2) * (1 + 1 / gamma) ** 100, rel=1e-9)
    assert beta1 <= 4 + 1e-9
    # Cross-check: the compounded factor stays below alpha itself.
    assert (1 + 1 / gamma) ** 100 <= math.sqrt(2)


@pytest.mark.parametrize("n", [2, 10, 100, 10**4, 10**6])
@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), 1, 2])
def test_ratio_bound_at_full_push_budget(n, eps):
    params = compute_params(n, eps)
    beta1 = check_ratio_bound(params, n * n)
    assert beta1 <= float(2 + eps) + 1e-9


def test_ratio_bound_clamps_excess_k_with_warning():
    params = compute_params(4, 2)
    with pytest.warns(RuntimeWarning):
        beta1 = check_ratio_bound(params, 1000)
    assert beta1 == check_ratio_bound(params, 16)


def test_ratio_bound_raises_on_corrupt_params():
    bad = Params(
        n=10,
        epsilon=Fraction(2),
        alpha_sq=Fraction(2),
        gamma=1.0,  # far below n^2/ln(alpha): the compounding explodes
        queue_cap=25,
        ratio_bound=Fraction(4),
    )
    with pytest.raises(MonitorFailure):
        check_ratio_bound(bad, 100)
