import math
import warnings
from array import array
from fractions import Fraction

import pytest

from conftest import byte_stdin, checked_pass, is_heavy
from stream_mwm.core import EdgeStream, Params, WeightedEdge, compute_params
from stream_mwm.engine import StreamingState, run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate
from stream_mwm.monitors import (
    CheckVerdict,
    check_eviction_gap,
    check_phi_growth,
    check_ratio_bound,
    check_terminal_weights,
    ratio_factor,
)
from stream_mwm.reference import Graph
from stream_mwm.streamio import LazyEdgeStream, open_edges, read_stream, serialize_stream


def _finalized(stream: EdgeStream, eps):
    """A finalized pass over ``stream``, as `run_stream` leaves it for the
    checks, held to the model after every chunk."""
    state, _ = checked_pass(stream, eps)
    state.finalize()
    return state


def _replay(g, stream: EdgeStream, eps, rows=None, phi=None):
    """`check_terminal_weights` of ``g``'s edges, as one chunk, against the
    pass over ``stream``, with its arena rows or potentials replaced if
    given."""
    state = _finalized(stream, eps)
    rows = list(state.rows()) if rows is None else rows
    phi = state.phi if phi is None else phi
    return check_terminal_weights([(g.edges, rows)], phi, state.params)


def _two_push_stream():
    return EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 8)])


def _chain_stream(n=64):
    return generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=n))


def test_phi_growth_two_push_example():
    verdict = check_phi_growth(_finalized(_two_push_stream(), 2).stats)
    assert verdict.ok and verdict.checked == 2  # node 1 goes 5 -> 8


def test_phi_growth_vacuous_with_one_push_per_node():
    stream = EdgeStream(4, [WeightedEdge(0, 1, 5), WeightedEdge(2, 3, 9)])
    stats = _finalized(stream, 2).stats
    assert stats.phi_growth_violations == 0
    assert check_phi_growth(stats).ok


@pytest.mark.parametrize(
    "check, counter",
    [
        (check_phi_growth, "phi_growth_violations"),
        (check_eviction_gap, "eviction_gap_violations"),
    ],
    ids=["phi_growth", "eviction_gap"],
)
def test_a_counted_violation_fails_its_check(check, counter):
    stats = _finalized(_chain_stream(), 2).stats
    assert check(stats).ok
    verdict = check(stats._replace(**{counter: 1}))
    assert not verdict.ok and verdict.detail.startswith("1 ")


def test_eviction_gap_vacuous_without_evictions():
    verdict = check_eviction_gap(_finalized(_two_push_stream(), 2).stats)
    assert verdict.ok and verdict.checked == 0


def test_eviction_gap_on_geometric_chain():
    state, model = checked_pass(_chain_stream(), 2)
    verdict = check_eviction_gap(state.stats)
    assert verdict.ok
    assert verdict.checked == sum(1 for kind, *_ in model.events if kind == "evicted")
    assert verdict.checked >= 1


def test_eviction_gap_counts_evictions_under_a_forced_cap():
    # Below the paper's queue_cap a chain node evicts before the newer
    # push outweighs the victim by 2 * alpha * gamma.
    params = compute_params(64, 2)
    for cap in (4, params.queue_cap // 2):
        forced = params._replace(queue_cap=cap)
        state = StreamingState(forced)
        state.process_edges(_chain_stream().edges)
        assert state.stats.eviction_gap_violations >= 1, cap
        verdict = check_eviction_gap(state.stats)
        assert not verdict.ok
        assert verdict.checked == state.stats.evictions_total


def test_terminal_weights_path_example():
    stream = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 5)])
    verdict = _replay(Graph.from_stream(stream), stream, 2)
    assert verdict.ok and verdict.checked == 2


def test_terminal_weights_single_edge_and_empty():
    stream = EdgeStream(2, [WeightedEdge(0, 1, 7)])
    assert _replay(Graph.from_stream(stream), stream, 2).ok

    empty = EdgeStream(2, [])
    verdict = _replay(Graph.from_stream(empty), empty, 2)
    assert verdict.ok and verdict.checked == 0


def test_terminal_weights_detects_underreduced_light_edge():
    # The pass dropped (1, 2, 5) as light; read again as (1, 2, 50), it
    # beats the filter and needs an arena row the pass never pushed.
    stream = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 5)])
    g = Graph(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 50)])
    verdict = _replay(g, stream, 2)
    assert not verdict.ok
    assert (verdict.event_index, verdict.checked) == (1, 1)
    assert verdict.detail == (
        "edge (1, 2, 50) pushes with reduced weight 45, but the next arena row is None"
    )


# At epsilon = 5/2, alpha**2 = 9/4, so alpha = 3/2 exactly and a weight of
# 3 against a potential sum of 2 sits on the threshold, which is light.
EPS_ALPHA_3_2 = Fraction(5, 2)


@pytest.mark.parametrize(
    "w, rows, phi, ok",
    [
        (3, [(0, 1, 1, 1)], 1, True),  # w = alpha * 2: light, rightly dropped
        (4, [(0, 1, 1, 1)], 1, False),  # w > alpha * 2: dropped but heavy
        (3, [(0, 1, 1, 1), (0, 1, 3, 1)], 2, False),  # w = alpha * 2: not heavy
        (4, [(0, 1, 1, 1), (0, 1, 4, 2)], 3, True),  # w > alpha * 2: heavy
    ],
    ids=["light-at-threshold", "light-above", "push-at-threshold", "push-above"],
)
def test_terminal_weights_count_equality_as_light(w, rows, phi, ok):
    """The replay makes `is_heavy`'s test, ties included: after a first
    push of weight 1 leaves both potentials at 1, a forged pass over a
    second edge of weight ``w`` passes exactly when `is_heavy` says it
    should."""
    params = compute_params(2, EPS_ALPHA_3_2)
    assert params.alpha_sq == Fraction(9, 4)
    assert is_heavy(w, 2, params) is (w == 4)
    g = Graph(2, [WeightedEdge(0, 1, 1), WeightedEdge(0, 1, w)])
    verdict = check_terminal_weights([(g.edges, rows)], array("q", [phi, phi]), params)
    assert verdict.ok is ok
    # A dropped heavy edge fails at its index; a pushed light one leaves
    # its row over at the end.
    assert verdict.event_index == (None if ok or w == 3 else 1)
    assert verdict.checked == (1 if w == 4 and not ok else 2)


def test_terminal_weights_match_each_chunk_to_the_rows_pushed_on_it():
    # Each chunk comes with the rows the pass pushed while it read that
    # chunk: the right rows with the wrong chunk fail, at the first push
    # that finds none, or as a row that the chunk's replay left over.
    stream = _two_push_stream()
    state = _finalized(stream, 2)
    rows = list(state.rows())
    (e0, e1), phi, params = stream.edges, state.phi, state.params
    assert rows == [(0, 1, 5, 5), (1, 2, 8, 3)]
    verdict = check_terminal_weights([([e0], rows[:1]), ([e1], rows[1:])], phi, params)
    assert verdict.ok and verdict.checked == 2
    late = check_terminal_weights([([e0], []), ([e1], rows)], phi, params)
    assert (late.ok, late.event_index, late.checked) == (False, 0, 0)
    early = check_terminal_weights([([e0], rows), ([e1], [])], phi, params)
    assert (early.ok, early.event_index, early.checked) == (False, None, 1)
    assert early.detail == "arena row (1, 2, 8, 3) was not pushed by the replay"


def test_terminal_weights_detects_swapped_edges():
    # Two edges swapped keep the count: only re-running the filter finds
    # the fault, at the first swapped position.
    edges = [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 8), WeightedEdge(2, 3, 4)]
    swapped = Graph(4, [edges[0], edges[2], edges[1]])
    verdict = _replay(swapped, EdgeStream(4, edges), 2)
    assert verdict.ok is False
    assert not verdict
    assert (verdict.event_index, verdict.checked) == (1, 1)
    assert verdict.detail == (
        "edge (2, 3, 4) pushes with reduced weight 4, "
        "but the next arena row is (1, 2, 8, 3)"
    )


def test_terminal_weights_detects_a_wrong_reduced_weight():
    stream = _two_push_stream()
    rows = list(_finalized(stream, 2).rows())
    assert rows == [(0, 1, 5, 5), (1, 2, 8, 3)]
    # An evicted row reads 0 and passes; any other wrong value fails.
    assert _replay(stream, stream, 2, rows=[rows[0], (1, 2, 8, 0)]).ok
    verdict = _replay(stream, stream, 2, rows=[rows[0], (1, 2, 8, 2)])
    assert not verdict.ok and verdict.event_index == 1


@pytest.mark.parametrize("node", [0, 1, 2])
def test_terminal_weights_detects_a_potential_off_by_one(node):
    stream = _two_push_stream()
    phi = array("q", _finalized(stream, 2).phi)
    assert list(phi) == [5, 8, 3]
    phi[node] += 1
    verdict = _replay(stream, stream, 2, phi=phi)
    assert not verdict.ok and verdict.event_index is None
    assert verdict.detail == (
        f"potential at node {node} is {phi[node]}, not {phi[node] - 1}"
    )


def test_run_stream_gives_every_verdict_from_its_one_read():
    # The chain evicts; every verdict passes, and the checks ride on the
    # pass's read of the stream.
    opened = open_edges(_chain_stream())
    reads = []

    def chunks():
        reads.append(len(reads))
        return opened.chunks()

    stream = LazyEdgeStream(opened.n, opened.m, chunks)
    _, plain = run_stream(stream, 2)
    assert plain.monitor_verdicts == {} and reads == [0]
    _, report = run_stream(stream, 2, monitors=True)
    assert report.monitor_verdicts == dict.fromkeys(
        ("phi_growth", "eviction_gap", "terminal_weights", "ratio_bound"), "pass"
    )
    assert reads == [0, 1]
    assert report.evictions_total >= 1


def test_a_one_shot_stream_gets_all_four_verdicts(monkeypatch):
    # Stdin can be read once, and its one read serves the pass and every
    # check: the chain evicts, and each verdict passes.
    chain = _chain_stream()
    monkeypatch.setattr("sys.stdin", byte_stdin(serialize_stream(chain)))
    stream = read_stream("-")
    _, report = run_stream(stream, 2, monitors=True)
    assert report.monitor_verdicts == dict.fromkeys(
        ("phi_growth", "eviction_gap", "terminal_weights", "ratio_bound"), "pass"
    )
    assert report.evictions_total >= 1
    assert report == run_stream(chain, 2, monitors=True)[1]
    with pytest.raises(ValueError, match="^stdin can be read only once$"):
        stream.chunks()


def test_ratio_bound_k_zero_is_two_alpha():
    params = compute_params(10, 2)
    assert ratio_factor(params, 0) == pytest.approx(2 * math.sqrt(2), rel=1e-12)


def test_ratio_bound_example_n10_eps2_k100():
    params = compute_params(10, 2)
    beta1 = ratio_factor(params, 100)
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
    beta1 = ratio_factor(params, n * n)
    assert beta1 <= float(2 + eps) + 1e-9


@pytest.mark.parametrize("k", [0, 16, 1000])
def test_ratio_bound_is_a_verdict_on_k_pushes(k):
    params = compute_params(4, 2)
    assert check_ratio_bound(params, k) == CheckVerdict(ok=True, checked=k)


def test_ratio_bound_clamps_excess_k_without_warning():
    params = compute_params(4, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta1 = ratio_factor(params, 1000)
        assert check_ratio_bound(params, 1000).ok
    assert beta1 == ratio_factor(params, 16)


def test_ratio_bound_raises_on_corrupt_params():
    bad = Params(
        n=10,
        epsilon=Fraction(2),
        alpha_sq=Fraction(2),
        gamma=1.0,  # far below n^2/ln(alpha): the compounding explodes
        queue_cap=25,
        ratio_bound=Fraction(4),
    )
    beta1 = ratio_factor(bad, 100)
    assert beta1 > 4
    assert check_ratio_bound(bad, 100) == CheckVerdict(
        ok=False, checked=100,
        detail=f"approximation factor {beta1!r} exceeds 4 + 1e-9",
    )
