"""Every reader of a stream takes any stream: `n`, `m` and one in-order read
of `edges`.

The reference solvers and `check_terminal_weights` must give the same
matchings and verdicts on an `EdgeStream` of plain ``(u, v, w)`` tuples as
on one of `WeightedEdge`s, ties and parallel copies included, and the same
on a file read as it is consumed (`read_stream`) as on that file read into
memory first. `serialize_stream` must write a streamed file back byte for
byte, and fail as the engine does on a body that does not match its header.
"""

from fractions import Fraction

import pytest

from conftest import checked_pass, random_multigraph_stream, random_simple_stream
from test_golden import HUB_EPS, _er, _hub

from stream_mwm.core import (
    CapacityError,
    EdgeStream,
    StreamFormatError,
    WeightedEdge,
)
from stream_mwm.engine import run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate
from stream_mwm.monitors import check_terminal_weights
from stream_mwm.reference import exact_mwm, greedy_sorted, mwm_simple
from stream_mwm.streamio import read_stream, serialize_stream

SOLVERS = (mwm_simple, greedy_sorted, exact_mwm)
HALF = Fraction(1, 2)


def _corpus():
    """(stream, epsilon) by name: seeded simple graphs and multigraphs (the
    ``ties`` ones with weights in {0, 1, 2}), the contended hubs, an
    evicting geometric chain and an Erdos-Renyi graph at the exact
    solver's 22-node cap."""
    corpus = {"empty": (EdgeStream(5, []), HALF)}
    for seed in range(30):
        corpus[f"simple{seed}"] = (random_simple_stream(seed, max_n=12), HALF)
        corpus[f"multi{seed}"] = (random_multigraph_stream(seed, max_n=12), 2)
        corpus[f"ties{seed}"] = (
            random_multigraph_stream(seed + 100, max_n=8, max_weight=2), HALF
        )
    for seed in range(10):
        corpus[f"hub{seed}"] = (_hub(seed), HUB_EPS)
    chain = generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=22))
    corpus["chain22"] = (chain, 2)
    corpus["er22"] = (_er(22, 0.5, 7), HALF)
    return corpus


CORPUS = _corpus()


def _tuples(stream: EdgeStream) -> EdgeStream:
    return EdgeStream(stream.n, [tuple(e) for e in stream.edges])


def _evidence(stream, eps):
    """What `run_stream` hands `check_terminal_weights` besides the edges,
    after a pass over ``stream``: its arena rows, potentials and
    parameters."""
    state, _ = checked_pass(stream, eps)
    return list(state.rows()), state.phi, state.params


def _replay(g, rows, phi, params):
    """`check_terminal_weights` of ``g``'s edges, as one chunk."""
    return check_terminal_weights([(g.edges, rows)], phi, params)


def _outcome(verdict):
    # The detail names an edge by its repr, which differs by edge type.
    return verdict.ok, verdict.checked, verdict.event_index


def test_edge_stream_m_is_its_edge_count():
    stream, _ = CORPUS["multi3"]
    assert stream.m == len(stream.edges) > 0
    assert EdgeStream(4, []).m == 0


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_plain_tuples_give_the_same_matchings(name):
    stream, _ = CORPUS[name]
    plain = _tuples(stream)
    for solver in SOLVERS:
        got, want = solver(plain), solver(stream)
        assert got == want, solver.__name__
        # Only the matched edges are wrapped, and every one of them is.
        assert all(type(e) is WeightedEdge for e in got.edges), solver.__name__


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_plain_tuples_give_the_same_terminal_verdicts(name):
    stream, eps = CORPUS[name]
    evidence = _evidence(stream, eps)
    want = _replay(stream, *evidence)
    assert want.ok and want.checked == stream.m
    assert _replay(_tuples(stream), *evidence) == want


@pytest.mark.parametrize("name", ["er22", "hub3", "multi5", "ties8"])
def test_plain_tuples_give_the_same_failing_verdicts(name):
    stream, eps = CORPUS[name]
    state, model = checked_pass(stream, eps)
    rows, phi, params = list(state.rows()), state.phi, state.params
    # The model has one light or pushed event per edge, in stream order.
    kinds = [kind for kind, *_ in model.events if kind != "evicted"]
    light = kinds.index("light")
    # A live row's reduced weight one too large; an evicted row reads 0.
    live = next(i for i, row in enumerate(rows) if row[3])
    u, v, w, reduced = rows[live]
    # A light edge made heavy in the replay: the re-run pushes it, and the
    # pass has no arena row for it.
    edges = list(stream.edges)
    edges[light] = WeightedEdge(edges[light][0], edges[light][1], 10**12)
    cases = {
        "push": (stream, rows[:live] + [(u, v, w, reduced + 1)] + rows[live + 1:]),
        "light": (EdgeStream(stream.n, edges), rows),
    }
    for kind, (g, corrupt) in cases.items():
        want = _replay(g, corrupt, phi, params)
        assert not want.ok, kind
        got = _replay(_tuples(g), corrupt, phi, params)
        assert _outcome(got) == _outcome(want), kind


@pytest.fixture
def stream_file(tmp_path):
    """Write a stream to a file; return its path and text."""
    def write(stream):
        text = serialize_stream(stream)
        path = tmp_path / "stream.mwm"
        path.write_text(text, encoding="utf-8")
        return str(path), text
    return write


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_a_streamed_file_reads_as_its_materialized_stream(name, stream_file):
    stream, eps = CORPUS[name]
    path, text = stream_file(stream)
    for solver in SOLVERS:
        got = solver(read_stream(path))
        assert got == solver(EdgeStream.from_stream(read_stream(path))), solver.__name__
        assert got == solver(stream), solver.__name__
    evidence = _evidence(read_stream(path), eps)
    want = _replay(EdgeStream.from_stream(read_stream(path)), *evidence)
    assert want.ok
    assert _replay(read_stream(path), *evidence) == want
    # The engine's replay reads the file's own chunks, in the run's one read.
    _, report = run_stream(read_stream(path), eps, monitors=True)
    assert report.monitor_verdicts["terminal_weights"] == "pass"
    assert serialize_stream(read_stream(path)) == text


@pytest.mark.parametrize(
    "text, message",
    [
        ("p mwm 4 5\n0 1 5\n1 2 6\n2 3 7\n", "header declared 5 edges but found 3"),
        ("p mwm 4 1\n0 1 5\n1 2 6\n", "more than the declared 1 edges at line 3"),
        ("p mwm 4 2\n0 1 5\n2 2 6\n", "line 3: self-loop at node 2"),
    ],
    ids=["short", "long", "self-loop"],
)
def test_every_reader_refuses_a_bad_body(tmp_path, text, message):
    path = tmp_path / "bad.mwm"
    path.write_text(text, encoding="utf-8")
    readers = SOLVERS + (serialize_stream, lambda s: run_stream(s, HALF))
    for reader in readers:
        with pytest.raises(StreamFormatError, match=message):
            reader(read_stream(str(path)))


def test_exact_checks_its_node_cap_before_reading_an_edge(tmp_path):
    path = tmp_path / "n30.mwm"
    path.write_text("p mwm 30 2\n0 0 5\n1 2 6\n", encoding="utf-8")
    with pytest.raises(CapacityError, match="at most 22 nodes, got 30"):
        exact_mwm(read_stream(str(path)))
