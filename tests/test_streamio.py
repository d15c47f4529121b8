import io
import os
import random
import re
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_mwm import streamio
from stream_mwm.core import I64_MAX, EdgeStream, StreamFormatError, WeightedEdge
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate
from stream_mwm.streamio import parse_stream, read_stream, serialize_stream


def test_parse_example():
    stream = parse_stream("p mwm 3 2\n0 1 5\n1 2 8\n".splitlines())
    assert stream.n == 3
    assert list(stream.edges) == [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 8)]


def test_parse_skips_comments_and_blanks():
    text = "c generated fixture\n\np mwm 2 1\nc body comment\n0 1 4\n"
    stream = parse_stream(text.splitlines())
    assert list(stream.edges) == [WeightedEdge(0, 1, 4)]


@pytest.mark.parametrize(
    "text, message",
    [
        ("p mwm 2 1\n0 0 3\n", "line 2: self-loop at node 0"),
        ("p mwm 2 1\n0 1 -4\n", "line 2: weight -4 outside [0, 2^63-1]"),
        ("p mwm 2 1\n0 5 1\n", "line 2: endpoint out of range for n=2: (0, 5)"),
        (
            "p mwm 2 1\n0 1 9223372036854775808\n",
            "line 2: weight 9223372036854775808 outside [0, 2^63-1]",
        ),
        ("p mwm 2 1\n0 1\n", "malformed edge line at line 2"),
        ("p mwm 2 1\n0 1 x\n", "malformed edge line at line 2"),
        ("p mwm 2 1\n", "declared 1 edges but found 0"),
        ("p mwm 2 1\n0 1 1\n0 1 2\n", "more than the declared 1 edges at line 3"),
        ("q mwm 2 1\n", "expected header"),
        ("p mwm 2\n", "expected header"),
        ("p mwm x 3\n", "malformed header at line 1"),
        ("p mwm -1 0\n", "negative header counts at line 1"),
        ("", "missing header"),
    ],
)
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(StreamFormatError, match=re.escape(message)):
        parse_stream(text.splitlines())


def test_weight_at_boundary_is_accepted():
    stream = parse_stream(["p mwm 2 1", f"0 1 {2**63 - 1}"])
    assert stream.edges[0].weight == 2**63 - 1


@settings(max_examples=100)
@given(
    n=st.integers(2, 30),
    data=st.data(),
)
def test_serialize_parse_roundtrip(n, data):
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 2**63 - 1)
            ).filter(lambda t: t[0] != t[1]),
            max_size=40,
        )
    )
    stream = EdgeStream(n, [WeightedEdge(*t) for t in edges])
    text = serialize_stream(stream)
    parsed = parse_stream(text.splitlines())
    assert parsed.n == stream.n
    assert list(parsed.edges) == list(stream.edges)
    assert serialize_stream(parsed) == text


def _fstring_serialize(stream):
    """The earlier serializer, one f-string a line: the oracle for the
    chunked ``%`` format."""
    out = [f"p mwm {stream.n} {len(stream.edges)}"]
    out.extend(f"{e.u} {e.v} {e.weight}" for e in stream.edges)
    return "\n".join(out) + "\n"


def _random_edges(count, n, seed):
    rng = random.Random(seed)
    edges = []
    while len(edges) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append(WeightedEdge(u, v, rng.choice([0, I64_MAX, rng.randrange(2**40)])))
    return edges


_CHUNK = streamio._CHUNK_LINES
SERIALIZE_CASES = {
    "empty": EdgeStream(2, []),
    "one-edge": EdgeStream(2, [WeightedEdge(1, 0, 9)]),
    "weight-bounds": EdgeStream(3, [WeightedEdge(0, 1, 0), WeightedEdge(2, 1, I64_MAX)]),
    "parallel-reversed": EdgeStream(
        4,
        [
            WeightedEdge(0, 1, 5),
            WeightedEdge(0, 1, 5),
            WeightedEdge(1, 0, 7),
            WeightedEdge(1, 0, 0),
            WeightedEdge(3, 2, 1),
            WeightedEdge(2, 3, 1),
        ],
    ),
    "one-chunk": EdgeStream(50, _random_edges(_CHUNK, 50, 1)),
    "chunk-plus-one": EdgeStream(50, _random_edges(_CHUNK + 1, 50, 2)),
    "three-chunks": EdgeStream(10**6, _random_edges(2 * _CHUNK + 17, 10**6, 3)),
}


@pytest.mark.parametrize("name", list(SERIALIZE_CASES))
def test_serialize_matches_the_fstring_join(name):
    stream = SERIALIZE_CASES[name]
    text = serialize_stream(stream)
    assert text == _fstring_serialize(stream)
    parsed = parse_stream(text.splitlines())
    assert parsed.n == stream.n
    assert list(parsed.edges) == list(stream.edges)
    assert all(type(e) is WeightedEdge for e in parsed.edges)
    assert serialize_stream(parsed) == text


def test_serialize_writes_bools_as_the_fstrings_did():
    # Not a valid stream, but %s and an f-string agree on bool, unlike %d.
    stream = EdgeStream(2, [WeightedEdge(True, False, True), WeightedEdge(0, 1, False)])
    assert serialize_stream(stream) == _fstring_serialize(stream)
    assert serialize_stream(stream).splitlines()[1] == "True False True"


def test_serialize_of_a_generated_stream_matches_the_fstring_join():
    spec = GeneratorSpec(
        kind=GeneratorKind.ERDOS_RENYI, n=3000, p=0.004, seed=11, weight_max=I64_MAX
    )
    stream = generate(spec)
    assert len(stream.edges) > 2 * _CHUNK
    assert serialize_stream(stream) == _fstring_serialize(stream)


@pytest.mark.parametrize(
    "mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
@pytest.mark.parametrize("where", ["first block", "block boundary", "later block"])
def test_file_and_stdin_lines_end_at_newline_only(tmp_path, monkeypatch, mark, where):
    # str.splitlines ends a line at each of these marks too; readlines, and
    # so every line number the parser gives, does not. A comment holding a
    # mark comes just before a self-loop.
    at = {"first block": 10, "block boundary": None, "later block": 9000}[where]
    edge = "0 1 5\n"
    if at is None:
        # The comment straddles the first block boundary.
        at = (streamio._CHUNK_BYTES - len("p mwm 2 0\n")) // len(edge) - 1
    lines = [edge] * at + [f"c a{mark}b\n", "1 1 7\n"] + [edge] * 20
    text = f"p mwm 2 {at + 21}\n" + "".join(lines)
    path = tmp_path / "marks.mwm"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as fp:
        bad = 1 + fp.readlines().index("1 1 7\n")
    assert bad == at + 3

    with pytest.raises(StreamFormatError, match=f"^line {bad}: self-loop at node 1$"):
        list(read_stream(str(path)).edges)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    with pytest.raises(StreamFormatError, match=f"^line {bad}: self-loop at node 1$"):
        list(read_stream("-").edges)


def test_a_line_longer_than_a_block_is_one_line(tmp_path):
    path = tmp_path / "long.mwm"
    comment = "c " + "x" * (3 * streamio._CHUNK_BYTES) + "\n"
    path.write_text(f"p mwm 3 2\n0 1 5\n{comment}1 2 8\n", encoding="utf-8")
    assert list(read_stream(str(path)).edges) == [(0, 1, 5), (1, 2, 8)]
    path.write_text(f"p mwm 3 2\n0 1 5\n{comment}1 1 8\n", encoding="utf-8")
    with pytest.raises(StreamFormatError, match="^line 4: self-loop at node 1$"):
        list(read_stream(str(path)).edges)


def _canonical_block(weights, seed):
    """One ``_CHUNK_BYTES`` block of canonical lines, weights drawn from
    ``weights``."""
    rng = random.Random(seed)
    lines, size = [], 0
    while size < streamio._CHUNK_BYTES:
        u, v = rng.sample(range(1000), 2)
        lines.append(f"{u} {v} {rng.randrange(*weights)}\n")
        size += len(lines[-1])
    return "".join(lines)


@pytest.mark.parametrize(
    "weights", [(1000,), (10**18, I64_MAX + 1)], ids=["short-lines", "19-digit"]
)
def test_bulk_check_memory_is_a_small_multiple_of_the_block(weights):
    # Beyond the columns it returns, the bulk path holds the JSON text and
    # the list of parsed ints (24 bytes a line); a block's check must not
    # cost many blocks, or a run would no longer hold one block of input.
    block = _canonical_block(weights, seed=9)
    assert streamio._bulk_columns(block, 1000, len(block)) is not None
    tracemalloc.start()
    try:
        columns = streamio._bulk_columns(block, 1000, len(block))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert columns is not None
    assert peak - kept < 4 * len(block)


def _three_edges():
    return EdgeStream(
        3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 8), WeightedEdge(0, 2, 4)]
    )


def _er_blocks():
    # About 10k edges: several blocks of _CHUNK_LINES lines.
    spec = GeneratorSpec(kind=GeneratorKind.ERDOS_RENYI, n=200, p=0.5, seed=2)
    return generate(spec)


@pytest.mark.parametrize("make", [_three_edges, _er_blocks], ids=["3-edge", "er"])
def test_bare_lines_take_the_bulk_path(tmp_path, monkeypatch, make):
    # parse_stream joins its elements into the blocks a file is read in, so
    # a canonical document parses in bulk whether or not its lines keep
    # their newlines, and never line by line.
    text = serialize_stream(make())
    path = tmp_path / "canonical.mwm"
    path.write_text(text, encoding="utf-8")

    def line_path(*args):
        raise AssertionError("a canonical block took the line path")

    monkeypatch.setattr(streamio, "_parse_lines", line_path)
    bare = parse_stream(text.splitlines())
    assert bare == parse_stream(text.splitlines(keepends=True))
    assert bare == EdgeStream.from_stream(read_stream(str(path))) == make()


def test_open_edges_is_the_one_door_to_checked_edges(tmp_path):
    # A stream read from a file is already checked and is handed on as it
    # is; an in-memory list is opened as chunks of checked triples.
    path = tmp_path / "s.mwm"
    path.write_text("p mwm 3 2\n0 1 5\n1 2 8\n", encoding="utf-8")
    lazy = read_stream(str(path))
    assert streamio.open_edges(lazy) is lazy
    opened = streamio.open_edges(EdgeStream(3, [(0, 1, True), (1, 2, 8)]))
    assert (opened.n, opened.m) == (3, 2)
    assert list(opened.chunks()) == [[(0, 1, 1), (1, 2, 8)]]


def test_each_read_of_a_stream_reads_it_again(tmp_path):
    text = serialize_stream(_er_blocks())
    path = tmp_path / "er.mwm"
    path.write_text(text, encoding="utf-8")
    lazy = read_stream(str(path))
    want = [tuple(e) for e in _er_blocks().edges]
    assert list(lazy.edges) == list(lazy.edges) == want
    opened = streamio.open_edges(_er_blocks())
    assert list(opened.edges) == list(opened.edges) == want


def test_a_file_whose_header_changed_is_not_read_again(tmp_path):
    path = tmp_path / "s.mwm"
    path.write_text("p mwm 3 2\n0 1 5\n1 2 8\n", encoding="utf-8")
    lazy = read_stream(str(path))
    assert list(lazy.edges) == [(0, 1, 5), (1, 2, 8)]
    for header in ("p mwm 4 2\n0 1 5\n1 2 8\n", "", "q mwm 3 2\n"):
        path.write_text(header, encoding="utf-8")
        with pytest.raises(StreamFormatError) as exc:
            lazy.chunks()
        assert str(exc.value) == f"{path}: header changed since the first read"


def test_a_file_whose_body_changed_is_not_read_again(tmp_path):
    # The header stays; the weights 5 and 8 become 500 and 800.
    path = tmp_path / "s.mwm"
    path.write_text("p mwm 4 2\n0 1 5\n2 3 8\n", encoding="utf-8")
    lazy = read_stream(str(path))
    assert sum(w for _, _, w in lazy.edges) == 13
    path.write_text("p mwm 4 2\n0 1 500\n2 3 800\n", encoding="utf-8")
    with pytest.raises(StreamFormatError) as exc:
        lazy.chunks()
    assert str(exc.value) == f"{path}: file changed since the first read"


def test_a_file_whose_mtime_changed_is_not_read_again(tmp_path):
    path = tmp_path / "s.mwm"
    path.write_text("p mwm 3 2\n0 1 5\n1 2 8\n", encoding="utf-8")
    lazy = read_stream(str(path))
    # Untouched, the file reads again as it read first.
    assert list(lazy.edges) == list(lazy.edges) == [(0, 1, 5), (1, 2, 8)]
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    with pytest.raises(StreamFormatError) as exc:
        lazy.chunks()
    assert str(exc.value) == f"{path}: file changed since the first read"


def test_stdin_is_read_once(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("p mwm 3 2\n0 1 5\n1 2 8\n"))
    lazy = read_stream("-")
    assert list(lazy.edges) == [(0, 1, 5), (1, 2, 8)]
    with pytest.raises(ValueError, match="^stdin can be read only once$"):
        lazy.chunks()


def test_only_a_regular_file_is_read_again(tmp_path, monkeypatch):
    text = "p mwm 3 2\n0 1 5\n1 2 8\n"
    path = tmp_path / "s.mwm"
    path.write_text(text, encoding="utf-8")
    assert read_stream(str(path)).one_shot is False
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert read_stream("-").one_shot is True

    fifo = tmp_path / "s.fifo"
    os.mkfifo(fifo)
    # Opening a FIFO blocks until its other end is open, so a thread writes;
    # a daemon, so that a failure here cannot leave it blocking the exit.
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    lazy = read_stream(str(fifo))
    assert lazy.one_shot is True
    assert list(lazy.edges) == [(0, 1, 5), (1, 2, 8)]
    writer.join(timeout=10)
    assert not writer.is_alive()
    # Refused before the FIFO is opened again, which would block.
    with pytest.raises(ValueError) as exc:
        lazy.chunks()
    assert str(exc.value) == f"{fifo} can be read only once"
