import io
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import READ_PATHS, byte_stdin
from stream_mwm import cli, streamio
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
    ids=[
        "self-loop", "negative-weight", "endpoint-out-of-range", "weight-too-large",
        "two-fields", "non-int-field", "too-few-edges", "too-many-edges",
        "wrong-header-tag", "header-missing-a-count", "non-int-header-count",
        "negative-header-count", "missing-header",
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
@pytest.mark.parametrize(
    "read_path, where",
    [
        ("in-process", "first block"),
        # Only here is the fault in a second block, which a worker may read.
        ("in-process", "block boundary"),
        ("worker", "block boundary"),
        ("in-process", "later block"),
    ],
    indirect=["read_path"],
)
def test_file_and_stdin_lines_end_at_newline_only(
    tmp_path, monkeypatch, read_path, mark, where
):
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
    monkeypatch.setattr("sys.stdin", byte_stdin(text))
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


def _canonical_block(weights, seed, nodes=1000):
    """One ``_CHUNK_BYTES`` block of canonical lines on ``nodes`` nodes,
    weights drawn from ``weights``."""
    rng = random.Random(seed)
    lines, size = [], 0
    while size < streamio._CHUNK_BYTES:
        u, v = rng.sample(range(nodes), 2)
        lines.append(f"{u} {v} {rng.randrange(*weights)}\n")
        size += len(lines[-1])
    return "".join(lines)


@pytest.mark.parametrize(
    "weights, nodes",
    [((1000,), 1000), ((10**18, I64_MAX + 1), 1000), ((10,), 10)],
    ids=["short-lines", "19-digit", "one-digit"],
)
def test_bulk_check_memory_is_a_small_multiple_of_the_block(weights, nodes):
    # Beyond the list of ints it returns, the bulk path holds the JSON text
    # and, for its checks, copies of the two endpoint columns; a block's
    # check must not cost many blocks, or a run would no longer hold one
    # block of input. Three column slices kept beside the whole list took
    # 4.2 blocks on one-digit fields, where an int costs 8 bytes in a list
    # and 2 in the block; two endpoint copies take 2.7.
    block = _canonical_block(weights, seed=9, nodes=nodes)
    assert streamio._bulk_ints(block, 1000, len(block)) is not None
    tracemalloc.start()
    try:
        ints = streamio._bulk_ints(block, 1000, len(block))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ints is not None
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


def test_a_file_is_read_once_and_each_of_its_chunks_twice(tmp_path, read_path):
    # A parsed file gives one read, whose chunks, canonical blocks and
    # line-parsed ones alike, each iterate again as they did first, so
    # checks can ride on the pass's read. An in-memory edge list opens
    # anew for each read.
    text = serialize_stream(_er_blocks())
    path = tmp_path / "er.mwm"
    # Two comment lines send the first block down the line-by-line parse.
    path.write_text(text.replace("\n", "\nc a comment\n", 2), encoding="utf-8")
    lazy = read_stream(str(path))
    want = [tuple(e) for e in _er_blocks().edges]
    chunks = list(lazy.chunks())
    # A worker sends each chunk as packed ints, read as a view too.
    assert [type(c) for c in chunks] == [list, streamio._Triples]
    assert [e for c in chunks for e in c] == [e for c in chunks for e in c] == want
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} can be read only once$"):
        lazy.chunks()
    opened = streamio.open_edges(_er_blocks())
    assert list(opened.edges) == list(opened.edges) == want


def test_stdin_is_read_once(monkeypatch, read_path):
    # Several blocks: a worker may parse all but the first.
    monkeypatch.setattr("sys.stdin", byte_stdin(serialize_stream(_er_blocks())))
    lazy = read_stream("-")
    assert list(lazy.edges) == [tuple(e) for e in _er_blocks().edges]
    with pytest.raises(ValueError, match="^stdin can be read only once$"):
        lazy.chunks()


def test_every_parsed_input_is_read_once(tmp_path):
    text = "p mwm 3 2\n0 1 5\n1 2 8\n"
    path = tmp_path / "s.mwm"
    path.write_text(text, encoding="utf-8")
    lazy = read_stream(str(path))
    assert list(lazy.edges) == [(0, 1, 5), (1, 2, 8)]
    with pytest.raises(ValueError) as exc:
        lazy.chunks()
    assert str(exc.value) == f"{path} can be read only once"

    fifo = tmp_path / "s.fifo"
    os.mkfifo(fifo)
    # Opening a FIFO blocks until its other end is open, so a thread writes;
    # a daemon, so that a failure here cannot leave it blocking the exit.
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    lazy = read_stream(str(fifo))
    assert list(lazy.edges) == [(0, 1, 5), (1, 2, 8)]
    writer.join(timeout=10)
    assert not writer.is_alive()
    # Refused before the FIFO is opened again, which would block.
    with pytest.raises(ValueError) as exc:
        lazy.chunks()
    assert str(exc.value) == f"{fifo} can be read only once"


_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize(
    "text, encoding, code",
    [
        (b"p mwm 3 2\nc caf\xe9\n0 1 5\n1 2 8\n", None, 2),
        ("p mwm 3 2\nc café\n0 1 5\n1 2 8\n".encode(), "ascii", 0),
        (b"p mwm 3 2\r0 1 5\r1 2 8\r", None, 0),
    ],
    ids=["latin-1", "utf-8-under-ascii", "cr-lines"],
)
def test_stdin_is_decoded_as_a_path_is(tmp_path, text, encoding, code):
    # A run's report is a function of its input bytes, from stdin as from a
    # path: strict UTF-8 and universal newlines, whatever the environment's
    # encoding. In-process tests replace sys.stdin, so these runs are
    # processes of their own, with the file as their real stdin.
    path = tmp_path / "in.mwm"
    path.write_bytes(text)
    env = {**os.environ, "PYTHONPATH": _SRC}
    if encoding:
        env["PYTHONIOENCODING"] = encoding
    runs = []
    for source in (str(path), "-"):
        with open(path, "rb") as stdin:
            runs.append(subprocess.run(
                [sys.executable, "-m", "stream_mwm.cli", "run", "--input", source],
                stdin=stdin, capture_output=True, env=env, timeout=60,
            ))
    from_path, from_stdin = runs
    assert from_path.returncode == from_stdin.returncode == code
    assert from_path.stdout == from_stdin.stdout
    assert from_path.stderr == from_stdin.stderr


def test_a_closed_stdin_is_an_input_error():
    # A process started with fd 0 closed has no sys.stdin. Reading "-"
    # there is refused as an input error, exit code 2 with one error line,
    # not a traceback with exit code 1, which means a ratio violation.
    env = {**os.environ, "PYTHONPATH": _SRC}
    argv = [sys.executable, "-m", "stream_mwm.cli", "run", "--input", "-"]
    run = subprocess.run(
        ["sh", "-c", 'exec "$@" <&-', "sh", *argv],
        capture_output=True, env=env, timeout=60,
    )
    assert run.returncode == 2, run.stderr
    assert run.stdout == b""
    assert run.stderr == b"stream-mwm: error: stdin is closed\n"


#: 20,000 canonical lines of 6 bytes: line 11,000 starts past 64 KiB.
_BODY = [b"0 1 5\n"] * 20_000


#: Each line that is not UTF-8: its number, its bytes, the decoder's words
#: and the case's id.
_UNDECODABLE = [
    (1, b"p mwm\xff 2 20000\n", "0xff: invalid start byte", "header"),
    (1, b"c \xe9t\xe9\n", "0xe9: invalid continuation byte", "comment-before-header"),
    (3, b"c caf\xe9\n", "0xe9: invalid continuation byte", "comment"),
    (100, b"0 1 \xff\n", "0xff: invalid start byte", "first-block"),
    (15_000, b"0 \xe9 5\n", "0xe9: invalid continuation byte", "past-64k"),
    (19_999, b"0 1 \xed\xa0\x80\n", "0xed: invalid continuation byte", "encoded-surrogate"),
]


@pytest.mark.parametrize(
    "read_path, lineno, line, message",
    [
        pytest.param(path, lineno, line, message, id=f"{path}-{name}")
        for lineno, line, message, name in _UNDECODABLE
        # A fault in the first block ends the read before a worker could
        # start: only a later one is read on both paths.
        for path in (READ_PATHS if lineno > 11_000 else READ_PATHS[:1])
    ],
    indirect=["read_path"],
)
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_a_byte_that_is_not_utf8_is_named_by_its_line(
    tmp_path, monkeypatch, capsys, read_path, lineno, line, message, newline
):
    # The decoder's error named an offset into its current read, which moved
    # with the read pattern; the line is the same from a path and from
    # stdin, whatever the newlines and wherever the block boundaries fall.
    lines = [b"p mwm 2 20000\n", *_BODY]
    if lineno == 1 and not line.startswith(b"p"):
        lines.insert(0, line)
    else:
        lines[lineno - 1] = line
    data = b"".join(lines).replace(b"\n", newline)
    path = tmp_path / "bad.mwm"
    path.write_bytes(data)
    error = f"line {lineno}: 'utf-8' codec can't decode byte {message}"
    assert cli.main(["run", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"stream-mwm: error: {error}\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert cli.main(["run", "--input", "-"]) == 2
    assert capsys.readouterr() == ("", f"stream-mwm: error: {error}\n")
    # Lines decoded with surrogateescape, as os.fsdecode does, read the same.
    text = data.decode("utf-8", "surrogateescape").splitlines(keepends=True)
    with pytest.raises(StreamFormatError, match=f"^{re.escape(error)}$"):
        parse_stream(text)
