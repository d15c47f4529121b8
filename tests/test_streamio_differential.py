"""Differential tests: the chunked parser against the line-by-line parser it
replaced, on inputs that mix canonical edge lines with every line form that
leaves the bulk path, with faults on both sides of chunk boundaries."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import byte_stdin
from stream_mwm import streamio
from stream_mwm.core import I64_MAX, EdgeStream, StreamFormatError, WeightedEdge
from stream_mwm.streamio import parse_stream, read_stream


def reference_parse_stream(lines):
    """The line-by-line parser that the chunked one replaced, kept verbatim
    but for the wording of a bad value, which is now `check_edge`'s behind
    the line number."""
    n: int | None = None
    declared_m = 0
    edges: list[WeightedEdge] = []
    last_line = 0
    for lineno, raw in enumerate(lines, start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "mwm":
                raise StreamFormatError(
                    f"expected header 'p mwm <n> <m>' at line {lineno}"
                )
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise StreamFormatError(f"malformed header at line {lineno}") from None
            if n < 0 or declared_m < 0:
                raise StreamFormatError(f"negative header counts at line {lineno}")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise StreamFormatError(f"malformed edge line at line {lineno}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise StreamFormatError(f"malformed edge line at line {lineno}") from None
        if len(edges) >= declared_m:
            raise StreamFormatError(
                f"more than the declared {declared_m} edges at line {lineno}"
            )
        if not (0 <= u < n and 0 <= v < n):
            raise StreamFormatError(
                f"line {lineno}: endpoint out of range for n={n}: ({u}, {v})"
            )
        if u == v:
            raise StreamFormatError(f"line {lineno}: self-loop at node {u}")
        if not 0 <= w <= I64_MAX:
            raise StreamFormatError(f"line {lineno}: weight {w} outside [0, 2^63-1]")
        edges.append(WeightedEdge(u, v, w))
    if n is None:
        raise StreamFormatError("missing header 'p mwm <n> <m>'")
    if len(edges) != declared_m:
        raise StreamFormatError(
            f"header declared {declared_m} edges but found {len(edges)} "
            f"by line {last_line}"
        )
    return EdgeStream(n, edges)


NODES = 40

#: Lines the parser accepts that are not in canonical form, or are canonical
#: with a leading zero, which the bulk path's JSON conversion rejects: each
#: sends its chunk down the line-by-line path.
ACCEPTED = [
    "c a comment",
    "",
    "   ",
    "0\t1\t5",
    "0 1 5\r",
    "  2   3   7  ",
    "+1 2 3",
    "1_0 2 3",
    "١ 2 3",  # ARABIC-INDIC DIGIT ONE
    "0 1 -0",
    "0 1 " + "0" * 30,
    f"0 1 {I64_MAX}",
    "01 2 3",
    "0 1 007",
    f"0 1 000{I64_MAX}",
]

#: Lines the parser rejects. The canonical ones pass the bulk separator
#: check and fail a later bulk check instead. A line with an empty field
#: ("1  2") has the two spaces of a canonical line and passes the separator
#: check too; the JSON conversion must refuse it.
FAULTS = [
    f"0 {NODES} 1",
    f"{NODES} 1 1",
    f"{NODES + 7} 1 1",
    "3 3 1",
    f"0 1 {I64_MAX + 1}",
    "0 1 -4",
    "-1 1 4",
    "0 1",
    "0 1 2 3",
    "x y z",
    "0 1 1.5",
    "p mwm 3 3",
    "0 1 " + "9" * 5000,  # too many digits for int() on Python 3.11+
    "1  2",
    " 1 2",
    "1 2 ",
    "12",  # no separator at all: unended, it adds none to a block
]


def _canonical_lines(rng, count):
    out = []
    for _ in range(count):
        u, v = rng.sample(range(NODES), 2)
        w = rng.choice((rng.randrange(1000), rng.randrange(I64_MAX + 1)))
        out.append(f"{u} {v} {w}")
    return out


def _edge_attempts(body):
    return sum(1 for line in body if line.strip() and not line.strip().startswith("c"))


def _document(prefix, body, m_delta, trailing_newline):
    m = max(0, _edge_attempts(body) + m_delta)
    text = "\n".join(prefix + [f"p mwm {NODES} {m}"] + body)
    return text + "\n" if trailing_newline else text


def _outcome(parse):
    try:
        stream = parse()
    except StreamFormatError as exc:
        return "error", str(exc)
    return stream.n, [tuple(e) for e in stream.edges]


def _drain(lazy):
    return EdgeStream(lazy.n, list(lazy.edges))


def _assert_same_everywhere(text, path):
    """Every input path of the new parser agrees with the reference."""
    expected = _outcome(lambda: reference_parse_stream(text.splitlines(keepends=True)))
    for lines in (text.splitlines(keepends=True), text.splitlines()):
        assert _outcome(lambda: parse_stream(lines)) == expected

    # A file and stdin are read alike, with universal newlines, so a "\r"
    # ends a line in either.
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as fp:
        from_file = _outcome(lambda: reference_parse_stream(fp))
    assert _outcome(lambda: _drain(read_stream(str(path)))) == from_file
    with mock.patch("sys.stdin", byte_stdin(text)):
        assert _outcome(lambda: _drain(read_stream("-"))) == from_file
    return expected


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "stream.mwm"


#: Filler lengths: a few lines; around the first boundary of a list of
#: lines (4096 lines after the header); or anywhere up to past the first
#: boundary of a file (64 KiB after the header, about 3,600 of these lines).
_FILLER = st.one_of(
    st.integers(0, 4),
    st.integers(4088, 4100),
    st.integers(0, 4600),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    prefix=st.lists(st.sampled_from(["c header comment", "", "  "]), max_size=3),
    blocks=st.lists(
        st.tuples(_FILLER, st.sampled_from(ACCEPTED + FAULTS)), max_size=3
    ),
    tail=st.integers(0, 50),
    m_delta=st.sampled_from([-2, -1, 0, 0, 0, 0, 1, 2]),
    trailing_newline=st.booleans(),
)
def test_chunked_parser_matches_line_by_line(
    scratch_file, seed, prefix, blocks, tail, m_delta, trailing_newline
):
    rng = random.Random(seed)
    body = []
    for filler, special in blocks:
        body += _canonical_lines(rng, filler)
        body.append(special)
    body += _canonical_lines(rng, tail)
    _assert_same_everywhere(
        _document(prefix, body, m_delta, trailing_newline), scratch_file
    )


def _file_chunk_lengths(path):
    """The line counts of the blocks a file is read in: the header's line
    alone, then ``_CHUNK_BYTES`` characters and the rest of their line at a
    time."""
    with open(path, encoding="utf-8") as fp:
        fp.readline()
        blocks = iter(lambda: fp.readlines(streamio._CHUNK_BYTES), [])
        return [1] + [len(c) for c in blocks]


@pytest.mark.parametrize(
    "special", ["0 1 -4", "3 3 1", "c comment", "0\t1\t5", "0 1 007"]
)
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_special_line_at_each_side_of_a_chunk_boundary(scratch_file, special, offset):
    rng = random.Random(7)
    # The header is line 1, read alone; the body runs a few lines past both
    # boundaries.
    body = _canonical_lines(rng, streamio._CHUNK_LINES + 8)
    scratch_file.write_text(_document([], body, 0, True), encoding="utf-8")
    lengths = _file_chunk_lengths(scratch_file)
    file_boundary = sum(lengths[:2])
    # The reader's first block of the file ends at that line: each edge of
    # its first chunk is one line, after the header's.
    chunks = read_stream(str(scratch_file)).chunks()
    assert 1 + len(list(next(chunks))) == file_boundary < 1 + len(body)
    chunks.close()
    for boundary in (1 + streamio._CHUNK_LINES, file_boundary):
        # Line numbers count from 1 and the header is line 1, so body index
        # i is line i + 2; put the special line at line boundary + offset.
        at = boundary + offset - 2
        spliced = body[:at] + [special] + body[at + 1 :]
        expected = _assert_same_everywhere(
            _document([], spliced, 0, True), scratch_file
        )
        if special in FAULTS:
            # Both faults here are bad values, named as check_edge names them.
            assert expected == ("error", expected[1])
            assert expected[1].startswith(f"line {boundary + offset}: ")


@pytest.mark.parametrize("m_delta", [-1, 1])
def test_declared_count_off_by_one_across_chunks(scratch_file, m_delta):
    body = _canonical_lines(random.Random(3), streamio._CHUNK_LINES + 5)
    expected = _assert_same_everywhere(_document([], body, m_delta, True), scratch_file)
    assert expected[0] == "error"


def test_header_after_a_full_chunk_of_comments(scratch_file):
    prefix = ["c filler"] * (streamio._CHUNK_LINES + 1)
    body = _canonical_lines(random.Random(5), 100)
    n, edges = _assert_same_everywhere(_document(prefix, body, 0, True), scratch_file)
    assert len(edges) == 100


def test_header_after_more_than_a_file_block_of_comments(scratch_file):
    # The header is found past the first block of a file or of stdin, and
    # past the first two blocks of a list of lines.
    prefix = ["c filler"] * (2 * streamio._CHUNK_BYTES // len("c filler\n"))
    assert len(prefix) > 2 * streamio._CHUNK_LINES
    body = _canonical_lines(random.Random(5), 100)
    n, edges = _assert_same_everywhere(_document(prefix, body, 0, True), scratch_file)
    assert len(edges) == 100
    body[40] = "3 3 1"
    expected = _assert_same_everywhere(_document(prefix, body, 0, True), scratch_file)
    assert expected == ("error", f"line {len(prefix) + 42}: self-loop at node 3")


@pytest.mark.parametrize(
    "text, want",
    [
        ("p mwm 3 0", (3, [])),
        ("p mwm 3 1", ("error", "header declared 1 edges but found 0 by line 1")),
        ("p mwm 3 2\r\n0 1 5\r\n1 2 8\r\n", (3, [(0, 1, 5), (1, 2, 8)])),
        ("p mwm 3 2\r\n0 1 5\r\n1 1 8\r\n", ("error", "line 3: self-loop at node 1")),
        ("\n  \nc a comment\n\np mwm 3 2\n0 1 5\n1 2 8\n", (3, [(0, 1, 5), (1, 2, 8)])),
        ("\nc a comment\np mwm 3 1\n1 1 8\n", ("error", "line 4: self-loop at node 1")),
    ],
    ids=["unended", "unended-short", "crlf", "crlf-fault", "blank-and-comment",
         "comment-fault"],
)
def test_each_header_shape_reads_the_same_everywhere(scratch_file, text, want):
    assert _assert_same_everywhere(text, scratch_file) == want


def test_a_canonical_body_after_the_header_never_parses_line_by_line(
    scratch_file, monkeypatch
):
    # The body's first block starts on the line after the header, so a
    # canonical body is bulk-parsed from its first line on, from a list of
    # lines, a file and stdin.
    def line_path(*args):
        raise AssertionError("a canonical block took the line path")

    monkeypatch.setattr(streamio, "_parse_lines", line_path)
    for count in (1, 100, streamio._CHUNK_LINES + 100):
        body = _canonical_lines(random.Random(count), count)
        n, edges = _assert_same_everywhere(_document([], body, 0, True), scratch_file)
        assert len(edges) == count


@pytest.mark.parametrize(
    "lines",
    [
        ["p mwm 3 2\n", "0 1 5\n1 2 8\n"],
        ["p mwm 3 2\n", "0 1 5\n1 2 8\n", ""],
        ["p mwm 3 3\n", "0 1 5\n1 2 8\n", "", "0 2 4\n"],
        ["p mwm 3 1\n", "0 1 ", "5\n"],
        ["p mwm 3 2\n", "0 1 5", "1 2 8\n"],
        ["p mwm 3 1\n", "\nc x\n", "0 1 5\n"],
        # A comment element hides an edge: the count is short by line 2.
        ["p mwm 3 1\n", "c x\n0 1 5\n"],
        # An edge split by an inner newline is one line, and accepted.
        ["p mwm 3 1\n", "0 1\n5\n"],
        ["p mwm 3 2\n", "0 1 5\r\n1 2 8"],
        ["p mwm 3 1\n", "0 1 5\n\n"],
        ["p mwm\n3 1", "0 1 5"],
        ["\n", "p mwm 3 1\n", "0\t1 5\x0b\n"],
    ],
)
def test_list_elements_are_lines_even_when_they_hold_newlines(lines):
    # Each element of the iterable is one line, whatever newlines it holds.
    expected = _outcome(lambda: reference_parse_stream(lines))
    assert _outcome(lambda: parse_stream(lines)) == expected


def test_parse_stream_still_returns_weighted_edges():
    stream = parse_stream(["p mwm 3 2\n", "0 1 5\n", "1 2 8\n"])
    assert all(type(e) is WeightedEdge for e in stream.edges)


@pytest.mark.parametrize("special", ACCEPTED + FAULTS)
def test_each_special_line_inside_a_canonical_block(scratch_file, special):
    # Every special line, not only those hypothesis draws, sends its block
    # to the line path with the reference's outcome; a fault fails there.
    body = _canonical_lines(random.Random(11), 50)
    body[20] = special
    expected = _assert_same_everywhere(_document([], body, 0, True), scratch_file)
    assert (expected[0] == "error") == (special in FAULTS)


@pytest.mark.parametrize("filler", [0, 50])
@pytest.mark.parametrize("special", ACCEPTED + FAULTS)
def test_each_special_line_last_with_no_final_newline(scratch_file, special, filler):
    # The last line ends the document unended: in the rest of the header's
    # block (no filler) or in the last block of a file or of stdin.
    body = _canonical_lines(random.Random(13), filler) + [special]
    expected = _assert_same_everywhere(_document([], body, 0, False), scratch_file)
    assert (expected[0] == "error") == (special in FAULTS)
