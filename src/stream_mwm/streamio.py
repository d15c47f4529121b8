"""Edge-list file format: parsing and serialization.

The format is line-oriented and 0-indexed::

    p mwm <n> <m>
    <u> <v> <w>
    ...

The header declares the node count (needed before the first edge) and the
edge count, which must match the body exactly. Blank lines and lines
starting with ``c`` are ignored. Line order is arrival order.

`read_stream` parses as the edges are consumed: it reads the header, then
the body a chunk of lines at a time, so a run holds one chunk of input, not
all m edges. A chunk made only of canonical lines (``<u> <v> <w>`` in ASCII
digits, one space apart, newline-terminated) is converted to ints in one C
call (a JSON array) and checked in bulk; any other chunk, or one that fails
a bulk check (a number with a leading zero, say), is parsed line by line,
so every accepted input and every error message is the same either way.
`read_stream` yields plain int triples, so on a run only the engine's
matched edges become `WeightedEdge`s; `parse_stream` materializes the same
parse into an `EdgeStream` of them.
"""

from __future__ import annotations

import json
import re
import sys
from functools import partial
from itertools import chain, islice, repeat
from typing import Iterable, Iterator

from .core import I64_MAX, EdgeStream, StreamFormatError, WeightedEdge

__all__ = ["LazyEdgeStream", "parse_stream", "serialize_stream", "read_stream"]

#: Bytes of input per chunk read from a file (a size hint to ``readlines``).
_CHUNK_BYTES = 1 << 16
#: Lines per chunk taken from any other iterable of lines.
_CHUNK_LINES = 1 << 12
_CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+\n)*")

Triple = tuple[int, int, int]


class LazyEdgeStream:
    """A stream parsed as it is consumed.

    ``n`` comes from the header, which is read when the stream is opened.
    ``edges`` is a one-shot iterator of plain ``(u, v, w)`` int triples, each
    checked against the header before it comes out; a malformed body line
    raises `StreamFormatError` from the iteration, with the message
    `parse_stream` gives for it. The input file is closed when ``edges`` is
    exhausted or fails, or by `close`.
    """

    def __init__(self, n: int, chunks: Iterator[Iterable[Triple]]) -> None:
        self.n = n
        self._chunks = chunks
        self.edges: Iterator[Triple] = chain.from_iterable(chunks)

    def materialize(self) -> EdgeStream:
        """Read the rest of the input into an `EdgeStream` of `WeightedEdge`s."""
        return EdgeStream(self.n, list(map(WeightedEdge._make, self.edges)))

    def close(self) -> None:
        self._chunks.close()


def parse_stream(lines: Iterable[str]) -> EdgeStream:
    """Parse the edge-list format; every error names the offending line."""
    it = iter(lines)
    chunks = iter(lambda: list(islice(it, _CHUNK_LINES)), [])
    return _open(_parse(chunks, check_lines=True)).materialize()


def serialize_stream(stream: EdgeStream) -> str:
    """Canonical text form; `parse_stream` round-trips it exactly."""
    out = [f"p mwm {stream.n} {len(stream.edges)}"]
    out.extend(f"{e.u} {e.v} {e.weight}" for e in stream.edges)
    return "\n".join(out) + "\n"


def read_stream(path: str) -> LazyEdgeStream:
    """Open a stream from a file path, or stdin when path is '-'.

    The header is read now; the body is read as ``edges`` is consumed.
    """
    if path == "-":
        return _open(_parse(_file_chunks(sys.stdin), check_lines=False))
    return _open(_read_file(path))


def _read_file(path: str) -> Iterator:
    with open(path, "r", encoding="utf-8") as fp:
        yield from _parse(_file_chunks(fp), check_lines=False)


def _file_chunks(fp) -> Iterator[list[str]]:
    # A text stream with the default newline handling (our files, stdin)
    # ends each line at its one newline, so each element is one whole line.
    return iter(partial(fp.readlines, _CHUNK_BYTES), [])


def _open(parser: Iterator) -> LazyEdgeStream:
    # The parser's first item is the node count from the header.
    return LazyEdgeStream(next(parser), parser)


def _parse(chunks: Iterator[list[str]], check_lines: bool) -> Iterator:
    """Yield the node count from the header, then one iterable of validated
    triples per chunk of body lines. ``check_lines`` makes the bulk path
    first check that each chunk element is one newline-terminated line."""
    n, declared_m, rest, lineno = _read_header(chunks)
    yield n
    count = 0
    for chunk in chain([rest], chunks):
        if not chunk:
            continue
        columns = _bulk_columns(chunk, n, declared_m - count, check_lines)
        if columns is None:
            edges: Iterable[Triple] = _parse_lines(chunk, n, declared_m, count, lineno)
            count += len(edges)
        else:
            edges = zip(*columns)
            count += len(columns[0])
        lineno += len(chunk)
        yield edges
    if count != declared_m:
        raise StreamFormatError(
            f"header declared {declared_m} edges but found {count} by line {lineno}"
        )


def _read_header(chunks: Iterator[list[str]]) -> tuple[int, int, list[str], int]:
    """Find the header; return ``(n, m, rest of its chunk, its line number)``."""
    lineno = 0
    for chunk in chunks:
        for i, raw in enumerate(chunk):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            lineno += i + 1
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
            return n, declared_m, chunk[i + 1 :], lineno
        lineno += len(chunk)
    raise StreamFormatError("missing header 'p mwm <n> <m>'")


def _bulk_columns(
    chunk: list[str], n: int, room: int, check_lines: bool
) -> tuple[list[int], list[int], list[int]] | None:
    """The ``(us, vs, ws)`` columns of a chunk of canonical edge lines that
    pass every check, or None when the chunk needs the line-by-line parse."""
    text = "".join(chunk)
    if not _CANONICAL.fullmatch(text):
        return None
    if check_lines and not (
        text.count("\n") == len(chunk) and all(map(str.endswith, chunk, repeat("\n")))
    ):
        return None
    # One C call turns the chunk into ints. JSON rejects a leading zero,
    # and int() more digits than it accepts: both leave it to the line path.
    try:
        ints = json.loads("[" + text[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:
        return None
    us, vs, ws = ints[0::3], ints[1::3], ints[2::3]
    if (
        len(us) > room
        or max(us) >= n
        or max(vs) >= n
        or max(ws) > I64_MAX
        or not all(map(int.__ne__, us, vs))
    ):
        return None
    return us, vs, ws


def _parse_lines(
    chunk: list[str], n: int, declared_m: int, count: int, lineno: int
) -> list[Triple]:
    """Parse body lines one by one; ``count`` edges and ``lineno`` lines
    precede the chunk."""
    edges: list[Triple] = []
    for lineno, raw in enumerate(chunk, start=lineno + 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise StreamFormatError(f"malformed edge line at line {lineno}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise StreamFormatError(f"malformed edge line at line {lineno}") from None
        if count + len(edges) >= declared_m:
            raise StreamFormatError(
                f"more than the declared {declared_m} edges at line {lineno}"
            )
        if not (0 <= u < n and 0 <= v < n):
            raise StreamFormatError(f"endpoint out of range at line {lineno}")
        if u == v:
            raise StreamFormatError(f"self-loop at line {lineno}")
        if w < 0:
            raise StreamFormatError(f"negative weight at line {lineno}")
        if w > I64_MAX:
            raise StreamFormatError(f"weight exceeds 2^63-1 at line {lineno}")
        edges.append((u, v, w))
    return edges
