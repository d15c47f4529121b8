"""Edge input: the edge-list file format, parsed and serialized, and the
checks of in-memory edge lists.

The format is line-oriented and 0-indexed::

    p mwm <n> <m>
    <u> <v> <w>
    ...

The header declares the node count (needed before the first edge) and the
edge count, which must match the body exactly. Blank lines and lines
starting with ``c`` are ignored. Line order is arrival order.

A stream is a source that can be read again: each call of
`LazyEdgeStream.chunks()` starts a fresh, checked, in-order read of
``(u, v, w)`` int triples. `read_stream` reads a file's header when it
opens it, and the first read goes on from there; a later read opens the
file again, and refuses it if its header, its size or its modification
time changed. Stdin or a pipe can be read only once. A read takes the body a
block at a time (``_CHUNK_BYTES`` characters and the rest of the line
after them), so a run holds one block of input, not all m edges. A block
of canonical lines (``<u> <v> <w>`` in ASCII digits, one space apart,
newline-terminated) becomes ints in one C call (a JSON array) and is
checked in bulk: without its digits it must be ``"  \n"`` once per line,
and JSON refuses what that lets through (an empty field, ``1  2``) and a
leading zero. Any other block, or one that fails a bulk check, is parsed
line by line, so every accepted input and every error message is the same
either way. `parse_stream` joins any iterable of lines into blocks that
take the same path.

Every check of an edge lives in `check_edge`: endpoints below n and
distinct, weight in ``[0, 2^63-1]``, each an int (a bool or a numpy integer
becomes an exact ``int``). The parser adds only what the text needs (the
header, three int fields a line, no more edges than declared), so a bad
edge reads ``line N: ...`` from a file as from memory. `open_edges` is the
one way to checked edges: it hands a `LazyEdgeStream` on as it is and
opens an `EdgeStream` as one, whose reads check ``_CHUNK_EDGES`` edges a
chunk. The engine's pass checks nothing again, and only its matched edges
become `WeightedEdge`s. `EdgeStream.from_stream` copies one read.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from operator import eq, index
from typing import Callable, Iterable, Iterator

from .core import I64_MAX, EdgeStream, StreamFormatError, WeightedEdge

__all__ = ["LazyEdgeStream", "check_edge", "open_edges", "parse_stream",
           "serialize_stream", "read_stream"]

#: Characters of input per block read from a file or stdin.
_CHUNK_BYTES = 1 << 16
#: Lines per block joined from any other iterable of lines.
_CHUNK_LINES = 1 << 12
#: Edges per chunk taken from an in-memory edge list.
_CHUNK_EDGES = 1 << 9
#: Deletes the ASCII digits: what is left of a canonical line is ``"  \n"``.
_SEPARATORS = str.maketrans("", "", "0123456789")

Triple = tuple[int, int, int]


@dataclass
class LazyEdgeStream:
    """A stream parsed as it is read, which can be read again.

    Like an `EdgeStream` it has ``n``, ``m`` (from the header; the body must
    hold exactly ``m`` edges) and ``edges``, plain ``(u, v, w)`` int triples
    in arrival order. Each call of ``chunks()`` starts a fresh read of the
    body, as chunks of checked triples, and ``edges`` is one such read. A
    malformed line raises `StreamFormatError` from the read, and each read
    closes its own file. A ``one_shot`` input (stdin, a pipe) can be read
    once; a second read raises ``ValueError``.
    """

    n: int
    m: int
    chunks: Callable[[], Iterator[Iterable[Triple]]]
    one_shot: bool = False

    @property
    def edges(self) -> Iterator[Triple]:
        return chain.from_iterable(self.chunks())


def check_edge(edge: object, n: int) -> Triple:
    """Return ``edge`` as three exact ints ``(u, v, w)``, or raise
    `StreamFormatError`.

    ``edge`` must be a triple of distinct endpoints in ``[0, n)`` and a
    weight in ``[0, 2^63-1]``, each a value ``operator.index`` takes (an
    int, a bool, a numpy integer), not a float, `Fraction` or str.
    """
    try:
        u, v, w = edge
    except (TypeError, ValueError):
        raise StreamFormatError(f"edge {edge!r} is not a (u, v, w) triple") from None
    # A value that does not compare with ints ('5') fails a range test, and
    # an endpoint that is not an index (1.0) fails index().
    try:
        if not (0 <= u < n and 0 <= v < n):
            raise StreamFormatError(f"endpoint out of range for n={n}: ({u}, {v})")
        if u == v:
            raise StreamFormatError(f"self-loop at node {u}")
        if not (0 <= w <= I64_MAX):
            raise StreamFormatError(f"weight {w} outside [0, 2^63-1]")
        u, v = index(u), index(v)
    except TypeError:
        raise StreamFormatError(
            f"edge ({u!r}, {v!r}, {w!r}) is not made of ints"
        ) from None
    try:
        return u, v, index(w)
    except TypeError:
        raise StreamFormatError(f"weight {w!r} is not an int") from None


def open_edges(stream: EdgeStream | LazyEdgeStream) -> LazyEdgeStream:
    """The one way to checked edges: a `LazyEdgeStream` as it is, and an
    in-memory edge list as one whose reads check each edge, naming a bad
    one by its line in the file format, where line 1 is the header."""
    if isinstance(stream, LazyEdgeStream):
        return stream
    chunks = partial(_edge_chunks, stream.edges, stream.n)
    return LazyEdgeStream(stream.n, stream.m, chunks)


def _edge_chunks(edges: Iterable[object], n: int) -> Iterator[list[Triple]]:
    """``edges``, ``_CHUNK_EDGES`` at a time, each edge checked with
    `check_edge`."""
    it = iter(edges)
    lineno = 2
    for chunk in iter(lambda: list(islice(it, _CHUNK_EDGES)), []):
        rows: list[Triple] = []
        try:
            rows.extend(map(check_edge, chunk, repeat(n)))
        except StreamFormatError as exc:
            # extend keeps the rows checked before the bad edge.
            raise StreamFormatError(f"line {lineno + len(rows)}: {exc}") from None
        lineno += len(rows)
        yield rows


def parse_stream(lines: Iterable[str]) -> EdgeStream:
    """Parse the edge-list format; every error names the offending line.

    Each element is one line, whatever newlines it holds: one trailing
    "\n" is dropped and any other becomes a space, which the parser reads
    as the same whitespace.
    """
    parser = _parse(_line_blocks(lines))
    n, _ = next(parser)
    return EdgeStream(n, list(map(WeightedEdge._make, chain.from_iterable(parser))))


def _line_blocks(lines: Iterable[str]) -> Iterator[str]:
    """Join ``_CHUNK_LINES`` elements at a time, each made one line."""
    it = iter(lines)
    while chunk := list(islice(it, _CHUNK_LINES)):
        yield "".join([s.removesuffix("\n").replace("\n", " ") + "\n" for s in chunk])


def serialize_stream(stream: EdgeStream | LazyEdgeStream) -> str:
    """Canonical text form; `parse_stream` round-trips it exactly.

    ``edges`` is read once, in order, to its end, so a `LazyEdgeStream`
    whose body does not hold ``m`` edges raises as it does for the engine.
    Each run of ``_CHUNK_LINES`` edges is written by one ``%`` format of
    its flattened fields, so the temporary tuple stays small. ``%s`` writes
    an int, or a bool, exactly as an f-string does.
    """
    fields = chain.from_iterable(stream.edges)
    out = [f"p mwm {stream.n} {stream.m}\n"]
    while chunk := tuple(islice(fields, 3 * _CHUNK_LINES)):
        out.append(("%s %s %s\n" * (len(chunk) // 3)) % chunk)
    return "".join(out)


def read_stream(path: str) -> LazyEdgeStream:
    """Open a stream from a file path, or stdin when path is '-'; read its
    header now. A regular file is opened again for each read after the
    first, and refused by `StreamFormatError` unless its header, size and
    modification time are as before. Stdin and any other path (a FIFO, a
    pipe) are one-shot."""
    if path == "-":
        return _open(_parse(_blocks(sys.stdin)), "stdin", None)
    if not os.path.isfile(path):
        return _open(_read_file(path), path, None)
    stamp = _stamp(path)
    return _open(
        _read_file(path), path, partial(_read_file, path), lambda: _stamp(path) == stamp
    )


def _stamp(path: str) -> tuple[int, int]:
    """A file's size and modification time, in nanoseconds."""
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns


def _read_file(path: str) -> Iterator:
    with open(path, "r", encoding="utf-8") as fp:
        yield from _parse(_blocks(fp))


def _blocks(fp) -> Iterator[str]:
    """Read a text stream in blocks of whole lines: ``_CHUNK_BYTES``
    characters, then the rest of the line after them."""
    # A text stream with the default newline handling (our files, stdin)
    # ends each line at its one "\n", as readlines does. Even after a "\n",
    # readline makes a file's text wrapper drop its copies of the block.
    for block in iter(partial(fp.read, _CHUNK_BYTES), ""):
        block += fp.readline()
        yield block


def _lines(block: str) -> list[str]:
    """A block's lines, split after each "\n" only (str.splitlines splits
    on more)."""
    lines = block.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _open(
    parser: Iterator, name: str, reopen: Callable | None, unchanged: Callable | None = None
) -> LazyEdgeStream:
    """The stream whose first read goes on from ``parser``, past the header's
    ``(n, m)``; ``reopen``, if any, starts each later read, which the header
    and ``unchanged()`` must let through."""
    header = next(parser)
    first = [parser]

    def read() -> Iterator:
        if first:
            return first.pop()
        if reopen is None:
            raise ValueError(f"{name} can be read only once")
        again = reopen()
        try:
            same = next(again) == header
        except StreamFormatError:
            same = False
        if same and unchanged():
            return again
        again.close()
        what = "file" if same else "header"
        raise StreamFormatError(f"{name}: {what} changed since the first read")

    return LazyEdgeStream(*header, read, one_shot=reopen is None)


def _parse(blocks: Iterator[str]) -> Iterator:
    """Yield the header's ``(n, m)``, then the checked ``(u, v, w)``
    triples of each block of whole body lines."""
    n, declared_m, rest, lineno = _read_header(blocks)
    yield n, declared_m
    count = 0
    for block in chain([rest], blocks):
        if not block:
            continue
        columns = _bulk_columns(block, n, declared_m - count)
        if columns is None:
            lines = _lines(block)
            rows = _parse_lines(lines, n, declared_m, count, lineno)
            lineno += len(lines)
            count += len(rows)
        else:
            rows = zip(*columns)
            # A canonical block is one edge per line.
            lineno += len(columns[0])
            count += len(columns[0])
        yield rows
        # The next block is read and parsed without this one's rows.
        del rows, columns
    if count != declared_m:
        raise StreamFormatError(
            f"header declared {declared_m} edges but found {count} by line {lineno}"
        )


def _read_header(blocks: Iterator[str]) -> tuple[int, int, str, int]:
    """Find the header; return ``(n, m, rest of its block, its line number)``."""
    lineno = 0
    for block in blocks:
        lines = _lines(block)
        for i, raw in enumerate(lines):
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
            # The block resumes after the header's newline.
            return n, declared_m, block[sum(map(len, lines[: i + 1])) + i + 1 :], lineno
        lineno += len(lines)
    raise StreamFormatError("missing header 'p mwm <n> <m>'")


def _bulk_columns(block: str, n: int, room: int) -> tuple[list[int], ...] | None:
    """The ``(us, vs, ws)`` int columns of a block of canonical edge lines
    that pass every check, or None when the block needs the line-by-line
    parse, which names any fault."""
    # Without its digits a canonical line is two spaces and a newline. The
    # block must end in a newline: a last line of digits alone, unended,
    # adds no separator. The comparison also lets through a line with an
    # empty field ("1  2"), which JSON refuses below, as it refuses a
    # leading zero; int() refuses more digits than it accepts. Each leaves
    # the block to the line path.
    if not block.endswith("\n") or (
        block.translate(_SEPARATORS) != "  \n" * block.count("\n")
    ):
        return None
    # One C call turns the block into ints.
    try:
        ints = json.loads("[" + block[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:
        return None
    us, vs, ws = ints[0::3], ints[1::3], ints[2::3]
    if (
        len(us) > room
        or max(us) >= n
        or max(vs) >= n
        or max(ws) > I64_MAX
        or any(map(eq, us, vs))
    ):
        return None
    return us, vs, ws


def _parse_lines(
    lines: list[str], n: int, declared_m: int, count: int, lineno: int
) -> list[Triple]:
    """Parse body lines one by one; ``count`` edges and ``lineno`` lines
    precede them."""
    rows: list[Triple] = []
    for lineno, raw in enumerate(lines, start=lineno + 1):
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
        if count + len(rows) >= declared_m:
            raise StreamFormatError(
                f"more than the declared {declared_m} edges at line {lineno}"
            )
        try:
            rows.append(check_edge((u, v, w), n))
        except StreamFormatError as exc:
            raise StreamFormatError(f"line {lineno}: {exc}") from None
    return rows
