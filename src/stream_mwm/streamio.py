"""Edge input: the edge-list file format, parsed and serialized, and the
checks of in-memory edge lists.

The format is line-oriented and 0-indexed::

    p mwm <n> <m>
    <u> <v> <w>
    ...

The header declares the node count (needed before the first edge) and the
edge count, which must match the body exactly. Blank lines and lines
starting with ``c`` are ignored. Line order is arrival order.

A parsed input is read once, in order, front to back: `read_stream` reads
the header of a file or of stdin when it opens it, line by line up to the
header's own line, and the stream's `LazyEdgeStream.chunks()` goes on from
the next line as a checked, in-order read of ``(u, v, w)`` int triples; a
second call raises ``ValueError``. A read takes the body a block at a time
(``_CHUNK_BYTES`` characters and the rest of the line after them), the
first block starting after the header, so a run holds one block of input,
not all m edges. A block of canonical lines (``<u> <v> <w>`` in ASCII
digits, one space apart, newline-terminated) becomes ints in one C call (a
JSON array) and is checked in bulk: without its digits it must be
``"  \n"`` once per line, and JSON refuses what that lets through (an
empty field, ``1  2``) and a leading zero. Its chunk is a view of the int
list, three to an edge, that can be iterated again, so a pass and the
checks that ride on it read the same chunk, and the block is never copied
into tuples. Any other block, or one that fails a bulk check, is parsed
line by line, so every accepted input and every error message is the same
either way.
`parse_stream` reads its header from its elements in the same way, and
joins the elements after it into blocks that take the same path.

A read of a file or of stdin that reaches its second block hands the rest
of its parse to a worker process when the process may run on two or more
CPUs and runs one thread, native ones counted (`_may_fork`, Linux only):
it forks there, and the worker goes on with the same read, every check and
message unchanged, while the pass runs on the chunks before. The worker
writes each chunk down a pipe as its ints packed into an ``array('Q')`` (a
node id below n, a weight below 2^63), and what the read raised, named by
its type, in stream order; the parent reads each chunk as a `_Triples`
view, so the checks that ride on the pass read it as they read one parsed
here. A block waits in the pipe until the pass has read the one before it,
so the worker runs at most one block and a pipe buffer ahead: each process
holds one block of input. However the read ends (its end, a fault, a pass
that raises or drops it, an interrupt, the end of the process) the parent
kills and reaps the worker, which has sent its last record or is no longer
wanted, and the worker itself ends with ``os._exit``. A one-block input,
one CPU, a second thread, an n past 2^64 and every in-memory input stay in
this process.

Every check of an edge lives in `check_edge`: endpoints below n and
distinct, weight in ``[0, 2^63-1]``, each an int (a bool or a numpy integer
becomes an exact ``int``). The parser adds only what the text needs (the
header, three int fields a line, no more edges than declared), so a bad
edge reads ``line N: ...`` from a file as from memory. `open_edges` is the
one way to checked edges: it hands a `LazyEdgeStream` on as it is and
opens an `EdgeStream` as one, which can be read again, each read checking
``_CHUNK_EDGES`` edges a chunk. The engine's pass checks nothing again,
and makes no `WeightedEdge`.
"""

from __future__ import annotations

import io
import json
import os
import sys
import weakref
from array import array
from functools import partial
from itertools import chain, islice, repeat
from operator import eq, index
from typing import Callable, Iterable, Iterator, NamedTuple

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
#: Makes a canonical block's separators the commas of a JSON list.
_COMMAS = str.maketrans(" \n", ",,")
#: The kinds of a worker's records: a chunk's packed ints, the end of the
#: read, or what the read raised, as its type's name, a NUL and its message.
_ROWS, _END, _ERROR = range(3)
#: The exceptions a read raises that a worker's parent raises by name; any
#: other is a RuntimeError that names it.
_FORWARDED = {
    error.__name__: error for error in (StreamFormatError, OSError, MemoryError)
}

Triple = tuple[int, int, int]


class LazyEdgeStream(NamedTuple):
    """A stream parsed as it is read.

    Like an `EdgeStream` it has ``n``, ``m`` (from the header; the body must
    hold exactly ``m`` edges) and ``edges``, plain ``(u, v, w)`` int triples
    in arrival order. ``chunks()`` reads the body as chunks of checked
    triples, each of which can be iterated more than once, and ``edges`` is
    that read. A malformed line raises `StreamFormatError` from the read,
    which closes its file. A parsed input (`read_stream`) can be read once;
    a second read raises ``ValueError``.
    """

    n: int
    m: int
    chunks: Callable[[], Iterator[Iterable[Triple]]]

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
    lines = (s.removesuffix("\n").replace("\n", " ") + "\n" for s in lines)
    blocks = iter(lambda: "".join(islice(lines, _CHUNK_LINES)), "")
    parser = _parse(lines, blocks)
    n, _ = next(parser)
    return EdgeStream(n, list(map(WeightedEdge._make, chain.from_iterable(parser))))


def serialize_stream(stream: EdgeStream | LazyEdgeStream) -> str:
    """Canonical text form.

    `parse_stream` and `read_stream` give back exactly the edges of a
    valid stream whose fields are all plain ints, as a generated or parsed
    stream's are. A bool field is written as ``True`` or ``False``, and those
    two refuse that line, while `run_stream` reads the same in-memory edge
    as 1 or 0.

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
    """Open a stream from a file path, or stdin when path is '-', and read
    its header now. Either is strict UTF-8, with universal newlines, from
    its bytes, and a byte that is not UTF-8 is named by its line, as any
    other fault is. The stream can be read once; from its second block on,
    a worker process may parse it (see the module notes)."""
    name = "stdin" if path == "-" else path
    worker = _Worker()
    parser = _read_file(path, worker.fork)
    header = next(parser)
    worker.n = header[0]
    first = [parser]

    def read() -> Iterator:
        if not first:
            raise ValueError(f"{name} can be read only once")
        return worker.chunks(first.pop())

    return LazyEdgeStream(*header, read)


def _read_file(path: str, at_second: Callable[[], None]) -> Iterator:
    # Stdin's bytes are decoded as a file's are, and stdin stays open. A
    # process started with its stdin closed has no sys.stdin.
    stdin = path == "-"
    if stdin and sys.stdin is None:
        raise OSError("stdin is closed")
    # A byte that is not UTF-8 is read as a lone surrogate, which strict
    # UTF-8 never gives, and refused by the parser with its line
    # (`_check_decoded`): the decoder's own error names an offset into its
    # current read.
    errors = "surrogateescape"
    if stdin:
        fp = io.TextIOWrapper(sys.stdin.buffer, "utf-8", errors)
    else:
        fp = open(path, encoding="utf-8", errors=errors)
    try:
        # The header is read line by line; the body's blocks start after it.
        yield from _parse(iter(fp.readline, ""), _blocks(fp, at_second))
    finally:
        fp.detach() if stdin else fp.close()


def _blocks(fp, at_second: Callable[[], None]) -> Iterator[str]:
    """Read a text stream in blocks of whole lines, each ended by a "\n":
    ``_CHUNK_BYTES`` characters, then the rest of the line after them.
    ``at_second`` is called when the second block has been read."""
    # A text stream with the default newline handling (our files, stdin)
    # ends each line at its one "\n", as readlines does. Even after a "\n",
    # readline makes a file's text wrapper drop its copies of the block.
    for index, block in enumerate(iter(partial(fp.read, _CHUNK_BYTES), "")):
        block += fp.readline()
        if index == 1:
            at_second()
        # Only the input's last line can be unended.
        yield block if block.endswith("\n") else block + "\n"


def _may_fork() -> bool:
    """Whether a read may fork a worker to parse its rest: when the process
    may run on two or more CPUs, so that the parse and the pass overlap, and
    runs one thread, so that the fork copies no lock another thread holds."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    return _threads() == 1


def _threads() -> int:
    """The threads of this process, as Linux counts them, those a C
    extension started (a BLAS pool, say) included; or else as `threading`
    counts them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        threading = sys.modules.get("threading")
        return 1 if threading is None else threading.active_count()


class _Forked(Exception):
    """Raised in the parent by `_Worker.fork`: it ends the parent's own read,
    whose rest the worker parses."""


class _Worker:
    """The worker process of one read of a file or of stdin, if it forks.

    ``fork`` is the read's call at its second block. When `_may_fork` allows
    it, it forks: in the parent it raises `_Forked`, and ``pid`` is the
    worker's; in the worker it returns, ``pid`` is 0 and the read goes on.
    ``chunks`` hands on the read's chunks in the parent, and in the worker
    sends them down ``pipe`` (the read end's file in the parent, the write
    end's descriptor in the worker) and exits.
    """

    __slots__ = ("n", "pid", "pipe", "reap", "__weakref__")

    def __init__(self) -> None:
        self.n = 0
        self.pid: int | None = None
        self.pipe = None
        self.reap: Callable[[], None] | None = None

    def fork(self) -> None:
        """Fork the worker, at the read's second block, if it may."""
        # A node id is below n, and a worker packs each int in 64 bits.
        if self.n > 1 << 64 or not _may_fork():
            return
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            # No process to spare: the read stays here.
            os.close(read_end)
            os.close(write_end)
            return
        if pid:
            os.close(write_end)
            self.pid, self.pipe = pid, os.fdopen(read_end, "rb")
            # Called when the read ends, or else when this object is freed or
            # the process ends, as after an interrupt.
            self.reap = weakref.finalize(self, _reap, pid, self.pipe)
            raise _Forked
        os.close(read_end)
        self.pid, self.pipe = 0, write_end

    def chunks(self, parser: Iterator) -> Iterator:
        """The chunks of ``parser``: those read here, then the worker's."""
        try:
            yield from self._parsed(parser)
            if self.pid:
                yield from self._received()
        finally:
            if self.reap:
                self.reap()

    def _parsed(self, parser: Iterator) -> Iterator:
        """Yield the chunks that ``parser`` gives here, up to the fork if it
        forks. In the worker, send each chunk of ``parser`` from the fork
        on, then its end or what it raised, and exit."""
        try:
            for rows in parser:
                if self.pid == 0:
                    self._send(_ROWS, _packed(rows))
                else:
                    yield rows
                del rows  # the next block is parsed without this one
            if self.pid == 0:
                self._send(_END, b"")
        except _Forked:
            pass
        except Exception as exc:
            if self.pid != 0:
                raise
            message = f"{type(exc).__name__}\0{exc}"
            self._send(_ERROR, message.encode("utf-8", "surrogatepass"))
        finally:
            if self.pid == 0:
                # The worker ends here, at once: no cleanup or buffered
                # output of the parent's runs twice.
                os._exit(0)

    def _send(self, kind: int, data) -> None:
        """Write one record down the pipe: its kind, its length in bytes,
        and ``data``."""
        view = memoryview(data).cast("B")
        for part in (memoryview(array("Q", (kind, len(view)))).cast("B"), view):
            while part:
                part = part[os.write(self.pipe, part):]

    def _received(self) -> Iterator[_Triples]:
        """Yield each chunk the worker sends, a view of its packed ints, up
        to the end of the read; raise here what the worker's read raised."""
        while True:
            kind, size = array("Q", self._read(16))
            if kind == _ROWS:
                yield _Triples(array("Q", self._read(size)))
                continue
            if kind == _END:
                return
            text = self._read(size).decode("utf-8", "surrogatepass")
            name, _, message = text.partition("\0")
            error = _FORWARDED.get(name)
            raise error(message) if error else RuntimeError(f"{name}: {message}")

    def _read(self, size: int) -> bytes:
        data = self.pipe.read(size)
        if len(data) < size:
            raise OSError("the parse worker stopped before the end of the input")
        return data


def _reap(pid: int, pipe) -> None:
    """Close the parent's end of the pipe, then kill and reap the worker
    ``pid``: it has sent its last record, or it is no longer wanted."""
    # Imported here: only a read that forked needs it.
    from signal import SIGKILL

    pipe.close()
    try:
        os.kill(pid, SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass  # reaped already, where SIGCHLD is ignored


def _packed(rows: Iterable[Triple]) -> array:
    """A chunk's ints, three to an edge, each in an unsigned 64-bit item."""
    ints = rows.ints if type(rows) is _Triples else chain.from_iterable(rows)
    return array("Q", ints)


class _Triples:
    """A canonical block's edges: each iteration reads the block's ints
    afresh, three to an edge, so the block is never copied into tuples."""

    __slots__ = ("ints",)

    def __init__(self, ints: list[int]) -> None:
        self.ints = ints

    def __iter__(self) -> Iterator[Triple]:
        it = iter(self.ints)
        return zip(it, it, it)


def _parse(head: Iterator[str], blocks: Iterable[str]) -> Iterator:
    """Yield the header's ``(n, m)``, read from the lines of ``head``, then
    the checked ``(u, v, w)`` triples of each block of whole body lines,
    each ended by a "\n", from the line after the header on."""
    n, declared_m, lineno = _read_header(head)
    yield n, declared_m
    count = 0
    for block in blocks:
        ints = _bulk_ints(block, n, declared_m - count)
        if ints is None:
            # Split after each "\n" only (str.splitlines splits on more).
            lines = block[:-1].split("\n")
            rows = _parse_lines(lines, n, declared_m, count, lineno)
            lineno += len(lines)
            count += len(rows)
        else:
            # Three ints to an edge, off the one list: no column copies.
            rows = _Triples(ints)
            # A canonical block is one edge per line.
            lineno += len(ints) // 3
            count += len(ints) // 3
        yield rows
        # The next block is read and parsed without this one's rows.
        del rows, ints
    if count != declared_m:
        raise StreamFormatError(
            f"header declared {declared_m} edges but found {count} by line {lineno}"
        )


def _read_header(lines: Iterable[str]) -> tuple[int, int, int]:
    """Read ``lines`` up to the header's line, and no further; return
    ``(n, m, its line number)``."""
    for lineno, raw in enumerate(lines, start=1):
        if not raw.isascii():
            _check_decoded(raw, lineno)
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
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
        return n, declared_m, lineno
    raise StreamFormatError("missing header 'p mwm <n> <m>'")


def _bulk_ints(block: str, n: int, room: int) -> list[int] | None:
    """The ints of a block of canonical edge lines that pass every check,
    each line's ``u, v, w`` in turn, or None when the block needs the
    line-by-line parse, which names any fault."""
    # Without its digits a canonical line is two spaces and a newline. The
    # comparison also lets through a line with an empty field ("1  2"),
    # which JSON refuses below, as it refuses a leading zero; int() refuses
    # more digits than it accepts. Each leaves the block to the line path.
    if block.translate(_SEPARATORS) != "  \n" * block.count("\n"):
        return None
    # One C call turns the block into ints. The JSON text costs a slice,
    # one translate (spaces and newlines to commas) and one format.
    try:
        ints = json.loads("[%s]" % block[:-1].translate(_COMMAS))
    except ValueError:
        return None
    # The endpoint columns are copied for the self-loop test, which is
    # faster on two lists; the weights are read in place.
    us, vs = ints[0::3], ints[1::3]
    if (
        len(us) > room
        or max(us) >= n
        or max(vs) >= n
        or max(islice(ints, 2, None, 3)) > I64_MAX
        or any(map(eq, us, vs))
    ):
        return None
    return ints


def _parse_lines(
    lines: list[str], n: int, declared_m: int, count: int, lineno: int
) -> list[Triple]:
    """Parse body lines one by one; ``count`` edges and ``lineno`` lines
    precede them."""
    rows: list[Triple] = []
    for lineno, raw in enumerate(lines, start=lineno + 1):
        if not raw.isascii():
            _check_decoded(raw + "\n", lineno)
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


def _check_decoded(line: str, lineno: int) -> None:
    """Refuse a line, given with its newline, that holds a byte UTF-8 could
    not decode: a lone surrogate from U+DC80 to U+DCFF (`_read_file`).

    The line's bytes are decoded again, so the message names the byte and
    the fault as the decoder does, at the line's number. A line with any
    other lone surrogate, which only an in-memory line can hold, passes.
    """
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeEncodeError:
        return
    except UnicodeDecodeError as exc:
        raise StreamFormatError(
            f"line {lineno}: 'utf-8' codec can't decode byte "
            f"0x{exc.object[exc.start]:02x}: {exc.reason}"
        ) from None
