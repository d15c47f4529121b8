"""The parse worker: a read of a file or of stdin that reaches its second
block hands the rest of its parse to a forked worker when the read's gate
(`streamio._may_fork`) allows it. Whatever the worker sends, the pass and
the checks that ride on it see what a read parsed here gives, and no worker
outlives its read, however the read ends."""

import builtins
import functools
import json
import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import READ_PATHS, byte_stdin
from stream_mwm import cli, engine, streamio
from stream_mwm.core import EdgeStream, StreamFormatError, WeightedEdge
from stream_mwm.engine import StreamingState, run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate
from stream_mwm.streamio import parse_stream, read_stream, serialize_stream


@pytest.fixture
def workers(monkeypatch):
    """The pids of the workers that reads fork during the test, where every
    read may fork one."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(streamio, "_may_fork", lambda: True)
    return pids


def assert_reaped(pids):
    """One worker was forked, and its read's parent has reaped it, so that
    waiting for it fails at once. A worker that has ended but was not
    reaped is reaped here, and one still running is killed first: either
    fails the test, and neither hangs it."""
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        if os.waitpid(pids[0], os.WNOHANG) == (0, 0):
            os.kill(pids[0], signal.SIGKILL)
            os.waitpid(pids[0], 0)


@functools.cache
def _er_text():
    # About 22,000 edges, in four blocks of a file.
    spec = GeneratorSpec(kind=GeneratorKind.ERDOS_RENYI, n=300, p=0.5, seed=4)
    return serialize_stream(generate(spec))


@pytest.fixture
def er_file(tmp_path):
    path = tmp_path / "er.mwm"
    path.write_text(_er_text(), encoding="utf-8")
    return path


@functools.cache
def _edges(text):
    return [tuple(e) for e in parse_stream(text.splitlines()).edges]


def test_a_full_read_reaps_its_worker(er_file, workers):
    chunks = list(read_stream(str(er_file)).chunks())
    assert len(chunks) >= 4
    # The first chunk is parsed here; the worker's are views of packed ints.
    assert all(type(chunk) is streamio._Triples for chunk in chunks[1:])
    assert [e for chunk in chunks for e in chunk] == _edges(er_file.read_text())
    assert_reaped(workers)


def test_stdin_reaps_its_worker(er_file, workers, monkeypatch):
    text = er_file.read_text()
    monkeypatch.setattr("sys.stdin", byte_stdin(text))
    assert list(read_stream("-").edges) == _edges(text)
    assert_reaped(workers)
    # The parent's stdin stays open, as after a read here.
    assert not sys.stdin.closed


def test_a_fault_in_the_last_block_comes_after_every_chunk_before_it(er_file, workers):
    text = er_file.read_text()
    want = _edges(text)
    lines = text.splitlines(keepends=True)
    lines[-1] = "7 7 1\n"
    er_file.write_text("".join(lines))
    got = []
    fault = f"^line {len(lines)}: self-loop at node 7$"
    with pytest.raises(StreamFormatError, match=fault):
        for chunk in read_stream(str(er_file)).chunks():
            got.extend(chunk)
    # Every block before the last reached the reader before the fault.
    assert got == want[: len(got)]
    assert len(got) >= len(want) - streamio._CHUNK_BYTES // len("0 1 0\n")
    assert_reaped(workers)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_pass_that_raises_on_a_worker_chunk_reaps_the_worker(
    er_file, workers, monkeypatch, error
):
    process_edges = StreamingState.process_edges
    calls = []

    def failing(state, edges):
        calls.append(1)
        if len(calls) == 2:
            raise error("the pass failed")
        return process_edges(state, edges)

    monkeypatch.setattr(StreamingState, "process_edges", failing)
    with pytest.raises(error, match="^the pass failed$") as failure:
        run_stream(read_stream(str(er_file)), "1/2", monitors=True)
    # Reaped while the traceback, and every frame in it, is still alive.
    assert_reaped(workers)
    assert failure.tb is not None


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_replay_that_raises_on_a_worker_chunk_reaps_the_worker(
    er_file, workers, monkeypatch, error
):
    # The replay fails between two chunks of the pass's feed.
    def failing(chunks, phi, params):
        next(chunks)
        next(chunks)
        raise error("the replay failed")

    monkeypatch.setattr(engine, "check_terminal_weights", failing)
    with pytest.raises(error, match="^the replay failed$") as failure:
        run_stream(read_stream(str(er_file)), "1/2", monitors=True)
    assert_reaped(workers)
    assert failure.tb is not None


def test_a_dropped_read_reaps_its_worker(er_file, workers):
    chunks = read_stream(str(er_file)).chunks()
    next(chunks)
    # The second chunk is the worker's first.
    next(chunks)
    assert len(workers) == 1
    del chunks
    assert_reaped(workers)


def test_the_parent_closes_its_file_at_the_fork(er_file, workers, monkeypatch):
    opened = []
    real_open = builtins.open

    def tracking_open(*args, **kwargs):
        fp = real_open(*args, **kwargs)
        opened.append(fp)
        return fp

    monkeypatch.setattr(builtins, "open", tracking_open)
    chunks = read_stream(str(er_file)).chunks()
    next(chunks)
    assert len(opened) == 1 and not opened[0].closed
    next(chunks)
    # The worker reads on from its own copy; the pipe is no input file.
    assert len(opened) == 1 and opened[0].closed
    assert len(list(chunks)) >= 2
    assert_reaped(workers)


@pytest.mark.parametrize(
    "raised, want",
    [
        (MemoryError(), MemoryError),
        (OSError("[Errno 5] Input/output error"), OSError),
        (KeyError("x"), RuntimeError),
    ],
    ids=["memory", "os", "other"],
)
def test_a_worker_sends_what_its_read_raised(
    er_file, workers, monkeypatch, raised, want
):
    # The worker is forked at the second block, and faults at the third;
    # the parent raises the fault, by its type when the read may raise it.
    bulk_ints = streamio._bulk_ints
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise raised
        return bulk_ints(*args)

    monkeypatch.setattr(streamio, "_bulk_ints", failing)
    chunks = read_stream(str(er_file)).chunks()
    assert len(list(next(chunks))) and len(list(next(chunks)))
    with pytest.raises(want) as exc:
        next(chunks)
    assert type(exc.value) is want
    named = f"KeyError: {raised}" if want is RuntimeError else str(raised)
    assert str(exc.value) == named
    assert_reaped(workers)


def test_a_worker_that_dies_is_an_input_error(er_file, workers, monkeypatch):
    bulk_ints = streamio._bulk_ints
    calls = []

    def dying(*args):
        calls.append(1)
        if len(calls) == 3:
            os._exit(1)
        return bulk_ints(*args)

    monkeypatch.setattr(streamio, "_bulk_ints", dying)
    stopped = "^the parse worker stopped before the end of the input$"
    with pytest.raises(OSError, match=stopped):
        list(read_stream(str(er_file)).edges)
    assert_reaped(workers)


_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Forks a worker for the read of a file, prints its pid, and ends the
#: process by an interrupt with the read still open.
_INTERRUPTED = """
import os, sys
from stream_mwm import streamio

streamio._may_fork = lambda: True
fork = os.fork


def recorded():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid


os.fork = recorded
chunks = streamio.read_stream(sys.argv[1]).chunks()
next(chunks)
next(chunks)
raise KeyboardInterrupt
"""


def test_a_process_interrupted_mid_read_reaps_its_worker(er_file):
    run = subprocess.run(
        [sys.executable, "-c", _INTERRUPTED, str(er_file)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert "KeyboardInterrupt" in run.stderr
    pid = int(run.stdout)
    # Reaped before the process ended: not even a zombie is left.
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_a_read_stays_here_when_no_process_can_be_forked(er_file, monkeypatch):
    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(streamio, "_may_fork", lambda: True)
    assert list(read_stream(str(er_file)).edges) == _edges(er_file.read_text())


def _evicting_text():
    # Disjoint stars, each centre fed doubling weights by fresh leaves: every
    # edge is heavy, and at epsilon = 5 each centre passes its queue cap of
    # 35. Several blocks of a file.
    stars, leaves = 110, 62
    edges = [
        WeightedEdge(63 * k, 63 * k + i, 2**i)
        for k in range(stars)
        for i in range(1, leaves + 1)
    ]
    return serialize_stream(EdgeStream(63 * stars, edges))


def _n22_text():
    # The oracle's largest n, with parallel edges: several blocks of a file.
    rng = random.Random(22)
    lines = ["p mwm 22 12000\n"]
    for _ in range(12000):
        u, v = rng.sample(range(22), 2)
        lines.append(f"{u} {v} {rng.randint(1, 10**9)}\n")
    return "".join(lines)


@pytest.mark.parametrize(
    "make, flags",
    [
        (_er_text, ["--monitors"]),
        (_evicting_text, ["--eps", "5", "--monitors"]),
        (_n22_text, ["--oracle", "--monitors"]),
        (_n22_text, ["--alg", "greedy", "--oracle"]),
    ],
    ids=[
        "er-monitors", "evicting-monitors", "n22-oracle-monitors", "n22-greedy-oracle"
    ],
)
def test_a_run_on_worker_chunks_gives_the_report_of_a_run_here(
    tmp_path, monkeypatch, make, flags
):
    # The monitors' replay and the oracle's pair table ride on the pass's
    # read, whichever process parsed each chunk.
    path = tmp_path / "in.mwm"
    path.write_text(make(), encoding="utf-8")
    reports = []
    for path_taken in READ_PATHS:
        monkeypatch.setattr(streamio, "_may_fork", lambda: path_taken == "worker")
        out = tmp_path / f"{path_taken}.json"
        assert cli.main(["run", "--input", str(path), "--out", str(out), *flags]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert set(report["monitor_verdicts"].values()) <= {"pass"}
    if "--eps" in flags:
        assert report["evictions_total"] > 0


def test_the_gate_asks_for_two_cpus_and_one_thread(monkeypatch):
    monkeypatch.setattr(streamio, "_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert streamio._may_fork()
    monkeypatch.setattr(streamio, "_threads", lambda: 2)
    assert not streamio._may_fork()
    monkeypatch.setattr(streamio, "_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    assert not streamio._may_fork()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert not streamio._may_fork()


def test_every_thread_counts(monkeypatch):
    # A thread started here, or by a C extension (only the OS counts
    # those), keeps a read in the process.
    before = streamio._threads()
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(10,), daemon=True)
    thread.start()
    try:
        assert streamio._threads() == before + 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert not streamio._may_fork()
        # Where the OS does not count them, `threading` does.
        def no_proc(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "listdir", no_proc)
        assert streamio._threads() == threading.active_count() >= 2
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "source", ["one-block file", "one-block stdin", "huge-n file", "lines", "memory"]
)
def test_other_reads_stay_here(tmp_path, monkeypatch, workers, source):
    # A one-block input has no second block; a node id past 64 bits cannot
    # be packed; a list of lines and an in-memory stream are no file.
    text = "p mwm 3 2\n0 1 5\n1 2 8\n"
    want = [(0, 1, 5), (1, 2, 8)]
    if source == "huge-n file":
        big = 1 << 65
        text = f"p mwm {big + 2} 20000\n" + f"{big} {big + 1} 5\n" * 20000
        want = [(big, big + 1, 5)] * 20000
    path = tmp_path / "in.mwm"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", byte_stdin(text))
    read = {
        "one-block file": lambda: read_stream(str(path)),
        "one-block stdin": lambda: read_stream("-"),
        "huge-n file": lambda: read_stream(str(path)),
        "lines": lambda: streamio.open_edges(parse_stream(text.splitlines())),
        "memory": lambda: streamio.open_edges(EdgeStream(3, want)),
    }[source]
    assert [tuple(e) for e in read().edges] == want
    assert workers == []
