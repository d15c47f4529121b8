"""`run --input` streams the file through the engine: memory does not grow
with the edge count, with or without the oracle or the monitors, from a
path or from stdin; a run opens its input once, every edge passes through
`process_edges`, a read that fails mid-run is an input error, and each
read closes its file in every case."""

import builtins
import io
import json
import random
import tracemalloc

import pytest

from stream_mwm import cli, streamio
from stream_mwm.core import EdgeStream
from stream_mwm.engine import StreamingState
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate
from stream_mwm.core import StreamFormatError
from stream_mwm.streamio import read_stream, serialize_stream


def _write_repeated(path, n, lines, repeats):
    body = "".join(lines) * repeats
    path.write_text(f"p mwm {n} {len(lines) * repeats}\n{body}", encoding="utf-8")


def _traced_run(path, out, *flags):
    """Run on ``path`` (a file path, or '-' for stdin) under tracemalloc;
    return the run's traced peak and its report."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = cli.main(["run", "--input", str(path), "--out", str(out), *flags])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, json.loads(out.read_text())


@pytest.fixture(params=["path", "stdin"])
def source(request, monkeypatch):
    """The ``--input`` of a run on a file: its path, or '-' with the file
    as stdin."""

    def input_of(path):
        if request.param == "path":
            return path
        fp = open(path, encoding="utf-8")
        request.addfinalizer(fp.close)
        monkeypatch.setattr("sys.stdin", fp)
        return "-"

    return input_of


def test_run_input_memory_is_flat_in_edge_count(tmp_path):
    # Repeats of the first pass are light for good: a push raises its
    # endpoints' potential sum to at least w, and potentials never fall. So
    # every repeat leaves the engine state as it was, and any growth of the
    # peak with the repeat count is the input held in memory.
    n = 1000
    rng = random.Random(2024)
    lines = []
    for _ in range(8000):  # more than one 64 KiB chunk
        u, v = rng.sample(range(n), 2)
        lines.append(f"{u} {v} {rng.randrange(1, 10**9)}\n")
    peaks, reports = [], []
    for repeats in (1, 8):
        path = tmp_path / f"repeat{repeats}.mwm"
        _write_repeated(path, n, lines, repeats)
        peak, report = _traced_run(path, tmp_path / f"report{repeats}.json")
        peaks.append(peak)
        reports.append(report)

    assert [r["m"] for r in reports] == [8000, 64000]
    assert reports[0]["heavy_edges_k"] > 500
    for r in reports:
        del r["m"]
    assert reports[0] == reports[1]
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_run_input_oracle_memory_is_flat_in_edge_count(tmp_path, source):
    # The oracle's table fills from the run's one read, with no copy of
    # the input: the pass holds O(n * queue_cap) and the oracle one edge
    # per node pair, so at 22 nodes the peak does not grow with the
    # repeats, from a path as from stdin.
    n = 22
    rng = random.Random(2025)
    lines = []
    for _ in range(8000):
        u, v = rng.sample(range(n), 2)
        lines.append(f"{u} {v} {rng.randrange(1, 10**9)}\n")
    peaks, reports = [], []
    for repeats in (1, 8):
        path = tmp_path / f"repeat{repeats}.mwm"
        _write_repeated(path, n, lines, repeats)
        out = tmp_path / f"report{repeats}.json"
        peak, report = _traced_run(source(path), out, "--oracle")
        peaks.append(peak)
        reports.append(report)

    assert [r["m"] for r in reports] == [8000, 64000]
    assert reports[0]["oracle_weight"] > 0
    for r in reports:
        del r["m"]
    assert reports[0] == reports[1]
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_run_input_monitors_memory_is_flat_in_edge_count(tmp_path, source):
    # The monitors ride on the run's one read and record no trace: the
    # counters are O(1) and the replay holds O(n) potentials, so at 22
    # nodes the peak does not grow with the repeats, from a path as from
    # stdin.
    n = 22
    rng = random.Random(2025)
    lines = []
    for _ in range(8000):
        u, v = rng.sample(range(n), 2)
        lines.append(f"{u} {v} {rng.randrange(1, 10**9)}\n")
    peaks, reports = [], []
    for repeats in (1, 8):
        path = tmp_path / f"repeat{repeats}.mwm"
        _write_repeated(path, n, lines, repeats)
        out = tmp_path / f"report{repeats}.json"
        peak, report = _traced_run(source(path), out, "--monitors")
        peaks.append(peak)
        reports.append(report)

    assert [r["m"] for r in reports] == [8000, 64000]
    assert set(reports[0]["monitor_verdicts"].values()) == {"pass"}
    for r in reports:
        del r["m"]
    assert reports[0] == reports[1]
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_run_input_passes_every_edge_once_through_process_edges(tmp_path, monkeypatch):
    # The per-layer light/push/evict figures of the benchmark's tracer must
    # come from wrapping StreamingState.process_edges, the one entry into
    # the pass, like this: one call per chunk.
    counts = {"light": 0, "push": 0}
    evicted = 0
    process_edges = StreamingState.process_edges

    def bucketed(state, edges):
        nonlocal evicted
        # A canonical block's chunk is a view of its ints, with no len.
        edges = list(edges)
        before = state.stats.evictions_total
        pushed = process_edges(state, edges)
        evicted += state.stats.evictions_total - before
        counts["push"] += pushed
        counts["light"] += len(edges) - pushed
        return pushed

    monkeypatch.setattr(StreamingState, "process_edges", bucketed)
    chain = generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=64))
    er = generate(GeneratorSpec(kind=GeneratorKind.ERDOS_RENYI, n=64, p=0.3, seed=4))
    path = tmp_path / "mixed.mwm"
    path.write_text(serialize_stream(EdgeStream(64, [*chain.edges, *er.edges])))
    out = tmp_path / "report.json"

    assert cli.main(["run", "--input", str(path), "--eps", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert min(counts.values()) > 0 and evicted > 0
    assert sum(counts.values()) == report["m"] == len(chain.edges) + len(er.edges)
    assert counts["push"] == report["heavy_edges_k"]
    assert evicted == report["evictions_total"]


class _FailingBytes(io.BytesIO):
    """Stdin's bytes, whose reads fail past the first two blocks."""

    def read1(self, size=-1):
        if self.tell() >= 2 * streamio._CHUNK_BYTES:
            raise OSError("device went away")
        return super().read1(size)

    read = read1


def test_run_exit_2_when_a_read_fails_mid_run(monkeypatch, capsys):
    # The header and the first block are read before the failing read.
    m = 3 * streamio._CHUNK_BYTES // len("0 1 5\n")
    data = f"p mwm 3 {m}\n".encode() + b"0 1 5\n" * m
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(_FailingBytes(data)))
    assert cli.main(["run", "--input", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stream-mwm: error: device went away" in captured.err


def test_run_exit_2_on_bad_utf8_past_the_first_chunk(tmp_path, capsys):
    path = tmp_path / "bad.mwm"
    body = b"0 1 5\n" * 20_000
    path.write_bytes(b"p mwm 2 20001\n" + body + b"0 1 \xff\n")
    assert cli.main(["run", "--input", str(path)]) == 2
    assert "stream-mwm: error:" in capsys.readouterr().err


@pytest.fixture
def opened(monkeypatch):
    """The files opened through builtins.open during the test."""
    files = []
    real_open = builtins.open

    def tracking_open(*args, **kwargs):
        fp = real_open(*args, **kwargs)
        files.append(fp)
        return fp

    monkeypatch.setattr(builtins, "open", tracking_open)
    return files


def test_lazy_stream_closes_its_file(tmp_path, opened):
    path = tmp_path / "s.mwm"
    path.write_text("p mwm 3 2\n0 1 5\n1 2 8\n")

    # The one read goes on from the header's open and closes the file at
    # its end; a second read is refused and opens nothing.
    stream = read_stream(str(path))
    assert len(opened) == 1 and not opened[0].closed
    assert list(stream.edges) == [(0, 1, 5), (1, 2, 8)]
    assert len(opened) == 1 and opened[0].closed
    with pytest.raises(ValueError, match="can be read only once$"):
        stream.chunks()
    # A read dropped before its end closes its file too.
    next(iter(read_stream(str(path)).chunks()))
    assert len(opened) == 2 and all(fp.closed for fp in opened)

    path.write_text("p mwm 3 2\n0 1 5\n1 1 8\n")
    failing = read_stream(str(path))
    with pytest.raises(StreamFormatError, match="^line 3: self-loop at node 1$"):
        list(failing.edges)
    path.write_text("q mwm 3 2\n")
    with pytest.raises(StreamFormatError, match="expected header"):
        read_stream(str(path))
    assert len(opened) == 4 and all(fp.closed for fp in opened)


@pytest.mark.parametrize(
    "flags",
    [["--alg", "semi", "--oracle", "--monitors"], ["--alg", "exact", "--oracle"]],
    ids=["semi-oracle-monitors", "exact-oracle"],
)
def test_a_checked_run_opens_its_input_once(tmp_path, opened, flags):
    # The oracle and the monitors take their edges from the run's one
    # read: the file is opened once, and closed.
    path = tmp_path / "s.mwm"
    path.write_text("p mwm 6 7\n0 1 5\n1 2 8\n2 3 7\n3 4 9\n4 5 4\n0 5 6\n1 4 10\n")
    out = tmp_path / "r.json"
    assert cli.main(["run", "--input", str(path), "--out", str(out), *flags]) == 0
    report = json.loads(out.read_text())
    assert report["oracle_weight"] == 23
    assert set(report["monitor_verdicts"].values()) <= {"pass"}
    inputs = [fp for fp in opened if fp.name == str(path)]
    assert len(inputs) == 1 and inputs[0].closed


def test_cli_closes_the_input_on_every_exit(tmp_path, opened):
    path = tmp_path / "s.mwm"
    path.write_text("p mwm 3 2\n0 1 5\n1 2 8\n")
    out = str(tmp_path / "r.json")
    assert cli.main(["run", "--input", str(path), "--out", out]) == 0
    # A bad --eps is refused before the input is opened.
    assert cli.main(["run", "--input", str(path), "--eps", "7", "--out", out]) == 2
    path.write_text("p mwm 3 2\n0 1 5\n1 1 8\n")
    assert cli.main(["run", "--input", str(path), "--out", out]) == 2
    inputs = [fp for fp in opened if fp.name == str(path)]
    assert len(inputs) == 2 and all(fp.closed for fp in inputs)
