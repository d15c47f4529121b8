import csv
import gc
import io
import json
import random
import time

import pytest

from stream_mwm import cli, engine
from stream_mwm.cli import main
from stream_mwm.core import I64_MAX, EdgeStream, Matching, WeightedEdge
from stream_mwm.monitors import CheckVerdict
from stream_mwm.reference import EXACT_MAX_NODES, Graph, exact_mwm
from stream_mwm.report import RUN_CSV_HEADER
from stream_mwm.streamio import serialize_stream


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text()


def test_run_exact_on_stdin_example(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("p mwm 3 2\n0 1 5\n1 2 8\n"))
    assert main(["run", "--input", "-", "--eps", "2", "--alg", "exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["output_weight"] == 8
    assert report["algorithm"] == "exact"


def test_oracle_is_exact_on_parallel_edges(monkeypatch, capsys):
    # The heavier copy of pair (0, 1) arrives second; the optimum takes it.
    monkeypatch.setattr("sys.stdin", io.StringIO("p mwm 4 3\n0 1 1\n0 1 100\n2 3 5\n"))
    assert main(["run", "--input", "-", "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["output_weight"] == 105
    assert report["oracle_weight"] == 105
    assert report["ratio"] == 1.0


def test_oracle_on_a_large_multigraph_at_capacity(tmp_path, capsys):
    # 43,200 copies over the 231 pairs of 22 nodes: the oracle's cost must
    # not grow with the copies, and its optimum is that of the graph that
    # keeps only the heaviest copy of each pair.
    rng = random.Random(22)
    n = EXACT_MAX_NODES
    edges = []
    for _ in range(43_200):
        u, v = rng.sample(range(n), 2)
        edges.append(WeightedEdge(u, v, rng.randint(0, 10**6)))
    path = tmp_path / "multi.txt"
    path.write_text(serialize_stream(EdgeStream(n, edges)))
    assert main(["run", "--input", str(path), "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)

    heaviest: dict[tuple[int, int], int] = {}
    for u, v, w in edges:
        pair = (min(u, v), max(u, v))
        heaviest[pair] = max(w, heaviest.get(pair, 0))
    collapsed = [WeightedEdge(u, v, w) for (u, v), w in heaviest.items()]
    assert report["oracle_weight"] == exact_mwm(Graph(n, collapsed)).total_weight

    nx = pytest.importorskip("networkx")
    nxg = nx.Graph()
    nxg.add_weighted_edges_from(collapsed)
    want = sum(nxg[u][v]["weight"] for u, v in nx.max_weight_matching(nxg))
    assert report["oracle_weight"] == want


def test_run_path_greedy_single_edge(capsys):
    assert main(["run", "--gen", "path", "--n", "2", "--alg", "greedy"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 1
    assert report["output_weight"] >= 0
    assert report["ratio_bound"] == "2"


def test_run_er_semi_with_oracle_and_monitors(capsys):
    code = main(
        ["run", "--gen", "er", "--n", "10", "--p", "0.5", "--wmax", "100",
         "--seed", "7", "--eps", "1/2", "--alg", "semi", "--oracle", "--monitors"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ratio"] is not None
    assert 1.0 <= report["ratio"] <= 2.5
    assert report["oracle_weight"] >= report["output_weight"]
    assert set(report["monitor_verdicts"]) == {
        "phi_growth", "eviction_gap", "terminal_weights", "ratio_bound"
    }
    assert all(v == "pass" for v in report["monitor_verdicts"].values())


def test_run_oracle_silently_off_beyond_capacity(capsys):
    code = main(
        ["run", "--gen", "er", "--n", "30", "--p", "0.3", "--seed", "1",
         "--alg", "semi", "--oracle"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle_weight"] is None and report["ratio"] is None


def _refuse_materialize(monkeypatch):
    def refuse(stream):
        raise AssertionError("the input was read into memory")

    monkeypatch.setattr(EdgeStream, "from_stream", refuse)


def test_run_monitors_skipped_beyond_trace_limits(tmp_path, monkeypatch, capsys):
    # One edge more than the trace replay once took, where three verdicts
    # read "skipped": the monitors need no trace now, so all four are
    # given, and the run streams the file twice, never into memory.
    m = 100_001
    rng = random.Random(2)
    lines = [f"p mwm 100 {m}\n"]
    for _ in range(m):
        u, v = rng.sample(range(100), 2)
        lines.append(f"{u} {v} {rng.randint(0, 1000)}\n")
    path = tmp_path / "long.mwm"
    path.write_text("".join(lines), encoding="utf-8")
    _refuse_materialize(monkeypatch)
    code = main(["run", "--input", str(path), "--alg", "semi", "--monitors"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == m
    assert report["monitor_verdicts"] == dict.fromkeys(
        ("phi_growth", "eviction_gap", "terminal_weights", "ratio_bound"), "pass"
    )


@pytest.fixture
def streamed_file(tmp_path):
    path = tmp_path / "s.mwm"
    path.write_text(
        "p mwm 6 7\n0 1 5\n1 2 8\n2 3 7\n3 4 9\n4 5 4\n0 5 6\n1 4 10\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("monitors", [[], ["--monitors"]], ids=["plain", "monitors"])
@pytest.mark.parametrize("alg", ["simple", "greedy", "exact"])
def test_reference_runs_stream_a_file(
    streamed_file, monkeypatch, capsys, alg, monitors
):
    # Each reference solver reads its input once, in order, so the file is
    # parsed as it runs; only a semi run has monitors, so --monitors reads
    # it no more.
    assert main(["run", "--input", streamed_file, "--alg", alg]) == 0
    want = capsys.readouterr().out
    _refuse_materialize(monkeypatch)
    assert main(["run", "--input", streamed_file, "--alg", alg] + monitors) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["m"], report["monitor_verdicts"]) == (7, {})
    assert report == json.loads(want)


@pytest.mark.parametrize(
    "stdin, flags, copies",
    [
        # A second step reads a file again and never copies it.
        pytest.param(False, ["--alg", "simple", "--oracle"], 0, id="alg-simple-oracle"),
        pytest.param(False, ["--alg", "exact", "--oracle"], 0, id="alg-exact-oracle"),
        pytest.param(False, ["--alg", "semi", "--oracle"], 0, id="alg-semi-oracle"),
        pytest.param(False, ["--alg", "semi", "--monitors"], 0, id="alg-semi-monitors"),
        # Stdin can be read once: a second step reads a copy.
        pytest.param(True, ["--alg", "semi", "--oracle"], 1, id="stdin-semi-oracle"),
        pytest.param(True, ["--alg", "semi", "--monitors"], 1, id="stdin-semi-monitors"),
        pytest.param(True, ["--alg", "exact", "--oracle"], 1, id="stdin-exact-oracle"),
    ],
)
def test_a_second_read_materializes_the_file(
    streamed_file, monkeypatch, capsys, stdin, flags, copies
):
    calls = []
    from_stream = EdgeStream.from_stream

    def counted(stream):
        calls.append(stream)
        return from_stream(stream)

    monkeypatch.setattr(EdgeStream, "from_stream", counted)
    source = streamed_file
    if stdin:
        with open(streamed_file, encoding="utf-8") as fp:
            monkeypatch.setattr("sys.stdin", io.StringIO(fp.read()))
        source = "-"
    assert main(["run", "--input", source] + flags) == 0
    assert len(calls) == copies
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 7


def test_exact_over_the_cap_fails_before_reading_the_body(
    tmp_path, monkeypatch, capsys
):
    # The node cap is checked before the first edge, so the self-loop on
    # line 2 is never read.
    path = tmp_path / "n30.mwm"
    path.write_text("p mwm 30 2\n0 0 5\n1 2 6\n", encoding="utf-8")
    _refuse_materialize(monkeypatch)
    assert main(["run", "--input", str(path), "--alg", "exact"]) == 2
    assert capsys.readouterr().err == (
        "stream-mwm: error: exact solver handles at most 22 nodes, got 30\n"
    )


@pytest.mark.parametrize("source", ["file", "gen"])
def test_exact_oracle_checks_the_exact_solver(
    streamed_file, monkeypatch, capsys, source
):
    # An exact run's oracle is `optimum_weight`, not its own matching, so a
    # matching lighter than the optimum is a violation.
    if source == "file":
        argv = ["run", "--input", streamed_file, "--alg", "exact", "--oracle"]
    else:
        argv = ["run", "--gen", "complete", "--n", "12", "--seed", "3",
                "--alg", "exact", "--oracle"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle_weight"] == report["output_weight"]
    assert report["ratio"] == 1.0

    def lighter(g):
        edges = sorted(exact_mwm(g).edges, key=lambda e: e.weight)
        return Matching.of(edges[:-1])

    monkeypatch.setattr(cli, "exact_mwm", lighter)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "stream-mwm: approximation ratio violated\n"
    report = json.loads(captured.out)
    assert report["output_weight"] < report["oracle_weight"]


def test_run_monitors_give_every_verdict_at_n200(capsys):
    code = main(
        ["run", "--gen", "er", "--n", "200", "--p", "0.1", "--seed", "2", "--monitors"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["monitor_verdicts"] == dict.fromkeys(
        ("phi_growth", "eviction_gap", "terminal_weights", "ratio_bound"), "pass"
    )


def test_run_csv_report(tmp_path):
    code, text = run_to_file(
        tmp_path, "r.csv",
        ["run", "--gen", "path", "--n", "4", "--seed", "3", "--report", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == RUN_CSV_HEADER
    assert len(rows) == 2


def test_run_reports_are_deterministic(tmp_path):
    argv = ["run", "--gen", "er", "--n", "12", "--p", "0.6", "--seed", "11",
            "--eps", "1/2", "--oracle", "--monitors"]
    code1, text1 = run_to_file(tmp_path, "a.json", argv)
    code2, text2 = run_to_file(tmp_path, "b.json", argv)
    assert code1 == code2 == 0
    assert text1 == text2


def test_run_exit_2_on_missing_file(capsys):
    assert main(["run", "--input", "/nonexistent/stream.txt"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_exit_2_on_malformed_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("p mwm 2 1\n0 0 3\n"))
    assert main(["run", "--input", "-"]) == 2
    assert "line 2: self-loop at node 0" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["semi", "greedy", "simple"])
def test_run_exit_2_on_a_node_count_too_large_to_allocate(alg, monkeypatch, capsys):
    """Each solver's per-node array fails its allocation at once for 2**62
    nodes, without allocating anything; the run reports it, no traceback."""
    n = 2**62
    monkeypatch.setattr("sys.stdin", io.StringIO(f"p mwm {n} 1\n0 1 5\n"))
    start = time.monotonic()
    assert main(["run", "--input", "-", "--alg", alg]) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.err == f"stream-mwm: error: out of memory for a graph of {n} nodes\n"
    assert captured.out == ""


@pytest.mark.parametrize("alg", ["semi", "greedy", "simple"])
def test_run_exit_2_on_a_node_count_past_an_index(alg, monkeypatch, capsys):
    """A node count of 2**63 or more is no array size at all (OverflowError,
    not MemoryError); the run reports it as the same error."""
    n = 10**20
    monkeypatch.setattr("sys.stdin", io.StringIO(f"p mwm {n} 1\n0 1 5\n"))
    assert main(["run", "--input", "-", "--alg", alg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"stream-mwm: error: out of memory for a graph of {n} nodes\n"
    assert captured.out == ""


def test_gen_exit_2_on_a_node_count_past_an_index(capsys):
    n = 10**20
    assert main(["run", "--gen", "er", "--n", str(n), "--p", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"stream-mwm: error: out of memory for a graph of {n} nodes\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_monitors_on_a_multigraph_past_the_push_budget_warn_nothing(tmp_path, capsys):
    # 32 heavy parallel edges on 2 nodes: k = 32 passes n**2 = 4, and the
    # ratio factor clamps k without a warning or a word on stderr.
    path = tmp_path / "pair.mwm"
    path.write_text(
        "p mwm 2 32\n" + "".join(f"0 1 {4**i}\n" for i in range(32)), encoding="utf-8"
    )
    assert main(["run", "--input", str(path), "--monitors"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["heavy_edges_k"] == 32
    assert list(report["monitor_verdicts"].values()) == ["pass"] * 4
    assert captured.err == ""


ER_10 = ["run", "--gen", "er", "--n", "10", "--p", "0.5", "--seed", "7"]


def test_run_exit_1_when_the_oracle_beats_the_bound(monkeypatch, capsys):
    monkeypatch.setattr(cli, "optimum_weight", lambda g: I64_MAX)
    assert main(ER_10 + ["--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "stream-mwm: approximation ratio violated\n"
    report = json.loads(captured.out)
    assert report["oracle_weight"] == I64_MAX
    assert report["ratio"] > 2.5


@pytest.mark.parametrize(
    "check", ["check_phi_growth", "check_eviction_gap", "check_terminal_weights"]
)
def test_run_exit_3_when_a_replayed_check_fails(check, monkeypatch, capsys):
    # `run_stream` calls the checks.
    monkeypatch.setattr(engine, check, lambda *args: CheckVerdict(ok=False))
    assert main(ER_10 + ["--monitors"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "stream-mwm: monitor failure\n"
    verdicts = json.loads(captured.out)["monitor_verdicts"]
    name = check.removeprefix("check_")
    assert verdicts[name] == "fail"
    assert {v for k, v in verdicts.items() if k != name} == {"pass"}


def test_run_exit_3_when_the_ratio_bound_monitor_fails(monkeypatch, capsys):
    fail = CheckVerdict(ok=False, detail="bound exceeded")
    monkeypatch.setattr(engine, "check_ratio_bound", lambda params, k: fail)
    assert main(ER_10 + ["--monitors"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "stream-mwm: monitor failure\n"
    assert json.loads(captured.out)["monitor_verdicts"]["ratio_bound"] == "fail"


def test_an_oracle_and_monitor_run_leaves_no_cyclic_garbage(capsys):
    """Each run's oracle state is freed when the run returns, so a batch of
    in-process runs does not hold it until the next cyclic collection."""
    argv = ["run", "--gen", "er", "--n", "20", "--p", "0.5", "--oracle", "--monitors"]
    assert main(argv) == 0  # builds the cached parser
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    capsys.readouterr()


def test_oracle_ratio_is_one_on_all_zero_weights(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("p mwm 3 2\n0 1 0\n1 2 0\n"))
    assert main(["run", "--input", "-", "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["output_weight"] == report["oracle_weight"] == 0
    assert report["ratio"] == 1.0


def test_run_exit_2_on_bad_epsilon(capsys):
    assert main(["run", "--gen", "path", "--n", "4", "--eps", "7"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, weight",
    [
        (["run", "--gen", "chain", "--n", "2000"], "1.9**1999"),
        (["run", "--gen", "chain", "--n", "30", "--base", "1e300"], "1e+300**29"),
        (["run", "--gen", "chain", "--n", "30", "--base", "inf"], "inf**29"),
        (["bench", "--gen", "chain", "--ns", "2000"], "1.9**1999"),
    ],
    ids=["run-long", "run-huge-base", "run-inf-base", "bench-long"],
)
def test_chain_past_float_range_exits_2(argv, weight, monkeypatch, capsys):
    """A chain whose top weight overflows a float is a capacity error, not a
    traceback with the ratio-violated exit code."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"stream-mwm: error: chain weight {weight} exceeds 2^63-1; reduce n or base\n"
    )
    assert captured.out == ""


def test_bench_csv_shape_and_determinism(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    argv = ["bench", "--ns", "100,200", "--reps", "2", "--seed", "5", "--eps", "1/2"]
    code, text = run_to_file(tmp_path, "bench.csv", argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    assert len(body) == 4
    cols = {name: i for i, name in enumerate(header)}
    for row in body:
        n = int(row[cols["n"]])
        assert int(row[cols["peak_live_entries"]]) <= int(row[cols["n_times_queue_cap"]])
        assert int(row[cols["max_queue_len"]]) <= int(row[cols["queue_cap"]])
        assert int(row[cols["n_times_queue_cap"]]) == n * int(row[cols["queue_cap"]])
    # The same command gives the same non-timing columns; each repetition
    # runs its own stream, and rep 0 is the stream of a --reps 1 sweep.
    def strip(text):
        return [
            {k: v for k, v in row.items() if not k.endswith("_ns")}
            for row in csv.DictReader(io.StringIO(text))
        ]
    stripped = strip(text)
    assert strip(run_to_file(tmp_path, "again.csv", argv)[1]) == stripped
    assert stripped[0]["output_weight"] != stripped[1]["output_weight"]
    assert stripped[2]["output_weight"] != stripped[3]["output_weight"]
    single = list(argv)
    single[argv.index("--reps") + 1] = "1"
    one_rep = strip(run_to_file(tmp_path, "single.csv", single)[1])
    assert one_rep == [stripped[0], stripped[2]]


def test_bench_parallel_workers(tmp_path, monkeypatch):
    """One CPU runs the rows in process, two run them in a worker pool; the
    rows, sorted by (n, rep), agree in every column but the timings."""
    argv = ["bench", "--ns", "200,100", "--reps", "2", "--seed", "5"]
    sweeps = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, text = run_to_file(tmp_path, f"bench{cpus}.csv", argv)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            for column in ("p50_ns", "p99_ns", "max_ns"):
                assert float(row.pop(column)) >= 0
        sweeps.append(rows)
    assert [(r["n"], r["rep"]) for r in sweeps[0]] == [
        ("100", "0"), ("100", "1"), ("200", "0"), ("200", "1")
    ]
    assert sweeps[1] == sweeps[0]


def test_gen_requires_n(capsys):
    assert main(["run", "--gen", "path"]) == 2
    capsys.readouterr()


def test_bench_refuses_n(capsys):
    # A sweep takes its node counts from --ns; --n is an unknown argument.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--ns", "50", "--n", "999999"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 999999" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--ns", "1"], "--ns values must be at least 2"),
        (["--ns", ","], "--ns lists no node count"),
        (["--ns", "10", "--reps", "0"], "--reps must be at least 1, got 0"),
        (["--ns", "10", "--reps", "-1"], "--reps must be at least 1, got -1"),
        (["--ns", "50", "--degree", "nan"], "--degree must be a number, got nan"),
    ],
    ids=["ns-1", "ns-empty", "reps-0", "reps-negative", "degree-nan"],
)
def test_bench_exit_2_on_node_count_below_two(argv, message, monkeypatch, capsys):
    """An empty or degenerate sweep is an error, not a header-only CSV."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert main(["bench"] + argv) == 2
    captured = capsys.readouterr()
    assert f"stream-mwm: error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("cpus", [1, 2])
def test_bench_exit_2_on_a_node_count_past_an_index(cpus, monkeypatch, capsys):
    n = 10**20
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert main(["bench", "--ns", f"{n},{n}", "--p", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"stream-mwm: error: out of memory for a graph of {n} nodes\n"
    assert captured.out == ""


@pytest.mark.parametrize("cpus", [1, 2])
def test_bench_exit_2_on_a_node_count_too_large_to_allocate(cpus, monkeypatch, capsys):
    """The engine's per-node array fails its allocation at once for 2**62
    nodes, in process or in a worker; the sweep reports it, no traceback."""
    n = 2**62
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    start = time.monotonic()
    assert main(["bench", "--ns", f"{n},{n}", "--p", "0"]) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.err == f"stream-mwm: error: out of memory for a graph of {n} nodes\n"
    assert captured.out == ""
