import csv
import gc
import io
import json
import time

import pytest

from stream_mwm import cli
from stream_mwm.cli import main
from stream_mwm.core import I64_MAX, Matching, WeightedEdge
from stream_mwm.monitors import CheckVerdict, MonitorFailure
from stream_mwm.report import RUN_CSV_HEADER


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


def test_run_monitors_skipped_beyond_trace_limits(capsys):
    code = main(
        ["run", "--gen", "er", "--n", "100", "--p", "0.1", "--seed", "2",
         "--alg", "semi", "--monitors"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["monitor_verdicts"]["phi_growth"] == "skipped"
    assert report["monitor_verdicts"]["ratio_bound"] == "pass"


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
    assert "self-loop at line 2" in capsys.readouterr().err


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


ER_10 = ["run", "--gen", "er", "--n", "10", "--p", "0.5", "--seed", "7"]


def test_run_exit_1_when_the_oracle_beats_the_bound(monkeypatch, capsys):
    heavy = Matching.of([WeightedEdge(0, 1, I64_MAX)])
    monkeypatch.setattr(cli, "exact_mwm", lambda g: heavy)
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
    monkeypatch.setattr(cli, check, lambda *args: CheckVerdict(ok=False))
    assert main(ER_10 + ["--monitors"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "stream-mwm: monitor failure\n"
    verdicts = json.loads(captured.out)["monitor_verdicts"]
    name = check.removeprefix("check_")
    assert verdicts[name] == "fail"
    assert {v for k, v in verdicts.items() if k != name} == {"pass"}


def test_run_exit_3_when_the_ratio_bound_monitor_fails(monkeypatch, capsys):
    def fail(params, k):
        raise MonitorFailure("bound exceeded")

    monkeypatch.setattr(cli, "check_ratio_bound", fail)
    assert main(ER_10 + ["--monitors"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "stream-mwm: monitor failure\n"
    assert json.loads(captured.out)["monitor_verdicts"]["ratio_bound"] == "fail"


def test_an_oracle_and_monitor_run_leaves_no_cyclic_garbage(capsys):
    """Each run's oracle memo is freed when the run returns, so a batch of
    in-process runs does not hold memos until the next cyclic collection."""
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
    monkeypatch.setenv("STREAM_MWM_THREADS", "1")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"stream-mwm: error: chain weight {weight} exceeds 2^63-1; reduce n or base\n"
    )
    assert captured.out == ""


def test_bench_csv_shape_and_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("STREAM_MWM_THREADS", "1")
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
    monkeypatch.setenv("STREAM_MWM_THREADS", "2")
    code, text = run_to_file(
        tmp_path, "bench2.csv",
        ["bench", "--ns", "100,200", "--reps", "1", "--seed", "5"],
    )
    assert code == 0
    assert len(text.strip().split("\n")) == 3


def test_gen_requires_n(capsys):
    assert main(["run", "--gen", "path"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, threads, message",
    [
        (["--ns", "1"], "1", "--ns values must be at least 2"),
        (["--ns", ","], "1", "--ns lists no node count"),
        (["--ns", "10", "--reps", "0"], "1", "--reps must be at least 1, got 0"),
        (["--ns", "10", "--reps", "-1"], "1", "--reps must be at least 1, got -1"),
        (["--ns", "10"], "0", "STREAM_MWM_THREADS must be at least 1, got 0"),
        (["--ns", "10"], "-2", "STREAM_MWM_THREADS must be at least 1, got -2"),
        (["--ns", "50", "--degree", "nan"], "1", "--degree must be a number, got nan"),
    ],
    ids=[
        "ns-1", "ns-empty", "reps-0", "reps-negative", "threads-0", "threads-negative",
        "degree-nan",
    ],
)
def test_bench_exit_2_on_node_count_below_two(argv, threads, message, monkeypatch, capsys):
    """An empty or degenerate sweep is an error, not a header-only CSV."""
    monkeypatch.setenv("STREAM_MWM_THREADS", threads)
    assert main(["bench"] + argv) == 2
    captured = capsys.readouterr()
    assert f"stream-mwm: error: {message}" in captured.err
    assert captured.out == ""


def test_bench_exit_2_on_non_integer_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("STREAM_MWM_THREADS", "abc")
    assert main(["bench", "--ns", "100"]) == 2
    err = capsys.readouterr().err
    assert "stream-mwm: error: STREAM_MWM_THREADS must be an integer" in err
