"""An epsilon too small for double precision is an input error (exit 2),
for `run` and for `bench`, not a traceback; a tiny epsilon that double
precision can still tell from zero runs, and promptly."""

import json
import time
from fractions import Fraction

import pytest

from conftest import byte_stdin
from stream_mwm import cli
from stream_mwm.cli import main

MESSAGE = "stream-mwm: error: epsilon 1/100000000000000000 is too small"


def test_run_exit_2_on_tiny_epsilon(capsys):
    assert main(["run", "--gen", "path", "--n", "4", "--eps", "1e-17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(MESSAGE)


@pytest.mark.parametrize("cpus", [1, 2])
def test_bench_exit_2_on_tiny_epsilon(cpus, monkeypatch, capsys):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert main(["bench", "--ns", "10,20", "--eps", "1e-17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(MESSAGE)


@pytest.mark.parametrize("eps", ["1e-8", "1e-12"])
def test_run_tiny_epsilon_returns_within_a_second(eps, capsys):
    # The queue cap grows like 1/eps; finding it must not take 1/eps steps.
    start = time.perf_counter()
    assert main(["run", "--gen", "path", "--n", "4", "--eps", eps]) == 0
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["epsilon"] == str(Fraction(eps))
    assert report["queue_cap"] > 10**8


@pytest.mark.parametrize("alg", ["semi", "simple", "greedy", "exact"])
@pytest.mark.parametrize(
    "eps, message",
    [
        ("0", "epsilon must be positive, got 0"),
        ("-1/2", "epsilon must be positive, got -1/2"),
        ("6", "epsilon must be below 6, got 6"),
        ("7", "epsilon must be below 6, got 7"),
        ("1e-17", "epsilon 1/100000000000000000 is too small"),
    ],
)
def test_every_alg_refuses_the_epsilons_the_engine_refuses(
    alg, eps, message, monkeypatch, capsys
):
    # The body's self-loop is never read: epsilon is refused before it.
    monkeypatch.setattr("sys.stdin", byte_stdin("p mwm 4 2\n0 1 5\n2 2 3\n"))
    assert main(["run", "--input", "-", "--alg", alg, f"--eps={eps}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"stream-mwm: error: {message}")


@pytest.mark.parametrize("alg", ["simple", "greedy", "exact"])
def test_the_baselines_check_no_node_count(alg, monkeypatch, capsys):
    # Only the engine needs n >= 2; the epsilon check does not add it.
    monkeypatch.setattr("sys.stdin", byte_stdin("p mwm 1 0\n"))
    assert main(["run", "--input", "-", "--alg", alg, "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["n"], report["output_weight"], report["ratio"]) == (1, 0, 1.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--gen", "er", "--n", "300000", "--p", "0.00005"],
        ["bench", "--ns", "300000"],
    ],
    ids=["run", "bench"],
)
def test_a_bad_epsilon_is_refused_before_a_stream_is_generated(argv, monkeypatch, capsys):
    # At this size, building the stream first took 2 s and about 350 MB on
    # a 2-CPU VM. One CPU keeps the bench row in this process.
    def generate(spec):
        raise AssertionError(f"generated {spec}")

    monkeypatch.setattr(cli, "generate", generate)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert main([*argv, "--eps", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "stream-mwm: error: epsilon must be below 6, got 7\n"


def test_a_bad_epsilon_is_reported_before_a_bad_header(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", byte_stdin("p mwm x 2\n0 1 5\n"))
    assert main(["run", "--input", "-", "--eps", "0"]) == 2
    assert capsys.readouterr().err == "stream-mwm: error: epsilon must be positive, got 0\n"
    assert main(["run", "--input", "-"]) == 2
    assert "header" in capsys.readouterr().err
