"""An epsilon too small for double precision is an input error (exit 2),
for `run` and for `bench`, not a traceback; a tiny epsilon that double
precision can still tell from zero runs, and promptly."""

import json
import time
from fractions import Fraction

import pytest

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
