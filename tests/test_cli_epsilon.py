"""An epsilon too small for double precision is an input error (exit 2),
for `run` and for `bench`, not a traceback."""

import pytest

from stream_mwm.cli import main

MESSAGE = "stream-mwm: error: epsilon 1/100000000000000000 is too small"


def test_run_exit_2_on_tiny_epsilon(capsys):
    assert main(["run", "--gen", "path", "--n", "4", "--eps", "1e-17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(MESSAGE)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bench_exit_2_on_tiny_epsilon(threads, monkeypatch, capsys):
    monkeypatch.setenv("STREAM_MWM_THREADS", threads)
    assert main(["bench", "--ns", "10,20", "--eps", "1e-17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(MESSAGE)
