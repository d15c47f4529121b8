"""The benchmark harness in ``perfbench/`` looks up names of the package by
name: `workloads` imports them, and `tracing.install` wraps them. A name
that leaves the package breaks the benchmark, so tier-1 imports the one,
installs the other and makes a traced run, in a process of its own (the
tracer patches the package for good)."""

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import sys

import tracing
import workloads  # noqa: F401
from stream_mwm import cli

tracing.install(tracing.Tracer())
sys.exit(cli.main([
    "run", "--gen", "er", "--n", "12", "--p", "0.6", "--seed", "3",
    "--oracle", "--monitors", "--out", sys.argv[1],
]))
"""


def test_the_benchmark_finds_every_name_it_looks_up(tmp_path):
    out = tmp_path / "report.json"
    path = os.pathsep.join([str(_ROOT / "perfbench"), str(_ROOT / "src")])
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(out.read_text())
    assert report["oracle_weight"] > 0
    assert set(report["monitor_verdicts"].values()) == {"pass"}
