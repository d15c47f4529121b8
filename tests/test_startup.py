"""What a process loads to start: importing the CLI, or running a plain
``run --input``, loads no module that it does not run. The records are
NamedTuples, not dataclasses, so `dataclasses` and the `inspect` it pulls
in stay out; `csv` and `statistics` are imported by the one function
that uses each; and `reference` by a run that calls one of its solvers,
whose report is the same as when it was loaded up front. A file of
several blocks, parsed by a forked worker from its second block on, loads
no process or serialization module (`pickle`, `subprocess`,
`multiprocessing`) either."""

import json
import os
import subprocess
import sys
from pathlib import Path

from stream_mwm import cli, reference
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate
from stream_mwm.streamio import serialize_stream

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules that neither the import nor a plain file run may load.
_UNUSED = [
    "dataclasses", "inspect", "csv", "statistics", "stream_mwm.reference",
    "pickle", "subprocess", "multiprocessing",
]

_SCRIPT = """
import json
import sys

runs, out, unused = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3].split(",")


def loaded():
    return [name for name in unused if name in sys.modules]


import stream_mwm.cli

steps = {"import": loaded()}
# Every read that reaches its second block forks its worker, whatever the
# CPUs here; the pids show that one did.
from stream_mwm import streamio
import os

streamio._may_fork = lambda: True
fork, workers = os.fork, []


def recorded():
    pid = fork()
    workers.append(pid)
    return pid


os.fork = recorded
reports = {}
for name, argv in runs.items():
    code = stream_mwm.cli.main([*argv, "--out", out])
    with open(out, encoding="utf-8") as fp:
        reports[name] = (code, fp.read())
    steps[name] = loaded()
print(json.dumps({"steps": steps, "reports": reports, "workers": len(workers)}))
"""


def test_a_plain_run_loads_only_what_it_runs(tmp_path):
    path = tmp_path / "k6.mwm"
    path.write_text(
        "p mwm 6 8\n0 1 5\n1 2 9\n2 3 4\nc a comment\n3 4 8\n4 5 2\n5 0 7\n0 3 6\n1 4 3\n",
        encoding="utf-8",
    )
    blocks = tmp_path / "er.mwm"
    spec = GeneratorSpec(kind=GeneratorKind.ERDOS_RENYI, n=300, p=0.5, seed=6)
    blocks.write_text(serialize_stream(generate(spec)), encoding="utf-8")
    runs = {
        "plain": ["run", "--input", str(path)],
        "blocks": ["run", "--input", str(blocks)],
        "oracle": ["run", "--input", str(path), "--oracle", "--monitors"],
        "greedy": ["run", "--input", str(path), "--alg", "greedy"],
    }
    out = tmp_path / "report.json"
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(runs), str(out), ",".join(_UNUSED)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    steps = got["steps"]
    assert steps["import"] == steps["plain"] == steps["blocks"] == []
    assert got["workers"] == 1
    assert steps["oracle"] == steps["greedy"] == ["stream_mwm.reference"]

    # The same runs here, where `reference` is loaded from the start.
    for name, argv in runs.items():
        code = cli.main([*argv, "--out", str(out)])
        assert got["reports"][name] == [code, out.read_text(encoding="utf-8")], name
    # 1-2, 3-4 and 5-0 weigh 9 + 8 + 7.
    assert json.loads(got["reports"]["oracle"][1])["oracle_weight"] == 24


def test_the_cli_keeps_a_solver_bound_in_its_place(tmp_path, monkeypatch):
    # perfbench's tracer looks the solvers up on `cli` and binds its
    # wrappers there; a run calls the wrapper, not the solver it wraps.
    assert cli.exact_mwm is reference.exact_mwm
    calls = []

    def counted(g):
        calls.append(g.n)
        return reference.optimum_weight(g)

    monkeypatch.setattr(cli, "optimum_weight", counted)
    out = tmp_path / "report.json"
    assert cli.main(["run", "--gen", "er", "--n", "8", "--p", "0.5", "--oracle",
                     "--out", str(out)]) == 0
    assert calls == [8]
    assert not hasattr(cli, "no_such_name")
