"""Golden test of the CLI surface: stdout, stderr and exit code of `run`.

A matrix of inputs (valid and faulty files, a missing file, generated
streams, a failing generator) is crossed with every ``--alg``, ``--oracle``
on and off, ``--monitors`` on and off, both report formats and four
``--eps`` values (two valid, one out of range, one unparsable). A SHA-256
digest pins the whole matrix; a few named cases pin readable outputs,
including which of two faults is reported. The `bench` rows are pinned in
every column but the timing ones, in numeric order of ``n``.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import random

import pytest

from stream_mwm import cli
from stream_mwm.cli import main

FILES = {
    "comments": (
        "c a comment before the header\n"
        "p mwm 6 7\n"
        "\n"
        "c a comment in the body\n"
        "0 1 5\n"
        "1\t2\t8\n"
        "  2 3 7  \n"
        "\n"
        "3 4 9\n"
        "4 5 4\n"
        "0 5 6\n"
        "1 4 10\n"
    ),
    "bad-line": "p mwm 4 3\n0 1 5\n2 2 3\n1 3 4\n",
    "short-body": "p mwm 4 5\n0 1 5\n1 2 6\n2 3 7\n",
    "weight-2^63": f"p mwm 3 2\n0 1 5\n1 2 {2**63}\n",
}


def _random_file(n, m, seed):
    rng = random.Random(seed)
    lines = [f"p mwm {n} {m}"]
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        lines.append(f"{u} {v} {rng.randint(0, 1000)}")
    return "\n".join(lines) + "\n"


# n = 30 and n = 80 are above the oracle limit (22).
FILES["n30"] = _random_file(30, 90, 1)
FILES["n80"] = _random_file(80, 240, 2)

MISSING = "/nonexistent/stream.mwm"

INPUTS = [("file", name) for name in FILES] + [
    ("argv", ["--input", MISSING]),
    ("argv", ["--gen", "er", "--n", "10", "--p", "0.5", "--wmax", "100", "--seed", "7"]),
    ("argv", ["--gen", "chain", "--n", "30"]),
    ("argv", ["--gen", "chain", "--n", "80"]),  # weight overflow: the generator fails
    ("argv", ["--gen", "path"]),  # no --n
]
ALGS = ["semi", "simple", "greedy", "exact"]
EPS = ["1/2", "2", "7", "x"]


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    result = {}
    for name, text in FILES.items():
        path = root / f"{name}.mwm"
        path.write_text(text, encoding="utf-8")
        result[name] = str(path)
    return result


def _source(kind, value, paths):
    if kind == "file":
        return ["--input", paths[value]], ["--input", f"<{value}>"]
    return value, value


def matrix(paths):
    """Yield (portable argv, exit code, stdout, stderr) for every cell."""
    for (kind, value), alg, oracle, monitors, report, eps in itertools.product(
        INPUTS, ALGS, (False, True), (False, True), ("json", "csv"), EPS
    ):
        flags = ["--alg", alg, "--report", report, "--eps", eps]
        flags += ["--oracle"] * oracle + ["--monitors"] * monitors
        real, portable = _source(kind, value, paths)
        yield ["run"] + portable + flags, *run_cli(["run"] + real + flags)


# Re-pinned when --eps came to be checked before the input is opened or
# generated: of the 1,408 cells, only the 192 with a bad --eps ("7", "x")
# and an input that fails before its first edge (the missing file, the
# failing generator, --gen without --n) changed, each in stderr alone, which
# now names the --eps. Exit codes and stdout stayed the same.
MATRIX_DIGEST = "0798129176ad29c2a9c8e1b08117175ca179d1069a49dff0ccd8f41bd2b37808"


def test_run_matrix_digest(paths):
    h = hashlib.sha256()
    cells = 0
    for cell in matrix(paths):
        h.update(json.dumps(cell).encode() + b"\n")
        cells += 1
    assert cells == len(INPUTS) * len(ALGS) * 2 * 2 * 2 * len(EPS)
    assert h.hexdigest() == MATRIX_DIGEST


COMMENTS_REPORT = (
    '{"algorithm": "semi", "epsilon": "1/2", "evictions_total": 0, "heavy_edges_k": 5, '
    '"m": 7, "max_queue_len": 2, "monitor_verdicts": {"eviction_gap": "pass", '
    '"phi_growth": "pass", "ratio_bound": "pass", "terminal_weights": "pass"}, "n": 6, '
    '"oracle_weight": 23, "output_weight": 23, "peak_live_entries": 5, '
    '"per_edge_ns": null, "queue_cap": 82, "ratio": 1.0, "ratio_bound": "5/2"}\n'
)

NAMED = {
    "comments-semi-oracle-monitors": (
        ["comments", "--oracle", "--monitors"], 0, COMMENTS_REPORT, ""
    ),
    # A run meets the bad line only when it reads it, so a bad --eps is
    # reported first, for every --alg, also when the input is read into
    # memory (here for the oracle).
    "bad-line-semi-bad-eps": (
        ["bad-line", "--eps", "x"], 2, "",
        "stream-mwm: error: cannot parse epsilon 'x': "
        "Invalid literal for Fraction: 'x'\n",
    ),
    "bad-line-greedy-bad-eps": (
        ["bad-line", "--alg", "greedy", "--eps", "x"], 2, "",
        "stream-mwm: error: cannot parse epsilon 'x': "
        "Invalid literal for Fraction: 'x'\n",
    ),
    "bad-line-greedy-oracle-bad-eps": (
        ["bad-line", "--alg", "greedy", "--oracle", "--eps", "x"], 2, "",
        "stream-mwm: error: cannot parse epsilon 'x': "
        "Invalid literal for Fraction: 'x'\n",
    ),
    "bad-line-semi": (
        ["bad-line"], 2, "", "stream-mwm: error: line 3: self-loop at node 2\n"
    ),
    "short-body-semi": (
        ["short-body"], 2, "",
        "stream-mwm: error: header declared 5 edges but found 3 by line 4\n",
    ),
    "weight-2^63-semi-monitors": (
        ["weight-2^63", "--monitors"], 2, "",
        "stream-mwm: error: line 3: weight 9223372036854775808 outside [0, 2^63-1]\n",
    ),
    "n30-exact": (
        ["n30", "--alg", "exact"], 2, "",
        "stream-mwm: error: exact solver handles at most 22 nodes, got 30\n",
    ),
    "n80-semi-monitors-csv": (
        ["n80", "--monitors", "--report", "csv", "--eps", "2"], 0,
        "algorithm,n,m,epsilon,output_weight,oracle_weight,ratio,ratio_bound,"
        "peak_live_entries,queue_cap,heavy_edges_k,max_queue_len,evictions_total,"
        "p50_ns,p99_ns,max_ns,monitor_phi_growth,monitor_eviction_gap,"
        "monitor_terminal_weights,monitor_ratio_bound\n"
        "semi,80,240,2,24605,,,4,46,37,46,3,0,,,,pass,pass,pass,pass\n",
        "",
    ),
    "n80-eps-7": (
        ["n80", "--eps", "7"], 2, "", "stream-mwm: error: epsilon must be below 6, got 7\n"
    ),
    # Every --alg refuses the epsilon the engine refuses, before the body.
    "comments-greedy-eps-7": (
        ["comments", "--alg", "greedy", "--eps", "7"], 2, "",
        "stream-mwm: error: epsilon must be below 6, got 7\n",
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_run(name, paths):
    (file, *flags), code, out, err = NAMED[name]
    assert run_cli(["run", "--input", paths[file]] + flags) == (code, out, err)


def test_missing_file_and_failing_generator():
    code, out, err = run_cli(["run", "--input", MISSING])
    assert (code, out) == (2, "")
    assert err.startswith("stream-mwm: error: [Errno 2] No such file or directory")
    assert run_cli(["run", "--gen", "chain", "--n", "80"]) == (
        2, "",
        "stream-mwm: error: chain weight 1.9**79 exceeds 2^63-1; reduce n or base\n",
    )
    assert run_cli(["run", "--gen", "path"]) == (
        2, "", "stream-mwm: error: --gen requires --n\n"
    )
    # A bad --eps is reported first: it is checked before the input is
    # opened or generated.
    for source in (["--input", MISSING], ["--gen", "chain", "--n", "80"], ["--gen", "path"]):
        assert run_cli(["run", *source, "--eps", "7"]) == (
            2, "", "stream-mwm: error: epsilon must be below 6, got 7\n"
        )


def test_unwritable_out_exits_2(paths):
    code, out, err = run_cli(
        ["run", "--input", paths["comments"], "--out", "/nonexistent/dir/r.json"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("stream-mwm: error: [Errno 2] No such file or directory")


TIMING = ("p50_ns", "p99_ns", "max_ns")

# Rep 0 replays --seed; rep 1 gets its own stream, seeded from (seed, rep).
BENCH_ROWS = [
    {"n": n, "m": m, "rep": rep, "epsilon": "1/2", "peak_live_entries": k,
     "queue_cap": cap, "n_times_queue_cap": ncap, "max_queue_len": qlen,
     "heavy_edges_k": k, "evictions_total": "0", "output_weight": weight}
    for n, rep, m, k, cap, ncap, qlen, weight in [
        ("200", "0", "1647", "261", "144", "28800", "6", "81956"),
        ("200", "1", "1596", "255", "144", "28800", "5", "77586"),
        ("1000", "0", "7951", "1246", "173", "173000", "6", "391658"),
        ("1000", "1", "7985", "1264", "173", "173000", "7", "394795"),
    ]
]


def test_bench_rows_sort_by_numeric_n(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    code, out, err = run_cli(
        ["bench", "--ns", "1000,200", "--reps", "2", "--seed", "4"]
    )
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        for column in TIMING:
            assert float(row.pop(column)) >= 0
    # A string sort would put "1000" before "200".
    assert [(r["n"], r["rep"]) for r in rows] == [
        ("200", "0"), ("200", "1"), ("1000", "0"), ("1000", "1")
    ]
    assert rows == BENCH_ROWS
