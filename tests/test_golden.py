"""Golden differential test: pinned reports and matchings of the engine.

Every deterministic report field (all but ``per_edge_ns``) and the sorted
matching are pinned for a dozen named streams, and a SHA-256 digest pins
the same observations over a seeded bulk corpus. The values were recorded
from the engine before its queues were rewritten; any change to the
matching, a counter, or the CLI report bytes shows up here.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from stream_mwm.cli import main
from stream_mwm.core import EdgeStream, WeightedEdge
from stream_mwm.engine import run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate

EPS_SWEEP = [Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2)]
HUB_EPS = Fraction(59, 10)


def _er(n, p, seed):
    return generate(GeneratorSpec(kind=GeneratorKind.ERDOS_RENYI, n=n, p=p, seed=seed))


def _hub(seed):
    """Contended hubs: 4 nodes, weights ceil(2.6**i); cap 10 at eps=59/10,
    so compaction fires on about a third of the seeds."""
    rng = random.Random(seed)
    edges = []
    for i in range(40):
        u, v = rng.sample(range(4), 2)
        edges.append(WeightedEdge(u, v, math.ceil(2.6**i)))
    return EdgeStream(4, edges)


def _observe(stream, eps):
    matching, report = run_stream(stream, eps)
    obs = report.to_dict()
    del obs["per_edge_ns"]
    obs["matching"] = [list(e) for e in sorted(matching.edges)]
    return obs


CASES = {
    "er12-eps1/10": (lambda: _er(12, 0.7, 21), Fraction(1, 10)),
    "er12-eps1/2": (lambda: _er(12, 0.7, 21), Fraction(1, 2)),
    "er12-eps1": (lambda: _er(12, 0.7, 21), Fraction(1)),
    "er12-eps2": (lambda: _er(12, 0.7, 21), Fraction(2)),
    "er20-eps1/10": (lambda: _er(20, 0.5, 3), Fraction(1, 10)),
    "adversarial16-eps1/2": (
        lambda: generate(GeneratorSpec(kind=GeneratorKind.ADVERSARIAL_INCREASING, n=16)),
        Fraction(1, 2),
    ),
    "chain64-eps2": (
        lambda: generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=64)),
        Fraction(2),
    ),
    "hub1": (lambda: _hub(1), HUB_EPS),
    "hub2": (lambda: _hub(2), HUB_EPS),
    "hub5": (lambda: _hub(5), HUB_EPS),
    "hub9": (lambda: _hub(9), HUB_EPS),
    "hub0-no-compaction": (lambda: _hub(0), HUB_EPS),
}

_SEMI = {"algorithm": "semi", "oracle_weight": None, "ratio": None, "monitor_verdicts": {}}

EXPECTED = {
    "er12-eps1/10": {
        "n": 12, "m": 44, "epsilon": "1/10", "ratio_bound": "21/10", "queue_cap": 541,
        "output_weight": 4366, "peak_live_entries": 13, "heavy_edges_k": 13,
        "max_queue_len": 3, "evictions_total": 0,
        "matching": [[0, 1, 706], [2, 4, 524], [3, 5, 769], [6, 9, 915], [7, 10, 945],
            [8, 11, 507]],
    },
    "er12-eps1/2": {
        "n": 12, "m": 44, "epsilon": "1/2", "ratio_bound": "5/2", "queue_cap": 94,
        "output_weight": 4366, "peak_live_entries": 11, "heavy_edges_k": 11,
        "max_queue_len": 3, "evictions_total": 0,
        "matching": [[0, 1, 706], [2, 4, 524], [3, 5, 769], [6, 9, 915], [7, 10, 945],
            [8, 11, 507]],
    },
    "er12-eps1": {
        "n": 12, "m": 44, "epsilon": "1", "ratio_bound": "3", "queue_cap": 48,
        "output_weight": 4366, "peak_live_entries": 10, "heavy_edges_k": 10,
        "max_queue_len": 2, "evictions_total": 0,
        "matching": [[0, 1, 706], [2, 4, 524], [3, 5, 769], [6, 9, 915], [7, 10, 945],
            [8, 11, 507]],
    },
    "er12-eps2": {
        "n": 12, "m": 44, "epsilon": "2", "ratio_bound": "4", "queue_cap": 26,
        "output_weight": 4285, "peak_live_entries": 8, "heavy_edges_k": 8,
        "max_queue_len": 2, "evictions_total": 0,
        "matching": [[0, 1, 706], [3, 5, 769], [4, 8, 950], [6, 9, 915], [7, 10, 945]],
    },
    "er20-eps1/10": {
        "n": 20, "m": 92, "epsilon": "1/10", "ratio_bound": "21/10", "queue_cap": 582,
        "output_weight": 7327, "peak_live_entries": 23, "heavy_edges_k": 23,
        "max_queue_len": 4, "evictions_total": 0,
        "matching": [[1, 19, 977], [2, 3, 620], [4, 10, 641], [5, 7, 843], [6, 11, 951],
            [8, 12, 987], [9, 16, 887], [13, 15, 888], [14, 17, 533]],
    },
    "adversarial16-eps1/2": {
        "n": 16, "m": 120, "epsilon": "1/2", "ratio_bound": "5/2", "queue_cap": 99,
        "output_weight": 6914, "peak_live_entries": 21, "heavy_edges_k": 21,
        "max_queue_len": 5, "evictions_total": 0,
        "matching": [[0, 14, 917], [1, 12, 512], [2, 11, 910], [3, 9, 891],
            [4, 13, 992], [5, 10, 892], [6, 7, 895], [8, 15, 905]],
    },
    "chain64-eps2": {
        "n": 64, "m": 63, "epsilon": "2", "ratio_bound": "4", "queue_cap": 36,
        "output_weight": 364314838217740352, "peak_live_entries": 36,
        "heavy_edges_k": 63, "max_queue_len": 36, "evictions_total": 28,
        "matching": [[0, 63, 364314838217740352]],
    },
    "hub1": {
        "n": 4, "m": 40, "epsilon": "59/10", "ratio_bound": "79/10", "queue_cap": 10,
        "output_weight": 16143315305849516, "peak_live_entries": 19,
        "heavy_edges_k": 34, "max_queue_len": 10, "evictions_total": 18,
        "matching": [[2, 0, 869041521632726], [3, 1, 15274273784216790]],
    },
    "hub2": {
        "n": 4, "m": 40, "epsilon": "59/10", "ratio_bound": "79/10", "queue_cap": 10,
        "output_weight": 15274273813696301, "peak_live_entries": 18,
        "heavy_edges_k": 30, "max_queue_len": 10, "evictions_total": 16,
        "matching": [[1, 0, 29479511], [2, 3, 15274273784216790]],
    },
    "hub5": {
        "n": 4, "m": 40, "epsilon": "59/10", "ratio_bound": "79/10", "queue_cap": 10,
        "output_weight": 21148994470454016, "peak_live_entries": 18,
        "heavy_edges_k": 31, "max_queue_len": 10, "evictions_total": 16,
        "matching": [[0, 1, 15274273784216790], [3, 2, 5874720686237226]],
    },
    "hub9": {
        "n": 4, "m": 40, "epsilon": "59/10", "ratio_bound": "79/10", "queue_cap": 10,
        "output_weight": 16143315305849516, "peak_live_entries": 18,
        "heavy_edges_k": 33, "max_queue_len": 10, "evictions_total": 17,
        "matching": [[0, 2, 15274273784216790], [1, 3, 869041521632726]],
    },
    "hub0-no-compaction": {
        "n": 4, "m": 40, "epsilon": "59/10", "ratio_bound": "79/10", "queue_cap": 10,
        "output_weight": 15323718568105771, "peak_live_entries": 19,
        "heavy_edges_k": 32, "max_queue_len": 10, "evictions_total": 15,
        "matching": [[1, 0, 15274273784216790], [2, 3, 49444783888981]],
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_case_is_pinned(name):
    make, eps = CASES[name]
    assert _observe(make(), eps) == {**_SEMI, **EXPECTED[name]}


def corpus_digest():
    """SHA-256 over the observations of the bulk corpus, one JSON line each:
    the 1,000 seeded acceptance instances at four epsilons, 200 hub seeds,
    and the geometric chain at every n from 2 to 64."""
    h = hashlib.sha256()

    def add(tag, stream, eps):
        line = json.dumps([tag, str(eps), _observe(stream, eps)], sort_keys=True)
        h.update(line.encode() + b"\n")

    for i in range(1000):
        stream = _er(2 + (i % 11), 0.3 if i % 2 == 0 else 0.7, 10_000 + i)
        for eps in EPS_SWEEP:
            add(f"er{i}", stream, eps)
    for seed in range(200):
        add(f"hub{seed}", _hub(seed), HUB_EPS)
    for n in range(2, 65):
        chain = generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=n))
        add(f"chain{n}", chain, Fraction(2))
    return h.hexdigest()


CORPUS_DIGEST = "95d217af8873a13beaadc367a2e6166538b784aa64aec3b8289c7b3ad4dc298c"


def test_bulk_corpus_digest():
    assert corpus_digest() == CORPUS_DIGEST


CLI_ARGV = ["run", "--gen", "er", "--n", "12", "--p", "0.7", "--seed", "21",
            "--eps", "1/2", "--alg", "semi", "--oracle", "--monitors"]

CLI_REPORT = (
    '{"algorithm": "semi", "epsilon": "1/2", "evictions_total": 0, "heavy_edges_k": 11, '
    '"m": 44, "max_queue_len": 3, "monitor_verdicts": {"eviction_gap": "pass", '
    '"phi_growth": "pass", "ratio_bound": "pass", "terminal_weights": "pass"}, "n": 12, '
    '"oracle_weight": 4828, "output_weight": 4366, "peak_live_entries": 11, '
    '"per_edge_ns": null, "queue_cap": 94, "ratio": 1.1058176820888685, "ratio_bound": "5/2"}\n'
)


def test_cli_report_bytes(capsys):
    assert main(CLI_ARGV) == 0
    assert capsys.readouterr().out == CLI_REPORT
