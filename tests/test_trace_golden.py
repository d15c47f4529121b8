"""Golden differential test: pinned engine traces.

A SHA-256 digest pins every light, pushed and evicted event of a traced
`run_stream` (its kind, edge, reduced weight and potential snapshot) on
Erdos-Renyi streams at three epsilons, an evicting geometric chain, the
contended hubs of `test_golden` and a seeded multigraph corpus. Events are
selected by their kind string, so any change to what the pass records, or
in which order, shows up here while the unwind stays free to change.
"""

import hashlib
import json
from fractions import Fraction

from conftest import random_multigraph_stream
from test_golden import HUB_EPS, _er, _hub

from stream_mwm.engine import run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate

PASS_KINDS = ("light", "pushed", "evicted")
ER_EPS = [Fraction(1, 10), Fraction(1, 2), Fraction(2)]


def _inputs():
    for eps in ER_EPS:
        yield f"er12/{eps}", _er(12, 0.7, 21), eps
        yield f"er20/{eps}", _er(20, 0.5, 3), eps
    chain = generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=64))
    yield "chain64", chain, Fraction(2)
    for seed in range(10):
        yield f"hub{seed}", _hub(seed), HUB_EPS
    for seed in range(40):
        yield f"multi{seed}", random_multigraph_stream(seed), ER_EPS[seed % 3]


def trace_digest():
    """SHA-256 over one JSON line per pass event, tagged by input."""
    h = hashlib.sha256()
    for tag, stream, eps in _inputs():
        trace = []
        run_stream(stream, eps, trace_sink=trace)
        for ev in trace:
            if ev.kind in PASS_KINDS:
                line = json.dumps([
                    tag, ev.kind, list(ev.edge), ev.reduced_weight,
                    None if ev.potentials is None else list(ev.potentials),
                ])
                h.update(line.encode() + b"\n")
    return h.hexdigest()


TRACE_DIGEST = "001bdc4369be59c632a541d01588c9cae39888264206c3733a965cddb0c9a8e4"


def test_trace_digest():
    assert trace_digest() == TRACE_DIGEST
