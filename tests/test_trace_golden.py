"""Golden differential test: pinned engine traces.

A SHA-256 digest pins every light, pushed and evicted event of a pass
traced through `StreamingState`'s trace hook (its kind, edge, reduced weight and, for a light or pushed
event, the potentials of the edge's two endpoints after the event) on
Erdos-Renyi streams at three epsilons, an evicting geometric chain, the
contended hubs of `test_golden` and a seeded multigraph corpus. Events are
selected by their kind string, so any change to what the pass records, or
in which order, shows up here while the unwind stays free to change.
"""

import hashlib
import json
from fractions import Fraction

from conftest import random_multigraph_stream, traced_pass
from test_golden import HUB_EPS, _er, _hub

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
        _, trace = traced_pass(stream, eps)
        for ev in trace:
            if ev.kind in PASS_KINDS:
                line = json.dumps([
                    tag, ev.kind, list(ev.edge), ev.reduced_weight,
                    None if ev.kind == "evicted" else [ev.phi_u, ev.phi_v],
                ])
                h.update(line.encode() + b"\n")
    return h.hexdigest()


TRACE_DIGEST = "5e79c72debc5f0e56f643e5ef5f606b1b59faa42b8a8aa4d163c6d229ba294d5"


def test_trace_digest():
    assert trace_digest() == TRACE_DIGEST
