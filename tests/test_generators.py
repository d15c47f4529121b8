import hashlib
import math
import random
import tracemalloc

import pytest

from stream_mwm import generators
from stream_mwm.core import CapacityError
from stream_mwm.generators import (
    GeneratorKind,
    GeneratorSpec,
    StreamOrder,
    generate,
)
from stream_mwm.streamio import serialize_stream


def spec(kind, **kwargs):
    return GeneratorSpec(kind=GeneratorKind(kind), **kwargs)


def test_path_structure():
    stream = generate(spec("path", n=4, seed=5))
    assert len(stream.edges) == 3
    assert [(e.u, e.v) for e in stream.edges] == [(0, 1), (1, 2), (2, 3)]
    assert all(0 <= e.weight <= 1000 for e in stream.edges)


def test_adversarial_structure():
    stream = generate(spec("adversarial", n=5, weight_max=1000, seed=1))
    weights = [e.weight for e in stream.edges]
    assert len(stream.edges) == 10
    assert all(a < b for a, b in zip(weights, weights[1:]))
    assert weights[-1] <= 1000
    pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in stream.edges}
    assert len(pairs) == 10  # complete graph on 5 nodes


def test_adversarial_requires_room_for_distinct_weights():
    with pytest.raises(CapacityError):
        generate(spec("adversarial", n=5, weight_max=9))


def test_chain_structure():
    stream = generate(spec("chain", n=8, base=1.9))
    assert [(e.u, e.v) for e in stream.edges] == [(0, t) for t in range(1, 8)]
    assert [e.weight for e in stream.edges] == [
        math.ceil(1.9**t) for t in range(1, 8)
    ]


def test_chain_capacity_error_past_63_bits():
    with pytest.raises(CapacityError):
        generate(spec("chain", n=65, base=2.0))


@pytest.mark.parametrize(
    "n, base",
    [(2000, 1.9), (30, 1e300), (2, 1e300), (30, math.inf)],
    ids=["long", "huge-base", "huge-single-edge", "inf-base"],
)
def test_chain_capacity_error_past_float_range(n, base):
    with pytest.raises(CapacityError, match="exceeds 2\\^63-1"):
        generate(spec("chain", n=n, base=base))


def test_chain_rejects_nan_base():
    with pytest.raises(ValueError, match="chain base must exceed 1, got nan"):
        generate(spec("chain", n=5, base=math.nan))


def test_complete_structure():
    stream = generate(spec("complete", n=5, seed=9))
    assert len(stream.edges) == 10


def test_er_determinism_is_byte_identical():
    a = generate(spec("er", n=30, p=0.4, seed=123))
    b = generate(spec("er", n=30, p=0.4, seed=123))
    assert serialize_stream(a) == serialize_stream(b)
    c = generate(spec("er", n=30, p=0.4, seed=124))
    assert serialize_stream(a) != serialize_stream(c)


def test_er_edge_count_tracks_probability():
    n = 1000
    p = 16 / (n - 1)
    stream = generate(spec("er", n=n, p=p, seed=7))
    expected = p * n * (n - 1) / 2
    assert 0.8 * expected < len(stream.edges) < 1.2 * expected
    assert all(0 <= e.u < e.v < n for e in stream.edges)


def test_er_extreme_probabilities():
    assert len(generate(spec("er", n=10, p=0.0)).edges) == 0
    assert len(generate(spec("er", n=10, p=1.0)).edges) == 45


def test_orders():
    base = spec("er", n=20, p=0.5, seed=3)
    as_gen = generate(base)
    inc = generate(spec("er", n=20, p=0.5, seed=3, order=StreamOrder.INCREASING_WEIGHT))
    dec = generate(spec("er", n=20, p=0.5, seed=3, order=StreamOrder.DECREASING_WEIGHT))
    shuf = generate(spec("er", n=20, p=0.5, seed=3, order=StreamOrder.SHUFFLED))
    shuf2 = generate(spec("er", n=20, p=0.5, seed=3, order=StreamOrder.SHUFFLED))
    assert sorted(as_gen.edges) == sorted(inc.edges) == sorted(shuf.edges)
    ws = [e.weight for e in inc.edges]
    assert ws == sorted(ws)
    wd = [e.weight for e in dec.edges]
    assert wd == sorted(wd, reverse=True)
    assert serialize_stream(shuf) == serialize_stream(shuf2)
    other_seed = generate(
        spec("er", n=20, p=0.5, seed=3, order=StreamOrder.SHUFFLED, order_seed=99)
    )
    assert sorted(other_seed.edges) == sorted(shuf.edges)


def test_generator_input_validation():
    with pytest.raises(ValueError):
        generate(spec("er", n=1))
    with pytest.raises(ValueError):
        generate(spec("er", n=5, p=1.5))
    with pytest.raises(ValueError):
        generate(spec("chain", n=5, base=1.0))
    with pytest.raises(ValueError):
        generate(spec("path", n=4, weight_max=0))


# Sizes keep each stream small; adversarial needs weight_max >= n(n-1)/2, so
# its small weight_max cases pin the CapacityError message instead.
DIGEST_NODES = {
    GeneratorKind.ERDOS_RENYI: 40,
    GeneratorKind.COMPLETE: 12,
    GeneratorKind.PATH: 30,
    GeneratorKind.GEOMETRIC_CHAIN: 12,
    GeneratorKind.ADVERSARIAL_INCREASING: 12,
}
DIGEST_WEIGHT_MAXES = (1, 2, 7, 8, 1000, 2**31, 2**63 - 1)
DIGEST_SEEDS = (0, 12345)


def generator_digest() -> str:
    """SHA-256 over the serialized streams of every kind, order, weight_max
    and seed in the tables above."""
    h = hashlib.sha256()
    for kind, n in DIGEST_NODES.items():
        for order in StreamOrder:
            for weight_max in DIGEST_WEIGHT_MAXES:
                for seed in DIGEST_SEEDS:
                    s = GeneratorSpec(
                        kind=kind, n=n, weight_max=weight_max, seed=seed, p=0.3,
                        order=order,
                    )
                    try:
                        text = serialize_stream(generate(s))
                    except CapacityError as exc:
                        text = f"CapacityError: {exc}\n"
                    h.update(text.encode())
    return h.hexdigest()


#: Recorded on the randint-based generators; byte identity is the contract.
GENERATOR_DIGEST = "c87e357bc6e9ca06e4a977b94e21bba5d4874245409ab739f1aa751e518ee8f5"


def test_generator_digest_pinned():
    assert generator_digest() == GENERATOR_DIGEST


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_er_edge_cap_is_exact(monkeypatch, seed):
    s = spec("er", n=60, p=0.2, seed=seed)
    full = generate(s)
    m = len(full.edges)
    monkeypatch.setattr(generators, "MAX_EDGES", m)
    assert serialize_stream(generate(s)) == serialize_stream(full)
    monkeypatch.setattr(generators, "MAX_EDGES", m - 1)
    with pytest.raises(CapacityError, match=f"stream exceeds {m - 1} edges"):
        generate(s)


@pytest.mark.parametrize("kind", ["complete", "adversarial"])
def test_all_pairs_edge_cap(monkeypatch, kind):
    s = spec(kind, n=10, weight_max=1000)
    monkeypatch.setattr(generators, "MAX_EDGES", 45)
    assert len(generate(s).edges) == 45
    monkeypatch.setattr(generators, "MAX_EDGES", 44)
    with pytest.raises(CapacityError, match="10 nodes has 45 > 44 edges"):
        generate(s)


def test_path_edge_cap(monkeypatch):
    s = spec("path", n=40)
    monkeypatch.setattr(generators, "MAX_EDGES", 39)
    assert len(generate(s).edges) == 39
    monkeypatch.setattr(generators, "MAX_EDGES", 10)
    with pytest.raises(CapacityError, match="path on 40 nodes has 39 > 10 edges"):
        generate(s)


def test_chain_edge_cap(monkeypatch):
    s = spec("chain", n=40)
    monkeypatch.setattr(generators, "MAX_EDGES", 39)
    assert len(generate(s).edges) == 39
    monkeypatch.setattr(generators, "MAX_EDGES", 10)
    with pytest.raises(CapacityError, match="chain on 40 nodes has 39 > 10 edges"):
        generate(s)


def test_er_at_probability_one_keeps_the_complete_cap(monkeypatch):
    monkeypatch.setattr(generators, "MAX_EDGES", 44)
    with pytest.raises(CapacityError, match="45 > 44"):
        generate(spec("er", n=10, p=1.0))


COMPLETE_CAP = "complete graph on 10 nodes has 45 > 44 edges"


@pytest.mark.parametrize(
    "fields, max_edges, error, message",
    [
        (dict(kind="er", n=1, weight_max=0), None, ValueError,
         "generator needs n >= 2, got 1"),
        (dict(kind="er", n=5, weight_max=0, p=2.0), None, ValueError,
         "weight_max must be in [1, 2^63-1], got 0"),
        (dict(kind="nope", n=1), None, ValueError, "generator needs n >= 2, got 1"),
        (dict(kind="nope", n=5), None, ValueError,
         "'nope' is not a valid GeneratorKind"),
        (dict(kind="chain", n=10**9, base=0.5), None, ValueError,
         "chain base must exceed 1, got 0.5"),
        (dict(kind="chain", n=100), 10, CapacityError,
         "chain weight 1.9**99 exceeds 2^63-1; reduce n or base"),
        (dict(kind="adversarial", n=10, weight_max=10), 44, CapacityError,
         COMPLETE_CAP),
        (dict(kind="er", n=10, p=1.0), 44, CapacityError, COMPLETE_CAP),
        (dict(kind="er", n=40, p=0.3), 5, CapacityError, "stream exceeds 5 edges"),
        (dict(kind="nope", n=5, order="nope"), None, ValueError,
         "'nope' is not a valid GeneratorKind"),
        (dict(kind="chain", n=10**9, base=0.5, order="nope"), None, ValueError,
         "'nope' is not a valid StreamOrder"),
        (dict(kind="complete", n=10, order="nope"), 44, ValueError,
         "'nope' is not a valid StreamOrder"),
    ],
    ids=[
        "n-before-weight-max", "weight-max-before-p", "n-before-kind",
        "kind-before-recipe", "base-before-cap", "chain-weight-before-cap",
        "adversarial-cap-before-weight-max", "er-p1-complete-cap", "er-stream-cap",
        "kind-before-order", "order-before-recipe", "order-before-cap",
    ],
)
def test_refusal_order(monkeypatch, fields, max_edges, error, message):
    """Where two checks refuse one spec, the same one wins, with its words."""
    if max_edges is not None:
        monkeypatch.setattr(generators, "MAX_EDGES", max_edges)
    with pytest.raises(error) as excinfo:
        generate(GeneratorSpec(**fields))
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_complete_peaks_at_the_stream_it_returns():
    """The complete graph streams its node pairs: listing all n(n-1)/2 of
    them before the first edge peaked at 1.5 times the returned stream."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream = generate(spec("complete", n=600))
        held, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(stream.edges) == 179_700
    assert peak <= 1.1 * held, (peak, held)


@pytest.mark.parametrize("weight_max", [1, 2])
@pytest.mark.parametrize("kind", ["er", "complete", "path"])
def test_weight_orders_match_the_lambda_sorts(kind, weight_max):
    """Tie-heavy streams: the sort keys keep ties in generated order."""
    base = dict(n=30, p=0.3, weight_max=weight_max, seed=weight_max)
    edges = generate(spec(kind, **base)).edges
    inc = generate(spec(kind, order=StreamOrder.INCREASING_WEIGHT, **base)).edges
    dec = generate(spec(kind, order=StreamOrder.DECREASING_WEIGHT, **base)).edges
    assert inc == sorted(edges, key=lambda e: e.weight)
    assert dec == sorted(edges, key=lambda e: -e.weight)


@pytest.mark.parametrize("weight_max", DIGEST_WEIGHT_MAXES + (3, 2**32, 2**62))
@pytest.mark.parametrize("seed", [0, 7])
def test_weights_replay_randint(seed, weight_max):
    """A twin RNG: _weights gives randint's values and leaves randint's state,
    with and without random() calls between the draws."""
    ours, theirs = random.Random(seed), random.Random(seed)
    draws = generators._weights(ours, weight_max)
    assert [next(draws) for _ in range(300)] == [
        theirs.randint(0, weight_max) for _ in range(300)
    ]
    for i in range(300):
        if i % 3:
            assert ours.random() == theirs.random()
        assert next(draws) == theirs.randint(0, weight_max)
    assert ours.getstate() == theirs.getstate()
