"""Seeded stream generators for tests and benchmarks.

Identical specs produce byte-identical streams: all randomness flows
through `random.Random` instances seeded from the spec. The streams are
also the same bytes as those of the earlier generators that drew each
weight with ``rng.randint(0, weight_max)``, on every supported Python:
`_weights` runs randint's own rejection loop on the same RNG, and a test
pins a digest of the streams.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .core import I64_MAX, CapacityError, EdgeStream, WeightedEdge, gc_paused

__all__ = ["GeneratorKind", "StreamOrder", "GeneratorSpec", "generate"]

#: Refuse to materialize streams beyond this many edges.
MAX_EDGES = 50_000_000


class GeneratorKind(str, Enum):
    ERDOS_RENYI = "er"
    COMPLETE = "complete"
    PATH = "path"
    GEOMETRIC_CHAIN = "chain"
    ADVERSARIAL_INCREASING = "adversarial"


class StreamOrder(str, Enum):
    AS_GENERATED = "as-generated"
    SHUFFLED = "shuffled"
    INCREASING_WEIGHT = "inc-weight"
    DECREASING_WEIGHT = "dec-weight"


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic description of a generated stream.

    ``p`` applies to Erdos-Renyi graphs, ``base`` to the geometric chain.
    ``order_seed`` drives the shuffled arrival order and falls back to a
    value derived from ``seed`` when unset.
    """

    kind: GeneratorKind
    n: int
    weight_max: int = 1000
    seed: int = 0
    p: float | None = None
    base: float = 1.9
    order: StreamOrder = StreamOrder.AS_GENERATED
    order_seed: int | None = None


def generate(spec: GeneratorSpec) -> EdgeStream:
    """Produce the stream described by ``spec``.

    The edges are tuples of ints in one list, with no reference cycles, so
    the cyclic garbage collector is paused while they are made
    (`core.gc_paused`) rather than rescanning the growing list.
    """
    if spec.n < 2:
        raise ValueError(f"generator needs n >= 2, got {spec.n}")
    if not (1 <= spec.weight_max <= I64_MAX):
        raise ValueError(f"weight_max must be in [1, 2^63-1], got {spec.weight_max}")
    kind = GeneratorKind(spec.kind)
    with gc_paused():
        if kind is GeneratorKind.ERDOS_RENYI:
            edges = _erdos_renyi(spec)
        elif kind is GeneratorKind.COMPLETE:
            edges = _complete(spec)
        elif kind is GeneratorKind.PATH:
            edges = _path(spec)
        elif kind is GeneratorKind.GEOMETRIC_CHAIN:
            edges = _geometric_chain(spec)
        else:
            edges = _adversarial_increasing(spec)
        return EdgeStream(spec.n, _apply_order(spec, edges))


def _erdos_renyi(spec: GeneratorSpec) -> list[WeightedEdge]:
    p = 0.5 if spec.p is None else spec.p
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(spec.seed)
    if p >= 1.0:
        return _complete(spec)
    edges: list[WeightedEdge] = []
    if p <= 0.0:
        return edges
    # Skip-sampling: jump over non-edges geometrically instead of rolling
    # every pair, so sparse graphs cost O(m) rather than O(n^2). Each edge's
    # weight is drawn right after the skip that found it.
    n, cap = spec.n, MAX_EDGES
    log, log_1p = math.log, math.log(1.0 - p)
    uniform = rng.random
    weight = _weights(rng, spec.weight_max).__next__
    new, append = tuple.__new__, edges.append
    v, w = 1, -1
    while v < n:
        w += 1 + int(log(1.0 - uniform()) / log_1p)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            append(new(WeightedEdge, (w, v, weight())))
            if len(edges) > cap:
                raise CapacityError(f"stream exceeds {cap} edges")
    return edges


def _weights(rng: random.Random, weight_max: int) -> Iterator[int]:
    """Endless ``rng.randint(0, weight_max)`` draws, one generator step each.

    randint reaches ``_randbelow_with_getrandbits`` through three Python
    calls; this is that function's rejection loop, so the same RNG state
    gives the same values and leaves the same state.
    """
    bound = weight_max + 1
    bits = bound.bit_length()
    getrandbits = rng.getrandbits
    while True:
        r = getrandbits(bits)
        if r < bound:
            yield r


def _all_pairs(n: int) -> list[tuple[int, int]]:
    m = n * (n - 1) // 2
    if m > MAX_EDGES:
        raise CapacityError(f"complete graph on {n} nodes has {m} > {MAX_EDGES} edges")
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _complete(spec: GeneratorSpec) -> list[WeightedEdge]:
    weights = _weights(random.Random(spec.seed), spec.weight_max)
    new = tuple.__new__
    pairs = _all_pairs(spec.n)
    return [new(WeightedEdge, (u, v, w)) for (u, v), w in zip(pairs, weights)]


def _path(spec: GeneratorSpec) -> list[WeightedEdge]:
    m = spec.n - 1
    if m > MAX_EDGES:
        raise CapacityError(f"path on {spec.n} nodes has {m} > {MAX_EDGES} edges")
    weights = _weights(random.Random(spec.seed), spec.weight_max)
    new = tuple.__new__
    return [new(WeightedEdge, (i, i + 1, w)) for i, w in zip(range(m), weights)]


def _geometric_chain(spec: GeneratorSpec) -> list[WeightedEdge]:
    """Star at node 0 with geometrically growing weights.

    Edge t is (0, t) with weight ceil(base**t), so every arrival is heavy
    at node 0 (for base comfortably above alpha) and the node's queue
    churns through the cap. Weights follow the geometric schedule rather
    than weight_max.
    """
    if not spec.base > 1.0:  # also rejects NaN
        raise ValueError(f"chain base must exceed 1, got {spec.base}")
    try:
        top = math.ceil(spec.base ** (spec.n - 1))
    except OverflowError:  # the power overflows a float, or base is inf
        top = math.inf
    if top > I64_MAX:
        raise CapacityError(
            f"chain weight {spec.base}**{spec.n - 1} exceeds 2^63-1; reduce n or base"
        )
    return [
        WeightedEdge(0, t, math.ceil(spec.base**t)) for t in range(1, spec.n)
    ]


def _adversarial_increasing(spec: GeneratorSpec) -> list[WeightedEdge]:
    """Every edge of the complete graph, arriving lightest to heaviest.

    Weights are strictly increasing and capped by weight_max: weight i is
    ``min(2**(i-1), weight_max - m + i)``, which doubles while there is
    room (each edge then outweighs everything before it, the pattern that
    floods an uncapped reduction stack) and degrades to unit steps near
    the cap. Requires weight_max >= m for strictness.
    """
    pairs = _all_pairs(spec.n)
    m = len(pairs)
    if spec.weight_max < m:
        raise CapacityError(
            f"{m} strictly increasing weights need weight_max >= {m}, "
            f"got {spec.weight_max}"
        )
    rng = random.Random(spec.seed)
    rng.shuffle(pairs)
    edges = []
    for i, (u, v) in enumerate(pairs, start=1):
        tail = spec.weight_max - m + i
        w = tail if (i - 1) >= 63 else min(2 ** (i - 1), tail)
        edges.append(WeightedEdge(u, v, w))
    return edges


def _apply_order(spec: GeneratorSpec, edges: list[WeightedEdge]) -> list[WeightedEdge]:
    order = StreamOrder(spec.order)
    if order is StreamOrder.AS_GENERATED:
        return edges
    if order is StreamOrder.SHUFFLED:
        seed = spec.order_seed if spec.order_seed is not None else f"{spec.seed}/order"
        random.Random(seed).shuffle(edges)
        return edges
    # Both sorts are stable, reverse=True included: ties keep generated order.
    edges.sort(key=itemgetter(2), reverse=order is StreamOrder.DECREASING_WEIGHT)
    return edges
