"""Seeded stream generators for tests and benchmarks.

Each `GeneratorKind` is a recipe: a function of the spec that runs the
kind's checks and returns two iterators in arrival order, its node pairs
and its weights. `generate` looks the recipe up in `_RECIPES` and builds
every edge in one comprehension over ``zip(pairs, weights)``. Only the
adversarial kind, which shuffles its pairs, lists them first; the others
stream theirs, so a stream peaks at about the memory it returns.

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
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from itertools import combinations, pairwise, repeat
from operator import itemgetter
from typing import NamedTuple

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


class GeneratorSpec(NamedTuple):
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
    (`core.gc_paused`) rather than rescanning the growing list. ``zip``
    asks for a pair before its weight, so an Erdos-Renyi draw takes each
    skip and then the weight of the edge it found.
    """
    if spec.n < 2:
        raise ValueError(f"generator needs n >= 2, got {spec.n}")
    if not (1 <= spec.weight_max <= I64_MAX):
        raise ValueError(f"weight_max must be in [1, 2^63-1], got {spec.weight_max}")
    recipe = _RECIPES[GeneratorKind(spec.kind)]
    # Refused before any edge is built.
    order = StreamOrder(spec.order)
    with gc_paused():
        pairs, weights = recipe(spec)
        new = tuple.__new__
        edges = [new(WeightedEdge, (u, v, w)) for (u, v), w in zip(pairs, weights)]
        return EdgeStream(spec.n, _apply_order(spec, order, edges))


#: What a recipe returns: node pairs and weights, both in arrival order.
_Arrivals = tuple[Iterable[tuple[int, int]], Iterable[int]]


def _at_most(what: str, n: int, m: int) -> None:
    if m > MAX_EDGES:
        raise CapacityError(f"{what} on {n} nodes has {m} > {MAX_EDGES} edges")


def _erdos_renyi(spec: GeneratorSpec) -> _Arrivals:
    p = 0.5 if spec.p is None else spec.p
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if p >= 1.0:
        return _complete(spec)
    if p <= 0.0:
        return (), ()
    rng = random.Random(spec.seed)
    return _er_pairs(spec.n, p, rng), _weights(rng, spec.weight_max)


def _er_pairs(n: int, p: float, rng: random.Random) -> Iterator[tuple[int, int]]:
    """Jump over non-edges geometrically instead of rolling every pair, so
    sparse graphs cost O(m) rather than O(n^2). Refuses the pair past
    ``MAX_EDGES``."""
    cap, m = MAX_EDGES, 0
    # 1.0 - p rounds to 1.0 for p below about 1.1e-16, and its log to 0.0;
    # only there does log1p step in, so every other stream keeps its skips.
    # At or below -1e-300 a skip stays a finite float (a subnormal p would
    # overflow it), and one that is not 0 still passes all n^2 < 1e38 pairs.
    log, log_1p = math.log, min(math.log(1.0 - p) or math.log1p(-p), -1e-300)
    uniform = rng.random
    v, w = 1, -1
    while v < n:
        w += 1 + int(log(1.0 - uniform()) / log_1p)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            m += 1
            if m > cap:
                raise CapacityError(f"stream exceeds {cap} edges")
            yield w, v


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


def _complete(spec: GeneratorSpec) -> _Arrivals:
    n = spec.n
    _at_most("complete graph", n, n * (n - 1) // 2)
    weights = _weights(random.Random(spec.seed), spec.weight_max)
    return combinations(range(n), 2), weights


def _path(spec: GeneratorSpec) -> _Arrivals:
    n = spec.n
    _at_most("path", n, n - 1)
    weights = _weights(random.Random(spec.seed), spec.weight_max)
    return pairwise(range(n)), weights


def _geometric_chain(spec: GeneratorSpec) -> _Arrivals:
    """Star at node 0 with geometrically growing weights.

    Edge t is (0, t) with weight ceil(base**t), so every arrival is heavy
    at node 0 (for base comfortably above alpha) and the node's queue
    churns through the cap. Weights follow the geometric schedule rather
    than weight_max.
    """
    n, base = spec.n, spec.base
    if not base > 1.0:  # also rejects NaN
        raise ValueError(f"chain base must exceed 1, got {base}")
    try:
        top = math.ceil(base ** (n - 1))
    except OverflowError:  # the power overflows a float, or base is inf
        top = math.inf
    if top > I64_MAX:
        raise CapacityError(
            f"chain weight {base}**{n - 1} exceeds 2^63-1; reduce n or base"
        )
    _at_most("chain", n, n - 1)
    return zip(repeat(0), range(1, n)), (math.ceil(base**t) for t in range(1, n))


def _adversarial_increasing(spec: GeneratorSpec) -> _Arrivals:
    """Every edge of the complete graph, in a seeded shuffle, arriving
    lightest to heaviest.

    Weights are strictly increasing and capped by weight_max: weight i is
    ``min(2**(i-1), weight_max - m + i)``, which doubles while there is
    room (each edge then outweighs everything before it, the pattern that
    floods an uncapped reduction stack) and degrades to unit steps near
    the cap. Requires weight_max >= m for strictness.
    """
    n = spec.n
    m = n * (n - 1) // 2
    _at_most("complete graph", n, m)
    if spec.weight_max < m:
        raise CapacityError(
            f"{m} strictly increasing weights need weight_max >= {m}, "
            f"got {spec.weight_max}"
        )
    pairs = list(combinations(range(n), 2))
    random.Random(spec.seed).shuffle(pairs)
    low = spec.weight_max - m
    # From i = 64 on, 2**(i-1) exceeds every weight_max: skip the big power.
    weights = (
        low + i if i > 63 else min(2 ** (i - 1), low + i) for i in range(1, m + 1)
    )
    return pairs, weights


_RECIPES: dict[GeneratorKind, Callable[[GeneratorSpec], _Arrivals]] = {
    GeneratorKind.ERDOS_RENYI: _erdos_renyi,
    GeneratorKind.COMPLETE: _complete,
    GeneratorKind.PATH: _path,
    GeneratorKind.GEOMETRIC_CHAIN: _geometric_chain,
    GeneratorKind.ADVERSARIAL_INCREASING: _adversarial_increasing,
}


def _apply_order(
    spec: GeneratorSpec, order: StreamOrder, edges: list[WeightedEdge]
) -> list[WeightedEdge]:
    if order is StreamOrder.AS_GENERATED:
        return edges
    if order is StreamOrder.SHUFFLED:
        seed = spec.order_seed if spec.order_seed is not None else f"{spec.seed}/order"
        random.Random(seed).shuffle(edges)
        return edges
    # Both sorts are stable, reverse=True included: ties keep generated order.
    edges.sort(key=itemgetter(2), reverse=order is StreamOrder.DECREASING_WEIGHT)
    return edges
