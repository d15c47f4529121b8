"""Shared test helpers: independent oracles, input strategies and fixtures."""

from __future__ import annotations

import gc
import random

import pytest

from stream_mwm.core import EdgeStream, WeightedEdge


@pytest.fixture
def gc_state():
    """Restore the collector's on/off state after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def enumerate_best_weight(n: int, edges: list[WeightedEdge]) -> int:
    """Maximum matching weight by exhaustive backtracking over edge subsets.

    Independent of the package's solvers; intended for small inputs only.
    """
    best = 0

    def extend(idx: int, used: int, total: int) -> None:
        nonlocal best
        if total > best:
            best = total
        for j in range(idx, len(edges)):
            u, v, w = edges[j]
            bits = (1 << u) | (1 << v)
            if used & bits == 0:
                extend(j + 1, used | bits, total + w)

    extend(0, 0, 0)
    return best


def enumerate_best_edge_sets(n: int, edges: list[WeightedEdge]) -> list[tuple[int, ...]]:
    """All optimum matchings, as sorted tuples of edge indices."""
    best = enumerate_best_weight(n, edges)
    sets: list[tuple[int, ...]] = []

    def extend(idx: int, used: int, total: int, chosen: list[int]) -> None:
        if total == best:
            sets.append(tuple(chosen))
        for j in range(idx, len(edges)):
            u, v, w = edges[j]
            bits = (1 << u) | (1 << v)
            if used & bits == 0:
                chosen.append(j)
                extend(j + 1, used | bits, total + w, chosen)
                chosen.pop()

    extend(0, 0, 0, [])
    return sets


def random_simple_stream(
    seed: int, max_n: int = 10, max_weight: int = 100, p: float = 0.5
) -> EdgeStream:
    """Seeded random simple graph presented in random arrival order."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    edges = [
        WeightedEdge(u, v, rng.randint(0, max_weight))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    rng.shuffle(edges)
    return EdgeStream(n, edges)


def random_multigraph_stream(
    seed: int, max_n: int = 10, max_weight: int = 100, p: float = 0.5
) -> EdgeStream:
    """Seeded random multigraph in random arrival order: a simple graph plus
    up to two repeats of each pair, in either orientation, each repeat with
    the pair's weight or a fresh one."""
    base = random_simple_stream(seed, max_n, max_weight, p)
    rng = random.Random(f"{seed}/multi")
    edges = list(base.edges)
    for u, v, w in base.edges:
        for _ in range(rng.randint(0, 2)):
            a, b = (u, v) if rng.random() < 0.5 else (v, u)
            weight = w if rng.random() < 0.5 else rng.randint(0, max_weight)
            edges.append(WeightedEdge(a, b, weight))
    rng.shuffle(edges)
    return EdgeStream(base.n, edges)
