"""Sequential reference solvers: two 2-approximations and an exact oracle.

These run with the whole edge list in memory and exist to check the
streaming engine: `mwm_simple` is the unfiltered weight-reduction
baseline, `greedy_sorted` the sort-then-greedy baseline, and `exact_mwm`
a subset dynamic program that is feasible up to 22 nodes. The DP matches
the lowest node of a subset only to higher-numbered neighbours, and looks
each sub-state up in its memo before it recurses. Every input boundary
rejects self-loops, and the solvers assume there are none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import CapacityError, EdgeStream, Matching, WeightedEdge

__all__ = ["Graph", "EXACT_MAX_NODES", "mwm_simple", "greedy_sorted", "exact_mwm"]

#: Node-count ceiling for the exact subset DP.
EXACT_MAX_NODES = 22


@dataclass(frozen=True)
class Graph:
    """Materialized, random-access view of an edge list.

    The edge list may contain repeated node pairs, in either orientation;
    every solver, `exact_mwm` included, takes them as parallel edges.
    """

    n: int
    edges: Sequence[WeightedEdge]

    @classmethod
    def from_stream(cls, stream: EdgeStream) -> "Graph":
        return cls(stream.n, list(stream.edges))


def mwm_simple(g: Graph) -> Matching:
    """Weight-reduction 2-approximation over the full edge list.

    Processes edges in input order. An edge with positive residual weight
    has that residual subtracted from itself and from every edge sharing
    exactly one node with it, and goes onto a stack; edges whose residual
    has been driven to zero or below are skipped. Unwinding the stack
    newest-first and adding node-disjoint edges yields a matching whose
    doubled weight is at least the optimum.

    A single pass suffices: once an edge is processed its residual is
    fixed, and later reductions only lower the residuals of unprocessed
    edges, never raise them.
    """
    residual = [e.weight for e in g.edges]
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for idx, e in enumerate(g.edges):
        incident[e.u].append(idx)
        incident[e.v].append(idx)

    stack: list[int] = []
    for idx, e in enumerate(g.edges):
        r = residual[idx]
        if r <= 0:
            continue
        stack.append(idx)
        for jdx in set(incident[e.u]) | set(incident[e.v]):
            if jdx == idx:
                continue
            other = g.edges[jdx]
            shared = (other.u in (e.u, e.v)) + (other.v in (e.u, e.v))
            if shared == 1:
                residual[jdx] -= r
        residual[idx] = 0

    return _unwind(g, stack)


def greedy_sorted(g: Graph) -> Matching:
    """Heaviest-first greedy 2-approximation.

    Sorts edges by weight descending (ties keep input order) and adds each
    edge whose endpoints are both still free.
    """
    order = sorted(range(len(g.edges)), key=lambda i: -g.edges[i].weight)
    matched = bytearray(g.n)
    chosen: list[WeightedEdge] = []
    for idx in order:
        e = g.edges[idx]
        if not matched[e.u] and not matched[e.v]:
            matched[e.u] = matched[e.v] = 1
            chosen.append(e)
    return Matching.of(chosen)


def _unwind(g: Graph, stack: list[int]) -> Matching:
    matched = bytearray(g.n)
    chosen: list[WeightedEdge] = []
    for idx in reversed(stack):
        e = g.edges[idx]
        if not matched[e.u] and not matched[e.v]:
            matched[e.u] = matched[e.v] = 1
            chosen.append(e)
    return Matching.of(chosen)


def exact_mwm(g: Graph) -> Matching:
    """Maximum weight matching by dynamic programming over node subsets.

    Rejects graphs with more than `EXACT_MAX_NODES` nodes. The value of a
    node set is found from its lowest node v: either v stays unmatched, or
    it is matched to a neighbour in the set. The adjacency keeps only each
    node's edges to higher-numbered nodes, as the lowest node of a set has
    no lower neighbour in it. States are memoized on demand, and every
    sub-state is looked up in the memo before the DP recurses on it, so
    sparse instances stay far below the 2**n worst case. Parallel edges
    are kept as they are, so the optimum is exact on multigraphs too. The
    edges must have no self-loops, which every input boundary guarantees.
    Among all optimum matchings the one whose sorted edge-index sequence
    is lexicographically smallest is returned, which makes the oracle
    reproducible.
    """
    if g.n > EXACT_MAX_NODES:
        raise CapacityError(
            f"exact solver handles at most {EXACT_MAX_NODES} nodes, got {g.n}"
        )

    # up[lo] holds (bit of hi, weight) for each edge {lo, hi} with lo < hi.
    up: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        if u < v:
            up[u].append((1 << v, w))
        else:
            up[v].append((1 << u, w))

    memo: dict[int, int] = {0: 0}
    lookup = memo.get

    def best(mask: int) -> int:
        # Called only on a memo miss, so mask is non-empty.
        rest = mask & (mask - 1)  # mask without its lowest node
        value = lookup(rest)
        if value is None:
            value = best(rest)
        for bit, w in up[(mask & -mask).bit_length() - 1]:
            if rest & bit:
                sub = rest ^ bit
                cand = lookup(sub)
                if cand is None:
                    cand = best(sub)
                cand += w
                if cand > value:
                    value = cand
        memo[mask] = value
        return value

    def solve(mask: int) -> int:
        value = lookup(mask)
        return best(mask) if value is None else value

    full = (1 << g.n) - 1
    chosen: list[WeightedEdge] = []
    mask = full
    remaining = solve(full)
    # Greedy lexicographic reconstruction: commit the smallest edge index
    # through which an optimum of the remaining subproblem still passes.
    # Stop once the optimum weight is reached; a shorter index tuple beats
    # any extension by free zero-weight edges.
    for e in g.edges:
        if remaining == 0:
            break
        bits = (1 << e.u) | (1 << e.v)
        if mask & bits == bits and e.weight + solve(mask & ~bits) == remaining:
            chosen.append(e)
            mask &= ~bits
            remaining -= e.weight
    return Matching.of(chosen)
