"""Sequential reference solvers: two 2-approximations and an exact oracle.

These run with the whole edge list in memory and exist to check the
streaming engine: `mwm_simple` is the unfiltered weight-reduction
baseline, `greedy_sorted` the sort-then-greedy baseline, and `exact_mwm`
a subset dynamic program that is feasible up to 22 nodes. The DP matches
the lowest node of a subset only to higher-numbered neighbours, and looks
each sub-state up in its memo before it recurses. Every solver takes an
`EdgeStream` whose ``edges`` are in memory (`Graph` is another name for
it) and treats repeated node pairs, in either orientation, as parallel
edges. Every input boundary rejects self-loops, and the solvers assume
there are none.
"""

from __future__ import annotations

from typing import Iterable

from .core import CapacityError, EdgeStream, Matching, WeightedEdge

__all__ = ["Graph", "EXACT_MAX_NODES", "mwm_simple", "greedy_sorted", "exact_mwm"]

#: Node-count ceiling for the exact subset DP.
EXACT_MAX_NODES = 22

#: The reference solvers' graph: an edge list held in memory.
Graph = EdgeStream


def mwm_simple(g: EdgeStream) -> Matching:
    """Weight-reduction 2-approximation over the full edge list.

    Processes edges in input order, in one pass over node potentials. An
    edge with positive residual weight goes onto a stack, and its residual
    is added to the potential of each endpoint; an edge whose residual is
    zero or below is skipped. The residual of edge {u, v} is its weight
    minus the residuals of the stacked edges that share exactly one node
    with it: ``w - phi[u] - phi[v]``, plus twice what was stacked on the
    pair {u, v} itself, since a parallel edge is not reduced by its own
    earlier copies. Unwinding the stack newest-first and adding
    node-disjoint edges yields a matching whose doubled weight is at least
    the optimum.
    """
    phi = [0] * g.n
    on_pair: dict[tuple[int, int], int] = {}
    stack: list[WeightedEdge] = []
    for e in g.edges:
        u, v, w = e
        pair = (u, v) if u < v else (v, u)
        stacked = on_pair.get(pair, 0)
        r = w - phi[u] - phi[v] + 2 * stacked
        if r > 0:
            phi[u] += r
            phi[v] += r
            on_pair[pair] = stacked + r
            stack.append(e)
    return _pick(g.n, reversed(stack))


def greedy_sorted(g: EdgeStream) -> Matching:
    """Heaviest-first greedy 2-approximation.

    Sorts edges by weight descending (ties keep input order) and adds each
    edge whose endpoints are both still free.
    """
    return _pick(g.n, sorted(g.edges, key=lambda e: -e.weight))


def _pick(n: int, order: Iterable[WeightedEdge]) -> Matching:
    """Add each edge of ``order`` whose endpoints are both still free."""
    matched = bytearray(n)
    chosen: list[WeightedEdge] = []
    for e in order:
        if not matched[e.u] and not matched[e.v]:
            matched[e.u] = matched[e.v] = 1
            chosen.append(e)
    return Matching.of(chosen)


def exact_mwm(g: EdgeStream) -> Matching:
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
    # `best` reaches itself through its closure. Breaking that cycle frees
    # the memo on return instead of at some later cyclic collection.
    del best
    return Matching.of(chosen)
