"""Sequential reference solvers: two 2-approximations and an exact oracle.

These run with the whole edge list in memory and exist to check the
streaming engine: `mwm_simple` is the unfiltered weight-reduction
baseline, `greedy_sorted` the sort-then-greedy baseline, and `exact_mwm`
a subset dynamic program that is feasible up to 22 nodes. Both
baselines end in `Matching.greedy`, the engine's unwind. The DP first
keeps one edge per node pair (the heaviest copy, the first among equal
ones), relabels the nodes in a greedy min-frontier order, and gives each
edge a perturbed weight whose low bits name its rank in input order, so
that the maximum carries the lexicographically smallest optimum matching
with it. It then matches the lowest node of a subset only to
higher-labelled neighbours, and looks each sub-state up in its memo
before it recurses. Every solver takes an `EdgeStream` whose ``edges``
are in memory (`Graph` is another name for it) and treats repeated node
pairs, in either orientation, as parallel edges. Every input boundary
rejects self-loops, and the solvers assume there are none.
"""

from __future__ import annotations

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
    earlier copies. Unwinding the stack newest-first with `Matching.greedy`
    yields a matching whose doubled weight is at least the optimum.
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
    return Matching.greedy(g.n, reversed(stack))


def greedy_sorted(g: EdgeStream) -> Matching:
    """Heaviest-first greedy 2-approximation.

    Sorts edges by weight descending (ties keep input order) and picks
    from them with `Matching.greedy`.
    """
    return Matching.greedy(g.n, sorted(g.edges, key=lambda e: -e.weight))


def exact_mwm(g: EdgeStream) -> Matching:
    """Maximum weight matching by dynamic programming over node subsets.

    Rejects graphs with more than `EXACT_MAX_NODES` nodes. Among all
    optimum matchings it returns the one whose sorted edge-index sequence
    is lexicographically smallest, a proper prefix counting as smaller
    than its extensions, which makes the oracle reproducible. The edges
    must have no self-loops, which every input boundary guarantees.

    Three steps precede the DP:

    - Parallel edges, in either orientation, collapse to one edge per node
      pair: the heaviest copy and, among copies of equal weight, the first.
      An optimum takes no lighter copy, and the tie-break prefers the first
      of equal copies, so the result is the same as on the multigraph.
    - Nodes are relabelled in a greedy min-frontier order: the next label
      goes to the unlabelled node that leaves the fewest unlabelled nodes
      adjacent to the labelled ones, the lowest node index winning ties.
    - Each of the k kept edges gets the weight ``w * 2**k + 2**(k - 1 - r)``,
      where r is its rank in input order. A matching's perturbed weight
      holds its true weight in the high bits and the set of its edges in the
      low k bits, with no carry between them, so the maximum is an optimum
      matching, and among the optimum matchings the one whose first
      differing edge has the lowest rank. Its edges in input order, until
      their weights add up to the optimum, are the lexicographically
      smallest optimum matching: any later edges have weight zero and only
      extend it.

    The value of a node set is then found from its lowest-labelled node v:
    either v stays unmatched, or it is matched to a neighbour in the set.
    The adjacency keeps only each node's edges to higher labels, as the
    lowest node of a set has no lower neighbour in it. States are memoized
    on demand, and every sub-state is looked up in the memo before the DP
    recurses on it, so sparse instances stay far below the 2**n worst case.
    """
    if g.n > EXACT_MAX_NODES:
        raise CapacityError(
            f"exact solver handles at most {EXACT_MAX_NODES} nodes, got {g.n}"
        )

    n = g.n
    heaviest: dict[tuple[int, int], int] = {}  # pair -> index of its kept copy
    for i, (u, v, w) in enumerate(g.edges):
        pair = (u, v) if u < v else (v, u)
        j = heaviest.get(pair)
        if j is None or w > g.edges[j].weight:
            heaviest[pair] = i
    edges = [g.edges[i] for i in sorted(heaviest.values())]

    adj = [0] * n
    for u, v, _ in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    label = [0] * n
    labelled = reached = 0  # reached: nodes adjacent to a labelled node
    for next_label in range(n):
        best_size = n + 1
        for x in range(n):
            bit = 1 << x
            if not labelled & bit:
                size = ((reached | adj[x]) & ~(labelled | bit)).bit_count()
                if size < best_size:
                    best_size, pick = size, x
        label[pick] = next_label
        labelled |= 1 << pick
        reached |= adj[pick]

    # up[lo] holds (bit of hi, perturbed weight) for each edge whose
    # endpoints have labels lo < hi.
    k = len(edges)
    up: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for r, (u, v, w) in enumerate(edges):
        lo, hi = sorted((label[u], label[v]))
        up[lo].append((1 << hi, (w << k) | (1 << (k - 1 - r))))

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

    value = best((1 << n) - 1) if n else 0
    # `best` reaches itself through its closure. Breaking that cycle frees
    # the memo on return instead of at some later cyclic collection.
    del best
    remaining = value >> k
    chosen: list[WeightedEdge] = []
    for r, e in enumerate(edges):
        if remaining == 0:
            break
        if value >> (k - 1 - r) & 1:
            chosen.append(e)
            remaining -= e.weight
    return Matching.of(chosen)
