"""Sequential reference solvers: two 2-approximations and two exact ones.

These exist to check the streaming engine: `mwm_simple` is the unfiltered
weight-reduction baseline, `greedy_sorted` the sort-then-greedy baseline,
`exact_mwm` the exact solver that returns a canonical optimum matching,
and `optimum_weight` the oracle that returns only the optimum's weight;
the CLI's ``--oracle`` calls it for every ``--alg``, so it checks
`exact_mwm` too.
Both baselines end in `Matching.greedy`, the engine's unwind. Both exact
solvers keep one edge per node pair (the heaviest copy, the first among
equal ones) and run Edmonds' primal-dual blossom algorithm in O(n**3)
time, on doubled integer duals, so no float enters. The perturbation is
`exact_mwm`'s alone: it gives each edge a weight whose low bits name its
rank in input order, so that the maximum is unique and carries the
lexicographically smallest optimum matching with it. `optimum_weight`
runs on the plain weights, whose duals stay the size of the weights. The
algorithm has no size limit; `EXACT_MAX_NODES` (defined in `core`, so
that the CLI reads it without this module) only keeps `exact_mwm`'s cap
and the CLI's oracle gate, and so every report and exit code, where
the earlier exponential oracle put them.

Every solver reads its input as the engine does: ``n``, then one read of
``edges``, in arrival order, each a ``(u, v, w)`` triple read by position.
So an `EdgeStream` (`Graph` is another name for it) and a `LazyEdgeStream`,
a file parsed as it is read, are interchangeable. What a solver
keeps is its own: `mwm_simple` its stack, `greedy_sorted` the sorted edge
list, the exact ones one edge per node pair. Repeated node pairs, in
either orientation, are parallel edges. Every solver reads its input
through `streamio.open_edges`, so it refuses what the engine refuses, with
the engine's ``line N: ...`` message.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from .core import (
    EXACT_MAX_NODES,
    CapacityError,
    EdgeStream,
    Matching,
    WeightedEdge,
    gc_paused,
)
from .streamio import open_edges

__all__ = [
    "Graph",
    "EXACT_MAX_NODES",
    "mwm_simple",
    "greedy_sorted",
    "exact_mwm",
    "optimum_weight",
]

#: The reference solvers' graph: any stream of ``n`` nodes and its ``edges``.
Graph = EdgeStream


def mwm_simple(g: EdgeStream) -> Matching:
    """Weight-reduction 2-approximation over the whole stream.

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
    stack: list[tuple[int, int, int]] = []
    with gc_paused():  # the pair keys are tuples of ints, in no cycle
        for e in open_edges(g).edges:
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
    with gc_paused():
        edges = open_edges(g).edges
        return Matching.greedy(g.n, sorted(edges, key=itemgetter(2), reverse=True))


def exact_mwm(g: EdgeStream) -> Matching:
    """Maximum weight matching by the primal-dual blossom algorithm.

    Rejects graphs with more than `EXACT_MAX_NODES` nodes before it reads
    an edge; the solver itself has no such limit, the cap only keeps the
    CLI's oracle gate where it was. Among all optimum matchings it returns
    the one whose sorted edge-index sequence is lexicographically smallest,
    a proper prefix counting as smaller than its extensions, which makes
    its answer reproducible. A bad edge raises the engine's
    `StreamFormatError`.

    - Parallel edges, in either orientation, collapse to one edge per node
      pair: the heaviest copy and, among copies of equal weight, the first.
      An optimum takes no lighter copy, and the tie-break prefers the first
      of equal copies, so the result is the same as on the multigraph.
    - Each of the k kept edges gets the weight ``w * 2**k + 2**(k - 1 - r)``,
      where r is its rank in input order. A matching's perturbed weight
      holds its true weight in the high bits and the set of its edges in the
      low k bits, with no carry between them, so the maximum is unique: an
      optimum matching, and among the optimum matchings the one whose first
      differing edge has the lowest rank. Any exact solver finds it.
    - `_max_weight_matching` finds it in O(n**3) time.
    - Its edges in input order, until their weights add up to the optimum,
      are the lexicographically smallest optimum matching: any later edges
      have weight zero and only extend it.
    """
    if g.n > EXACT_MAX_NODES:
        raise CapacityError(
            f"exact solver handles at most {EXACT_MAX_NODES} nodes, got {g.n}"
        )
    edges = list(_heaviest_copies(open_edges(g).edges, {}).values())
    k = len(edges)
    perturbed = [
        (u, v, (w << k) | (1 << (k - 1 - r))) for r, (u, v, w) in enumerate(edges)
    ]
    ranks = _max_weight_matching(g.n, perturbed)
    remaining = sum(edges[r][2] for r in ranks)
    chosen: list[WeightedEdge] = []
    for r in ranks:
        if remaining == 0:
            break
        chosen.append(WeightedEdge._make(edges[r]))
        remaining -= edges[r][2]
    return Matching.of(chosen)


def optimum_weight(g: EdgeStream) -> int:
    """The weight of a maximum weight matching, and nothing else.

    Reads ``g`` once and keeps the heaviest copy of each node pair, as
    `exact_mwm` does, then runs `_max_weight_matching` on the plain
    weights: no perturbation, so the duals stay the size of the weights,
    and no cap on the node count. Equal to ``exact_mwm(g).total_weight``
    wherever that is defined.
    """
    edges = list(_heaviest_copies(open_edges(g).edges, {}).values())
    return sum(edges[k][2] for k in _max_weight_matching(g.n, edges))


def _heaviest_copies(edges: Iterable[tuple[int, int, int]], kept: dict) -> dict:
    """Keep in ``kept`` one edge per node pair, in input order: the heaviest
    copy, and among copies of equal weight the first. ``edges`` are checked
    edges, all of a stream or the chunk after those that filled ``kept``;
    returns ``kept``."""
    for e in edges:
        u, v, w = e
        pair = (u, v) if u < v else (v, u)
        copy = kept.get(pair)
        if copy is None or w > copy[2]:
            # A heavier copy goes to the end, where it arrived: the table
            # stays in input order.
            kept.pop(pair, None)
            kept[pair] = e
    return kept


def _max_weight_matching(n: int, edges: Sequence[tuple[int, int, int]]) -> list[int]:
    """Indices, ascending, of the edges of a maximum-weight matching.

    ``edges`` holds ``(u, v, w)`` over nodes ``0..n-1`` with ``u != v``,
    an integer ``w >= 0`` and at most one edge per node pair. This is
    Edmonds' primal-dual blossom algorithm in the O(n**3) form of Galil
    ("Efficient algorithms for finding maximum matching in graphs", 1986),
    as formulated by van Rantwijk: node and blossom data sit in flat lists,
    blossoms are numbered ``n..2n-1``, and edge k has the endpoints
    ``2k`` (u) and ``2k + 1`` (v), so ``p ^ 1`` is the other end of
    endpoint p. Every dual variable is held doubled, which keeps every
    dual, slack and delta an integer: no float enters.

    Each stage grows alternating trees from the single nodes along edges of
    zero slack, shrinking odd cycles into blossoms, until it finds an
    augmenting path; when it finds none, it moves the duals by the largest
    step that keeps them feasible and tries again. The matching is optimum
    once a single node's dual reaches zero.
    """
    if not edges:
        return []
    endpoint = [x for u, v, _ in edges for x in (u, v)]
    twice = [2 * w for _, _, w in edges]  # on the scale of the doubled duals
    # neighbend[v]: the far endpoint of each edge at v.
    neighbend: list[list[int]] = [[] for _ in range(n)]
    for k, (u, v, _) in enumerate(edges):
        neighbend[u].append(2 * k + 1)
        neighbend[v].append(2 * k)

    # mate[v]: the far endpoint of v's matched edge, or -1 if v is single.
    mate = [-1] * n
    # For a node or top-level blossom b: label[b] is 0 (free), 1 (S) or 2
    # (T), and labelend[b] the far endpoint of the edge that labelled it, or
    # -1 for a single S node. A node inside a T-blossom carries label 2 once
    # an S-node outside reaches it. Bit 4 is a breadcrumb of `scan_blossom`.
    label = [0] * (2 * n)
    labelend = [-1] * (2 * n)
    # inblossom[v]: the top-level blossom holding node v (v if none does).
    inblossom = list(range(n))
    parent = [-1] * (2 * n)
    # childs[b]: b's sub-blossoms round the cycle, starting with the base;
    # endps[b][i]: the endpoint in childs[b][i] of the edge to the next one.
    childs: list[list[int] | None] = [None] * (2 * n)
    endps: list[list[int] | None] = [None] * (2 * n)
    base = list(range(n)) + [-1] * n
    # bestedge[b]: the least-slack edge from S-blossom b to another
    # S-blossom, or from free node b to an S-node; bestedges[b] holds an
    # S-blossom's least-slack edge to each neighbouring S-blossom.
    bestedge = [-1] * (2 * n)
    bestedges: list[list[int] | None] = [None] * (2 * n)
    unused = list(range(n, 2 * n))
    # dual[v] for a node, dual[b] for a blossom, both doubled. A node's
    # dual starts at half the largest weight.
    dual = [max(w for _, _, w in edges)] * n + [0] * n
    allowedge = [False] * len(edges)
    queue: list[int] = []

    # No helper below calls itself, directly or through another one: a
    # closure that reaches itself is a reference cycle, which would leave
    # every call's lists to the cyclic collector.
    def slack(k: int) -> int:
        return dual[endpoint[2 * k]] + dual[endpoint[2 * k + 1]] - twice[k]

    def leaves(b: int) -> list[int]:
        if b < n:
            return [b]
        out: list[int] = []
        stack = [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(childs[t])
        return out

    def assign_label(w: int, t: int, p: int) -> None:
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labelend[w] = labelend[b] = p
            bestedge[w] = bestedge[b] = -1
            if t == 1:
                queue.extend(leaves(b))
                return
            # Only the base of a T-blossom has an outside mate; it becomes S.
            q = mate[base[b]]
            w, t, p = endpoint[q], 1, q ^ 1

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from S-nodes v and w in turn: the base of the blossom
        the edge between them closes, or -1 for an augmenting path."""
        path = []
        found = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1  # b's base is single: this tree's root
            else:
                v = endpoint[labelend[inblossom[endpoint[labelend[b]]]]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(root: int, k: int) -> None:
        """Shrink the cycle that edge k closes through ``root`` into a new
        S-blossom with dual zero."""
        v, w = endpoint[2 * k], endpoint[2 * k + 1]
        bb, bv, bw = inblossom[root], inblossom[v], inblossom[w]
        b = unused.pop()
        base[b] = root
        parent[b] = -1
        parent[bb] = b
        childs[b] = path = []
        endps[b] = ends = []
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            ends.append(labelend[bv])
            bv = inblossom[endpoint[labelend[bv]]]
        path.append(bb)
        path.reverse()
        ends.reverse()
        ends.append(2 * k)
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            ends.append(labelend[bw] ^ 1)
            bw = inblossom[endpoint[labelend[bw]]]
        label[b] = 1
        labelend[b] = labelend[bb]
        dual[b] = 0
        for x in leaves(b):
            if label[inblossom[x]] == 2:
                queue.append(x)  # a T-node turns S inside an S-blossom
            inblossom[x] = b
        best_to = [-1] * (2 * n)
        for sub in path:
            if bestedges[sub] is None:
                ks = [p >> 1 for x in leaves(sub) for p in neighbend[x]]
            else:
                ks = bestedges[sub]
            for e in ks:
                j = endpoint[2 * e + 1]
                if inblossom[j] == b:
                    j = endpoint[2 * e]
                bj = inblossom[j]
                if bj != b and label[bj] == 1 and (
                    best_to[bj] == -1 or slack(e) < slack(best_to[bj])
                ):
                    best_to[bj] = e
            bestedges[sub] = None
            bestedge[sub] = -1
        bestedges[b] = mine = [e for e in best_to if e != -1]
        best = -1
        for e in mine:
            if best == -1 or slack(e) < slack(best):
                best = e
        bestedge[b] = best

    def expand_blossom(b: int, endstage: bool) -> None:
        """Make b's sub-blossoms top-level; at the end of a stage, nested
        sub-blossoms with dual zero are expanded as well."""
        gone = [b]
        for t in gone:
            for s in childs[t]:
                parent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and dual[s] == 0:
                    gone.append(s)
                else:
                    for x in leaves(s):
                        inblossom[x] = s
        if not endstage and label[b] == 2:
            # Relabel the even path from the entry sub-blossom to the base
            # as alternating T and S, and the rest as reached or free.
            ch, ep = childs[b], endps[b]
            entry = inblossom[endpoint[labelend[b] ^ 1]]
            j = ch.index(entry)
            # Go round the side with an even number of edges. Backward, the
            # edge into child j is ep[j - 1] seen from its far end.
            if j & 1:
                j -= len(ch)
                step, trick = 1, 0
            else:
                step, trick = -1, 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[endpoint[ep[j - trick] ^ trick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[ep[j - trick] >> 1] = True
                j += step
                p = ep[j - trick] ^ trick
                allowedge[p >> 1] = True
                j += step
            bv = ch[j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += step
            while ch[j] != entry:
                bv = ch[j]
                j += step
                if label[bv] == 1:
                    continue  # labelled S from outside during the relabel
                for x in leaves(bv):
                    if label[x]:
                        label[x] = 0
                        label[endpoint[mate[base[bv]]]] = 0
                        assign_label(x, 2, labelend[x])
                        break
        for t in gone:
            label[t] = labelend[t] = base[t] = bestedge[t] = -1
            childs[t] = endps[t] = bestedges[t] = None
            unused.append(t)

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched and unmatched edges along the even path from node v
        to the base of blossom b, which makes v the base. Nested
        sub-blossoms on the path are independent, so they wait on a stack."""
        todo = [(b, v)]
        while todo:
            b, v = todo.pop()
            t = v
            while parent[t] != b:
                t = parent[t]
            if t >= n:
                todo.append((t, v))
            ch, ep = childs[b], endps[b]
            i = j = ch.index(t)
            # Go round the even side, as in `expand_blossom`.
            if i & 1:
                j -= len(ch)
                step, trick = 1, 0
            else:
                step, trick = -1, 1
            while j != 0:
                j += step
                p = ep[j - trick] ^ trick
                if ch[j] >= n:
                    todo.append((ch[j], endpoint[p]))
                j += step
                if ch[j] >= n:
                    todo.append((ch[j], endpoint[p ^ 1]))
                mate[endpoint[p]] = p ^ 1
                mate[endpoint[p ^ 1]] = p
            childs[b] = ch[i:] + ch[:i]
            endps[b] = ep[i:] + ep[:i]
            base[b] = v

    def augment_matching(k: int) -> None:
        """Augment along the path through edge k between two S-trees."""
        for s, p in ((endpoint[2 * k], 2 * k + 1), (endpoint[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # reached the tree's single root
                bt = inblossom[endpoint[labelend[bs]]]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    nodes = range(n)
    top_blossoms = range(n, 2 * n)
    while True:  # one stage per augmentation
        label[:] = [0] * (2 * n)
        bestedge[:] = [-1] * (2 * n)
        bestedges[n:] = [None] * n
        allowedge[:] = [False] * len(edges)
        queue.clear()
        for v in nodes:
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:  # one dual step per pass
            while queue and not augmented:
                v = queue.pop()
                dv = dual[v]
                for p in neighbend[v]:
                    k = p >> 1
                    w = endpoint[p]
                    bw = inblossom[w]
                    if inblossom[v] == bw:
                        continue
                    if not allowedge[k]:
                        kslack = dv + dual[w] - twice[k]
                        if kslack <= 0:
                            allowedge[k] = True
                    if allowedge[k]:
                        if label[bw] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[bw] == 1:
                            root = scan_blossom(v, w)
                            if root >= 0:
                                add_blossom(root, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w] = 2  # reached inside a T-blossom
                            labelend[w] = p ^ 1
                    elif label[bw] == 1:
                        # slack(e), inline in the solver's hottest loop.
                        b = inblossom[v]
                        e = bestedge[b]
                        if e == -1 or kslack < (
                            dual[endpoint[2 * e]] + dual[endpoint[2 * e + 1]] - twice[e]
                        ):
                            bestedge[b] = k
                    elif label[w] == 0:
                        e = bestedge[w]
                        if e == -1 or kslack < (
                            dual[endpoint[2 * e]] + dual[endpoint[2 * e + 1]] - twice[e]
                        ):
                            bestedge[w] = k
            if augmented:
                break

            # No augmenting path on tight edges: the largest dual step that
            # keeps every slack and blossom dual non-negative.
            delta = min(dual[:n])  # a single node's dual reaches zero
            kind = 1
            for v in nodes:
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])  # S to free
                    if d < delta:
                        delta, kind, edge = d, 2, bestedge[v]
            for b in range(2 * n):
                if parent[b] == -1 and label[b] == 1 and bestedge[b] != -1:
                    d = slack(bestedge[b]) >> 1  # S to S, always even
                    if d < delta:
                        delta, kind, edge = d, 3, bestedge[b]
            for b in top_blossoms:
                if parent[b] == -1 and base[b] >= 0 and label[b] == 2:
                    if dual[b] < delta:
                        delta, kind, blossom = dual[b], 4, b  # a T-blossom's dual
            for v in nodes:
                t = label[inblossom[v]]
                if t == 1:
                    dual[v] -= delta
                elif t == 2:
                    dual[v] += delta
            for b in top_blossoms:
                if base[b] >= 0 and parent[b] == -1:
                    if label[b] == 1:
                        dual[b] += delta
                    elif label[b] == 2:
                        dual[b] -= delta
            if kind == 1:
                break
            if kind == 4:
                expand_blossom(blossom, False)
            else:
                allowedge[edge] = True
                v = endpoint[2 * edge]
                if label[inblossom[v]] != 1:
                    v = endpoint[2 * edge + 1]
                queue.append(v)
        if not augmented:
            break
        for b in top_blossoms:
            if parent[b] == -1 and base[b] >= 0 and label[b] == 1 and dual[b] == 0:
                expand_blossom(b, True)

    return sorted(p >> 1 for p in mate if p >= 0 and p & 1)
