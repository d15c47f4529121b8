"""Shared domain types and exact parameter arithmetic.

`EdgeStream` is the one in-memory edge-list type: the engine consumes it
in arrival order, and the reference solvers take it as their graph.

Edge weights are non-negative 64-bit integers throughout. The accuracy
parameter ``epsilon`` is an exact rational, so the squared charge
multiplier ``alpha_sq = 1 + epsilon/2`` is rational as well and the
heavy/light filter can be decided in exact integer arithmetic. The
irrational multiplier ``alpha = sqrt(alpha_sq)`` itself is only ever
evaluated in double precision, and only for quantities that tolerate it
(the eviction safety factor ``gamma`` and the queue length cap).
"""

from __future__ import annotations

import gc
import math
from array import array
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, islice
from operator import eq, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "I64_MAX",
    "EXACT_MAX_NODES",
    "CapacityError",
    "StreamFormatError",
    "WeightedEdge",
    "EdgeStream",
    "Params",
    "Matching",
    "parse_epsilon",
    "compute_params",
    "gc_paused",
]

#: Largest representable edge weight / node potential (signed 64-bit).
I64_MAX = 2**63 - 1

#: Node-count ceiling of `reference.exact_mwm` and of the CLI's ``--oracle``
#: gate (`reference.optimum_weight` has none). It lives here so that the
#: CLI reads it without importing `reference`.
EXACT_MAX_NODES = 22


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then leave it on or
    off as it was found, whether the block returns or raises.

    For code that builds many tracked objects (tuples, lists, dicts) that
    form no reference cycles: the collector could free none of them and
    would only rescan them while they pile up. When it resumes, they are
    scanned once.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class StreamFormatError(ValueError):
    """An edge or input line violates the stream contract."""


class CapacityError(ValueError):
    """An input exceeds a documented size limit of the requested operation."""


class WeightedEdge(NamedTuple):
    """Undirected edge ``{u, v}`` with a non-negative integer weight.

    Endpoints are node indices in ``[0, n)`` for the declared node count
    ``n``; ``u != v`` (no self-loops). The type itself does not validate:
    `streamio` checks every edge the engine gets, parsed from text or
    taken from an in-memory list (`streamio.check_edge`).
    """

    u: int
    v: int
    weight: int


class EdgeStream(NamedTuple):
    """A finite edge sequence plus the declared node count.

    Every reader of a stream (`engine.run_stream`, the `reference` solvers,
    `streamio.serialize_stream`) uses only ``n``, ``m`` and one read of
    ``edges``, in arrival order, each edge a ``(u, v, w)`` triple read by
    position, so an `EdgeStream` and a `streamio.LazyEdgeStream`, a file
    parsed as it is read, are interchangeable for them. Here ``m`` is
    ``len(edges)``, and an edge
    may be a `WeightedEdge` or a plain tuple; `streamio.open_edges` checks
    each edge when `run_stream` or an exact solver reads it. A node pair
    may repeat, in either orientation, as parallel edges.
    `reference.Graph` is another name for this class.
    """

    n: int
    edges: Sequence[WeightedEdge]

    @property
    def m(self) -> int:
        """The edge count, ``len(edges)``."""
        return len(self.edges)

    @classmethod
    def from_stream(cls, stream: "EdgeStream") -> "EdgeStream":
        """A copy of ``stream`` whose edges are read into a list."""
        return cls(stream.n, list(stream.edges))


class Params(NamedTuple):
    """Derived run parameters for a given node count and epsilon.

    ``alpha_sq`` and ``ratio_bound`` are exact rationals; ``gamma`` and
    ``queue_cap`` are the only double-precision derivations (``gamma`` is
    transcendental). ``queue_cap`` carries a +1 guard over the threshold
    solution: evicting one arrival later costs O(1) extra space per node and
    never weakens the weight-gap precondition of an eviction.
    """

    n: int
    epsilon: Fraction
    alpha_sq: Fraction
    gamma: float
    queue_cap: int
    ratio_bound: Fraction

    @property
    def alpha(self) -> float:
        """Double-precision charge multiplier sqrt(alpha_sq)."""
        return math.sqrt(self.alpha_sq.numerator / self.alpha_sq.denominator)


class Matching:
    """A node-disjoint edge set with its total (original) weight.

    ``edges`` is a frozenset of `WeightedEdge`. ``Matching(edges,
    total_weight)`` and `Matching.of` check the edges they are given: no two
    share a node, none is a self-loop, and their weights add up to
    ``total_weight``. A matching from `greedy` holds its edges as three int
    columns instead, and builds ``edges`` from them the first time it is
    read; a caller that reads only ``total_weight``, as `run` and `bench`
    do, never builds it. Two matchings are equal when their edge sets and
    weights are, however each holds its edges.
    """

    __slots__ = ("_edges", "_columns", "_total")

    def __init__(
        self, edges: frozenset[WeightedEdge] = frozenset(), total_weight: int = 0
    ) -> None:
        # 2k distinct endpoints for k edges: no shared node and no self-loop.
        # Sorted, equal endpoints are neighbours, so the check holds 2k
        # words and no hash table of all 2k nodes.
        ends = sorted(chain(map(itemgetter(0), edges), map(itemgetter(1), edges)))
        if any(map(eq, ends, islice(ends, 1, None))):
            seen: set[int] = set()
            for e in edges:
                if e.u in seen or e.v in seen or e.u == e.v:
                    raise ValueError(f"edges share a node: {e}")
                seen.add(e.u)
                seen.add(e.v)
        if sum(map(itemgetter(2), edges)) != total_weight:
            raise ValueError("total_weight does not match the edge weights")
        self._edges: frozenset[WeightedEdge] | None = edges
        self._columns: tuple[array, array, array] | None = None
        self._total = total_weight

    @classmethod
    def of(cls, edges: Sequence[WeightedEdge]) -> "Matching":
        return cls(frozenset(edges), sum(map(itemgetter(2), edges)))

    @classmethod
    def greedy(cls, n: int, order: Iterable[tuple[int, int, int]]) -> "Matching":
        """Take each ``(u, v, w)`` of ``order`` whose endpoints ``u, v < n``
        are both still free: the unwind of the engine's push arena and of the
        reference solvers.

        ``order`` holds no self-loop, as no checked stream does. The walk's
        marks then keep the taken edges node-disjoint, so they are not
        checked again. A taken edge's three ints go into signed 64-bit
        columns: ``order`` may reuse its tuples (as ``zip`` does), and none
        is kept alive.
        """
        matched = bytearray(n)
        us, vs, ws = array("q"), array("q"), array("q")
        take_u, take_v, take_w = us.append, vs.append, ws.append
        for u, v, w in order:
            if not matched[u] and not matched[v]:
                matched[u] = matched[v] = 1
                take_u(u)
                take_v(v)
                take_w(w)
        matching = cls.__new__(cls)
        matching._edges = None
        matching._columns = (us, vs, ws)
        matching._total = sum(ws)
        return matching

    @property
    def edges(self) -> frozenset[WeightedEdge]:
        if self._edges is None:
            self._edges = frozenset(map(WeightedEdge, *self._columns))
            self._columns = None
        return self._edges

    @property
    def total_weight(self) -> int:
        return self._total

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._total == other._total and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.edges, self._total))

    def __repr__(self) -> str:
        return f"Matching(edges={self.edges!r}, total_weight={self._total!r})"


def parse_epsilon(text: str) -> Fraction:
    """Convert a CLI epsilon literal to an exact rational.

    Accepts ``"p/q"`` and decimal literals; ``"0.5"`` becomes exactly 1/2.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse epsilon {text!r}: {exc}") from exc


def _check_epsilon(epsilon: Fraction | int | str) -> Fraction:
    """``epsilon`` as an exact rational, if the engine accepts it; the CLI
    holds every ``--alg`` to the same rule.

    Requires ``0 < epsilon < 6``. Values at or above 6 are rejected rather
    than clamped: the queue-cap bound needs epsilon < 6 and such a coarse
    setting is worse than plain greedy anyway. An epsilon so small (below
    about 6.7e-16) that alpha rounds to 1 in double precision is rejected
    too, since gamma divides by ``log(alpha)``.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= 6:
        raise ValueError(f"epsilon must be below 6, got {epsilon}")
    alpha_sq = 1 + epsilon / 2
    if math.sqrt(alpha_sq.numerator / alpha_sq.denominator) == 1.0:
        raise ValueError(
            f"epsilon {epsilon} is too small: sqrt(1 + epsilon/2) rounds to 1"
        )
    return epsilon


def compute_params(n: int, epsilon: Fraction | int | str) -> Params:
    """Derive the run parameters for ``n`` nodes at accuracy ``epsilon``.

    Requires ``n >= 2``, then checks ``epsilon`` as `_check_epsilon` does.

    The queue cap is the smallest ``s >= 2`` with
    ``(alpha - 1) * alpha**(s - 2) > 2 * alpha * gamma``, plus one as a
    conservative guard. It is solved for in log space and then fixed up
    against ``alpha**(s - 2)`` in double precision: at most a few dozen
    steps, for any epsilon (an upward scan would take ~1/epsilon).
    """
    if n < 2:
        raise ValueError(f"node count must be at least 2, got {n}")
    epsilon = _check_epsilon(epsilon)
    alpha_sq = 1 + epsilon / 2
    alpha = math.sqrt(alpha_sq.numerator / alpha_sq.denominator)
    gamma = (n * n) / math.log(alpha)

    threshold = 2.0 * alpha * gamma
    # k = s - 2: estimate it from logarithms, then step to the smallest k.
    # threshold > 1 > alpha - 1, so k = 0 never solves and k stays positive.
    k = math.floor(math.log(threshold / (alpha - 1.0)) / math.log(alpha))
    while (alpha - 1.0) * alpha ** (k - 1) > threshold:
        k -= 1
    while (alpha - 1.0) * alpha**k <= threshold:
        k += 1
    return Params(
        n=n,
        epsilon=epsilon,
        alpha_sq=alpha_sq,
        gamma=gamma,
        queue_cap=k + 3,
        ratio_bound=2 + epsilon,
    )

