"""Shared domain types and exact parameter arithmetic.

`EdgeStream` is the one edge-list type: the engine consumes it in arrival
order, and the reference solvers take it as their graph.

Edge weights are non-negative 64-bit integers throughout. The accuracy
parameter ``epsilon`` is an exact rational, so the squared charge
multiplier ``alpha_sq = 1 + epsilon/2`` is rational as well and the
heavy/light filter can be decided in exact integer arithmetic. The
irrational multiplier ``alpha = sqrt(alpha_sq)`` itself is only ever
evaluated in double precision, and only for quantities that tolerate it
(the eviction safety factor ``gamma`` and the queue length cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "I64_MAX",
    "CapacityError",
    "StreamFormatError",
    "WeightedEdge",
    "EdgeStream",
    "Params",
    "Matching",
    "parse_epsilon",
    "compute_params",
    "is_heavy",
]

#: Largest representable edge weight / node potential (signed 64-bit).
I64_MAX = 2**63 - 1


class StreamFormatError(ValueError):
    """An edge or input line violates the stream contract."""


class CapacityError(ValueError):
    """An input exceeds a documented size limit of the requested operation."""


class WeightedEdge(NamedTuple):
    """Undirected edge ``{u, v}`` with a non-negative integer weight.

    Endpoints are node indices in ``[0, n)`` for the declared node count
    ``n``; ``u != v`` (no self-loops). The type itself does not validate:
    enforcement happens at the input boundaries (`parse_stream`, the
    generators, and the engine's per-edge checks).
    """

    u: int
    v: int
    weight: int


@dataclass(frozen=True)
class EdgeStream:
    """A finite edge sequence plus the declared node count.

    The list order is the arrival order. Every endpoint must be a valid
    index below ``n``; consumers reject out-of-range endpoints. A node pair
    may repeat, in either orientation, as parallel edges. The sequential
    reference solvers take an `EdgeStream` as their graph
    (`reference.Graph` is another name for this class).
    """

    n: int
    edges: Sequence[WeightedEdge]

    @classmethod
    def from_stream(cls, stream: "EdgeStream") -> "EdgeStream":
        """A copy of ``stream`` whose edges are read into a list."""
        return cls(stream.n, list(stream.edges))


@dataclass(frozen=True)
class Params:
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


@dataclass(frozen=True)
class Matching:
    """A node-disjoint edge set with its total (original) weight."""

    edges: frozenset[WeightedEdge] = field(default_factory=frozenset)
    total_weight: int = 0

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for e in self.edges:
            if e.u in seen or e.v in seen or e.u == e.v:
                raise ValueError(f"edges share a node: {e}")
            seen.add(e.u)
            seen.add(e.v)
        if sum(e.weight for e in self.edges) != self.total_weight:
            raise ValueError("total_weight does not match the edge weights")

    @classmethod
    def of(cls, edges: Sequence[WeightedEdge]) -> "Matching":
        return cls(frozenset(edges), sum(e.weight for e in edges))

    @classmethod
    def greedy(cls, n: int, order: Iterable[tuple[int, int, int]]) -> "Matching":
        """Take each ``(u, v, w)`` of ``order`` whose endpoints ``u, v < n``
        are both still free: the unwind of the engine's stack and of the
        reference solvers."""
        matched = bytearray(n)
        chosen: list[WeightedEdge] = []
        for u, v, w in order:
            if not matched[u] and not matched[v]:
                matched[u] = matched[v] = 1
                chosen.append(WeightedEdge(u, v, w))
        return cls.of(chosen)

    def sorted_edges(self) -> list[WeightedEdge]:
        """Edges in a deterministic order, for reports and tests."""
        return sorted(self.edges)


def parse_epsilon(text: str) -> Fraction:
    """Convert a CLI epsilon literal to an exact rational.

    Accepts ``"p/q"`` and decimal literals; ``"0.5"`` becomes exactly 1/2.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse epsilon {text!r}: {exc}") from exc


def compute_params(n: int, epsilon: Fraction | int | str) -> Params:
    """Derive the run parameters for ``n`` nodes at accuracy ``epsilon``.

    Requires ``n >= 2`` and ``0 < epsilon < 6``. Values of epsilon at or
    above 6 are rejected rather than clamped: the queue-cap bound needs
    epsilon < 6 and such a coarse setting is worse than plain greedy
    anyway. An epsilon so small (below about 6.7e-16) that alpha rounds to 1
    in double precision is rejected too, since gamma divides by
    ``log(alpha)``.

    The queue cap is the smallest ``s >= 2`` with
    ``(alpha - 1) * alpha**(s - 2) > 2 * alpha * gamma``, plus one as a
    conservative guard. It is solved for in log space and then fixed up
    against ``alpha**(s - 2)`` in double precision: at most a few dozen
    steps, for any epsilon (an upward scan would take ~1/epsilon).
    """
    if n < 2:
        raise ValueError(f"node count must be at least 2, got {n}")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= 6:
        raise ValueError(f"epsilon must be below 6, got {epsilon}")

    alpha_sq = 1 + epsilon / 2
    alpha = math.sqrt(alpha_sq.numerator / alpha_sq.denominator)
    if alpha == 1.0:
        raise ValueError(
            f"epsilon {epsilon} is too small: sqrt(1 + epsilon/2) rounds to 1"
        )
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


def is_heavy(weight: int, potential_sum: int, params: Params) -> bool:
    """Exact filter test: does ``weight`` strictly exceed alpha times
    ``potential_sum``?

    For non-negative operands ``w > alpha * s`` is equivalent to
    ``q * w*w > p * s*s`` with ``alpha_sq = p/q`` in lowest terms, so the
    comparison never touches floating point. Equality (a weight landing
    exactly on the threshold) counts as light.
    """
    p = params.alpha_sq.numerator
    q = params.alpha_sq.denominator
    return q * weight * weight > p * potential_sum * potential_sum
