"""Runtime monitors: per-run counters and the checks that read them.

The engine counts, at O(1) a push, each invariant it breaks: a potential
grown by less than alpha, an eviction short of its weight gap, a queue
past its cap (`MonitorStats`). After the pass, `engine.run_stream` turns
the counts into verdicts at any m, with no trace: `check_phi_growth` and
`check_eviction_gap` read them, `check_terminal_weights` runs the filter
and the pushes again on a second read of the stream, and
`check_ratio_bound` bounds the approximation factor, `ratio_factor`. Each
check returns a `CheckVerdict`. A `TraceEvent`
list, one event per edge and eviction, is a test hook of
`engine.StreamingState` that no check reads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .core import EdgeStream, Params, WeightedEdge

__all__ = [
    "LIGHT",
    "PUSHED",
    "EVICTED",
    "MonitorStats",
    "TraceEvent",
    "CheckVerdict",
    "check_phi_growth",
    "check_eviction_gap",
    "check_terminal_weights",
    "check_ratio_bound",
    "ratio_factor",
]

# Trace event kinds.
LIGHT = "light"
PUSHED = "pushed"
EVICTED = "evicted"

#: Relative tolerance of the eviction gap test, whose factor
#: 2*alpha*gamma is real.
GAP_REL_TOL = 1e-6


@dataclass(slots=True)
class MonitorStats:
    """O(1)-space counters kept by the engine at any scale.

    ``heavy_edges_total`` counts the heavy (pushed) edges so far; it feeds
    no engine decision and is the ``k`` of the ratio-bound check. The
    three violation counters stay zero on a correct engine.
    """

    peak_live_entries: int = 0
    heavy_edges_total: int = 0
    phi_growth_violations: int = 0
    queue_cap_violations: int = 0
    max_queue_len: int = 0
    evictions_total: int = 0
    eviction_gap_violations: int = 0


class TraceEvent(NamedTuple):
    """One engine event: an edge classified (light or pushed) or evicted.

    ``phi_u`` and ``phi_v`` are the potentials of ``edge.u`` and ``edge.v``
    after the event took effect (None for an eviction); ``reduced_weight``
    is set for pushes and evictions. Immutable and hashable, like
    `WeightedEdge`.
    """

    kind: str
    edge: WeightedEdge
    reduced_weight: int | None = None
    phi_u: int | None = None
    phi_v: int | None = None


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of a check: pass/fail, how much it checked and, for the
    second read, the index of the first offending edge."""

    ok: bool
    checked: int = 0
    event_index: int | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_phi_growth(stats: MonitorStats) -> CheckVerdict:
    """Verify that every push grew both endpoint potentials by at least
    alpha, which the pass tests exactly (``q * new**2 >= p * old**2``,
    ``alpha_sq = p/q``), counting each failure in ``phi_growth_violations``.
    Chaining the per-push factor covers any two pushes at a node."""
    return _counted(
        stats.phi_growth_violations, stats.heavy_edges_total,
        "pushes grew a potential below the alpha factor",
    )


def check_eviction_gap(stats: MonitorStats) -> CheckVerdict:
    """Verify that every eviction had its weight gap: the pass tests that
    the evicting push's reduced weight is at least ``2 * alpha * gamma``
    times the victim's, within `GAP_REL_TOL` as the factor is real,
    counting each failure in ``eviction_gap_violations``."""
    return _counted(
        stats.eviction_gap_violations, stats.evictions_total,
        "evictions had a weight gap below 2*alpha*gamma",
    )


def _counted(bad: int, checked: int, what: str) -> CheckVerdict:
    return CheckVerdict(ok=not bad, checked=checked, detail=f"{bad} {what}" if bad else None)


def check_terminal_weights(
    g: EdgeStream,
    m: int,
    rows: Iterable[tuple[int, int, int, int]],
    phi: Sequence[int],
    params: Params,
) -> CheckVerdict:
    """Verify a pass by running its filter and pushes again, on a second
    read of the stream and potentials of its own.

    The pass is a function of the input and the potentials alone: an edge
    is light iff ``q * w**2 <= p * s**2`` (``alpha_sq = p/q``, ``s`` its
    endpoints' potential sum; equality is light), and a heavy one grows
    both by its reduced weight ``w - s``. So ``g`` must hold the pass's
    ``m`` edges; each heavy one must match the next of ``rows``, the pass's
    arena rows ``(u, v, w, reduced)`` in push order, with reduced weight
    ``w - s`` (0 if evicted); no row may be left; and the potentials must
    end equal to ``phi``, n of them. ``g`` is read once, through ``edges``:
    a file stream opens its file again.
    """
    p = params.alpha_sq.numerator
    q = params.alpha_sq.denominator
    fresh = array("q", [0]) * params.n
    rows = iter(rows)
    i = -1
    for i, (u, v, w) in enumerate(g.edges):
        if i == m:
            return CheckVerdict(
                ok=False, checked=i, event_index=i,
                detail=f"the second read holds more than the pass's {m} edges",
            )
        s = fresh[u] + fresh[v]
        if q * w * w <= p * s * s:
            continue
        reduced = w - s
        row = next(rows, None)
        if row is None or row[:3] != (u, v, w) or row[3] not in (reduced, 0):
            return CheckVerdict(
                ok=False, checked=i, event_index=i,
                detail=f"edge {(u, v, w)} pushes with reduced weight {reduced}, "
                f"but the next arena row is {row}",
            )
        fresh[u] += reduced
        fresh[v] += reduced
    checked = i + 1
    detail = None
    if checked < m:
        detail = f"the second read holds {checked} edges, the pass read {m}"
    elif (row := next(rows, None)) is not None:
        detail = f"arena row {row} was not pushed by the second read"
    elif fresh != array("q", phi):
        node = next(x for x, (a, b) in enumerate(zip(fresh, phi)) if a != b)
        detail = f"potential at node {node} is {phi[node]}, not {fresh[node]}"
    return CheckVerdict(ok=detail is None, checked=checked, detail=detail)


def ratio_factor(params: Params, k: int) -> float:
    """The end-to-end approximation factor ``2 * alpha * (1 + 1/gamma)**k``
    for ``k`` pushes. ``k`` is clamped to ``n**2`` (the simple-graph push
    budget); larger values can only come from multigraph streams."""
    k = min(k, params.n * params.n)
    return 2.0 * params.alpha * math.exp(k * math.log1p(1.0 / params.gamma))


def check_ratio_bound(params: Params, k: int) -> CheckVerdict:
    """Verify that the factor for ``k`` pushes, `ratio_factor`, stays within
    ``2 + epsilon + 1e-9``."""
    beta1 = ratio_factor(params, k)
    bound = params.ratio_bound
    ok = beta1 <= float(bound.numerator) / bound.denominator + 1e-9
    detail = None if ok else f"approximation factor {beta1!r} exceeds {bound} + 1e-9"
    return CheckVerdict(ok=ok, checked=k, detail=detail)
