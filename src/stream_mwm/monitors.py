"""Runtime monitors: per-run counters and the checks that read them.

The engine counts, at O(1) a push, each invariant it breaks: a potential
grown by less than alpha, an eviction short of its weight gap, a queue
past its cap (`MonitorStats`). `engine.run_stream` turns the counts into
verdicts at any m, in the pass's one read of the stream:
`check_phi_growth` and `check_eviction_gap` read them,
`check_terminal_weights` runs the filter and the pushes again on each
chunk after the pass has read it, on potentials of its own, and
`check_ratio_bound` bounds the approximation factor, `ratio_factor`. Each
check returns a `CheckVerdict`.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, NamedTuple, Sequence

from .core import Params

__all__ = [
    "MonitorStats",
    "CheckVerdict",
    "check_phi_growth",
    "check_eviction_gap",
    "check_terminal_weights",
    "check_ratio_bound",
    "ratio_factor",
]

#: Relative tolerance of the eviction gap test, whose factor
#: 2*alpha*gamma is real.
GAP_REL_TOL = 1e-6


class MonitorStats(NamedTuple):
    """O(1)-space counters kept by the engine at any scale: a snapshot,
    which `StreamingState.process_edges` takes anew at the end of each
    chunk.

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


class CheckVerdict(NamedTuple):
    """Outcome of a check: pass/fail, how much it checked and, for the
    replay, the index of the first offending edge."""

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
    chunks: Iterable[tuple[Iterable, Iterable]], phi: Sequence[int], params: Params
) -> CheckVerdict:
    """Verify a pass by running its filter and pushes again, chunk by chunk,
    on potentials of its own.

    The pass is a function of the input and the potentials alone: an edge
    is light iff ``q * w**2 <= p * s**2`` (``alpha_sq = p/q``, ``s`` its
    endpoints' potential sum; equality is light), and a heavy one grows
    both by its reduced weight ``w - s``. ``chunks`` yields each chunk of
    the stream's edges once the pass has read it, with the arena rows
    ``(u, v, w, reduced)`` that the pass pushed on it, in push order. Each
    heavy edge must match the chunk's next row, with reduced weight
    ``w - s`` (0 if evicted); no row of a chunk may be left; and the
    potentials must end equal to ``phi``, n of them. The first fault ends
    the replay, and the rest of ``chunks`` is left unread.
    """
    p = params.alpha_sq.numerator
    q = params.alpha_sq.denominator
    fresh = array("q", [0]) * params.n
    i = -1
    for edges, rows in chunks:
        rows = iter(rows)
        for i, (u, v, w) in enumerate(edges, i + 1):
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
        if (row := next(rows, None)) is not None:
            return CheckVerdict(
                ok=False, checked=i + 1,
                detail=f"arena row {row} was not pushed by the replay",
            )
    detail = None
    if fresh != array("q", phi):
        node = next(x for x, (a, b) in enumerate(zip(fresh, phi)) if a != b)
        detail = f"potential at node {node} is {phi[node]}, not {fresh[node]}"
    return CheckVerdict(ok=detail is None, checked=i + 1, detail=detail)


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
