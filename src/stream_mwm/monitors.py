"""Runtime monitors: per-run counters and trace-replay checks.

The engine always maintains the cheap integer counters in `MonitorStats`.
A trace is O(1) per event, as each event keeps only its edge's two
endpoint potentials, so it may be recorded at any n for a stream of at
most ``TRACE_MAX_EDGES`` edges. A trace records the pass only, in
``light``, ``pushed`` and ``evicted`` events; the matching that
`StreamingState.finalize` returns is not traced. A `TraceEvent` is a
`NamedTuple`, as its `WeightedEdge` is, so the engine builds both with
``tuple.__new__`` directly, and a traced pass runs no Python-level
constructor per event. The
`check_*` functions are pure functions of a recorded trace, and
`check_terminal_weights` of the stream's second read as well; it makes
`core.is_heavy`'s exact integer test inline, with ``alpha_sq`` read once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import EdgeStream, Params, WeightedEdge

__all__ = [
    "TRACE_MAX_EDGES",
    "LIGHT",
    "PUSHED",
    "EVICTED",
    "MonitorStats",
    "TraceEvent",
    "CheckVerdict",
    "MonitorFailure",
    "check_phi_growth",
    "check_eviction_gap",
    "check_terminal_weights",
    "check_ratio_bound",
]

#: The longest stream that may be traced: a trace holds one event per edge
#: and eviction.
TRACE_MAX_EDGES = 100_000

# Trace event kinds.
LIGHT = "light"
PUSHED = "pushed"
EVICTED = "evicted"

#: Relative tolerance for checks that involve the real factor 2*alpha*gamma.
_GAP_REL_TOL = 1e-6


@dataclass(slots=True)
class MonitorStats:
    """O(1)-space counters kept by the engine at any scale.

    ``heavy_edges_total`` counts the heavy (pushed) edges so far; it feeds
    no engine decision and is the ``k`` of the ratio-bound check. Both
    violation counters stay zero on a correct engine.
    """

    peak_live_entries: int = 0
    heavy_edges_total: int = 0
    phi_growth_violations: int = 0
    queue_cap_violations: int = 0
    max_queue_len: int = 0
    evictions_total: int = 0


class TraceEvent(NamedTuple):
    """One engine event: an edge classified (light or pushed) or evicted.

    ``phi_u`` and ``phi_v`` are the potentials of ``edge.u`` and ``edge.v``
    after the event took effect (None for an eviction); ``reduced_weight``
    is set for pushes and evictions. A tuple, like `WeightedEdge`: an
    event is immutable and hashable, and the engine builds one with
    ``tuple.__new__``, not through the class's Python-level ``__new__``.
    ``_replace`` gives a changed copy.
    """

    kind: str
    edge: WeightedEdge
    reduced_weight: int | None = None
    phi_u: int | None = None
    phi_v: int | None = None


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of a trace check: pass/fail plus the first offending event."""

    ok: bool
    checked: int = 0
    event_index: int | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class MonitorFailure(RuntimeError):
    """A monitored arithmetic bound did not hold."""


def _require_snapshots(trace: Sequence[TraceEvent]) -> None:
    for ev in trace:
        if ev.kind in (LIGHT, PUSHED) and (ev.phi_u is None or ev.phi_v is None):
            raise ValueError("trace lacks the endpoint potentials of an edge")


def check_phi_growth(trace: Sequence[TraceEvent], params: Params) -> CheckVerdict:
    """Verify the geometric growth of node potentials.

    Every push at a node must multiply that node's potential by at least
    alpha. With ``alpha_sq = p/q`` this is the exact integer comparison
    ``q * phi_new**2 >= p * phi_old**2``, applied to the potentials recorded
    at each consecutive pair of pushes per node; chaining the per-push factor
    covers arbitrary pairs of heavy edges at the node.
    """
    _require_snapshots(trace)
    p = params.alpha_sq.numerator
    q = params.alpha_sq.denominator
    last_phi: dict[int, int] = {}
    checked = 0
    for i, ev in enumerate(trace):
        if ev.kind != PUSHED:
            continue
        for node, new in ((ev.edge.u, ev.phi_u), (ev.edge.v, ev.phi_v)):
            old = last_phi.get(node)
            if old is not None:
                checked += 1
                if q * new * new < p * old * old:
                    return CheckVerdict(
                        ok=False,
                        checked=checked,
                        event_index=i,
                        detail=f"potential at node {node} grew {old} -> {new}, "
                        f"below the alpha factor",
                    )
            last_phi[node] = new
    return CheckVerdict(ok=True, checked=checked)


def check_eviction_gap(trace: Sequence[TraceEvent], params: Params) -> CheckVerdict:
    """Verify that every eviction was justified by a weight gap.

    An eviction is triggered by the push immediately preceding it in the
    trace; the pushed entry's reduced weight must be at least
    ``2 * alpha * gamma`` times the evicted entry's reduced weight. The
    factor is a double-precision real, so the comparison carries a 1e-6
    relative tolerance.
    """
    _require_snapshots(trace)
    gap = 2.0 * params.alpha * params.gamma
    trigger: TraceEvent | None = None
    checked = 0
    for i, ev in enumerate(trace):
        if ev.kind == PUSHED:
            trigger = ev
        elif ev.kind == EVICTED:
            if trigger is None or trigger.reduced_weight is None:
                return CheckVerdict(
                    ok=False, checked=checked, event_index=i,
                    detail="eviction with no preceding push",
                )
            checked += 1
            w_new = float(trigger.reduced_weight)
            w_old = float(ev.reduced_weight or 0)
            need = gap * w_old
            if not (w_new >= need or math.isclose(w_new, need, rel_tol=_GAP_REL_TOL)):
                return CheckVerdict(
                    ok=False, checked=checked, event_index=i,
                    detail=f"evicted weight {w_old} vs trigger {w_new}: "
                    f"gap below {gap:.6g}",
                )
    return CheckVerdict(ok=True, checked=checked)


def check_terminal_weights(
    g: EdgeStream, trace: Sequence[TraceEvent], params: Params
) -> CheckVerdict:
    """Verify that no edge retains positive implicit weight after the pass.

    Replays the classification certificate of every stream edge: a light
    edge must fail the exact heaviness test against the potentials it was
    classified under, and a pushed edge must have had its weight reduced
    to exactly zero (reduced weight equal to original weight minus the
    endpoint potentials before the push, and positive). ``g`` is read as
    the engine reads a stream, ``m`` and then one read of ``edges``; a
    file stream opens its file again for it.
    """
    _require_snapshots(trace)
    processed = [ev for ev in trace if ev.kind in (LIGHT, PUSHED)]
    if len(processed) != g.m:
        return CheckVerdict(
            ok=False,
            checked=0,
            detail=f"trace covers {len(processed)} edges, graph has {g.m}",
        )
    # `is_heavy`'s exact test, inline: w > alpha * s iff q*w*w > p*s*s.
    p = params.alpha_sq.numerator
    q = params.alpha_sq.denominator
    checked = 0
    events = enumerate(zip(g.edges, processed))
    for i, (edge, (kind, traced, reduced, phi_u, phi_v)) in events:
        if edge != traced:
            return CheckVerdict(
                ok=False, checked=checked, event_index=i,
                detail=f"trace edge {traced} does not match stream edge {edge}",
            )
        checked += 1
        weight = edge[2]
        if kind == LIGHT:
            # State was unchanged, so the recorded potentials classified it.
            pot = phi_u + phi_v
            if q * weight * weight > p * pot * pot:
                return CheckVerdict(
                    ok=False, checked=checked, event_index=i,
                    detail=f"edge {edge} was dropped but beats the filter "
                    f"against potential sum {pot}",
                )
        else:
            assert reduced is not None
            before_u = phi_u - reduced
            before_v = phi_v - reduced
            pot = before_u + before_v
            ok = (
                reduced >= 1
                and before_u >= 0
                and before_v >= 0
                and weight - pot == reduced
                and q * weight * weight > p * pot * pot
            )
            if not ok:
                return CheckVerdict(
                    ok=False, checked=checked, event_index=i,
                    detail=f"push of {edge} does not zero out its weight",
                )
    return CheckVerdict(ok=True, checked=checked)


def check_ratio_bound(params: Params, k: int) -> float:
    """Evaluate the end-to-end approximation factor for ``k`` pushes.

    Returns ``2 * alpha * (1 + 1/gamma)**k`` and asserts it stays within
    ``2 + epsilon + 1e-9``. ``k`` is clamped to ``n**2`` (the simple-graph
    push budget); larger values can only come from multigraph streams.
    """
    limit = params.n * params.n
    if k > limit:
        warnings.warn(
            f"heavy edge count {k} exceeds n^2={limit}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        k = limit
    beta1 = 2.0 * params.alpha * math.exp(k * math.log1p(1.0 / params.gamma))
    bound = (
        float(params.ratio_bound.numerator) / params.ratio_bound.denominator + 1e-9
    )
    if beta1 > bound:
        raise MonitorFailure(
            f"approximation factor {beta1!r} exceeds {params.ratio_bound} + 1e-9"
        )
    return beta1
