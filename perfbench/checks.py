"""Output checks on the JSON reports written by ``stream-mwm run``.

A run that fails any check counts towards ``failed``; the benchmark exits
non-zero when any run failed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction

#: Report fields that may differ between repeats of one input.
NONDETERMINISTIC = frozenset({"per_edge_ns"})


@dataclass(frozen=True)
class Expect:
    """What a correct report of one input must show.

    ``m`` and ``live_bound`` (``n * queue_cap``) apply to every workload.
    ``greedy_weight`` is the er-file reference, ``evictions_total`` and
    ``output_weight`` the analytic star outcome, ``oracle_weight`` the
    exact optimum of a small instance run with ``--oracle --monitors``.
    """

    m: int
    live_bound: int
    ratio_bound: Fraction
    greedy_weight: int | None = None
    evictions_total: int | None = None
    output_weight: int | None = None
    oracle_weight: int | None = None


@dataclass
class Prepared:
    """What set-up produced: the argument lists of one sample, what each
    report must show, and the sizes the metrics divide by. ``batch`` is True
    when one sample is one process making in-process ``cli.main`` calls, and
    False when it is one ``stream-mwm run`` process."""

    argvs: list[list[str]]
    expects: list[Expect]
    edges: int
    lines: int
    ref_weights: list[int] = field(default_factory=list)
    batch: bool = False

    def to_json(self, setup_ns: int) -> str:
        return json.dumps(dict(asdict(self), setup_ns=setup_ns), default=str)

    @classmethod
    def from_json(cls, text: str) -> tuple["Prepared", int]:
        d = json.loads(text)
        setup_ns = d.pop("setup_ns")
        d["expects"] = [
            Expect(**dict(e, ratio_bound=Fraction(e["ratio_bound"]))) for e in d["expects"]
        ]
        return cls(**d), setup_ns


def report_failures(exit_code: int, report: dict | None, expect: Expect) -> list[str]:
    """Every way ``report`` (None when missing or unreadable) misses ``expect``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no report written"]
    bad = []
    if report.get("m") != expect.m:
        bad.append(f"m {report.get('m')} != {expect.m}")
    if not report.get("peak_live_entries", 0) <= expect.live_bound:
        bad.append(f"peak_live_entries {report['peak_live_entries']} > {expect.live_bound}")
    out = report.get("output_weight", 0)
    num, den = expect.ratio_bound.numerator, expect.ratio_bound.denominator
    if expect.greedy_weight is not None and out * num < expect.greedy_weight * den:
        bad.append(f"output_weight {out} * {expect.ratio_bound} < greedy {expect.greedy_weight}")
    if expect.evictions_total is not None and report.get("evictions_total") != expect.evictions_total:
        bad.append(f"evictions_total {report.get('evictions_total')} != {expect.evictions_total}")
    if expect.output_weight is not None and out != expect.output_weight:
        bad.append(f"output_weight {out} != {expect.output_weight}")
    if expect.oracle_weight is not None:
        oracle = report.get("oracle_weight")
        if oracle != expect.oracle_weight:
            bad.append(f"oracle_weight {oracle} != {expect.oracle_weight}")
        elif oracle * den > out * num:
            bad.append(f"oracle/output {oracle}/{out} > {expect.ratio_bound}")
        verdicts = report.get("monitor_verdicts") or {}
        if not verdicts or any(v != "pass" for v in verdicts.values()):
            bad.append(f"monitor verdicts {verdicts}")
    return bad


class Repeats:
    """Remembers the deterministic fields of the first report of each input
    and flags any later report of that input that differs."""

    def __init__(self) -> None:
        self._first: dict[int, dict] = {}

    def failures(self, key: int, report: dict | None) -> list[str]:
        if report is None:
            return []
        fields = {k: v for k, v in report.items() if k not in NONDETERMINISTIC}
        first = self._first.setdefault(key, fields)
        if fields == first:
            return []
        changed = sorted(k for k in fields.keys() | first.keys() if fields.get(k) != first.get(k))
        return [f"deterministic fields differ from the first repeat: {changed}"]
