"""Run reports: the serializable record of one algorithm execution."""

from __future__ import annotations

import json
from typing import NamedTuple

__all__ = ["TimingStats", "RunReport", "RUN_CSV_HEADER"]

# The CSV columns of a run: these report fields, then the per-edge timing
# percentiles, then the monitor verdicts.
_FIELDS = (
    "algorithm",
    "n",
    "m",
    "epsilon",
    "output_weight",
    "oracle_weight",
    "ratio",
    "ratio_bound",
    "peak_live_entries",
    "queue_cap",
    "heavy_edges_k",
    "max_queue_len",
    "evictions_total",
)
_TIMING = ("p50", "p99", "max")
_MONITORS = ("phi_growth", "eviction_gap", "terminal_weights", "ratio_bound")

RUN_CSV_HEADER = [
    *_FIELDS,
    *(f"{name}_ns" for name in _TIMING),
    *(f"monitor_{name}" for name in _MONITORS),
]


class TimingStats(NamedTuple):
    """Per-edge processing time percentiles, in nanoseconds."""

    p50: float
    p99: float
    max: int
    samples: int

    @classmethod
    def from_samples(cls, samples: list[int]) -> "TimingStats":
        if len(samples) == 1:
            only = float(samples[0])
            return cls(p50=only, p99=only, max=samples[0], samples=1)
        # Imported here: only a timed run needs it.
        import statistics

        q = statistics.quantiles(samples, n=100, method="inclusive")
        return cls(p50=q[49], p99=q[98], max=max(samples), samples=len(samples))


class _RunFields(NamedTuple):
    algorithm: str
    n: int
    m: int
    epsilon: str | None
    output_weight: int
    oracle_weight: int | None = None
    ratio: float | None = None
    ratio_bound: str | None = None
    peak_live_entries: int | None = None
    queue_cap: int | None = None
    heavy_edges_k: int | None = None
    max_queue_len: int | None = None
    evictions_total: int | None = None
    per_edge_ns: TimingStats | None = None
    monitor_verdicts: dict[str, str] | None = None


class RunReport(_RunFields):
    """Metrics of one run. Oracle fields are present only if the oracle ran.

    ``ratio`` is oracle weight over output weight (>= 1 by oracle
    dominance; defined as 1.0 when both weights are zero). The streaming
    fields (queue cap, peak live entries, heavy edge count, evictions) are
    None for the non-streaming reference algorithms. All fields except
    ``per_edge_ns`` are deterministic functions of (input bytes, epsilon,
    algorithm). ``monitor_verdicts`` left out is a new empty dict, one per
    report.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RunReport":
        report = super().__new__(cls, *args, **kwargs)
        if report.monitor_verdicts is None:
            return report._replace(monitor_verdicts={})
        return report

    def to_dict(self) -> dict:
        d = self._asdict()
        if self.per_edge_ns is not None:
            d["per_edge_ns"] = self.per_edge_ns._asdict()
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True) + "\n"

    def to_csv_row(self) -> list[str]:
        """One CSV row, in the order of `RUN_CSV_HEADER`."""
        t = self.per_edge_ns
        cells = [getattr(self, name) for name in _FIELDS]
        cells += [getattr(t, name) if t else None for name in _TIMING]
        cells += [self.monitor_verdicts.get(name) for name in _MONITORS]
        return ["" if c is None else str(c) for c in cells]
