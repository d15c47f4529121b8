"""Single-pass bounded-memory maximum weight matching.

A streaming engine that keeps O(n * queue_cap) pushed edges while
guaranteeing a (2 + epsilon)-approximation, plus sequential reference
solvers, an exact small-instance oracle, runtime monitors, seeded stream
generators, and a benchmark CLI.
"""

from .core import (
    I64_MAX,
    CapacityError,
    EdgeStream,
    Matching,
    Params,
    StreamFormatError,
    WeightedEdge,
    compute_params,
    is_heavy,
    parse_epsilon,
)
from .engine import StreamingState, run_stream
from .generators import GeneratorKind, GeneratorSpec, StreamOrder, generate
from .monitors import (
    CheckVerdict,
    MonitorStats,
    TraceEvent,
    check_eviction_gap,
    check_phi_growth,
    check_ratio_bound,
    check_terminal_weights,
)
from .reference import (
    EXACT_MAX_NODES,
    Graph,
    exact_mwm,
    greedy_sorted,
    mwm_simple,
    optimum_weight,
)
from .report import RunReport, TimingStats
from .streamio import LazyEdgeStream, parse_stream, read_stream, serialize_stream

__version__ = "0.1.0"

__all__ = [
    "I64_MAX",
    "CapacityError",
    "CheckVerdict",
    "EdgeStream",
    "EXACT_MAX_NODES",
    "GeneratorKind",
    "GeneratorSpec",
    "Graph",
    "LazyEdgeStream",
    "Matching",
    "MonitorStats",
    "Params",
    "RunReport",
    "StreamFormatError",
    "StreamOrder",
    "StreamingState",
    "TimingStats",
    "TraceEvent",
    "WeightedEdge",
    "check_eviction_gap",
    "check_phi_growth",
    "check_ratio_bound",
    "check_terminal_weights",
    "compute_params",
    "exact_mwm",
    "generate",
    "greedy_sorted",
    "is_heavy",
    "mwm_simple",
    "optimum_weight",
    "parse_epsilon",
    "parse_stream",
    "read_stream",
    "run_stream",
    "serialize_stream",
]
