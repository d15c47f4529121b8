"""Single-pass bounded-memory maximum weight matching.

A streaming engine that keeps O(n * queue_cap) pushed edges while
guaranteeing a (2 + epsilon)-approximation, plus sequential reference
solvers, an exact small-instance oracle, runtime monitors, seeded stream
generators, and a benchmark CLI.

Each exported name is imported from its module on first use (a
module-level ``__getattr__``), so importing the package, or one of its
modules, loads only what that code imports.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each exported name, and the module that defines it.
_EXPORTS = {
    "I64_MAX": "core",
    "EXACT_MAX_NODES": "core",
    "CapacityError": "core",
    "EdgeStream": "core",
    "Matching": "core",
    "Params": "core",
    "StreamFormatError": "core",
    "WeightedEdge": "core",
    "compute_params": "core",
    "parse_epsilon": "core",
    "StreamingState": "engine",
    "run_stream": "engine",
    "GeneratorKind": "generators",
    "GeneratorSpec": "generators",
    "StreamOrder": "generators",
    "generate": "generators",
    "CheckVerdict": "monitors",
    "MonitorStats": "monitors",
    "check_eviction_gap": "monitors",
    "check_phi_growth": "monitors",
    "check_ratio_bound": "monitors",
    "check_terminal_weights": "monitors",
    "Graph": "reference",
    "exact_mwm": "reference",
    "greedy_sorted": "reference",
    "mwm_simple": "reference",
    "optimum_weight": "reference",
    "RunReport": "report",
    "TimingStats": "report",
    "LazyEdgeStream": "streamio",
    "parse_stream": "streamio",
    "read_stream": "streamio",
    "serialize_stream": "streamio",
}

__all__ = sorted(_EXPORTS, key=str.lower)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
