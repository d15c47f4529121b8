"""The package's records are NamedTuples: values with a ``Name(field=...)``
repr, equal when their fields are, and read-only; ``_replace``,
``_asdict`` and ``_fields`` take the place of the `dataclasses` helpers."""

from fractions import Fraction

import pytest

from stream_mwm import (
    CheckVerdict,
    EdgeStream,
    GeneratorKind,
    GeneratorSpec,
    LazyEdgeStream,
    MonitorStats,
    Params,
    RunReport,
    TimingStats,
    compute_params,
)

_RECORDS = [
    EdgeStream(2, [(0, 1, 5)]),
    compute_params(4, "1/2"),
    MonitorStats(heavy_edges_total=3),
    CheckVerdict(ok=False, checked=2, detail="bad"),
    TimingStats(p50=1.0, p99=2.0, max=3, samples=4),
    RunReport(algorithm="semi", n=2, m=1, epsilon="1/2", output_weight=5),
    LazyEdgeStream(2, 1, list),
    GeneratorSpec(kind=GeneratorKind.PATH, n=4),
]


@pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_read_only_values(record):
    name, first = type(record).__name__, record._fields[0]
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"
    assert record == type(record)(**record._asdict())
    assert record._replace() == record and record._replace() is not record
    with pytest.raises(AttributeError):
        setattr(record, first, None)


def test_record_fields_and_defaults():
    assert Params._fields == (
        "n", "epsilon", "alpha_sq", "gamma", "queue_cap", "ratio_bound",
    )
    assert compute_params(4, "1/2").epsilon == Fraction(1, 2)
    assert MonitorStats() == MonitorStats(*[0] * len(MonitorStats._fields))
    assert CheckVerdict(ok=True) == CheckVerdict(True, 0, None, None)
    assert not CheckVerdict(ok=False) and CheckVerdict(ok=True)
    assert EdgeStream(3, [(0, 1, 5), (1, 2, 6)]).m == 2


def test_each_run_report_has_its_own_verdicts():
    a = RunReport(algorithm="semi", n=2, m=1, epsilon="1/2", output_weight=5)
    b = RunReport("semi", 2, 1, "1/2", 5)
    assert a == b and a.monitor_verdicts == {}
    assert a.monitor_verdicts is not b.monitor_verdicts
    a.monitor_verdicts["phi_growth"] = "pass"
    assert b.monitor_verdicts == {}
    given = {"ratio_bound": "fail"}
    c = RunReport("semi", 2, 1, "1/2", 5, monitor_verdicts=given)
    assert c.monitor_verdicts is given
    assert c._replace(oracle_weight=5).to_dict()["oracle_weight"] == 5
