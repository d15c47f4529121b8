"""Tests of the benchmark's own builders, checks and tracer.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stream_mwm import I64_MAX, compute_params, run_stream, serialize_stream  # noqa: E402
from stream_mwm.cli import main as cli_main  # noqa: E402


def test_heavy_chain_is_minimal_and_fits_63_bits():
    alpha_sq = compute_params(2, "1/2").alpha_sq
    p, q = alpha_sq.numerator, alpha_sq.denominator
    chain = workloads.heavy_chain(alpha_sq)
    assert len(chain) == 376
    assert chain[0] == 1 and chain[-1] <= I64_MAX
    for prev, w in zip(chain, chain[1:]):
        assert q * w * w > p * prev * prev
        assert q * (w - 1) * (w - 1) <= p * prev * prev
    assert workloads.heavy_chain(alpha_sq, limit=chain[-1] - 1) == chain[:-1]


@pytest.mark.parametrize("stars,leaves", [(3, None), (4, 250)])
def test_star_stream_matches_analytic_evictions_and_optimum(stars, leaves):
    stream, expect = workloads.build_stars(stars, "1/2", seed=7, leaves=leaves)
    matching, report = run_stream(stream, "1/2")
    assert report.queue_cap == expect.queue_cap
    assert report.heavy_edges_k == len(stream.edges) == stars * expect.leaves
    assert report.evictions_total == stars * (expect.leaves - expect.queue_cap + 1)
    assert report.evictions_total == expect.evictions_total
    assert matching.total_weight == expect.output_weight


def test_star_builder_is_seeded():
    a, _ = workloads.build_stars(3, "1/2", seed=1)
    b, _ = workloads.build_stars(3, "1/2", seed=1)
    c, _ = workloads.build_stars(3, "1/2", seed=2)
    assert a == b and a != c


def test_star_builder_refuses_unbuildable_stars():
    with pytest.raises(ValueError, match="queue_cap"):
        workloads.build_stars(3, "1/2", seed=1, leaves=100)
    with pytest.raises(ValueError, match="2\\^63"):
        workloads.build_stars(3, "1/2", seed=1, leaves=377)


@pytest.fixture
def star_report(tmp_path):
    stream, star = workloads.build_stars(3, "1/2", seed=3)
    path = tmp_path / "stars.mwm"
    path.write_text(serialize_stream(stream), encoding="utf-8")
    out = tmp_path / "report.json"
    code = cli_main(["run", "--input", str(path), "--eps", "1/2", "--out", str(out)])
    params = compute_params(stream.n, "1/2")
    expect = checks.Expect(
        m=len(stream.edges),
        live_bound=stream.n * params.queue_cap,
        ratio_bound=params.ratio_bound,
        evictions_total=star.evictions_total,
        output_weight=star.output_weight,
    )
    return code, json.loads(out.read_text(encoding="utf-8")), expect


def test_untampered_star_report_passes(star_report):
    code, report, expect = star_report
    assert checks.report_failures(code, report, expect) == []


@pytest.mark.parametrize("field", ["output_weight", "evictions_total"])
def test_tampered_report_is_a_failure(star_report, field):
    code, report, expect = star_report
    repeats = checks.Repeats()
    assert repeats.failures(0, report) == []
    tampered = dict(report, **{field: report[field] + 1})
    assert checks.report_failures(code, tampered, expect)
    assert repeats.failures(0, tampered)


def test_failed_exit_code_or_missing_report_is_a_failure(star_report):
    code, report, expect = star_report
    assert checks.report_failures(2, report, expect)
    assert checks.report_failures(0, None, expect)


def test_oracle_checks():
    expect = checks.Expect(m=3, live_bound=10, ratio_bound=Fraction(5, 2), oracle_weight=10)
    good = {"m": 3, "peak_live_entries": 2, "output_weight": 4, "oracle_weight": 10,
            "monitor_verdicts": {"phi_growth": "pass", "ratio_bound": "pass"}}
    assert checks.report_failures(0, good, expect) == []
    assert checks.report_failures(0, dict(good, output_weight=3), expect)
    assert checks.report_failures(0, dict(good, oracle_weight=9), expect)
    assert checks.report_failures(0, dict(good, monitor_verdicts={"phi_growth": "skipped"}), expect)
    assert checks.report_failures(0, dict(good, monitor_verdicts={}), expect)


def test_self_times_add_up_to_the_outer_span():
    tracer = tracing.Tracer()
    ticks = iter(range(0, 1000, 10))
    tracer.clock = lambda: next(ticks)
    tracer._last = tracer.clock()
    tracer.enter("cli.main")         # 10
    tracer.enter("engine.run")       # 20
    tracer.on_gc("start", {})        # 30
    tracer.on_gc("stop", {})         # 40
    tracer.enter("core.of")          # 50
    tracer.exit()                    # 60
    tracer.exit()                    # 70
    tracer.exit()                    # 80
    assert tracer.self_ns == {"cli": 20, "engine": 30, "core": 10, "python": 10}
    summary = tracer.summary()
    assert summary["span_ns"]["cli.main"] == sum(tracer.self_ns.values()) == 70
    assert summary["gc_collections"] == 1
