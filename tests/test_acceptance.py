"""Acceptance suite: one test per release criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The random corpus is seeded and shared across criteria 1 and 2, with
the exact oracle evaluated once per instance.
"""

import csv
import dataclasses
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from stream_mwm import cli
from stream_mwm.cli import main
from stream_mwm.core import EdgeStream, WeightedEdge, compute_params
from stream_mwm.engine import StreamingState, run_stream
from stream_mwm.generators import GeneratorKind, GeneratorSpec, generate
from stream_mwm.monitors import (
    check_eviction_gap,
    check_phi_growth,
    check_terminal_weights,
    ratio_factor,
)
from stream_mwm.reference import Graph, exact_mwm, greedy_sorted, mwm_simple

EPS_SWEEP = [Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2)]
CORPUS_SIZE = 1000
EXHAUSTIVE_PERM_MAX_EDGES = 7  # 7! = 5040 arrival orders per instance
SAMPLED_ORDERS = 100


@pytest.fixture(scope="module")
def corpus():
    """Seeded random instances with their exact optimum weights."""
    instances = []
    for i in range(CORPUS_SIZE):
        stream = generate(
            GeneratorSpec(
                kind=GeneratorKind.ERDOS_RENYI,
                n=2 + (i % 11),
                weight_max=1000,
                seed=10_000 + i,
                p=0.3 if i % 2 == 0 else 0.7,
            )
        )
        opt = exact_mwm(Graph.from_stream(stream)).total_weight
        instances.append((stream, opt))
    return instances


def _holds(weight: int, opt: int, bound: Fraction) -> bool:
    # weight * bound >= opt, in exact arithmetic
    return weight * bound.numerator >= opt * bound.denominator


def _run_state(params, edges) -> int:
    state = StreamingState(params)
    # The corpus edges are WeightedEdges of ints, so they pass as one chunk.
    state.process_edges(edges)
    matching, stats = state.finalize()
    assert stats.max_queue_len <= params.queue_cap
    assert stats.peak_live_entries <= params.n * params.queue_cap
    assert stats.phi_growth_violations == 0
    assert stats.queue_cap_violations == 0
    return matching.total_weight


def test_criterion_1_approximation_guarantee(corpus):
    started = time.perf_counter()
    violations = 0
    runs = 0
    for eps in EPS_SWEEP:
        bound = 2 + eps
        for stream, opt in corpus:
            matching, report = run_stream(stream, eps)
            runs += 1
            assert report.max_queue_len <= report.queue_cap
            assert report.peak_live_entries <= stream.n * report.queue_cap
            if not _holds(matching.total_weight, opt, bound):
                violations += 1

    # Arrival-order sweep for the small instances: exhaustive where the
    # factorial stays manageable, dense seeded sampling above that.
    for eps in EPS_SWEEP:
        bound = 2 + eps
        for stream, opt in corpus:
            if stream.n > 5:
                continue
            params = compute_params(stream.n, eps)
            edges = list(stream.edges)
            if len(edges) <= EXHAUSTIVE_PERM_MAX_EDGES:
                orders = itertools.permutations(edges)
            else:
                rng = random.Random(f"orders/{stream.n}/{len(edges)}/{eps}")
                sampled = []
                for _ in range(SAMPLED_ORDERS):
                    shuffled = edges[:]
                    rng.shuffle(shuffled)
                    sampled.append(shuffled)
                sampled.append(sorted(edges, key=lambda e: e.weight))
                sampled.append(sorted(edges, key=lambda e: -e.weight))
                orders = iter(sampled)
            for order in orders:
                runs += 1
                if not _holds(_run_state(params, order), opt, bound):
                    violations += 1

    elapsed = time.perf_counter() - started
    assert violations == 0
    print(
        f"ACCEPTANCE 1 (approximation guarantee, {runs} runs, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_2_reference_two_approximations(corpus):
    violations = 0
    for stream, opt in corpus:
        g = Graph.from_stream(stream)
        if 2 * mwm_simple(g).total_weight < opt:
            violations += 1
        if 2 * greedy_sorted(g).total_weight < opt:
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 2 (reference 2-approximations): PASS")


def test_criterion_3_space_bound():
    # Engine bounds at a scale beyond the oracle.
    for spec in (
        GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=64),
        GeneratorSpec(kind=GeneratorKind.ERDOS_RENYI, n=2000, p=0.008, seed=42),
    ):
        stream = generate(spec)
        _, report = run_stream(stream, Fraction(1, 2))
        assert report.max_queue_len <= report.queue_cap
        assert report.peak_live_entries <= spec.n * report.queue_cap

    n, eps = 10**5, Fraction(1, 2)
    cap = compute_params(n, eps).queue_cap
    closed_form = 6 * (math.log2(2 * n * n) - 2 * math.log2(float(eps) / 6)) / float(
        eps
    ) + 5
    assert cap <= closed_form
    print(
        f"ACCEPTANCE 3 (space bound; queue_cap({n}, {eps}) = {cap} "
        f"<= {closed_form:.1f}): PASS"
    )


def _small_instance_specs():
    for i in range(200):
        eps = EPS_SWEEP[1 + (i % 3)]  # 1/2, 1, 2: chain base outgrows alpha
        if i % 2 == 0:
            spec = GeneratorSpec(
                kind=GeneratorKind.ERDOS_RENYI,
                n=4 + (i % 29),
                weight_max=1000,
                seed=5000 + i,
                p=0.4 + 0.15 * (i % 3),
            )
        else:
            spec = GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=8 + (i % 41))
        yield spec, eps


def test_criterion_4_runtime_monitors():
    evictions_seen = 0
    for spec, eps in _small_instance_specs():
        _, report = run_stream(generate(spec), eps, monitors=True)
        assert set(report.monitor_verdicts.values()) == {"pass"}, spec
        evictions_seen += report.evictions_total
    assert evictions_seen > 0  # the gap check was exercised, not vacuous

    # Injected corruptions: each monitor must reject its fixture.
    stream = EdgeStream(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 8)])
    params = compute_params(3, 2)
    state = StreamingState(params)
    state.process_edges(stream.edges)
    state.finalize()
    stats = state.stats
    assert check_phi_growth(stats).ok
    assert not check_phi_growth(dataclasses.replace(stats, phi_growth_violations=1)).ok

    # Below the paper's queue_cap a chain evicts before the weight gap.
    chain = generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=64))
    forced = dataclasses.replace(compute_params(64, 2), queue_cap=4)
    chain_state = StreamingState(forced)
    chain_state.process_edges(chain.edges)
    assert not check_eviction_gap(chain_state.stats).ok

    # The second read re-runs the pass: a changed input, a wrong arena row
    # or a wrong final potential each fail it.
    rows = list(state.rows())
    assert check_terminal_weights(stream, 2, rows, state.phi, params).ok
    heavier = Graph(3, [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 80)])
    assert not check_terminal_weights(heavier, 2, rows, state.phi, params).ok
    bumped = rows[:1] + [rows[1][:3] + (rows[1][3] + 1,)]
    assert not check_terminal_weights(stream, 2, bumped, state.phi, params).ok
    off = state.phi[:]
    off[1] += 1
    assert not check_terminal_weights(stream, 2, rows, off, params).ok

    print("ACCEPTANCE 4 (runtime monitors, 200 runs + corruption fixtures): PASS")


def test_criterion_5_ratio_bound_arithmetic():
    ns = [2, 3, 5, 8, 12, 100, 1000, 10**4, 10**5, 10**6]
    eps_grid = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]
    pairs = 0
    for n in ns:
        for eps in eps_grid:
            params = compute_params(n, eps)
            beta1 = ratio_factor(params, n * n)
            assert beta1 <= float(2 + eps) + 1e-9
            pairs += 1
    assert pairs == 50
    print("ACCEPTANCE 5 (beta bound arithmetic on 50 pairs): PASS")


def test_criterion_6_flat_processing_time(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    started = time.perf_counter()
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--ns", "1000,10000,100000", "--eps", "1/2", "--reps", "1",
         "--seed", "99", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 3
    p50 = {}
    for row in rows:
        n = int(row["n"])
        m = int(row["m"])
        assert 6 * n <= m <= 10 * n  # target density ~8n
        assert int(row["peak_live_entries"]) <= int(row["n_times_queue_cap"])
        p50[n] = float(row["p50_ns"])
    elapsed = time.perf_counter() - started
    assert p50[100000] < 3 * p50[1000], p50
    print(
        f"ACCEPTANCE 6 (flat per-edge time: p50 {p50[1000]:.0f}ns @1e3 vs "
        f"{p50[100000]:.0f}ns @1e5, {elapsed:.1f}s): PASS"
    )


def test_criterion_7_eviction_fires_and_ratio_survives():
    chain64 = generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=64))
    _, report = run_stream(chain64, 2)
    assert report.evictions_total >= 1

    chain20 = generate(GeneratorSpec(kind=GeneratorKind.GEOMETRIC_CHAIN, n=20))
    matching, _ = run_stream(chain20, 2)
    opt = exact_mwm(Graph.from_stream(chain20)).total_weight
    assert _holds(matching.total_weight, opt, Fraction(4))
    print(
        f"ACCEPTANCE 7 (evictions fire: {report.evictions_total}; truncated "
        f"ratio {opt}/{matching.total_weight}): PASS"
    )


def test_criterion_8_deterministic_reports(tmp_path):
    argv = ["run", "--gen", "er", "--n", "12", "--p", "0.7", "--seed", "21",
            "--eps", "1/2", "--alg", "semi", "--oracle", "--monitors"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    # With timing enabled only the timing block may differ.
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    assert main(argv + ["--timing", "--out", str(c)]) == 0
    assert main(argv + ["--timing", "--out", str(d)]) == 0
    rc, rd = json.loads(c.read_text()), json.loads(d.read_text())
    rc["per_edge_ns"] = rd["per_edge_ns"] = None
    assert rc == rd
    print("ACCEPTANCE 8 (byte-identical reports modulo timing): PASS")
