"""Seeded input builders and the three benchmark workloads.

Each workload's set-up builds its inputs from the seed (timed as
``setup_s``) and names the command a user would run, with what its reports
must show. The benchmark runs set-up in a process of its own, so that the
benchmark's own process stays small and does not inflate the peak RSS that
its children report. Inputs are built with the package's own public API
(``generators.generate``, ``streamio.serialize_stream``,
``reference.greedy_sorted`` / ``exact_mwm``), except the star stream, whose
weights come from exact integer arithmetic below.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from stream_mwm import (
    I64_MAX,
    EdgeStream,
    GeneratorKind,
    GeneratorSpec,
    Graph,
    WeightedEdge,
    compute_params,
    exact_mwm,
    generate,
    greedy_sorted,
    serialize_stream,
)

import checks

EPS = "1/2"

#: Run sizes. On a 2-CPU cloud VM a file sample takes about a second and a
#: verify-small batch about 2.5 s. The cost of ``exact_mwm`` varies by about
#: 25% from one n=20 instance to the next, so a batch sums 64 of them to
#: keep its wall time and its worst case steady from one seed to the next.
ER_NODES = 30_000
ER_DEGREE = 16
STARS = 250
VERIFY_INSTANCES = 64
VERIFY_NODES = 20
VERIFY_P = 0.5


def heavy_chain(alpha_sq: Fraction, limit: int = I64_MAX) -> list[int]:
    """The minimal heavy chain: ``w0 = 1``, then each weight is the
    smallest integer ``w`` with ``q*w^2 > p*w_prev^2`` (``alpha_sq = p/q``),
    for as long as the weights stay within ``limit``.

    Fed to one centre with fresh leaves, every edge of the chain is heavy:
    the centre's potential after a push is the pushed weight, and a fresh
    leaf has potential 0.
    """
    p, q = alpha_sq.numerator, alpha_sq.denominator
    weights = [1]
    while True:
        prev = weights[-1]
        w = math.isqrt(p * prev * prev // q)
        while q * w * w <= p * prev * prev:
            w += 1
        if w > limit:
            return weights
        weights.append(w)


@dataclass(frozen=True)
class StarExpect:
    """Analytic outcome of the star stream: every edge is heavy, each centre
    evicts once per push from its ``queue_cap``-th on, and the newest edge of
    each star survives the unwind."""

    stars: int
    leaves: int
    queue_cap: int
    evictions_total: int
    output_weight: int


def build_stars(
    stars: int, eps: str, seed: int, leaves: int | None = None
) -> tuple[EdgeStream, StarExpect]:
    """Disjoint stars, each fed the minimal heavy chain with fresh leaves.

    Stars are interleaved round by round; the star order of each round and
    the node labels are drawn from ``seed``. ``leaves`` defaults to the
    longest chain that fits in 63 bits. Refuses to build when the chain
    would exceed ``I64_MAX`` or when a star has no more leaves than
    ``queue_cap`` (its centre would never evict).
    """
    # alpha_sq depends on eps alone; n only moves queue_cap.
    chain = heavy_chain(compute_params(2, eps).alpha_sq)
    if leaves is None:
        leaves = len(chain)
    if leaves > len(chain):
        raise ValueError(
            f"{leaves} leaves need chain weight above 2^63-1; at most {len(chain)} fit"
        )
    weights = chain[:leaves]
    n = stars * (leaves + 1)
    cap = compute_params(n, eps).queue_cap
    if leaves <= cap:
        raise ValueError(f"{leaves} leaves per star do not exceed queue_cap {cap}")

    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    order = list(range(stars))
    edges: list[WeightedEdge] = []
    for r, w in enumerate(weights):
        rng.shuffle(order)
        for s in order:
            base = s * (leaves + 1)
            centre, leaf = label[base], label[base + 1 + r]
            edges.append(WeightedEdge(centre, leaf, w))
    expect = StarExpect(
        stars=stars,
        leaves=leaves,
        queue_cap=cap,
        evictions_total=stars * (leaves - cap + 1),
        output_weight=stars * weights[-1],
    )
    return EdgeStream(n, edges), expect


def build_er(n: int, degree: int, seed: int) -> EdgeStream:
    """Erdos-Renyi stream with the given average degree."""
    spec = GeneratorSpec(
        kind=GeneratorKind.ERDOS_RENYI, n=n, seed=seed, p=degree / (n - 1)
    )
    return generate(spec)


def setup_er_file(work: Path, seed: int) -> checks.Prepared:
    stream = build_er(ER_NODES, ER_DEGREE, seed)
    path = work / "er.mwm"
    path.write_text(serialize_stream(stream), encoding="utf-8")
    greedy = greedy_sorted(Graph.from_stream(stream)).total_weight
    params = compute_params(stream.n, EPS)
    expect = checks.Expect(
        m=len(stream.edges),
        live_bound=stream.n * params.queue_cap,
        ratio_bound=params.ratio_bound,
        greedy_weight=greedy,
    )
    return checks.Prepared(
        argvs=[_run_argv(path, work / "report-0.json")],
        expects=[expect],
        edges=len(stream.edges),
        lines=len(stream.edges) + 1,
        ref_weights=[greedy],
    )


def setup_stars_evict(work: Path, seed: int) -> checks.Prepared:
    stream, star = build_stars(STARS, EPS, seed)
    path = work / "stars.mwm"
    path.write_text(serialize_stream(stream), encoding="utf-8")
    params = compute_params(stream.n, EPS)
    expect = checks.Expect(
        m=len(stream.edges),
        live_bound=stream.n * params.queue_cap,
        ratio_bound=params.ratio_bound,
        evictions_total=star.evictions_total,
        output_weight=star.output_weight,
    )
    return checks.Prepared(
        argvs=[_run_argv(path, work / "report-0.json")],
        expects=[expect],
        edges=len(stream.edges),
        lines=len(stream.edges) + 1,
        ref_weights=[star.output_weight],
    )


def setup_verify_small(work: Path, seed: int) -> checks.Prepared:
    rng = random.Random(seed)
    argvs, expects, refs = [], [], []
    for i in range(VERIFY_INSTANCES):
        inst_seed = rng.randrange(2**31)
        spec = GeneratorSpec(
            kind=GeneratorKind.ERDOS_RENYI, n=VERIFY_NODES, p=VERIFY_P, seed=inst_seed
        )
        stream = generate(spec)
        oracle = exact_mwm(Graph.from_stream(stream)).total_weight
        params = compute_params(stream.n, EPS)
        argvs.append(
            [
                "run", "--gen", "er", "--n", str(VERIFY_NODES), "--p", str(VERIFY_P),
                "--seed", str(inst_seed), "--eps", EPS, "--oracle", "--monitors",
                "--out", str(work / f"report-{i}.json"),
            ]
        )
        expects.append(
            checks.Expect(
                m=len(stream.edges),
                live_bound=stream.n * params.queue_cap,
                ratio_bound=params.ratio_bound,
                oracle_weight=oracle,
            )
        )
        refs.append(oracle)
    return checks.Prepared(
        argvs=argvs,
        expects=expects,
        edges=sum(e.m for e in expects),
        lines=0,
        ref_weights=refs,
        batch=True,
    )


def _run_argv(path: Path, out: Path) -> list[str]:
    return ["run", "--input", str(path), "--eps", EPS, "--out", str(out)]


SETUPS = {
    "er-file": setup_er_file,
    "stars-evict": setup_stars_evict,
    "verify-small": setup_verify_small,
}


def main(argv: list[str]) -> int:
    """``workloads.py WORKLOAD SEED WORKDIR OUT_JSON``: build the inputs once
    and write the prepared workload, with the set-up time, to ``OUT_JSON``."""
    name, seed, work, out = argv
    t0 = time.perf_counter_ns()
    prepared = SETUPS[name](Path(work), int(seed))
    setup_ns = time.perf_counter_ns() - t0
    Path(out).write_text(prepared.to_json(setup_ns), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
