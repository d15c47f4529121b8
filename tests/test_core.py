import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_mwm.core import (
    I64_MAX,
    Matching,
    WeightedEdge,
    compute_params,
    is_heavy,
    parse_epsilon,
)


def brute_force_queue_cap(n: int, epsilon) -> int:
    """Independent scan for the first s >= 2 beating the eviction threshold."""
    alpha = math.sqrt(float(1 + Fraction(epsilon) / 2))
    gamma = n * n / math.log(alpha)
    s = 2
    while not ((alpha - 1) * alpha ** (s - 2) > 2 * alpha * gamma):
        s += 1
    return s + 1


def scan_queue_cap(n: int, epsilon) -> int:
    """Reference for the closed form: scan upward, one multiplication per step."""
    alpha_sq = 1 + Fraction(epsilon) / 2
    alpha = math.sqrt(alpha_sq.numerator / alpha_sq.denominator)
    threshold = 2.0 * alpha * ((n * n) / math.log(alpha))
    s = 2
    power = 1.0  # alpha**(s - 2)
    while (alpha - 1.0) * power <= threshold:
        s += 1
        power *= alpha
    return s + 1


SCAN_NS = [2, 3, 5, 10, 64, 100, 1000, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9]
SCAN_EPS = (
    [Fraction(1, 10**4), Fraction(3, 10**4)]
    + [Fraction(k, 1000) for k in (1, 2, 3, 5, 7, 10, 13, 20, 30, 50, 77, 100)]
    + [Fraction(k, 10) for k in (2, 3, 5, 7, 10, 13, 15, 20, 25, 30, 37, 40, 45, 50, 55, 59)]
)


@pytest.mark.parametrize("eps", SCAN_EPS, ids=str)
def test_params_queue_cap_matches_upward_scan(eps):
    for n in SCAN_NS:
        assert compute_params(n, eps).queue_cap == scan_queue_cap(n, eps), n


@pytest.mark.parametrize("eps", ["1e-5", "1e-8", "1e-12", "1e-15", Fraction(7, 10**16)])
def test_params_queue_cap_is_the_smallest_solution_at_tiny_epsilon(eps):
    # Too many steps for the scan: check the defining inequality instead.
    n = 1000
    p = compute_params(n, eps)
    alpha = p.alpha
    threshold = 2.0 * alpha * p.gamma
    k = p.queue_cap - 3  # s - 2
    assert (alpha - 1.0) * alpha**k > threshold
    assert (alpha - 1.0) * alpha ** (k - 1) <= threshold


def test_params_exact_fields_n10_eps2():
    p = compute_params(10, 2)
    assert p.alpha_sq == Fraction(2)
    assert p.ratio_bound == Fraction(4)
    assert p.epsilon == Fraction(2)


def test_params_gamma_n10_eps2():
    # Direct evaluation of n^2 / ln(alpha) with alpha = sqrt(2).
    expected = 100.0 / math.log(math.sqrt(2.0))
    p = compute_params(10, 2)
    assert p.gamma == pytest.approx(expected, rel=1e-12)
    assert p.gamma == pytest.approx(288.539008, rel=1e-6)


def test_params_queue_cap_n10_eps2():
    # Frozen from the brute-force scan: first s is 24, stored cap 25.
    assert brute_force_queue_cap(10, 2) == 25
    assert compute_params(10, 2).queue_cap == 25


@pytest.mark.parametrize("n", [2, 5, 64, 1000, 10**5])
@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), 1, 2, Fraction(59, 10)])
def test_params_queue_cap_matches_bruteforce(n, eps):
    assert compute_params(n, eps).queue_cap == brute_force_queue_cap(n, eps)


@pytest.mark.parametrize(
    "n, eps",
    [(1, 1), (0, 1), (2, 0), (2, -1), (2, 6), (2, 7), (2, Fraction(-1, 2))],
)
def test_params_rejects_bad_inputs(n, eps):
    with pytest.raises(ValueError):
        compute_params(n, eps)


@pytest.mark.parametrize(
    "eps", [Fraction(1, 10**17), Fraction(6, 10**16), Fraction(1, 10**300)]
)
def test_params_rejects_epsilon_that_rounds_alpha_to_one(eps):
    # alpha = sqrt(1 + eps/2) would be 1.0 in double precision, and
    # gamma = n^2 / log(alpha) a division by zero.
    with pytest.raises(ValueError, match="epsilon .* is too small"):
        compute_params(10, eps)


def test_params_deterministic():
    assert compute_params(37, Fraction(3, 7)) == compute_params(37, Fraction(3, 7))


def _cap_bound_base(n, e: float) -> float:
    return 6 * (math.log2(2 * n * n) - 2 * math.log2(e / 6)) / e


@pytest.mark.parametrize("n", [2, 10, 100, 10**5, 10**7])
@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), 1, 2, 3])
def test_queue_cap_closed_form_bound(n, eps):
    cap = compute_params(n, eps).queue_cap
    assert cap <= _cap_bound_base(n, float(eps)) + 5


@pytest.mark.parametrize("n", [2, 10, 100, 10**5, 10**7])
@pytest.mark.parametrize("eps", [5, Fraction(59, 10)])
def test_queue_cap_closed_form_bound_near_epsilon_ceiling(n, eps):
    # The threshold scan lands on the first integer past the real solution
    # and the cap adds a guard slot, so the additive constant is 6; near
    # the epsilon ceiling the tighter +5 can be short by one.
    cap = compute_params(n, eps).queue_cap
    assert cap <= _cap_bound_base(n, float(eps)) + 6


@pytest.mark.parametrize(
    "weight, pot, expected",
    [(5, 0, True), (5, 5, False), (8, 5, True), (0, 0, False)],
)
def test_is_heavy_examples_eps2(weight, pot, expected):
    p = compute_params(10, 2)
    assert is_heavy(weight, pot, p) is expected


@given(
    w=st.integers(min_value=0, max_value=I64_MAX),
    s=st.integers(min_value=0, max_value=I64_MAX),
    eps=st.sampled_from(
        [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]
    ),
)
def test_is_heavy_matches_exact_fraction_comparison(w, s, eps):
    p = compute_params(4, eps)
    # Independent route: compare squares in exact rational arithmetic.
    assert is_heavy(w, s, p) == (Fraction(w) ** 2 > p.alpha_sq * Fraction(s) ** 2 and w > 0)


@settings(max_examples=300)
@given(
    w=st.integers(min_value=0, max_value=I64_MAX),
    s=st.integers(min_value=0, max_value=I64_MAX),
    eps=st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(2)]),
)
def test_is_heavy_agrees_with_floats_away_from_ties(w, s, eps):
    p = compute_params(4, eps)
    lhs = float(w)
    rhs = p.alpha * float(s)
    if abs(lhs - rhs) > 1e-9 * max(lhs, rhs, 1.0):
        assert is_heavy(w, s, p) == (lhs > rhs)


def test_matching_weight_examples():
    assert Matching.of([]).total_weight == 0
    assert Matching.of([WeightedEdge(0, 1, 3)]).total_weight == 3
    two = Matching.of([WeightedEdge(0, 1, 3), WeightedEdge(2, 3, 4)])
    assert two.total_weight == 7


def test_matching_greedy_takes_each_edge_whose_endpoints_are_free():
    order = [(0, 1, 5), (1, 2, 9), (2, 3, 1), (0, 3, 7), (2, 3, 8)]
    m = Matching.greedy(4, order)
    assert m.sorted_edges() == [WeightedEdge(0, 1, 5), WeightedEdge(2, 3, 1)]
    assert m.total_weight == 6
    assert all(type(e) is WeightedEdge for e in m.edges)
    assert Matching.greedy(3, iter([])) == Matching.of([])


def test_matching_rejects_shared_nodes():
    with pytest.raises(ValueError):
        Matching.of([WeightedEdge(0, 1, 3), WeightedEdge(1, 2, 4)])


def test_matching_rejects_wrong_total():
    with pytest.raises(ValueError):
        Matching(frozenset([WeightedEdge(0, 1, 3)]), total_weight=4)


@pytest.mark.parametrize(
    "text, expected",
    [("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)), ("2", Fraction(2)),
     (" 3/4 ", Fraction(3, 4)), ("0.1", Fraction(1, 10))],
)
def test_parse_epsilon(text, expected):
    assert parse_epsilon(text) == expected


@pytest.mark.parametrize("text", ["", "abc", "1/0", "1//2"])
def test_parse_epsilon_rejects(text):
    with pytest.raises(ValueError):
        parse_epsilon(text)
