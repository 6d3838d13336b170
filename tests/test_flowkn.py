"""Unit tests for the fast complete-graph flow polynomial routes."""

import signal
from itertools import combinations
from math import comb, factorial

import pytest

from matpoly import BadParams, BudgetExceeded, TooLarge
from matpoly.algebra import IntPoly
from matpoly.flowkn import (
    flow_kn_egf,
    flow_kn_partitions,
    flow_kn_tutte,
    leading_binomial_check,
    partition_classes,
    partition_count,
    partitions,
    set_partition_count,
)
from matpoly.graphs import complete_graph
from matpoly.invariants import flow_poly
from matpoly.matroids import GraphicMatroid

F_K5 = IntPoly((51, -147, 175, -115, 45, -10, 1))


def class_dict(n):
    """The nonzero W(s, l) of partition_classes(n), keyed by (s, l)."""
    return {
        (s, l): w
        for l, row in enumerate(partition_classes(n))
        for s, w in enumerate(row)
        if w
    }


def stirling2_row(n):
    """S(n, l) for l = 0 .. n, by S(m, l) = l S(m-1, l) + S(m-1, l-1)."""
    row = [1]
    for m in range(1, n + 1):
        row = [l * a + b for l, a, b in zip(range(m + 1), row + [0], [0] + row)]
    return row


def test_partitions_enumeration():
    assert list(partitions(0)) == [()]
    assert list(partitions(1)) == [(1,)]
    got = {tuple(p) for p in partitions(5)}
    want = {
        (1, 1, 1, 1, 1),
        (1, 1, 1, 2),
        (1, 2, 2),
        (1, 1, 3),
        (2, 3),
        (1, 4),
        (5,),
    }
    assert got == want
    for p in partitions(9):
        assert sum(p) == 9
        assert list(p) == sorted(p)


def test_partition_count_matches_enumeration_and_known_values():
    for n in range(0, 22):
        assert partition_count(n) == sum(1 for _ in partitions(n))
    # classical values
    assert partition_count(10) == 42
    assert partition_count(50) == 204226
    with pytest.raises(BadParams):
        partition_count(-1)


def brute_set_partition_profiles(n):
    """Count set partitions of {0..n-1} by block-size profile via direct
    enumeration (recursive first-element grouping)."""
    profiles = {}

    def rec(remaining, profile):
        if not remaining:
            key = tuple(sorted(profile))
            profiles[key] = profiles.get(key, 0) + 1
            return
        first, rest = remaining[0], remaining[1:]
        for k in range(len(rest) + 1):
            for others in combinations(rest, k):
                left = tuple(x for x in rest if x not in others)
                rec(left, profile + [k + 1])

    rec(tuple(range(n)), [])
    return profiles


def test_set_partition_count_matches_brute_force():
    for n in range(0, 7):
        brute = brute_set_partition_profiles(n)
        for lam in partitions(n):
            assert set_partition_count(lam) == brute.get(tuple(lam), 0), lam


def test_set_partition_count_is_multinomial_over_symmetry():
    # n! / (prod lam_i! * prod mult_j!) spelled out independently
    for n in range(1, 9):
        for lam in partitions(n):
            denom = 1
            for part in lam:
                denom *= factorial(part)
            mults = {}
            for part in lam:
                mults[part] = mults.get(part, 0) + 1
            for c in mults.values():
                denom *= factorial(c)
            assert set_partition_count(lam) == factorial(n) // denom


def test_reversed_multiplicity_convention_is_not_a_partition_count():
    """Regression guard: weighting each shape by lam! * (number of parts)!
    instead of n!/(lam! mult!) is not the number of set partitions."""
    lam = (1, 2)  # shapes of {a}{bc} on 3 points: 3 set partitions
    wrong = factorial(1) * factorial(2) * factorial(2)
    assert set_partition_count(lam) == 3
    assert wrong != 3
    # the count must not depend on the order of the parts
    assert set_partition_count((1, 2, 1)) == set_partition_count((1, 1, 2)) == 6


def test_partition_classes_sums_to_bell_numbers():
    # Bell numbers via the Bell triangle, computed here from scratch
    bells = [1]
    row = [1]
    for _ in range(12):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        bells.append(row[0])
    for n in range(0, 11):
        classes = class_dict(n)
        assert sum(classes.values()) == bells[n], n
        for (s, length), weight in classes.items():
            assert weight > 0
            assert 0 <= length <= n
            assert 0 <= s <= comb(n, 2)


def test_partition_classes_match_enumerated_grouping():
    # the DP never lists partitions; group the listed ones here instead
    for n in range(0, 26):
        want = {}
        for lam in partitions(n):
            key = (sum(comb(p, 2) for p in lam), len(lam))
            want[key] = want.get(key, 0) + set_partition_count(lam)
        assert class_dict(n) == want, n


def test_partition_classes_small_case_by_hand():
    # n = 3: shapes 1+1+1 (1 partition, s=0, l=3), 1+2 (3, s=1, l=2),
    # 3 (1, s=3, l=1)
    assert class_dict(3) == {(0, 3): 1, (1, 2): 3, (3, 1): 1}


def test_partition_classes_row_shapes():
    # rows[l] covers s = 0 .. the C(n-l+1, 2) edges that l blocks can
    # hold, capped at the C(n, 2) edges of K_n
    for n in (0, 1, 2, 5, 13, 30):
        rows = partition_classes(n)
        assert len(rows) == n + 1, n
        for l, row in enumerate(rows):
            assert len(row) == min(comb(n - l + 1, 2), comb(n, 2)) + 1, (n, l)


def test_partition_classes_at_paper_scale():
    # no enumeration reaches n = 60 (p(60) = 966,467 partitions); the
    # oracles come from their recurrences: the row of l blocks sums to
    # the Stirling number S(n, l), and each of the C(n, 2) vertex pairs
    # shares a block in Bell(n-1) partitions, so sum_s s W(s, l) summed
    # over l is C(n, 2) Bell(n-1)
    for n in (30, 60):
        rows = partition_classes(n)
        assert [sum(row) for row in rows] == stirling2_row(n), n
        inside = sum(s * w for row in rows for s, w in enumerate(row))
        assert inside == comb(n, 2) * sum(stirling2_row(n - 1)), n


def test_flow_kn_small_values_match_census_route():
    for n in range(1, 7):
        direct = flow_poly(complete_graph(n))
        assert flow_kn_partitions(n) == direct, n
        assert flow_kn_egf(n) == direct, n


def test_flow_kn_golden_k5():
    assert flow_kn_partitions(5) == F_K5
    assert flow_kn_egf(5) == F_K5


def test_flow_kn_routes_agree_midrange():
    for n in (8, 11, 14, 20, 25):
        assert flow_kn_partitions(n) == flow_kn_egf(n), n


def test_flow_kn_degree_and_leading_coefficients():
    # the top n-2 coefficients alternate through C(e, k); the smallest
    # edge cut of K_n has n-1 edges and ends the agreement there
    for n in (5, 8, 12):
        f = flow_kn_partitions(n)
        e = comb(n, 2)
        assert f.degree == e - n + 1
        assert leading_binomial_check(f, e, n - 2)
        assert not leading_binomial_check(f, e, n - 1)


def test_flow_kn_first_coefficient_past_the_binomials():
    # Whitney's broken-circuit law, sharpened: F_{K_n} is chi of the dual
    # of M(K_n), whose girth g = n-1 is the smallest edge cut, and whose
    # c_g = n smallest circuits are the vertex stars.  The coefficient of
    # x^(deg-(g-1)) is (-1)^(g-1) (C(|E|, g-1) - c_g).  n = 100 is twice
    # the paper's scale, where no second route is cheap.
    for n in (4, 5, 7, 10, 20, 30, 40, 50, 100):
        f = flow_kn_partitions(n)
        e, g = comb(n, 2), n - 1
        assert f.degree == e - n + 1, n
        assert leading_binomial_check(f, e, g - 1), n
        assert not leading_binomial_check(f, e, g), n
        want = (-1) ** (g - 1) * (comb(e, g - 1) - n)
        assert f.coeffs[f.degree - (g - 1)] == want, n


def test_flow_kn_tutte_route(monkeypatch):
    # the budget sets only a deadline: without one the route is still the
    # scan over edge subsets, within its node bound of 2^24 sets of
    # <= n - 1 edges, so K8 is scanned and K9 (4.1e7 sets) is refused
    def no_vertex_route(self, deadline=None):
        raise AssertionError("the subset route ran the vertex census")

    monkeypatch.setattr(GraphicMatroid, "vertex_census", no_vertex_route)
    for n in range(1, 9):
        assert flow_kn_tutte(n) == flow_kn_partitions(n), n
    with pytest.raises(TooLarge):
        flow_kn_tutte(9)
    # the budgeted path scans the 2^28 edge subsets of K8 folded
    assert flow_kn_tutte(8, budget_s=60.0) == flow_kn_partitions(8)
    with pytest.raises(BudgetExceeded):
        flow_kn_tutte(9, budget_s=0.2)


def test_flow_kn_tutte_keeps_the_census_rule_under_a_budget():
    # K92 has 4,186 edges, past the census rule's 4,096: counts of 4,186
    # bits are refused at once, where the budgeted scan once ran for the
    # whole budget and raised BudgetExceeded
    def too_slow(*_):
        raise TimeoutError("the scan started before the census rule refused K92")

    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(TooLarge):
            flow_kn_tutte(92, budget_s=0.5)
        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    # K91's 4,095 edges pass the rule, so the budget then bounds the scan
    with pytest.raises(BudgetExceeded):
        flow_kn_tutte(91, budget_s=0.05)


def test_flow_kn_tutte_refuses_a_budget_that_never_ends():
    # a nan or infinite deadline never passes, and a negative budget is no
    # budget; each is refused before the scan, even where the scan is short
    for budget in (float("nan"), float("inf"), -1.0):
        with pytest.raises(BadParams):
            flow_kn_tutte(5, budget_s=budget)
    assert flow_kn_tutte(5, budget_s=60.0) == flow_kn_partitions(5)


def test_flow_kn_rejects_bad_n():
    for fn in (flow_kn_partitions, flow_kn_egf, flow_kn_tutte):
        with pytest.raises(BadParams):
            fn(0)


def test_leading_binomial_check():
    # (x - 1)^4 has leading coefficients C(4, k) alternating
    p = IntPoly((1, -4, 6, -4, 1))
    assert leading_binomial_check(p, 4, 5)
    assert not leading_binomial_check(p, 5, 2)
    assert leading_binomial_check(p, 5, 1)  # only the top 1 is checked
    with pytest.raises(BadParams):
        leading_binomial_check(p, 4, 6)
    with pytest.raises(BadParams):
        leading_binomial_check(p, -1, 1)
