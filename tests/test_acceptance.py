"""Acceptance suite: nine criteria, one test and one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines; each test also enforces its wall-clock budget, so a
regression in speed fails the same way a wrong value does.
"""

from contextlib import contextmanager
from itertools import combinations
from math import comb
from time import monotonic

import pytest

from matpoly import BudgetExceeded, duality
from matpoly.algebra import IntPoly, poly_pow
from matpoly.duality import (
    GRAPH_KINDS,
    IdentityKind,
    chi_dual_via_finaltwo,
    verify_identity,
)
from matpoly.flowkn import (
    flow_kn_egf,
    flow_kn_partitions,
    flow_kn_tutte,
    leading_binomial_check,
    partition_count,
    partitions,
    set_partition_count,
)
from matpoly.graphs import MultiGraph, complete_graph, connected_partitions
from matpoly.invariants import chi_subset, chromatic_poly, flow_poly
from matpoly.matroids import make_graphic, make_pg, make_uniform
from matpoly.oracles import (
    chi_via_broken_circuits,
    count_colorings,
    count_nz_flows,
    min_cocircuit_size,
)
from matpoly.projective import chi_pg_dual, points_count

from corpus import GRAPHS, PG_PARAMS, UNIFORM_PARAMS, all_matroids

F_K5 = IntPoly((51, -147, 175, -115, 45, -10, 1))
CHI_FANO_DUAL = IntPoly((13, -28, 21, -7, 1))


@contextmanager
def criterion(tag: str, description: str, budget_s: float):
    t0 = monotonic()
    try:
        yield
    except BaseException as exc:
        print(f"{tag}: FAIL ({monotonic() - t0:.2f}s) - {description} - {exc}")
        raise
    elapsed = monotonic() - t0
    print(f"{tag}: PASS ({elapsed:.2f}s, budget {budget_s:g}s) - {description}")
    assert elapsed < budget_s, f"{tag} exceeded its {budget_s}s budget"


def test_A1_flow_k5_golden_value():
    with criterion("A1", "both fast routes reproduce the K5 flow polynomial", 1.0):
        assert flow_kn_partitions(5) == F_K5
        assert flow_kn_egf(5) == F_K5


def test_A2_fano_dual_chi_golden_value():
    with criterion(
        "A2", "closed form and contraction sum agree on the Fano dual chi", 5.0
    ):
        assert chi_pg_dual(3, 2) == CHI_FANO_DUAL
        assert chi_dual_via_finaltwo(make_pg(3, 2)) == CHI_FANO_DUAL


def test_A3_flow_kn_method_cross_equality():
    with criterion(
        "A3",
        "partition and series routes agree for n<=12, census route for n<=7",
        30.0,
    ):
        for n in range(1, 13):
            assert flow_kn_partitions(n) == flow_kn_egf(n), n
        for n in range(1, 8):
            assert flow_kn_partitions(n) == flow_poly(complete_graph(n)), n


def a4_graph_family():
    base = complete_graph(4).edges
    for r in range(len(base) + 1):
        for chosen in combinations(base, r):
            yield f"K4-subset-{chosen}", MultiGraph(4, chosen)
    k5e = complete_graph(5).edges[:-1]
    yield "K5-minus-edge", MultiGraph(5, k5e)
    yield "loop-plus-edge", MultiGraph(2, ((0, 0), (0, 1)))
    yield "parallel-triple", MultiGraph(2, ((0, 1), (0, 1), (0, 1)))


def test_A4_polynomials_match_counting_oracles():
    with criterion(
        "A4",
        "flow/chromatic values equal brute-force counts on the small-graph family",
        60.0,
    ):
        for name, g in a4_graph_family():
            p = chromatic_poly(g)
            f = flow_poly(g)
            for q in range(2, 6):
                assert p(q) == count_colorings(g, q), (name, q)
                if g.edge_count:
                    assert f(q) == count_nz_flows(g, q), (name, q)


def test_A5_identity_suite_full_corpus(monkeypatch):
    with criterion(
        "A5",
        "every identity kind passes corpus-wide; mutated weights fail",
        300.0,
    ):
        matroid_targets = all_matroids()
        uniform_targets = [
            make_uniform(m, n) for m, n in UNIFORM_PARAMS
        ]  # n >= 1: the split identity double-counts the empty matroid
        checked = 0
        for kind in IdentityKind:
            if kind in GRAPH_KINDS:
                for name, g in GRAPHS:
                    rep = verify_identity(kind, g, label=name)
                    assert rep.passed, (kind.value, name, rep.first_mismatch)
                    checked += 1
            elif kind is IdentityKind.UNIFORM_SPLIT:
                for m in uniform_targets:
                    rep = verify_identity(kind, m)
                    assert rep.passed, (kind.value, m.label, rep.first_mismatch)
                    checked += 1
            else:
                for m in matroid_targets:
                    rep = verify_identity(kind, m)
                    assert rep.passed, (kind.value, m.label, rep.first_mismatch)
                    checked += 1
        want_checked = (
            8 * len(matroid_targets) + len(uniform_targets) + 3 * len(GRAPHS)
        )
        assert checked == want_checked
        # kung, four-variate, is proved exactly like every other kind
        rep = verify_identity(IdentityKind.KUNG, make_uniform(2, 4))
        assert (rep.mode, rep.samples) == ("exact-polynomial", ("exact",))
        # mutation: dropping the (1-x)^|A| factor must break the dual formula
        monkeypatch.setattr(
            duality, "_one_minus_x_sum", lambda groups: sum(groups.values(), IntPoly.zero())
        )
        rep = verify_identity(IdentityKind.FINALTWO, complete_graph(3))
        assert not rep.passed, "mutated weights still matched; check is vacuous"


def test_A6_partition_machinery():
    with criterion(
        "A6", "p(50) = 204226 and shape counts sum to the Bell numbers", 5.0
    ):
        assert partition_count(50) == 204226
        bells = [1]
        row = [1]
        for _ in range(10):
            new = [row[-1]]
            for v in row:
                new.append(new[-1] + v)
            row = new
            bells.append(row[0])
        for n in range(0, 11):
            total = sum(set_partition_count(lam) for lam in partitions(n))
            assert total == bells[n], n
        assert bells[4] == 15
        assert len(list(connected_partitions(complete_graph(4)))) == 15


def test_A7_partition_route_scales_where_census_route_cannot():
    with criterion(
        "A7",
        "partition route reaches n=50; census route blows a 60s budget by n=10",
        1800.0,
    ):
        t0 = monotonic()
        flow_kn_partitions(30)
        t30 = monotonic() - t0
        assert t30 < 60.0, f"n=30 took {t30:.1f}s"

        t0 = monotonic()
        f50 = flow_kn_partitions(50)
        t50 = monotonic() - t0
        assert t50 < 1800.0, f"n=50 took {t50:.1f}s"
        assert f50.degree == comb(50, 2) - 49
        assert leading_binomial_check(f50, comb(50, 2), 48)

        worst = 0.0
        for n in range(1, 11):
            t0 = monotonic()
            flow_kn_partitions(n)
            worst = max(worst, monotonic() - t0)
        assert worst < 1.0, f"partition route needed {worst:.2f}s below n=11"

        with pytest.raises(BudgetExceeded):
            flow_kn_tutte(10, budget_s=60.0)


def binomial_prefix_stops_at_cocircuit(m, label):
    """chi of the dual agrees with the signed binomials of |E| exactly
    down to the minimum cocircuit size, then stops."""
    t = min_cocircuit_size(m)
    if t is None:  # dual has no circuits; nothing to bound
        return
    chi_dual = chi_subset(m.dual())
    n = m.ground_size
    assert leading_binomial_check(chi_dual, n, t - 1), label
    if t <= chi_dual.degree + 1:
        assert not leading_binomial_check(chi_dual, n, t), label


def test_A8_broken_circuit_oracle_and_binomial_prefixes():
    with criterion(
        "A8",
        "broken-circuit chi matches subset chi; cocircuit size bounds prefixes",
        120.0,
    ):
        for m in all_matroids():
            assert chi_via_broken_circuits(m) == chi_subset(m), m.label
        for n in range(2, 7):
            m = make_graphic(complete_graph(n))
            assert min_cocircuit_size(m) == n - 1
            binomial_prefix_stops_at_cocircuit(m, f"K{n}")
        for mm, nn in UNIFORM_PARAMS:
            u = make_uniform(mm, nn)
            t = min_cocircuit_size(u)
            if mm == 0:
                assert t is None
                continue
            assert t == nn - mm + 1
            binomial_prefix_stops_at_cocircuit(u, u.label)
        for n, q in PG_PARAMS:
            m = make_pg(n, q)
            assert min_cocircuit_size(m) == q ** (n - 1)
            binomial_prefix_stops_at_cocircuit(m, m.label)


def test_A9_projective_dual_binomial_prefix_at_scale():
    with criterion(
        "A9",
        "chi of PG duals starts with q^(n-1)-1 signed binomial coefficients",
        120.0,
    ):
        for n, q in ((3, 2), (2, 3), (3, 3), (4, 2), (4, 3)):
            p = chi_pg_dual(n, q)
            npts = points_count(n, q)
            count = q ** (n - 1) - 1
            assert leading_binomial_check(p, npts, count), (n, q)
            if q ** (n - 1) <= p.degree + 1:
                assert not leading_binomial_check(p, npts, count + 1), (n, q)
