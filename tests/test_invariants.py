"""Unit tests for the matroid polynomial invariants."""

import random
import signal
from collections import Counter
from itertools import product
from math import comb

import pytest

from matpoly import BudgetExceeded, TooLarge
from matpoly.algebra import (
    BiPoly,
    IntPoly,
    falling_factorial,
    poly_pow,
    substitute_one_minus_x,
)
import matpoly.errors as errors_module
import matpoly.invariants as invariants_module
from matpoly.duality import rank_table
from matpoly.flowkn import flow_kn_partitions, leading_binomial_check
from matpoly.graphs import MultiGraph, complete_graph, component_count
from matpoly.invariants import (
    _chi_from_counts,
    chi_delcon,
    chi_subset,
    chromatic_poly,
    flow_poly,
    tutte,
    tutte_uniform_closed,
    whitney_R,
)
from matpoly.matroids import (
    GraphicMatroid,
    LinearMatroidFp,
    MinorView,
    TableMatroid,
    make_graphic,
    make_pg,
    make_uniform,
)
from matpoly.oracles import chi_via_broken_circuits
from matpoly.projective import chi_pg, chi_pg_dual, tutte_pg

from corpus import GRAPHS, UNIFORM_PARAMS, all_matroids, grid_graph, small_matroids

K3 = complete_graph(3)
K4 = complete_graph(4)


def uniform_chi_oracle(m, n):
    """Independent closed form: split the subset sum at cardinality m."""
    coeffs = [0] * (m + 1)
    for a in range(0, m + 1):
        coeffs[m - a] += (-1) ** a * comb(n, a)
    const = sum((-1) ** a * comb(n, a) for a in range(m + 1, n + 1))
    coeffs[0] += const
    return IntPoly(coeffs)


def test_chi_subset_uniform_closed_form():
    for m, n in UNIFORM_PARAMS:
        assert chi_subset(make_uniform(m, n)) == uniform_chi_oracle(m, n), (m, n)


def test_chi_golden_values():
    assert chi_subset(make_graphic(K3)) == IntPoly((2, -3, 1))
    assert chi_subset(make_uniform(2, 3)) == IntPoly((2, -3, 1))
    # chi of the cycle matroid of K4: (x-1)(x-2)(x-3)
    assert chi_subset(make_graphic(K4)) == IntPoly((-6, 11, -6, 1))
    # Fano plane: (x-1)(x-2)(x-4)
    assert chi_subset(make_pg(3, 2)) == IntPoly((-8, 14, -7, 1))


def test_chi_vanishes_with_a_loop():
    loopy = make_graphic(MultiGraph(2, ((0, 0), (0, 1))))
    assert chi_subset(loopy) == IntPoly.zero()
    assert chi_delcon(loopy) == IntPoly.zero()
    assert chi_subset(make_uniform(0, 3)) == IntPoly.zero()


def test_chi_of_coloop_direct_sums():
    # n coloops give (x-1)^n under both algorithms
    for n in range(0, 5):
        star = make_graphic(MultiGraph(n + 1, tuple((0, i + 1) for i in range(n))))
        want = poly_pow(IntPoly((-1, 1)), n)
        assert chi_subset(star) == want
        assert chi_delcon(star) == want
        assert chi_delcon(make_uniform(n, n)) == want


def seeded_multigraphs(seed, count, max_edges):
    """Random multigraphs on 0-9 vertices with loops, parallel edges,
    isolated vertices and disconnected parts; the empty graph first."""
    rng = random.Random(seed)
    out = [MultiGraph(0, ())]
    while len(out) < count:
        n = rng.randint(1, 9)
        used = rng.sample(range(n), rng.randint(1, n))
        # edges fall within one of up to two parts of the used vertices
        cut = rng.randint(1, len(used))
        parts = [used[:cut], used[cut:] or used[:cut]]
        edges = []
        for _ in range(rng.randint(0, max_edges)):
            part = rng.choice(parts)
            u, v = rng.choice(part), rng.choice(part)
            edges += [(u, v)] * min(rng.choice((1, 1, 1, 2, 3)), max_edges - len(edges))
        out.append(MultiGraph(n, edges))
    return out


def test_chi_subset_equals_chi_delcon_everywhere():
    for m in small_matroids(12):
        assert chi_subset(m) == chi_delcon(m), m.label
    seen = Counter()
    for g in seeded_multigraphs(280001, 48, 14):
        assert chi_subset(make_graphic(g)) == chi_delcon(make_graphic(g)), g
        isolated = g.n - len({w for e in g.edges for w in e})
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(map(frozenset, g.edges))) < len(g.edges)
        seen["isolated"] += isolated > 0
        seen["split"] += component_count(g) > isolated + 1
    assert min(seen.values()) >= 5, seen


def test_chi_delcon_leaves_no_module_state():
    chi_delcon(make_graphic(complete_graph(5)))
    populated = [
        name
        for name, value in vars(invariants_module).items()
        if not name.startswith("__") and isinstance(value, dict) and value
    ]
    assert populated == []


def test_chi_at_one_is_zero():
    for m in all_matroids():
        if m.ground_size == 0 or m.ground_size > 13:
            continue
        assert chi_subset(m)(1) == 0, m.label


def test_chi_multiplies_over_direct_sums():
    tri_edge = MultiGraph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))
    assert chi_subset(make_graphic(tri_edge)) == IntPoly((2, -3, 1)) * IntPoly((-1, 1))


def test_subset_guard():
    # a census holds counts of up to n bits, so it is refused past
    # n^2 = 2^24; uniform:1,25 is a closed form well inside that
    t = tutte_uniform_closed(1, 25)
    want = t.substitute(IntPoly((1, -1)), IntPoly.zero())  # chi = (-1)^r T(1-x, 0)
    assert chi_subset(make_uniform(1, 25)) == -want
    with pytest.raises(TooLarge):
        chi_subset(make_uniform(1, 4097))


def test_tutte_golden_values():
    assert tutte(make_graphic(K3)) == BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert tutte(make_graphic(K4)) == BiPoly(
        {(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4, (0, 1): 2, (0, 2): 3, (0, 3): 1}
    )
    # a single loop and a single coloop
    assert tutte(make_uniform(0, 1)) == BiPoly({(0, 1): 1})
    assert tutte(make_uniform(1, 1)) == BiPoly({(1, 0): 1})
    assert tutte(make_uniform(0, 0)) == BiPoly.const(1)


def test_tutte_uniform_closed_matches_census():
    for m, n in UNIFORM_PARAMS + [(10, 22)]:
        assert tutte_uniform_closed(m, n) == tutte(make_uniform(m, n)), (m, n)


def test_tutte_duality_swaps_variables():
    for m in small_matroids(10):
        assert tutte(m.dual()) == tutte(m).swap_vars(), m.label


def at(t, x, y):
    """t(x, y) at integers, term by term."""
    return sum(c * x**i * y**j for (i, j), c in t.terms.items())


def test_tutte_counting_evaluations():
    """T(1,1)=bases, T(2,1)=independent sets, T(1,2)=spanning sets,
    T(2,2)=2^n, re-counted by brute force."""
    for m in small_matroids(10):
        t = tutte(m)
        full = m.full_mask
        r = m.full_rank()
        bases = indep = spanning = 0
        for mask in range(full + 1):
            rho = m.rank(mask)
            if rho == mask.bit_count():
                indep += 1
                if rho == r:
                    bases += 1
            if rho == r:
                spanning += 1
        assert at(t, 1, 1) == bases, m.label
        assert at(t, 2, 1) == indep, m.label
        assert at(t, 1, 2) == spanning, m.label
        assert at(t, 2, 2) == 1 << m.ground_size, m.label


def shifted_by_products(r: BiPoly) -> BiPoly:
    """sum r_ij (x-1)^i (y-1)^j, expanded term by term with BiPoly
    products."""
    x_minus_1 = BiPoly({(1, 0): 1, (0, 0): -1})
    y_minus_1 = x_minus_1.swap_vars()
    acc = BiPoly.zero()
    for (i, j), c in r.terms.items():
        term = BiPoly.const(c)
        for _ in range(i):
            term = term * x_minus_1
        for _ in range(j):
            term = term * y_minus_1
        acc = acc + term
    return acc


def test_whitney_rank_polynomial():
    for m in small_matroids(9):
        r = whitney_R(m)
        # independent recomputation straight from the definition
        terms = {}
        rfull = m.full_rank()
        for mask in range(m.full_mask + 1):
            rho = m.rank(mask)
            k = (rfull - rho, mask.bit_count() - rho)
            terms[k] = terms.get(k, 0) + 1
        assert r == BiPoly(terms), m.label
        # T(x, y) = R(x-1, y-1)
        assert tutte(m) == shifted_by_products(r), m.label
    big = make_uniform(10, 22)
    assert tutte(big) == shifted_by_products(whitney_R(big))


def test_chi_from_tutte_matches_subset_expansion():
    # chi(z) = (-1)^R T(1-z, 0) and chi of the dual = (-1)^(n-R) T(0, 1-z)
    one_minus_z, zero = IntPoly((1, -1)), IntPoly.zero()
    for m in small_matroids(12):
        t, rank = tutte(m), m.full_rank()
        nullity = m.ground_size - rank
        want = t.substitute(one_minus_z, zero)
        want_dual = t.substitute(zero, one_minus_z)
        assert chi_subset(m) == (-want if rank % 2 else want), m.label
        assert chi_subset(m.dual()) == (-want_dual if nullity % 2 else want_dual), m.label


def random_multigraph(rng):
    n = rng.randrange(1, 7)
    return MultiGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(10))])


def test_chi_from_tutte_matches_the_generic_substitution():
    # the column-and-Taylor-shift route against BiPoly.substitute of 1 - z:
    # T(1-z, 0) is the x-column of T at y = 0 shifted once, T(0, 1-z) the
    # y-column at x = 0
    one_minus_z, zero = IntPoly((1, -1)), IntPoly.zero()
    rng = random.Random(616020)
    graphs = [make_graphic(random_multigraph(rng)) for _ in range(40)]
    for m in all_matroids() + graphs:
        t = tutte(m)
        nx = 1 + max((i for i, _ in t.terms), default=0)
        ny = 1 + max((j for _, j in t.terms), default=0)
        x_col = IntPoly(t.terms.get((i, 0), 0) for i in range(nx))
        y_col = IntPoly(t.terms.get((0, j), 0) for j in range(ny))
        assert substitute_one_minus_x(x_col) == t.substitute(one_minus_z, zero), m.label
        assert substitute_one_minus_x(y_col) == t.substitute(zero, one_minus_z), m.label


def test_chromatic_known_values():
    # P(K4) = x(x-1)(x-2)(x-3)
    assert chromatic_poly(K4) == IntPoly((0, -6, 11, -6, 1))
    assert chromatic_poly(MultiGraph(3, ())) == IntPoly((0, 0, 0, 1))
    edge = MultiGraph(2, ((0, 1),))
    assert chromatic_poly(edge) == IntPoly((0, -1, 1))
    # parallel edges color exactly like a single edge
    par = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))
    assert chromatic_poly(par) == chromatic_poly(edge)
    # any loop kills every coloring
    assert chromatic_poly(MultiGraph(1, ((0, 0),))) == IntPoly.zero()
    # isolated vertices multiply by x
    tri_iso = MultiGraph(4, ((0, 1), (1, 2), (0, 2)))
    assert chromatic_poly(tri_iso) == IntPoly((0, 0, 2, -3, 1))


def test_chromatic_poly_past_the_subset_guard(monkeypatch):
    # more than 24 edges after parallels are dropped: K8, K9 and the
    # doubled K8 take the vertex census, while C30 and the 31-vertex path,
    # whose walks pass the node bound, take delete/contract
    def no_delcon(m):
        raise AssertionError("delete/contract ran where the census fits")

    k8, k9 = complete_graph(8), complete_graph(9)
    x, x1 = IntPoly((0, 1)), IntPoly((-1, 1))
    with monkeypatch.context() as patch:
        patch.setattr(invariants_module, "chi_delcon", no_delcon)
        assert chromatic_poly(k8) == falling_factorial(8)
        assert chromatic_poly(k9) == falling_factorial(9)
        doubled = MultiGraph(12, k8.edges + k8.edges)
        assert chromatic_poly(doubled) == poly_pow(x, 4) * falling_factorial(8)
        assert chromatic_poly(MultiGraph(8, k8.edges + ((3, 3),))) == IntPoly.zero()
    delcon_sizes = []

    def recorded(m):
        delcon_sizes.append(m.ground_size)
        return chi_delcon(m)

    monkeypatch.setattr(invariants_module, "chi_delcon", recorded)
    c30 = MultiGraph(30, [(v, (v + 1) % 30) for v in range(30)])
    assert chromatic_poly(c30) == poly_pow(x1, 30) + x1
    path = MultiGraph(31, [(v, v + 1) for v in range(30)])
    assert chromatic_poly(path) == x * poly_pow(x1, 30)
    # 16 vertices are past the vertex route's 13, and the walk of this
    # connected 25-edge graph passes the node bound: delete/contract took
    # 0.79 s here, the vertex census 2.57 s
    rows = [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
    cols = [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)]
    p = chromatic_poly(MultiGraph(16, rows + cols + [(0, 5)]))
    assert delcon_sizes == [30, 30, 25]
    assert (p(3), p(4)) == (2_688, 3_431_688)
    assert (p(3), p(4)) == (grid_4x4_diagonal_colorings(3), grid_4x4_diagonal_colorings(4))


def grid_4x4_diagonal_colorings(q):
    """Proper q-colorings of the 4x4 grid plus the edge from vertex 0
    (row 0, column 0) to vertex 5 (row 1, column 1), counted row by row:
    each proper row coloring keeps the number of ways to color the rows
    above it."""
    rows = [c for c in product(range(q), repeat=4) if all(c[i] != c[i + 1] for i in range(3))]
    ways = dict.fromkeys(rows, 1)
    for r in range(1, 4):
        ways = {
            low: sum(
                n
                for high, n in ways.items()
                if all(high[i] != low[i] for i in range(4)) and (r > 1 or high[0] != low[1])
            )
            for low in rows
        }
    return sum(ways.values())


def test_chi_delcon_calls_on_graphs(monkeypatch):
    # one call per minor visited, memo hits included: the memo on each
    # minor's graph keeps the 3x5 grid at 24,855 calls
    calls = []
    recursion = invariants_module._delcon

    def counted(m, memo):
        calls.append(m)
        return recursion(m, memo)

    monkeypatch.setattr(invariants_module, "_delcon", counted)
    c30 = MultiGraph(30, [(v, (v + 1) % 30) for v in range(30)])
    for g, want in ((grid_graph(3, 4), 2_757), (grid_graph(3, 5), 24_855), (c30, 59)):
        calls.clear()
        chi_delcon(make_graphic(g))
        assert len(calls) == want, g.n


def test_dense_graphs_past_24_edges_take_the_vertex_census():
    # each against a route that shares no step with the census
    for n in range(8, 13):
        assert flow_poly(complete_graph(n)) == flow_kn_partitions(n), n
    assert chromatic_poly(complete_graph(12)) == falling_factorial(12)
    rng = random.Random(310031)
    pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    g = MultiGraph(10, rng.sample(pairs, 30))
    want = chi_delcon(make_graphic(g))
    assert chromatic_poly(g) == want.shift(g.n - want.degree)


def test_pg_invariants_past_24_points_equal_the_closed_forms():
    # pg:5,2 (31 points) and pg:4,3 (40) pass 24 elements, but the span
    # DP and the census scan stay within their bounds
    for n, q in ((5, 2), (4, 3)):
        assert tutte(make_pg(n, q)) == tutte_pg(n, q), (n, q)
    assert chi_subset(make_pg(5, 2).dual()) == chi_pg_dual(5, 2)


def test_pg_6_2_census_equals_the_closed_forms_within_a_second():
    # 63 points: the span DP holds at most 2,825 states, one per subspace
    # of F_2^6, where the scan would pass 2^24 nodes
    def too_slow(*_):
        raise TimeoutError("the census of pg:6,2 ran for 1 s")

    m = make_pg(6, 2)
    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        assert chi_subset(m) == chi_pg(6, 2)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        f = chi_subset(m.dual())
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        assert tutte(m) == tutte_pg(6, 2)
        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert f == chi_pg_dual(6, 2)
    # the paper's Pascal-row law: the top 31 coefficients of the dual of
    # PG(5, 2) are the signed binomials C(63, k), and the 32nd is not
    assert leading_binomial_check(f, 63, 31) and not leading_binomial_check(f, 63, 32)


def test_census_rules_refuse_within_a_second():
    # each input is refused by the rule of the route it would take, before
    # that route does any work
    def too_slow(*_):
        raise TimeoutError("a route started before its rule refused it")

    k13 = complete_graph(13).edges
    cases = [
        # K14 has 14 vertices: the scan, over 2^24 sets of <= 13 of 91 edges
        lambda: flow_poly(complete_graph(14)),
        # 13 vertices and 1,001 edges: tables past 2^30 bits send it to
        # the scan, over 2^24 sets of <= 12 edges
        lambda: flow_poly(MultiGraph(13, [k13[i % len(k13)] for i in range(1001)])),
        # 10,000 parallel edges: the scan admits rank 1, but counts of
        # 10,000 bits do not fit
        lambda: flow_poly(MultiGraph(2, [(0, 1)] * 10_000)),
        lambda: chi_subset(make_uniform(1, 4097)),
    ]
    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        for case in cases:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(TooLarge):
                case()
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_flow_known_values():
    assert flow_poly(K4) == IntPoly((-6, 11, -6, 1))
    # bridges admit no nowhere-zero flow
    assert flow_poly(MultiGraph(3, ((0, 1), (1, 2)))) == IntPoly.zero()
    # a k-cycle or a single loop carries x-1 flows
    cyc4 = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert flow_poly(cyc4) == IntPoly((-1, 1))
    assert flow_poly(MultiGraph(1, ((0, 0),))) == IntPoly((-1, 1))
    assert flow_poly(MultiGraph(2, ())) == IntPoly.one()


def test_dichromatic_matches_definition():
    for name, g in GRAPHS:
        if g.edge_count > 9:
            continue
        m = make_graphic(g)
        rfull = m.full_rank()
        c = component_count(g)
        terms = {}
        for mask in range(m.full_mask + 1):
            rho = m.rank(mask)
            k = (rfull - rho + c, mask.bit_count() - rho)
            terms[k] = terms.get(k, 0) + 1
        # Q(u, v) = u^c(G) R(u, v)
        assert whitney_R(m) * BiPoly({(c, 0): 1}) == BiPoly(terms), name


def test_chromatic_flow_consistency_with_tutte():
    """P and F come from one Tutte polynomial: P = x^c (-1)^r T(1-x, 0)
    and F = (-1)^(m-r) T(0, 1-x)."""
    for name, g in GRAPHS:
        if g.edge_count > 9:
            continue
        m = make_graphic(g)
        t = tutte(m)
        r = m.full_rank()
        c = component_count(g)
        p = t.substitute(IntPoly((1, -1)), IntPoly.zero())
        p = (p if r % 2 == 0 else -p).shift(c)
        assert chromatic_poly(g) == p, name
        f = t.substitute(IntPoly.zero(), IntPoly((1, -1)))
        f = f if (g.edge_count - r) % 2 == 0 else -f
        assert flow_poly(g) == f, name


def walk_cases():
    """Matroids whose census scans them, so ``chi_subset`` walks: seeded
    F_p configurations (p in {2, 3, 5, 7, 2^31 - 1, 2^61 - 1}, dimension
    2 to 6) on the scan route, with zero and repeated vectors and scalar
    multiples, seeded multigraphs on the edge route with loops and
    parallel edges, minor-view stacks and table matroids."""
    rng = random.Random(230001)
    cases = []
    for k in range(90):
        p = rng.choice((2, 3, 5) if k < 60 else (2, 3, 5, 7, 2**31 - 1, 2**61 - 1))
        dim = rng.randrange(2, 5 if k < 60 else 7)
        vecs = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(rng.randrange(1, 11))]
        if rng.random() < 0.2:
            vecs.append((0,) * dim)
        vecs += vecs[: rng.randrange(3)]
        if k >= 60 and p > 2:  # c v for c outside {0, 1}
            vecs += [tuple(rng.randrange(2, p) * x for x in v) for v in vecs[:2]]
        rng.shuffle(vecs)
        m = LinearMatroidFp(vecs, p, f"F{p}")
        if m.census_route() == "scan":  # 14 of the 24 over F_2 take the span DP
            cases.append(m)
    graphs = 0
    while graphs < 40:
        n = rng.randrange(8, 13)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(4, 12))]
        if rng.random() < 0.25:
            edges.append((rng.randrange(n),) * 2)
        edges += edges[: rng.randrange(3)]
        rng.shuffle(edges)
        m = make_graphic(MultiGraph(n, edges))
        if m.census_route() == "scan":
            cases.append(m)
            graphs += 1
    pg, k5 = make_pg(3, 3), make_graphic(complete_graph(5))
    for base in (pg, k5, pg.dual(), make_uniform(3, 9)):
        for _ in range(4):
            mask = rng.randrange(1 << base.ground_size)
            away = rng.randrange(1 << base.ground_size) & ~mask
            inner = MinorView(base, mask, away)
            cases.append(MinorView(inner, rng.randrange(1 << inner.ground_size)))
            cases.append(TableMatroid(inner.ground_size, rank_table(inner)))
    return cases


def test_chi_walk_matches_the_census_and_the_broken_circuit_oracle():
    seen = Counter()
    for m in walk_cases():
        assert m.census_route() == "scan", m.label
        got = chi_subset(m)
        assert got == _chi_from_counts(m.rank_size_counts(), m.full_rank()), m.label
        if m.ground_size <= 18:
            assert got == chi_via_broken_circuits(m), m.label
        seen[type(m).__name__] += 1
        seen["F_2"] += getattr(m, "p", 0) == 2
        seen["zero" if got == IntPoly.zero() else "nonzero"] += 1
        if isinstance(m, GraphicMatroid):
            seen["loop"] += any(u == v for u, v in m.graph.edges)
            seen["parallel"] += len(set(map(frozenset, m.graph.edges))) < len(m.graph.edges)
    assert min(seen.values()) >= 5, seen


def test_chi_walk_cuts_every_fold_of_the_census_scan(monkeypatch):
    # both run ``Matroid._scan`` on pg:3,3; the walk ends each branch at
    # a fold, so it makes 265 span tests against the census scan's 377
    calls = [0]
    span_test = LinearMatroidFp._span_test

    def counted(self):
        start, extend = span_test(self)

        def counted_extend(state, i):
            calls[0] += 1
            return extend(state, i)

        return start, counted_extend

    monkeypatch.setattr(LinearMatroidFp, "_span_test", counted)
    m = make_pg(3, 3)
    assert m.census_route() == "scan"
    assert chi_subset(m) == chi_pg(3, 3)
    assert calls[0] == 265
    calls[0] = 0
    m.rank_size_counts()
    assert calls[0] == 377


def test_chi_walk_gives_the_pg_product_beyond_24_elements():
    # pg:4,3 has 40 elements; at most 102,091 sets of at most r(E)
    # elements bound its walk.  pg:2,1009 has 1,010 elements, more than
    # the interpreter's default recursion limit.  pg:5,2 (31 elements)
    # reads the span DP's census
    for n, q in ((4, 3), (5, 2), (2, 1009)):
        m = make_pg(n, q)
        assert (m.census_route() == "scan") == (q != 2), (n, q)
        assert chi_subset(m) == chi_pg(n, q), (n, q)


def test_chi_walk_refuses_before_it_visits_a_node(monkeypatch):
    # pg:8,2 has over 2^24 sets of at most 8 of its 255 elements, and the
    # span DP would hold about 98.5M states, so it walks
    def no_walk(self):
        raise AssertionError("the walk started")

    monkeypatch.setattr(LinearMatroidFp, "_span_test", no_walk)
    with pytest.raises(TooLarge):
        chi_subset(make_pg(8, 2))
    # pg:6,2, refused before the span DP, reads its census with no walk
    assert chi_subset(make_pg(6, 2)) == chi_pg(6, 2)


def test_chi_walk_fails_when_the_span_test_never_reports_a_span(monkeypatch):
    path_with_cycle = MultiGraph(12, [(i, i + 1) for i in range(10)] + [(0, 3)])
    table = make_pg(3, 2)
    cases = [
        make_pg(3, 3),
        make_graphic(path_with_cycle),
        TableMatroid(table.ground_size, rank_table(table)),
    ]
    for m in cases:
        want = chi_subset(m)
        span_test = type(m)._span_test

        def never_spans(self):
            start, extend = span_test(self)

            def grow(state, i):
                grown = extend(state, i)
                return state if grown is None else grown

            return start, grow

        with monkeypatch.context() as patch:
            patch.setattr(type(m), "_span_test", never_spans)
            assert chi_subset(m) != want, m.label


def test_chi_walk_checks_the_deadline(monkeypatch):
    with pytest.raises(BudgetExceeded):
        chi_subset(make_pg(4, 2), deadline=0)
    # pg:4,3's walk passes 2^14 nodes, so it reaches its in-loop check;
    # the clock passes the deadline right after the entry check
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) == 1 else 10.0

    monkeypatch.setattr(errors_module, "monotonic", clock)
    with pytest.raises(BudgetExceeded):
        chi_subset(make_pg(4, 3), deadline=5.0)
    assert len(reads) == 2


def test_chi_walk_on_rank_zero_and_empty_matroids():
    for m in (
        LinearMatroidFp([(0, 0)] * 3, 3, "zeros"),
        TableMatroid(2, [0] * 4),
        # (0,1,0) and (0,1,1) span (0,0,1)
        MinorView(make_pg(3, 2), 0b1, 0b110),
    ):
        assert m.full_rank() == 0 and m.ground_size
        assert chi_subset(m) == IntPoly.zero(), m.label
    for m in (LinearMatroidFp([], 2, "empty"), TableMatroid(0, [0])):
        assert chi_subset(m) == IntPoly.one(), m.label
