"""Unit tests for matroid rank oracles, views, and enumeration."""

import random
import signal
import tracemalloc
from collections import Counter
from math import comb, inf
from time import monotonic

import pytest

from matpoly import BadParams, BudgetExceeded, TooLarge, errors, matroids
from matpoly.algebra import falling_factorial
from matpoly.duality import rank_table
from matpoly.flowkn import flow_kn_partitions
from matpoly.graphs import MultiGraph, _vertex_census, complete_graph, component_count
from matpoly.invariants import _chi_from_counts, chi_delcon, chi_subset
from matpoly.matroids import (
    DualView,
    LinearMatroidFp,
    Matroid,
    MinorView,
    TableMatroid,
    _dual_counts,
    is_prime,
    make_graphic,
    make_pg,
    make_uniform,
)
from matpoly.oracles import chi_via_broken_circuits, circuits, flats_of_rank
from matpoly.projective import chi_pg, chi_pg_dual

from corpus import (
    GRAPHS,
    all_matroids,
    blocks_and_inside_edges,
    partition_multigraphs,
    set_partitions,
    small_matroids,
)


def brute_census(m):
    c = Counter()
    for mask in range(1 << m.ground_size):
        c[(mask.bit_count(), m.rank(mask))] += 1
    return c


def brute_table(m):
    return [m.rank(mask) for mask in range(1 << m.ground_size)]


def test_uniform_rank_and_validation():
    u = make_uniform(2, 5)
    assert u.full_rank() == 2
    assert u.rank(0) == 0
    assert u.rank(0b10001) == 2
    assert u.rank(0b00001) == 1
    with pytest.raises(BadParams):
        make_uniform(3, 2)
    with pytest.raises(BadParams):
        make_uniform(-1, 2)


def test_rank_rejects_masks_outside_ground_set():
    u = make_uniform(1, 3)
    with pytest.raises(BadParams):
        u.rank(1 << 3)
    with pytest.raises(BadParams):
        u.rank(-1)


def test_graphic_rank_known_values():
    k4 = make_graphic(complete_graph(4))
    assert k4.full_rank() == 3
    assert k4.rank(0b001011) == 2  # triangle on vertices {0,1,2}
    assert k4.rank(0b000111) == 3  # star at vertex 0
    loop = make_graphic(MultiGraph(1, ((0, 0),)))
    assert loop.full_rank() == 0
    par = make_graphic(MultiGraph(2, ((0, 1), (0, 1), (0, 1))))
    assert par.full_rank() == 1
    assert par.rank(0b110) == 1


def test_loops_and_coloops():
    g = make_graphic(MultiGraph(2, ((0, 0), (0, 1))))
    assert [g.is_loop(e) for e in range(2)] == [True, False]
    assert [g.is_coloop(e) for e in range(2)] == [False, True]
    # a graph reads its loops off its edges, and refuses an element
    # outside its ground set as a rank query would
    for e in (-1, 2):
        with pytest.raises(BadParams):
            g.is_loop(e)
    # duality swaps the two notions
    d = g.dual()
    assert [d.is_loop(e) for e in range(2)] == [False, True]
    assert [d.is_coloop(e) for e in range(2)] == [True, False]


def test_rank_axioms_on_corpus():
    rng = random.Random(616001)
    for m in small_matroids(10):
        full = m.full_mask
        for _ in range(40):
            a = rng.randrange(full + 1)
            b = rng.randrange(full + 1)
            ra, rb = m.rank(a), m.rank(b)
            assert 0 <= ra <= a.bit_count()
            assert m.rank(a | b) >= max(ra, rb)  # monotone
            assert m.rank(a | b) + m.rank(a & b) <= ra + rb  # submodular


def test_dual_rank_formula_and_involution():
    rng = random.Random(616002)
    for m in small_matroids(10):
        d = m.dual()
        dd = d.dual()
        full = m.full_mask
        r_full = m.full_rank()
        for _ in range(30):
            a = rng.randrange(full + 1)
            assert d.rank(a) == m.rank(full & ~a) + a.bit_count() - r_full
            assert dd.rank(a) == m.rank(a)
        assert d.full_rank() == m.ground_size - r_full


def test_dual_of_uniform_is_complementary_uniform():
    for m in range(0, 5):
        for n in range(m, 6):
            d = make_uniform(m, n).dual()
            u = make_uniform(n - m, n)
            for mask in range(1 << n):
                assert d.rank(mask) == u.rank(mask)


def test_restrict_and_contract_views():
    m = make_graphic(complete_graph(4))
    keep = 0b011011
    sub = m.restrict(keep)
    con = m.contract(keep)
    elems = [e for e in range(6) if keep >> e & 1]
    off = m.full_mask & ~keep
    assert sub.ground_size == len(elems) == con.ground_size
    for mask in range(1 << len(elems)):
        lifted = 0
        for i, e in enumerate(elems):
            if mask >> i & 1:
                lifted |= 1 << e
        assert sub.rank(mask) == m.rank(lifted)
        assert con.rank(mask) == m.rank(off | lifted) - m.rank(off)
    with pytest.raises(BadParams):
        m.restrict(1 << 6)
    with pytest.raises(BadParams):
        MinorView(m, 1 << 6, m.full_mask & ~(1 << 6))


def test_minor_duality_laws():
    """(M|A)* has the ranks of M*.A, and (M.A)* those of M*|A."""
    rng = random.Random(616003)
    for m in small_matroids(9):
        for _ in range(6):
            a = rng.randrange(m.full_mask + 1)
            k = a.bit_count()
            pairs = [
                (m.restrict(a).dual(), m.dual().contract(a)),
                (m.contract(a).dual(), m.dual().restrict(a)),
            ]
            for left, right in pairs:
                assert left.ground_size == k == right.ground_size
                for mask in range(1 << k):
                    assert left.rank(mask) == right.rank(mask)


def test_graphic_minors_match_generic_views():
    rng = random.Random(616004)
    for name, g in GRAPHS:
        m = make_graphic(g)
        if m.ground_size > 8:
            continue
        for _ in range(5):
            a = rng.randrange(m.full_mask + 1)
            k = a.bit_count()
            fast_r, slow_r = m.restrict(a), MinorView(m, a)
            fast_c, slow_c = m.contract(a), MinorView(m, a, m.full_mask & ~a)
            for mask in range(1 << k):
                assert fast_r.rank(mask) == slow_r.rank(mask), name
                assert fast_c.rank(mask) == slow_c.rank(mask), name


def test_pg_construction():
    fano = make_pg(3, 2)
    assert fano.ground_size == 7
    assert fano.full_rank() == 3
    assert make_pg(2, 3).ground_size == 4
    assert make_pg(2, 2).ground_size == 3
    with pytest.raises(BadParams):
        make_pg(3, 4)  # field order must be prime
    with pytest.raises(BadParams):
        make_pg(0, 2)


def test_make_pg_records_its_full_rank(monkeypatch):
    # the points of PG(n-1, p) span F_p^n, so r(E) = n is known when the
    # geometry is built; the computed rank agrees
    sizes = ((1, 2), (3, 3), (5, 2), (16, 2))
    for n, p in sizes[:3]:
        m = make_pg(n, p)
        assert m._rank_impl(m.full_mask) == n, (n, p)

    def no_rank(self, mask):
        raise AssertionError("a rank query ran")

    monkeypatch.setattr(LinearMatroidFp, "_rank_impl", no_rank)
    for n, p in sizes:
        assert make_pg(n, p).full_rank() == n, (n, p)
    with pytest.raises(TooLarge):
        chi_subset(make_pg(16, 2))


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)

    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    assert [is_prime(p) for p in range(20000)] == [trial_division(p) for p in range(20000)]
    # Carmichael numbers and a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not any(is_prime(p) for p in (561, 41041, 3215031751))
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
    # a strong pseudoprime to every prime base up to 37, and the first
    # one up to 41, from which the test would no longer be exact
    assert not is_prime(318665857834031151167461)
    with pytest.raises(TooLarge):
        is_prime(3317044064679887385961981)


def test_linear_fp_rejects_non_prime_field_order():
    for p in (4, 6, 1, 0):
        with pytest.raises(BadParams):
            LinearMatroidFp([(2,), (1,)], p, "x")
    assert LinearMatroidFp([(2,), (1,)], 3, "x").rank(0b11) == 1


def test_fano_independent_triples():
    fano = make_pg(3, 2)
    from itertools import combinations

    indep = 0
    for combo in combinations(range(7), 3):
        mask = sum(1 << e for e in combo)
        if fano.rank(mask) == 3:
            indep += 1
    assert indep == 28  # 35 triples minus the 7 lines


def test_census_matches_brute_force():
    rng = random.Random(180001)
    # a seeded multigraph with a loop, a parallel edge and a part apart
    edges = [(rng.randrange(5), rng.randrange(5)) for _ in range(6)]
    edges += [(0, 0), edges[0], (5, 6), (6, 6)]
    pg33 = make_pg(3, 3)
    k5 = make_graphic(complete_graph(5))
    extra = [
        make_graphic(MultiGraph(8, edges)),
        TableMatroid(7, brute_table(make_pg(3, 2)), "pg:3,2 table"),
        pg33.contract(0b1111011110111).restrict(0b110111101),
        pg33.restrict(0b1101111011110).dual(),
        MinorView(k5, 0b1110111111, k5.full_mask & ~0b1110111111).dual(),
    ]
    for m in small_matroids(9) + extra:
        d = m.dual()
        got = (m.rank_size_counts(), d.rank_size_counts(), m.rank_table(), d.rank_table())
        want = (brute_census(m), brute_census(d), brute_table(m), brute_table(d))
        assert got == want, m


def test_census_reads_but_does_not_fill_the_rank_cache():
    # a cold census computes its 2^12 ranks without keeping them
    u = make_uniform(3, 12)
    chi_subset(u)
    assert len(u._rank_cache) <= 4


def test_census_deadline_base_class():
    u = make_uniform(3, 16)
    with pytest.raises(BudgetExceeded):
        u.rank_size_counts(deadline=monotonic() - 1.0)


def test_census_deadline_graphic_scan():
    k7 = make_graphic(complete_graph(7))
    with pytest.raises(BudgetExceeded):
        k7.rank_size_counts(deadline=monotonic() - 1.0)


def test_census_reads_but_does_not_fill_the_rank_cache_restrict_view():
    # a minor keeps the generic scan whatever its base, and fills neither
    # its own cache nor its base's
    for view in (MinorView, lambda b, a: MinorView(b, a, b.full_mask & ~a)):
        u = make_uniform(3, 13)
        r = view(u, u.full_mask & ~1)
        chi_subset(r)
        assert len(r._rank_cache) <= 4, view
        assert len(u._rank_cache) <= 4, view


def test_rank_table_fills_no_rank_cache():
    # the scan asks ``rank`` for r(E) alone and computes every other rank
    # through ``_rank_impl``
    for m in (make_graphic(complete_graph(6)), make_uniform(3, 12)):
        m.rank_table()
        assert len(m._rank_cache) <= 4, m
    for view in (
        lambda b: MinorView(b, b.full_mask & ~1),
        lambda b: MinorView(b, b.full_mask & ~1, 1),
        DualView,
    ):
        base = make_graphic(complete_graph(6))
        m = view(base)
        m.rank_table()
        assert len(m._rank_cache) <= 4, m
        assert len(base._rank_cache) <= 4, m


def test_no_query_grows_a_matroid():
    # a matroid keeps r(E) and nothing else, and a view leaves its base
    # as it found it, whatever either is asked
    pg33 = make_pg(3, 3)
    cases = [
        make_uniform(3, 8),
        make_graphic(complete_graph(5)),
        make_pg(3, 2),
        pg33,
        TableMatroid(7, rank_table(make_pg(3, 2)), "pg:3,2 table"),
        pg33.restrict(0b1111111111110),
        pg33.contract(0b1111111111110),
    ]
    for m in cases + [m.dual() for m in cases]:
        brute_table(m)
        for e in range(m.ground_size):
            m.is_loop(e), m.is_coloop(e)
        m.rank_size_counts(), m.rank_table(), chi_subset(m), chi_delcon(m)
        circuits(m), flats_of_rank(m, m.full_rank() - 1), chi_via_broken_circuits(m)
        x = m
        while x is not None:
            assert set(x._rank_cache) <= {x.full_mask}, (m, x)
            x = getattr(x, "base", None)


def test_rank_table_rule_refuses_before_any_rank_query(monkeypatch):
    # 2^11 cells of 64 bits pass 2^16 bits, and 2^10 fit
    def no_work(*_):
        raise AssertionError("a rank table ran before its rule refused it")

    u = make_uniform(3, 11)
    refused = (u, u.dual(), MinorView(make_uniform(3, 12), 0b111111111110))
    monkeypatch.setattr(matroids, "TABLE_BITS", 16)
    with monkeypatch.context() as patch:
        patch.setattr(Matroid, "_scan", no_work)
        patch.setattr(Matroid, "rank", no_work)
        for m in refused:
            with pytest.raises(TooLarge):
                m.rank_table()
    m = make_uniform(3, 10)
    assert m.rank_table() == brute_table(m)


def test_census_deadline_restrict_view():
    u = make_uniform(3, 16)
    with pytest.raises(BudgetExceeded):
        MinorView(u, u.full_mask).rank_size_counts(deadline=monotonic() - 1.0)


def random_multigraph(rng):
    n = rng.randrange(8)
    m = rng.randrange(13) if n else 0
    return MultiGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])


def test_graphic_census_routes_match_generic_scan():
    rng = random.Random(616010)
    graphs = [random_multigraph(rng) for _ in range(150)]
    graphs += [MultiGraph(0, ()), MultiGraph(3, ()), MultiGraph(2, ((1, 1), (1, 1)))]
    # the vertex route counts e(S) one multiplicity layer at a time: three
    # and four parallel edges on one pair, two and three loops on one vertex
    graphs += [
        MultiGraph(3, ((0, 1), (1, 0), (0, 1), (1, 2), (2, 0))),
        MultiGraph(4, ((2, 3),) * 4 + ((0, 2), (0, 2), (1, 3))),
        MultiGraph(3, ((1, 1), (1, 1), (0, 1), (1, 2))),
        MultiGraph(4, ((0, 0), (0, 0), (0, 0), (0, 1), (1, 0), (2, 2), (2, 3), (3, 2))),
    ]
    seen = Counter()
    for g in graphs:
        m = make_graphic(g)
        d = m.dual()
        got = (_vertex_census(m.graph, None), Matroid._census(m, None), m.rank_size_counts())
        got_dual, table, dual_table = d.rank_size_counts(), m.rank_table(), d.rank_table()
        want = brute_census(m)
        assert got == (want, want, want), g.edges
        assert got_dual == brute_census(d), g.edges
        assert table == brute_table(m), g.edges
        assert dual_table == brute_table(d), g.edges
        ends = [v for e in g.edges for v in e]
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(map(frozenset, g.edges))) < len(g.edges)
        seen["isolated"] += len(set(ends)) < g.n
        seen["disconnected"] += component_count(g) - (g.n - len(set(ends))) > 1
    assert min(seen[k] for k in ("loop", "parallel", "isolated", "disconnected")) >= 10, seen
    # a sparse graph on 12 vertices and 22 edges (a path plus seeded chords)
    # takes the vertex route; a rank query for each of its 2^22 masks is
    # too slow, so the scan over edge subsets is its reference
    edges = [(i, i + 1) for i in range(11)]
    while len(edges) < 22:
        edges.append(tuple(rng.sample(range(12), 2)))
    m = make_graphic(MultiGraph(12, edges))
    assert m.census_route() == "vertex"
    assert m.rank_size_counts() == Matroid._census(m, None)


def test_graphic_scan_labels_only_non_isolated_vertices():
    # 1.2M isolated vertices, before or after the 12-edge path, are more
    # than chr() can label; the scan's span test labels only the 13 ends
    path = [(v, v + 1) for v in range(12)]
    g = MultiGraph(13, path)
    m = make_graphic(g)
    # with no vertex isolated, the matroid keeps the input graph, uncopied
    assert m.graph is g
    pad = 1_200_000
    for edges in (path, [(u + pad, v + pad) for u, v in path]):
        padded = make_graphic(MultiGraph(13 + pad, edges))
        assert padded.graph.n == 13 and padded.graph.edges == g.edges
        assert padded.census_route() == "scan"
        assert chi_subset(padded) == chi_subset(m)
        assert rank_table(padded) == rank_table(m)
        # a rank query runs the union-find on the 13 ends too, so it
        # allocates nothing per isolated vertex
        tracemalloc.start()
        try:
            assert padded.rank(0b1011) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5, peak


def test_vertex_census_matches_edge_census_on_seeded_multigraphs():
    # more edges than the generic scan can take: up to 8 vertices and 16
    # edges, with loops, parallel edges, isolated vertices and up to four
    # edges on one pair
    rng = random.Random(170002)
    seen = Counter()
    for _ in range(100):
        n = min(rng.randint(1, 10), 8)
        used = rng.sample(range(n), n if rng.random() < 0.5 else rng.randint(1, n))
        # half of the graphs start from a path through every used vertex
        edges = list(zip(used, used[1:])) if rng.random() < 0.5 else []
        for _ in range(rng.randint(0, 16)):
            u, v = rng.choice(used), rng.choice(used)
            edges += [(u, v)] * min(rng.choice((1, 1, 1, 2, 4)), 16 - len(edges))
        g = MultiGraph(n, edges)
        m = make_graphic(g)
        assert _vertex_census(m.graph, None) == Matroid._census(m, None), g.edges
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(map(frozenset, g.edges))) < len(g.edges)
        seen["isolated"] += len({v for e in g.edges for v in e}) < n
        seen["8 vertices"] += len({v for e in g.edges for v in e}) == 8
    assert min(seen[k] for k in ("loop", "parallel", "isolated")) >= 10, seen
    assert seen["8 vertices"] >= 5, seen


def test_vertex_census_of_dense_graphs_past_the_subset_guard():
    # K9..K11 have 36..55 edges, more than the other tests' graphs, and
    # pack wider ints: F is chi of the dual, and the chromatic polynomial
    # of K_n is x chi
    for n in (9, 10, 11):
        m = make_graphic(complete_graph(n))
        counts = _vertex_census(m.graph, None)
        e = m.ground_size
        flow = _chi_from_counts(_dual_counts(counts, e, n - 1), e - (n - 1))
        assert flow == flow_kn_partitions(n), n
        assert _chi_from_counts(counts, n - 1).shift(1) == falling_factorial(n), n


def test_vertex_census_equals_the_fortuin_kasteleyn_partition_sum():
    # Z(q, v) = sum_A q^k(A) v^|A| over edge sets A, with k(A) the
    # components on V', groups the q-colorings by their color classes:
    # Z = sum over set partitions s of V' of (1+v)^e(s) q(q-1)...(q-|s|+1),
    # e(s) the edges inside blocks, loops included; q^k v^a is the census
    # count at (a, |V'| - k)
    seen = Counter()
    for g in partition_multigraphs(360001, 60):
        h = make_graphic(g).graph
        want = Counter()
        for part in set_partitions(list(range(h.n))):
            blocks, inside = blocks_and_inside_edges(h, part)
            for k, f in enumerate(falling_factorial(blocks).coeffs):
                for a in range(inside + 1):
                    want[(a, h.n - k)] += comb(inside, a) * f
        assert _vertex_census(h, None) == want, g.edges
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(map(frozenset, g.edges))) < len(g.edges)
        seen["isolated"] += h.n < g.n
        seen["7 vertices"] += h.n == 7
    assert min(seen.values()) >= 5, seen


# primes near 2^31 and 2^61 make packed digits of 62-65 and 122-125 bits
FP_PRIMES = (2, 3, 5, 7, 2**31 - 1, 2**61 - 1)


def scaled(vecs, p, rng):
    """c v for each of the first two vectors v, c a random scalar outside
    {0, 1}: parallel elements that differ from v in every nonzero digit."""
    return [tuple(rng.randrange(2, p) * x for x in v) for v in vecs[:2]] if p > 2 else []


def fp_configs():
    """Seeded F_p configurations, p in FP_PRIMES, dimension up to 6: each
    has a zero vector, repeated vectors and scalar multiples; empty
    ground sets and dimension 0 included."""
    rng = random.Random(616011)
    configs = [LinearMatroidFp([], p, "empty") for p in (2, 3, 5)]
    configs.append(LinearMatroidFp([()] * 3, 3, "dim0"))
    for k in range(130):
        p = rng.choice((2, 3, 5) if k < 100 else FP_PRIMES)
        dim = rng.randrange(5 if k < 100 else 7)
        vecs = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(rng.randrange(10))]
        vecs += [(0,) * dim] + vecs[:2]  # a loop and repeated vectors
        if k >= 100:
            vecs += scaled(vecs, p, rng)
        rng.shuffle(vecs)
        configs.append(LinearMatroidFp(vecs, p, f"F{p}"))
    return configs + [make_pg(3, 2), make_pg(2, 5)]


def test_fp_census_matches_generic_scan():
    for m in fp_configs():
        d = m.dual()
        got = (m.rank_size_counts(), d.rank_size_counts(), d.rank_table())
        assert got == (brute_census(m), brute_census(d), brute_table(d)), (m.p, m.vectors)


def gauss_jordan_rank(vectors, p):
    """Rank over F_p by Gauss-Jordan elimination on lists, the reference
    for the packed echelon basis of ``LinearMatroidFp``."""
    rows = [[c % p for c in v] for v in vectors]
    dim = len(rows[0]) if rows else 0
    rank = col = 0
    while rank < len(rows) and col < dim:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [c * inv % p for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_fp_rank_matches_gauss_jordan():
    # every mask of up to 8 elements, and 200 seeded masks of larger ones
    rng = random.Random(616014)
    for m in fp_configs() + low_rank_fp_configs():
        n = m.ground_size
        masks = range(1 << n) if n <= 8 else [rng.getrandbits(n) for _ in range(200)]
        for mask in masks:
            want = gauss_jordan_rank([m.vectors[i] for i in range(n) if mask >> i & 1], m.p)
            assert m._rank_impl(mask) == want, (m.p, m.vectors, mask)


def test_fp_rank_table_matches_rank_impl():
    for m in fp_configs():
        want = [m._rank_impl(mask) for mask in range(1 << m.ground_size)]
        assert rank_table(m) == want, (m.p, m.vectors)
        # the echelon scan asks ``rank`` for r(E) alone
        assert set(m._rank_cache) <= {m.full_mask}, (m.p, m.vectors)
    m = make_pg(3, 3)
    assert rank_table(m) == [m._rank_impl(mask) for mask in range(1 << 13)]


def test_fp_span_test_digits_never_carry():
    # rows e_c + (p - 1)(e_{c+1} + ... + e_5) of F_p^6, each with its
    # leading 1, then vectors whose column d reads 1 after d reductions
    # (digit 1 - d), so each later vector is reduced by every row in turn,
    # and by p - 1 times digits of p - 1: digit 5 reaches 5 (p - 1)^2 plus
    # at most p - 1 before it is read.  The last vector reads 0 there and
    # lies in the span of rows 0..4.
    for p in (3, 2**61 - 1):
        rows = [(0,) * c + (1,) + (p - 1,) * (5 - c) for c in range(6)]
        meets = [tuple(1 - d for d in range(5)) + (last,) for last in (-4, -5)]
        m = LinearMatroidFp(rows + meets, p, f"F{p} carry")
        assert rank_table(m) == [m._rank_impl(mask) for mask in range(1 << 8)], p
        assert m.rank(0b10011111) == 5 and m.rank(0b01011111) == 6, p


def low_rank_fp_configs():
    """Seeded F_p configurations where most elements lie in the span of
    earlier ones: 14-16 vectors in F_p^2 or F_p^3, p in {2, 3, 5}, and
    10-14 vectors in F_p^6 spanned by 3-4 random ones, p in FP_PRIMES,
    with zero vectors, repeats and scalar multiples, so the echelon scan
    folds far more elements than it branches on."""
    rng = random.Random(616012)
    configs = []
    for p in (2, 3, 5):
        for dim in (2, 3):
            n = rng.randrange(14, 17)
            vecs = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(n - 3)]
            vecs += [(0,) * dim, vecs[0], vecs[-1]]
            rng.shuffle(vecs)
            configs.append(LinearMatroidFp(vecs, p, f"F{p}^{dim}"))
    for p in FP_PRIMES:
        gens = [[rng.randrange(p) for _ in range(6)] for _ in range(rng.randrange(3, 5))]
        vecs = [
            tuple(sum(rng.randrange(p) * g[c] for g in gens) for c in range(6))
            for _ in range(rng.randrange(8, 11))
        ]
        vecs += [(0,) * 6, vecs[0]] + scaled(vecs[1:], p, rng)
        rng.shuffle(vecs)
        configs.append(LinearMatroidFp(vecs, p, f"F{p}^6"))
    return configs


def test_fp_scan_matches_generic_scan_where_folding_dominates():
    for m in low_rank_fp_configs():
        d = m.dual()
        got = (m.rank_size_counts(), d.rank_size_counts(), m.rank_table(), d.rank_table())
        want = (brute_census(m), brute_census(d), brute_table(m), brute_table(d))
        assert got == want, (m.p, m.vectors)


def scan_stops(m, monkeypatch):
    """Stops the echelon scan makes during ``Matroid._census(m, None)``."""
    stops = [0]
    scan = Matroid._scan

    def counting_scan(self, leaf, deadline=None):
        def counted(*args):
            stops[0] += 1
            leaf(*args)

        scan(self, counted, deadline)

    with monkeypatch.context() as patch:
        patch.setattr(Matroid, "_scan", counting_scan)
        Matroid._census(m, None)
    return stops[0]


def test_fp_scan_branches_only_outside_the_span(monkeypatch):
    # branching on every element took 3,936 stops on pg:4,2 and 3,117,760
    # on pg:5,2; folding the elements inside the span leaves 1,381 and
    # 114,205 (``Matroid._census``, since their census takes the span DP)
    assert 0 < scan_stops(make_pg(4, 2), monkeypatch) <= 1381
    assert 0 < scan_stops(make_pg(5, 2), monkeypatch) < 200_000


def test_fp_census_gives_the_pg_closed_forms_at_paper_scale():
    # the census itself, past SUBSET_GUARD, not chi_subset's walk
    m = make_pg(5, 2)
    assert _chi_from_counts(m.rank_size_counts(), 5) == chi_pg(5, 2)
    assert _chi_from_counts(m.dual().rank_size_counts(), 26) == chi_pg_dual(5, 2)


def f2_configs():
    """The empty matroid and 49 seeded F_2 configurations, dimension 0 to
    6 and up to 16 elements, with zero and repeated vectors."""
    rng = random.Random(330033)
    configs = [LinearMatroidFp([], 2, "empty")]
    for k in range(49):
        dim = k % 7
        vecs = [tuple(rng.randrange(2) for _ in range(dim)) for _ in range(rng.randrange(15))]
        if rng.random() < 0.5:
            vecs.append((0,) * dim)
        vecs += vecs[: rng.randrange(3)]
        rng.shuffle(vecs)
        configs.append(LinearMatroidFp(vecs[:16], 2, "F2"))
    return configs


def test_f2_span_census_matches_the_scan_and_brute_force():
    # the DP itself on every configuration, and through the census on
    # those that the route sends to it
    routes = Counter()
    for m in f2_configs():
        n, d = m.ground_size, m.dual()
        got = matroids._span_census(m.vectors, m._dim, None)
        assert got == Matroid._census(m, None) == brute_census(m), m.vectors
        assert _dual_counts(got, n, m.full_rank()) == brute_census(d), m.vectors
        assert m.rank_size_counts() == got and d.rank_size_counts() == brute_census(d)
        routes[m.census_route()] += 1
    assert routes["span"] >= 10 and routes["scan"] >= 10, routes


def test_f2_census_takes_the_span_dp_where_it_fits():
    # S_2(dim) subspaces of F_2^dim bound the DP's states: 67 at dim 4,
    # 2,825 at 6, 417,199 at 8, where pg:8,2's 255 elements would take
    # about 98.5M states and its scan over 2^24 nodes: both refuse it
    routes = {(n, q): make_pg(n, q).census_route() for n, q in ((4, 2), (6, 2), (8, 2), (3, 3))}
    assert routes == {(4, 2): "span", (6, 2): "span", (8, 2): "scan", (3, 3): "scan"}
    # rank 1 in F_2^1: 2n - 1 states against the scan's n + 1 nodes
    assert LinearMatroidFp([(1,)] * 3, 2, "ones").census_route() == "scan"
    assert LinearMatroidFp([(1,)] * 2, 2, "ones").census_route() == "span"
    # a span of 2^17 vectors is past the 2^16 bound
    assert LinearMatroidFp([(1,) * 16], 2, "dim16").census_route() == "span"
    assert LinearMatroidFp([(1,) * 17], 2, "dim17").census_route() == "scan"
    # n independent vectors of F_2^16 end in 2^n spans of 2^16 bits: 14 of
    # them fit 2^30 bits, while 15 and 16 (within the state rule) do not
    units = [tuple(int(i == j) for j in range(16)) for i in range(16)]
    routes = [LinearMatroidFp(units[:n], 2, "units").census_route() for n in (14, 15, 16)]
    assert routes == ["span", "scan", "scan"]
    m = LinearMatroidFp(units, 2, "units")
    assert m.rank_size_counts() == Counter({(a, a): comb(16, a) for a in range(17)})


def test_scan_depth_is_the_rank_not_the_ground_size():
    # 1,100 parallel elements of rank 1, more than the interpreter's
    # default recursion limit: a scan that recursed once per element
    # raised RecursionError on each of these
    u = make_uniform(1, 1100)
    ones = LinearMatroidFp([(1,)] * 1100, 2, "ones")
    for m, want in (
        (ones, u),
        (ones.dual(), u.dual()),
        # a minor takes the generic span test
        (MinorView(u, u.full_mask), u),
    ):
        assert m.rank_size_counts() == want.rank_size_counts(), m.label


def test_uniform_census_matches_generic_scan():
    cases = [(0, 0)] + [(0, n) for n in (1, 5)] + [(n, n) for n in (1, 5)]
    cases += [(m, n) for n in range(2, 9) for m in range(1, n)]
    for m, n in cases:
        u = make_uniform(m, n)
        d = u.dual()
        got = (u.rank_size_counts(), d.rank_size_counts(), u.rank_table(), d.rank_table())
        assert got == (brute_census(u), brute_census(d), brute_table(u), brute_table(d)), (m, n)


def grid_3x3():
    rows = [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
    cols = [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)]
    return MultiGraph(9, rows + cols)


def test_graphic_census_route_follows_the_cost_estimate():
    # K7: 0.035 (3^7 + 2^10) against 2^21 edge subsets; the 3x3 grid:
    # 0.035 (3^9 + 2^12) = 832 against 2^12, and its vertex route is the
    # faster
    assert make_graphic(complete_graph(7)).census_route() == "vertex"
    assert make_graphic(grid_3x3()).census_route() == "vertex"
    # the 12-vertex path has only 2^11 edge subsets; on a triangle the
    # scan's fixed cost outweighs the vertex route's tables
    path12 = MultiGraph(12, [(i, i + 1) for i in range(11)])
    assert make_graphic(path12).census_route() == "scan"
    assert make_graphic(complete_graph(3)).census_route() == "vertex"
    # isolated vertices do not count against the vertex route
    k4_spread = MultiGraph(12, [(u * 3, v * 3) for u, v in complete_graph(4).edges])
    assert make_graphic(k4_spread).census_route() == "vertex"


def test_graphic_census_route_past_24_edges_bounds_the_vertex_tables():
    # past 24 edges the vertex route needs at most 13 non-isolated vertices
    # and tables of 2^|V'| |V'| (|E|+1)^2 + (|E|+1)^3 / 2 <= 2^30 bits:
    # K13 uses 0.62 of them
    assert make_graphic(complete_graph(13)).census_route() == "vertex"
    assert make_graphic(complete_graph(14)).census_route() == "scan"
    k13 = complete_graph(13).edges
    many = MultiGraph(13, [k13[i % len(k13)] for i in range(1001)])
    assert make_graphic(many).census_route() == "scan"
    # two vertices: the tables pass 2^30 bits at 1,284 edges
    for m, route in ((1283, "vertex"), (1284, "scan"), (10_000, "scan")):
        assert make_graphic(MultiGraph(2, [(0, 1)] * m)).census_route() == route, m
    # a connected 16-vertex, 25-edge graph: delete/contract took 0.79 s
    # and the vertex census 2.57 s
    assert make_graphic(grid_4x4_and_a_diagonal()).census_route() == "scan"


def grid_4x4_and_a_diagonal():
    rows = [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
    cols = [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)]
    return MultiGraph(16, rows + cols + [(0, 5)])


def test_each_census_rule_refuses_only_its_own_work():
    # the refusals run under a 1 s alarm, since each one would otherwise
    # start a scan of over 2^24 nodes or fill a table of 2^30 cells
    def too_slow(*_):
        raise TimeoutError("work started before its rule refused it")

    k9 = make_graphic(complete_graph(9))
    u = make_uniform(1, 4097)
    refused = [
        # the scan: K9's edge scan passes 2^24 sets of <= 8 of its 36 edges,
        # and an infinite deadline does not lift that bound
        lambda: Matroid._census(k9, None),
        lambda: Matroid._census(k9, inf),
        # pg:8,2: the span DP's states pass 2^24, so it takes the scan
        make_pg(8, 2).rank_size_counts,
        make_pg(8, 2).dual().rank_size_counts,
    ] + [
        # every census: counts reach n bits, so n^2 > 2^24 is refused, on
        # any route and under any deadline
        lambda m=m, deadline=deadline: m.rank_size_counts(deadline)
        for m in (u, u.dual(), LinearMatroidFp([(1,)] * 4097, 2, "ones"))
        for deadline in (None, monotonic() + 60)
    ] + [
        # every rank table: 2^30 cells of 64 bits pass 2^30 bits, though
        # the scans take only 4,526 and 466 nodes
        make_uniform(3, 30).rank_table,
        make_pg(2, 29).rank_table,
    ]
    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        for census in refused:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(TooLarge):
                census()
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    # a finite deadline lifts the scan's bound, and the deadline then fires
    with pytest.raises(BudgetExceeded):
        Matroid._census(k9, monotonic() + 0.05)
    assert make_uniform(1, 4096).rank_size_counts()[(4096, 1)] == 1


def census_routes():
    """name -> (census taking a deadline, whether its checks recur)."""
    u, k7, pg = make_uniform(3, 14), make_graphic(complete_graph(7)), make_pg(4, 2)
    # the folded scans of uniform:8,20, K7 (59,944 nodes) and pg:5,2 pass
    # 2^14 nodes, so they reach their in-loop deadline checks; the span DP
    # checks once per element
    big = make_uniform(8, 20)
    return {
        "uniform": u.rank_size_counts,
        "fp": make_pg(3, 3).rank_size_counts,
        "fp-large": lambda deadline: Matroid._census(make_pg(5, 2), deadline),
        "fp-span": make_pg(5, 2).rank_size_counts,
        "graphic": k7.rank_size_counts,
        "graphic-vertex": lambda deadline: _vertex_census(k7.graph, deadline),
        "graphic-edge": lambda deadline: Matroid._census(k7, deadline),
        "dual": pg.dual().rank_size_counts,
        "generic": MinorView(big, big.full_mask).rank_size_counts,
    }


def test_every_census_route_raises_on_an_expired_deadline():
    for name, census in census_routes().items():
        with pytest.raises(BudgetExceeded):
            census(deadline=monotonic() - 1.0)


def test_census_scans_check_the_deadline_while_running(monkeypatch):
    routes = census_routes()
    for name in ("fp-large", "fp-span", "graphic-vertex", "graphic-edge", "generic"):
        # the clock passes the deadline right after the entry check
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) == 1 else 10.0

        monkeypatch.setattr(errors, "monotonic", clock)
        with pytest.raises(BudgetExceeded):
            routes[name](deadline=5.0)
        assert len(reads) == 2, name


def test_census_route_names_the_kernel_that_runs(monkeypatch):
    # each census kernel logs its name when it runs, and the scan whether
    # it cuts folds, the walk of chi_subset
    log = []
    vertex, span, scan = matroids._vertex_census, matroids._span_census, Matroid._scan

    def logged_vertex(g, deadline):
        log.append(("vertex", False))
        return vertex(g, deadline)

    def logged_span(vectors, dim, deadline):
        log.append(("span", False))
        return span(vectors, dim, deadline)

    def logged_scan(self, leaf, deadline=None, *, cut_folds=False):
        log.append(("scan", cut_folds))
        return scan(self, leaf, deadline, cut_folds=cut_folds)

    monkeypatch.setattr(matroids, "_vertex_census", logged_vertex)
    monkeypatch.setattr(matroids, "_span_census", logged_span)
    monkeypatch.setattr(Matroid, "_scan", logged_scan)
    units = [tuple(int(i == j) for j in range(16)) for i in range(15)]
    pg = make_pg(3, 2)
    bases = [
        make_uniform(3, 8),
        make_graphic(complete_graph(7)),
        make_graphic(MultiGraph(12, [(i, i + 1) for i in range(11)])),
        make_pg(4, 2),
        LinearMatroidFp(units, 2, "units"),
        make_pg(3, 3),
        MinorView(pg, 0b1110111, 0b0001000),
        TableMatroid(pg.ground_size, rank_table(pg)),
    ]
    cases = bases + [m.dual() for m in bases]
    seen = Counter()
    for m in cases:
        route = m.census_route()
        assert route in ("closed", "dual", "vertex", "span", "scan"), m.label
        kernel = m.base.census_route() if route == "dual" else route
        log.clear()
        m.rank_size_counts()
        assert log == ([] if kernel == "closed" else [(kernel, False)]), m.label
        log.clear()
        chi_subset(m)
        assert (("scan", True) in log) == (route == "scan"), m.label
        seen[route] += 1
    assert seen == {"closed": 1, "vertex": 1, "span": 1, "scan": 5, "dual": 8}, seen


def test_table_matroid_accepts_valid_and_rejects_invalid():
    u12 = TableMatroid(2, [0, 1, 1, 1])
    assert u12.rank(0b11) == 1
    with pytest.raises(BadParams):
        TableMatroid(2, [0, 1, 1])  # wrong length
    with pytest.raises(BadParams):
        TableMatroid(1, [1, 1])  # rank(empty) != 0
    with pytest.raises(BadParams):
        TableMatroid(2, [0, 1, 1, 3])  # exceeds cardinality bound
    with pytest.raises(BadParams):
        TableMatroid(2, [0, 1, 1, 0])  # not monotone
    with pytest.raises(BadParams):
        TableMatroid(2, [0, 0, 0, 1])  # fails submodularity on {e0},{e1}
    # the free matroid on 2 elements is fine
    assert TableMatroid(2, [0, 1, 1, 2]).full_rank() == 2


def test_circuits_known_matroids():
    assert circuits(make_uniform(2, 3)) == [0b111]
    assert circuits(make_uniform(3, 3)) == []
    par = make_graphic(MultiGraph(2, ((0, 1), (0, 1), (0, 1))))
    assert circuits(par) == [0b011, 0b101, 0b110]
    loop = make_graphic(MultiGraph(2, ((0, 0), (0, 1))))
    assert circuits(loop) == [0b01]
    k3 = make_graphic(complete_graph(3))
    assert circuits(k3) == [0b111]
    fano_sizes = Counter(c.bit_count() for c in circuits(make_pg(3, 2)))
    assert fano_sizes == Counter({3: 7, 4: 7})
    with pytest.raises(TooLarge):
        circuits(make_uniform(1, 21))


def test_flats_of_rank():
    fano = make_pg(3, 2)
    assert [len(flats_of_rank(fano, k)) for k in range(4)] == [1, 7, 7, 1]
    assert all(m.bit_count() == 3 for m in flats_of_rank(fano, 2))
    u23 = make_uniform(2, 3)
    assert flats_of_rank(u23, 0) == [0]
    assert len(flats_of_rank(u23, 1)) == 3
    assert flats_of_rank(u23, 2) == [0b111]
    assert flats_of_rank(u23, 5) == []
    # a loop sits inside every flat
    loopy = make_graphic(MultiGraph(2, ((0, 0), (0, 1))))
    assert flats_of_rank(loopy, 0) == [0b01]
