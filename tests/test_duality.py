"""Unit tests for the duality formulas and the identity checker."""

import random
import signal
from itertools import product

import pytest

from corpus import GRAPHS, graphic_matroids, pg_matroids, uniform_matroids
from matpoly import BadParams, TooLarge, duality
from matpoly.algebra import BiPoly, IntPoly, exact_div_monomial, poly_pow
from matpoly.duality import (
    GRAPH_KINDS,
    IdentityKind,
    _packed_sums,
    _verify_kung,
    chi_dual_via_finaltwo,
    flow_via_connected_partitions,
    rank_table,
    subset_zeta,
    superset_zeta,
    verify_identity,
)
from matpoly.flowkn import flow_kn_partitions
from matpoly.graphs import MultiGraph, complete_graph, component_count, subgraph
from matpoly.invariants import chi_subset, chromatic_poly, flow_poly, whitney_R
from matpoly.matroids import Matroid, make_graphic, make_pg, make_uniform

K3 = complete_graph(3)
K4 = complete_graph(4)


def test_zeta_transforms_match_brute_force():
    rng = random.Random(717001)
    for n in (0, 1, 2, 3, 4, 5):
        vals = [rng.randint(-9, 9) for _ in range(1 << n)]
        sub = subset_zeta(list(vals), n)
        sup = superset_zeta(list(vals), n)
        for mask in range(1 << n):
            want_sub = sum(vals[b] for b in range(1 << n) if b & mask == b)
            want_sup = sum(vals[b] for b in range(1 << n) if b & mask == mask)
            assert sub[mask] == want_sub
            assert sup[mask] == want_sup
    # above one window of the transform, against the per-mask butterflies
    n = 14
    vals = [rng.randint(-(2**40), 2**40) for _ in range(1 << n)]
    sub, sup = list(vals), list(vals)
    for e in range(n):
        for mask in range(1 << n):
            if mask >> e & 1:
                sub[mask] += sub[mask ^ 1 << e]
            else:
                sup[mask] += sup[mask | 1 << e]
    assert subset_zeta(list(vals), n) == sub
    assert superset_zeta(list(vals), n) == sup


def test_packed_lattice_sums_match_brute_force():
    # IntPoly cells are packed into ints for the transform; coefficients of
    # +-2^70 and zeros check the width and the signed unpacking, and a table
    # of one repeated extreme cell makes the full-set sum reach 2^n * 2^70.
    rng = random.Random(90210)
    big = 2**70
    coeffs = (big, -big, big - 1, 1 - big, 0, 0, 1, -1, 5, -7)
    for n in range(7):
        for trial in range(4):
            ranks = [rng.randint(0, n) for _ in range(1 << n)]
            if trial == 0:
                cell = IntPoly((big, -big, 0, 1))
                table = {(a, r): cell for a in range(n + 1) for r in range(n + 1)}
            else:
                table = {
                    (a, r): IntPoly(rng.choice(coeffs) for _ in range(rng.randint(0, 5)))
                    for a in range(n + 1)
                    for r in range(n + 1)
                }
            cells = [table[mask.bit_count(), r] for mask, r in enumerate(ranks)]
            for superset in (False, True):
                sums, w = _packed_sums(ranks, lambda a, r: table[a, r], superset)
                for mask in range(1 << n):
                    terms = (
                        cells[b]
                        for b in range(1 << n)
                        if b & mask == (mask if superset else b)
                    )
                    want = sum(terms, IntPoly.zero())
                    got = IntPoly.unpack(sums[mask], w)
                    assert got == want, (n, trial, superset, mask)


def test_rank_table():
    m = make_uniform(2, 4)
    t = rank_table(m)
    assert len(t) == 16
    assert all(t[mask] == min(2, mask.bit_count()) for mask in range(16))
    with pytest.raises(TooLarge):
        rank_table(make_uniform(1, 25))


def test_minor_chi_tables_match_direct_computation():
    # the packed sums that _restriction_sum and _finaltwo_sum tally, cell
    # by cell against the minors' chi; the third table, twozeta's sum over
    # duals of restrictions, is finaltwo's contraction table of M*
    for m in (make_uniform(2, 4), make_graphic(K3), make_pg(2, 2)):
        n = m.ground_size
        full = m.full_mask
        ranks = rank_table(m)
        rfull = ranks[-1]
        rs, rw = _packed_sums(ranks, lambda a, r: IntPoly.monomial((-1) ** a, rfull - r))
        cs, cw = _packed_sums(
            ranks, lambda a, r: IntPoly.monomial((-1) ** a, rfull - r), superset=True
        )
        ds, dw = _packed_sums(ranks, lambda a, r: IntPoly.monomial((-1) ** a, a - r))
        d = m.dual()
        for mask in range(1 << n):
            sign = (-1) ** mask.bit_count()
            rt = exact_div_monomial(IntPoly.unpack(rs[mask], rw), rfull - ranks[mask])
            ct = IntPoly.unpack(cs[mask], cw).scale(sign)
            dt = IntPoly.unpack(ds[mask], dw).scale(sign)
            # rt and dt are indexed by the kept set A; ct by the set
            # contracted away (its ground set is E - A)
            assert rt == chi_subset(m.restrict(mask)), (m.label, mask)
            assert ct == chi_subset(m.contract(full & ~mask)), (m.label, mask)
            assert dt == chi_subset(m.restrict(mask).dual()), (m.label, mask)
            assert dt == chi_subset(d.contract(mask)), (m.label, mask)


def test_chi_dual_via_finaltwo_matches_subset_expansion():
    targets = [
        make_uniform(2, 4),
        make_uniform(0, 2),
        make_uniform(3, 3),
        make_graphic(K4),
        make_graphic(MultiGraph(2, ((0, 0), (0, 1)))),
        make_pg(2, 3),
    ]
    for m in targets:
        assert chi_dual_via_finaltwo(m) == chi_subset(m.dual()), m.label


def test_chi_dual_via_finaltwo_fano_golden():
    got = chi_dual_via_finaltwo(make_pg(3, 2))
    assert got == IntPoly((13, -28, 21, -7, 1))


def test_twozeta_right_side_matches_a_per_minor_reference():
    """twozeta runs finaltwo's checker on M*; both sides must still be its
    own statement, (-1)^n x^(n-R) chi_M = sum_A (1-x)^(n-|A|) chi_{(M|A)*},
    summed here minor by minor."""
    targets = uniform_matroids() + pg_matroids() + graphic_matroids()
    for m in (t for t in targets if t.ground_size <= 10):
        n = m.ground_size
        want = sum(
            (
                poly_pow(IntPoly((1, -1)), n - a.bit_count())
                * chi_subset(m.restrict(a).dual())
                for a in range(1 << n)
            ),
            IntPoly.zero(),
        )
        lhs, rhs = duality._KINDS[IdentityKind.TWOZETA](m)
        assert rhs == want, m.label
        sign = -1 if n % 2 else 1
        assert lhs == chi_subset(m).shift(n - m.full_rank()).scale(sign), m.label


def test_finaltwo_mutated_weights_break_the_identity(monkeypatch):
    """Replacing the (1-x)^|A| weights by 1 must not reproduce the dual
    characteristic polynomial (guards against a silently wrong weight)."""
    assert verify_identity("finaltwo", K3).passed
    monkeypatch.setattr(
        duality, "_one_minus_x_sum", lambda groups: sum(groups.values(), IntPoly.zero())
    )
    assert not verify_identity("finaltwo", K3).passed


def test_flow_via_connected_partitions_known_values():
    assert flow_via_connected_partitions(K4) == IntPoly((-6, 11, -6, 1))
    assert flow_via_connected_partitions(K4) == flow_poly(K4)
    loopy = MultiGraph(2, ((0, 0), (0, 1)))
    assert flow_via_connected_partitions(loopy) == flow_poly(loopy)
    disc = MultiGraph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))
    assert flow_via_connected_partitions(disc) == flow_poly(disc)
    with pytest.raises(TooLarge):
        flow_via_connected_partitions(MultiGraph(13, ()))


def test_th2_passes_on_k8():
    # K8's 28 edges take the vertex census on the flow side, and its
    # Bell(8) = 4,140 partitions are all connected
    k8 = complete_graph(8)
    assert verify_identity("th2-connected-partitions", k8).passed
    assert flow_via_connected_partitions(k8) == flow_kn_partitions(8)


def test_th2_refuses_before_it_sums_a_partition():
    # K11 and K12 pass the 12-vertex cap, but with more than 24 edges a
    # graph is capped at 10 vertices (Bell(11) = 678,570 partitions); a
    # 20-vertex graph with 24 edges passes flow_poly's node bound but not
    # the cap, and its flow polynomial alone takes seconds.  Each must be
    # refused within 1 s, before either side is summed.
    def too_slow(*_):
        raise TimeoutError("a side was summed before the guards")

    sparse = MultiGraph(20, [(v, v + 1) for v in range(19)] + [(0, v) for v in range(2, 7)])
    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        for g in (complete_graph(11), complete_graph(12), sparse):
            with pytest.raises(TooLarge):
                verify_identity("th2-connected-partitions", g)
        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_flow_via_connected_partitions_matches_flow_poly_on_corpus():
    for name, g in GRAPHS:
        assert flow_via_connected_partitions(g) == flow_poly(g), name


def test_verify_identity_passes_on_samples():
    m = make_graphic(K4)
    for kind in IdentityKind:
        target = K4 if kind in GRAPH_KINDS else m
        if kind is IdentityKind.UNIFORM_SPLIT:
            target = make_uniform(2, 4)
        rep = verify_identity(kind, target)
        assert rep.passed, (kind, rep.first_mismatch)
        assert rep.first_mismatch is None
        assert (rep.mode, rep.samples) == ("exact-polynomial", ("exact",))
        j = rep.to_json()
        assert j["kind"] == kind.value and j["passed"] is True


def test_verify_identity_accepts_string_kind_and_custom_samples():
    rep = verify_identity("thm1-one", make_uniform(2, 4))
    assert rep.passed and rep.samples == ("exact",)


def test_verify_identity_failure_is_reported_not_raised():
    rep = verify_identity(IdentityKind.UNIFORM_SPLIT, make_graphic(K4))
    assert not rep.passed
    assert rep.first_mismatch


def test_verify_identity_bad_inputs():
    with pytest.raises(BadParams):
        verify_identity("no-such-identity", make_uniform(1, 2))
    with pytest.raises(BadParams):
        verify_identity(IdentityKind.MATIYASEVICH, make_uniform(1, 2))
    with pytest.raises(BadParams):
        verify_identity(IdentityKind.THM1_ONE, "not a matroid")


def test_exact_kinds_reject_samples():
    # every kind is proved as a polynomial; none takes sample points
    for kind in IdentityKind:
        if kind in GRAPH_KINDS:
            continue
        rep = verify_identity(kind, make_uniform(2, 4))
        assert rep.passed and rep.mode == "exact-polynomial", kind


# Each mutation adds x - 2 to what the named duality function returns, and
# every kind must then report its two sides.
EXACT = ("exact-polynomial", ("exact",))

# kind: (mode, sample labels, the duality function a mutation bumps)
REPORT_SHAPES = {
    "thm1-one": EXACT + ("chi_subset",),
    "thm1-two": EXACT + ("chi_subset",),
    "twozeta": EXACT + ("chi_subset",),
    "finaltwo": EXACT + ("chi_subset",),
    "matiyasevich": EXACT + ("chromatic_poly",),
    "matiyasevich-inverse": EXACT + ("chi_subset",),
    "th2-connected-partitions": EXACT + ("flow_poly",),
    "convolution": EXACT + ("whitney_R",),
    "kung": EXACT + ("whitney_R",),
    "uniform-split": EXACT + ("tutte",),
    "hyperbola-t": EXACT + ("whitney_R",),
    "hyperbola-r": EXACT + ("whitney_R",),
}


@pytest.mark.parametrize("kind", list(IdentityKind), ids=lambda k: k.value)
def test_report_shape_poles_and_first_failing_point(kind, monkeypatch):
    mode, labels, mutated = REPORT_SHAPES[kind.value]
    target = K3 if kind in GRAPH_KINDS else make_uniform(2, 4)
    rep = verify_identity(kind, target)
    assert (rep.mode, rep.samples, rep.passed) == (mode, labels, True)
    orig = getattr(duality, mutated)
    bivariate = mutated in ("tutte", "whitney_R")
    bump = BiPoly({(1, 0): 1, (0, 0): -2}) if bivariate else IntPoly((-2, 1))
    monkeypatch.setattr(duality, mutated, lambda t: orig(t) + bump)
    rep = verify_identity(kind, target)
    assert not rep.passed
    assert rep.first_mismatch.startswith("lhs="), rep.first_mismatch


# Every kind whose checker builds a minor table through rank_table.
TABLE_KINDS = (
    "thm1-one",
    "thm1-two",
    "twozeta",
    "finaltwo",
    "matiyasevich",
    "matiyasevich-inverse",
    "convolution",
    "kung",
)


def test_matiyasevich_kinds_refuse_large_graphs_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started above the table guard")

    monkeypatch.setattr(Matroid, "rank_table", no_work)
    monkeypatch.setattr(Matroid, "rank", no_work)
    for name in ("chromatic_poly", "flow_poly"):
        monkeypatch.setattr(duality, name, no_work)
    # K7 has 21 edges; the matroid kinds wrap it as its cycle matroid
    for kind in TABLE_KINDS:
        with pytest.raises(TooLarge):
            verify_identity(kind, complete_graph(7))
        if IdentityKind(kind) not in GRAPH_KINDS:
            with pytest.raises(TooLarge):
                verify_identity(kind, make_uniform(2, 21))
    monkeypatch.undo()
    # the guard admits n = TABLE_GUARD and refuses one element more
    monkeypatch.setattr(duality, "TABLE_GUARD", 3)
    triangle_pendant = MultiGraph(4, K3.edges + ((2, 3),))
    for kind in TABLE_KINDS:
        assert verify_identity(kind, K3).passed, kind
        with pytest.raises(TooLarge):
            verify_identity(kind, triangle_pendant)
    assert chi_dual_via_finaltwo(make_graphic(K3)) == IntPoly((-1, 1))
    with pytest.raises(TooLarge):
        chi_dual_via_finaltwo(make_graphic(triangle_pendant))


def random_multigraph(rng):
    n = rng.randrange(7)
    m = rng.randrange(9) if n else 0
    return MultiGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])


def test_matiyasevich_right_sides_match_a_per_subgraph_reference():
    """Both graph kinds take their right side from the cycle matroid's
    tables; the reference sums over every edge subgraph G|A, which keeps
    only the support vertices of A."""
    rng = random.Random(717003)
    graphs = [random_multigraph(rng) for _ in range(60)]
    graphs += [MultiGraph(0, ()), MultiGraph(3, ()), MultiGraph(2, ((1, 1), (1, 1)))]
    seen = set()
    for g in graphs:
        ne = len(g.edges)
        subs = [subgraph(g, mask) for mask in range(1 << ne)]
        _lhs, rhs = duality._verify_matiyasevich(g)
        # matiyasevich-inverse is thm1-one's check, whose sides carry
        # the sign (-1)^|E|
        _lhs, rhs_inverse = duality._KINDS[IdentityKind.MATIYASEVICH_INVERSE](g)
        # with the denominators cleared, G|A weighs (1-x)^(|E|-|A|) in both
        weights = [poly_pow(IntPoly((1, -1)), ne - h.edge_count) for h in subs]
        want = sum(
            (w * flow_poly(h) for w, h in zip(weights, subs)), IntPoly.zero()
        ).shift(g.n)
        # x^(|A|-r(A)) chi_{M|A} = x^(|A|-|V(A)|) P_{G|A}
        want_inverse = sum(
            (
                w * exact_div_monomial(chromatic_poly(h).shift(h.edge_count), h.n)
                for w, h in zip(weights, subs)
            ),
            IntPoly.zero(),
        )
        assert rhs == want, g
        assert rhs_inverse == (-want_inverse if ne % 2 else want_inverse), g
        ends = {v for e in g.edges for v in e}
        seen.update(
            name
            for name, hit in (
                ("loop", any(u == v for u, v in g.edges)),
                ("parallel", len(set(map(frozenset, g.edges))) < ne),
                ("isolated", len(ends) < g.n),
                ("disconnected", component_count(g) - (g.n - len(ends)) > 1),
            )
            if hit
        )
    assert seen == {"loop", "parallel", "isolated", "disconnected"}


def test_graph_kinds_accept_multigraphs_only():
    for kind in GRAPH_KINDS:
        rep = verify_identity(kind, K3)
        assert rep.passed, (kind, rep.first_mismatch)


def test_matroid_kinds_wrap_multigraph_targets():
    rep = verify_identity(IdentityKind.CONVOLUTION, K3)
    assert rep.passed
    assert "graphic" in rep.target


def test_uniform_split_holds_only_for_uniforms():
    for m, n in ((0, 1), (1, 1), (2, 3), (3, 5), (4, 4)):
        rep = verify_identity(IdentityKind.UNIFORM_SPLIT, make_uniform(m, n))
        assert rep.passed, (m, n)
    # fails on a rank-preserving non-uniform matroid
    rep = verify_identity(IdentityKind.UNIFORM_SPLIT, make_pg(3, 2))
    assert not rep.passed


# Right-side mutations: each bumps one cell of a packed lattice sum that
# the right side reads, so a right side that ignored its table would still
# pass.  The bump adds x^(n+2), above every degree of a cell, so no cell
# coefficient overflows its digit, and at least x^(R - r(A)), so each
# per-group division by that power stays exact and the report shows both
# sides.
RHS_TARGETS = (make_uniform(2, 4), make_pg(3, 2), make_graphic(K4))


def bump_packed_cell(monkeypatch, mask, which: bool):
    """Patch duality._packed_sums so that its subset sums (its superset
    sums when ``which``) gain x^(n+2) at ``mask``."""
    orig = duality._packed_sums

    def bumped(ranks, value, superset=False):
        sums, w = orig(ranks, value, superset)
        if superset == which:
            n = len(ranks).bit_length() - 1
            sums[mask] += 1 << w * (n + 2)
        return sums, w

    monkeypatch.setattr(duality, "_packed_sums", bumped)


def full_mask(target) -> int:
    """The mask of every element of a matroid, or of every edge of a graph."""
    return target.full_edge_mask if isinstance(target, MultiGraph) else target.full_mask


# thm1-one on every right-side target, and matiyasevich-inverse on K4,
# whose right side is thm1-one's on the cycle matroid; both read a subset
# sum.
RESTRICTION_CASES = [
    pytest.param("thm1-one", m, id=m.label) for m in RHS_TARGETS
] + [pytest.param("matiyasevich-inverse", K4, id="matiyasevich-inverse:K4")]


@pytest.mark.parametrize("kind, target", RESTRICTION_CASES)
def test_thm1_one_fails_when_one_restriction_entry_moves(kind, target, monkeypatch):
    # a proper, nonempty subset
    bump_packed_cell(monkeypatch, full_mask(target) // 3, which=False)
    rep = verify_identity(kind, target)
    assert not rep.passed
    assert rep.first_mismatch.startswith("lhs="), rep.first_mismatch


# (kind, which packed sum moves, the mask): finaltwo reads the superset
# sums of its contraction table at every mask, and so do twozeta and
# matiyasevich, which run it on M*; the convolution pairs the subset sum
# at the empty set, T of the empty restriction, with T_M(x, 0), which is
# nonzero on these loopless targets.
PACKED_CASES = [
    pytest.param(kind, m, superset, mask, id=f"{kind}:{m.label}")
    for kind, superset, mask in (
        ("finaltwo", True, None),
        ("twozeta", True, None),
        ("convolution", False, 0),
    )
    for m in RHS_TARGETS
] + [pytest.param("matiyasevich", K4, True, None, id="matiyasevich:K4")]


@pytest.mark.parametrize("kind, target, superset, mask", PACKED_CASES)
def test_packed_right_sides_fail_when_one_cell_moves(
    kind, target, superset, mask, monkeypatch
):
    bump_packed_cell(
        monkeypatch, full_mask(target) // 3 if mask is None else mask, superset
    )
    rep = verify_identity(kind, target)
    assert not rep.passed
    assert rep.first_mismatch.startswith("lhs="), rep.first_mismatch


@pytest.mark.parametrize("m", RHS_TARGETS, ids=lambda m: m.label)
def test_kung_fails_when_one_rank_moves(m, monkeypatch):
    # The rank moves down: on these targets every exponent then stays
    # within the degree bounds of Kung's substitution, which a raised rank
    # can leave (r(A) > |A| or r(A) > R gives no monomial).
    orig = duality.rank_table
    mask = m.full_mask // 3

    def bumped(t):
        ranks = list(orig(t))
        assert ranks[mask] > 0
        ranks[mask] -= 1
        return ranks

    monkeypatch.setattr(duality, "rank_table", bumped)
    rep = verify_identity("kung", m)
    assert not rep.passed
    assert rep.first_mismatch.startswith("lhs="), rep.first_mismatch


def kung_brute(m: Matroid) -> dict:
    """{(i, j, k, l): c}: the right side of Kung's identity as a polynomial
    in (lam, x, xi, y), summed over every chain B sub A sub C:
    (-1)^(|A|+|B|) lam^(R-r(B)) x^(|B|-r(B)) xi^(R-r(C)) y^(|C|-r(C))."""
    n, rfull = m.ground_size, m.full_rank()
    out: dict = {}
    for a in range(1 << n):
        subs = [b for b in range(a + 1) if b & a == b]
        sups = [c for c in range(a, 1 << n) if c & a == a]
        for b in subs:
            rb = m.rank(b)
            sign = (-1) ** (a.bit_count() + b.bit_count())
            for c in sups:
                rc = m.rank(c)
                key = (rfull - rb, b.bit_count() - rb, rfull - rc, c.bit_count() - rc)
                out[key] = out.get(key, 0) + sign
    return {k: c for k, c in out.items() if c}


def kung_exponent(n: int, rfull: int, key) -> int:
    """The power of t that lam = t, x = t^(R+1), xi = t^D, y = t^(D(R+1)),
    D = (R+1)(n-R+1), gives the monomial lam^i x^j xi^k y^l."""
    i, j, k, l = key
    step = rfull + 1
    d = step * (n - rfull + 1)
    return i + step * j + d * (k + step * l)


KUNG_REFERENCE_TARGETS = (
    make_uniform(1, 3),
    make_uniform(2, 4),
    make_graphic(K4),
    # a loop, a parallel pair and a pendant edge
    make_graphic(MultiGraph(3, ((0, 0), (0, 1), (0, 1), (1, 2)))),
)


@pytest.mark.parametrize("m", KUNG_REFERENCE_TARGETS, ids=lambda m: m.label)
def test_exact_kung_matches_a_brute_force_four_variable_sum(m):
    n, rfull = m.ground_size, m.full_rank()
    brute = kung_brute(m)
    # Kung's identity itself: the sum is R(lam xi, x y)
    want = {(i, j, i, j): c for (i, j), c in whitney_R(m).terms.items()}
    assert brute == want
    lhs, rhs = _verify_kung(m)
    mapped: dict = {}
    for key, c in brute.items():
        e = kung_exponent(n, rfull, key)
        mapped[e] = mapped.get(e, 0) + c
    assert rhs == IntPoly([mapped.get(e, 0) for e in range(max(mapped) + 1)])
    assert lhs == rhs


def test_kung_substitution_is_injective_within_the_degree_bounds():
    for n in range(7):
        for rfull in range(n + 1):
            top, null = range(rfull + 1), range(n - rfull + 1)
            keys = list(product(top, null, top, null))
            powers = {kung_exponent(n, rfull, key) for key in keys}
            assert len(powers) == len(keys), (n, rfull)


def test_matiyasevich_kinds_pass_at_the_table_guard():
    # K7 minus one edge has 20 edges, the most TABLE_GUARD admits
    g = MultiGraph(7, complete_graph(7).edges[:-1])
    assert len(g.edges) == duality.TABLE_GUARD
    for kind in ("matiyasevich", "matiyasevich-inverse"):
        assert verify_identity(kind, g).passed, kind
