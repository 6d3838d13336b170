"""Unit tests for the projective-geometry closed forms."""

import signal
from itertools import product
from math import comb, factorial, prod

import pytest

from matpoly import BadParams, NotDivisible, TooLarge, projective
from matpoly.algebra import BiPoly, IntPoly
from matpoly.duality import chi_dual_via_finaltwo
from matpoly.invariants import chi_subset, tutte
from matpoly.matroids import make_pg
from matpoly.oracles import flats_of_rank
from matpoly.projective import (
    chi_pg,
    chi_pg_dual,
    gaussian_binomial,
    points_count,
    tutte_pg,
)

from corpus import PG_PARAMS


def gaussian_binomial_symbolic(n, k):
    """(n choose k)_q as a polynomial in q, built from the product
    formula with exact polynomial division at integer sample points.
    Used to cross-check values without sharing code with the library."""
    # evaluate prod_{i=0..k-1} (q^(n-i) - 1)/(q^(i+1) - 1) at integer q
    def at(q):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        assert num % den == 0
        return num // den

    return at


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(5, 5, 7) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    for n in range(0, 7):
        for k in range(0, n + 1):
            for q in (2, 3, 5):
                assert gaussian_binomial(n, k, q) == gaussian_binomial_symbolic(n, k)(q)


def test_gaussian_binomial_q_to_one_is_binomial():
    """The product formula degenerates to C(n, k) when every factor is
    replaced by its q -> 1 limit; check against Pascal's rule instead of
    plugging q = 1 in (which the integer form cannot do)."""
    # Pascal-style recurrence for Gaussian binomials:
    # (n k)_q = (n-1 k-1)_q + q^k (n-1 k)_q; induction gives C(n,k) at q=1,
    # so spot-check the recurrence itself holds for the implementation.
    for q in (2, 3, 5):
        for n in range(1, 8):
            for k in range(1, n + 1):
                lhs = gaussian_binomial(n, k, q)
                rhs = gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(
                    n - 1, k, q
                )
                assert lhs == rhs, (n, k, q)


def test_points_count():
    assert points_count(3, 2) == 7
    assert points_count(2, 3) == 4
    assert points_count(4, 3) == 40
    for n, q in PG_PARAMS:
        assert make_pg(n, q).ground_size == points_count(n, q)


def test_pg_lists_the_normalized_vectors_in_lexicographic_order():
    # the reference walks all p^n vectors and keeps those whose first
    # nonzero coordinate is 1
    pairs = ((1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (1, 5), (2, 3), (3, 3), (2, 5), (3, 7))
    for n, q in pairs:
        vectors = product(range(q), repeat=n)
        want = [v for v in vectors if any(v) and next(filter(None, v)) == 1]
        got = list(make_pg(n, q).vectors)
        assert got == want, (n, q)
        assert len(got) == points_count(n, q), (n, q)


def test_flat_counts_are_gaussian_binomials():
    for n, q in PG_PARAMS:
        m = make_pg(n, q)
        for k in range(n + 1):
            assert len(flats_of_rank(m, k)) == gaussian_binomial(n, k, q), (n, q, k)


def test_chi_pg_product_form_matches_subset_expansion():
    for n, q in PG_PARAMS:
        m = make_pg(n, q)
        assert chi_pg(n, q) == chi_subset(m), (n, q)
    # chi_PG(n-1,q) = prod_{i=0..n-1} (x - q^i), spot check the roots
    p = chi_pg(3, 2)
    for root in (1, 2, 4):
        assert p(root) == 0
    assert p(8) != 0


def test_chi_pg_dual_matches_dual_subset_expansion():
    for n, q in PG_PARAMS:
        m = make_pg(n, q)
        assert chi_pg_dual(n, q) == chi_subset(m.dual()), (n, q)
        assert chi_pg_dual(n, q) == chi_dual_via_finaltwo(m), (n, q)


def test_chi_pg_dual_fano_golden():
    assert chi_pg_dual(3, 2) == IntPoly((13, -28, 21, -7, 1))


def test_chi_pg_dual_larger_parameters_degree_and_top():
    # beyond brute-force range the degree and leading coefficients are
    # still forced: degree = points - n, top two alternate with |E|
    for n, q in ((4, 2), (4, 3), (5, 2)):
        npts = points_count(n, q)
        p = chi_pg_dual(n, q)
        assert p.degree == npts - n
        assert p.coeffs[-1] == 1
        assert p.coeffs[-2] == -npts


def test_chi_pg_dual_first_coefficient_past_the_binomials():
    # Whitney's broken-circuit law, sharpened: the dual of PG(n-1,q) has
    # girth g = q^(n-1), and its c_g = [n]_q smallest circuits are the
    # complements of the hyperplanes.  The coefficient of x^(deg-(g-1)) is
    # (-1)^(g-1) (C(points, g-1) - c_g).
    for n, q in ((3, 2), (4, 2), (3, 3), (5, 2), (4, 3), (6, 2), (8, 3)):
        p = chi_pg_dual(n, q)
        npts, g = points_count(n, q), q ** (n - 1)
        want = (-1) ** (g - 1) * (comb(npts, g - 1) - gaussian_binomial(n, 1, q))
        assert p.coeffs[p.degree - (g - 1)] == want, (n, q)


def test_tutte_pg_matches_census():
    for n, q in PG_PARAMS:
        assert tutte_pg(n, q) == tutte(make_pg(n, q)), (n, q)


def test_tutte_pg_specializes_to_both_chis():
    for n, q in PG_PARAMS + [(4, 2)]:
        t = tutte_pg(n, q)
        npts = points_count(n, q)
        # chi(z) = (-1)^n T(1-z, 0); chi_dual(z) = (-1)^(npts-n) T(0, 1-z)
        p = t.substitute(IntPoly((1, -1)), IntPoly.zero())
        if n % 2:
            p = -p
        assert p == chi_pg(n, q), (n, q)
        d = t.substitute(IntPoly.zero(), IntPoly((1, -1)))
        if (npts - n) % 2:
            d = -d
        assert d == chi_pg_dual(n, q), (n, q)


def test_tutte_pg_smallest_case_by_hand():
    # PG(1,2) is U_{2,3}: T = x^2 + x + y
    from matpoly.algebra import BiPoly

    assert tutte_pg(2, 2) == BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})


PAPER_SCALE = [(6, 3), (7, 3), (5, 5), (9, 2)]


def _at_one_minus(coeffs) -> IntPoly:
    """p(1 - z) for p with the given ascending coefficients, by Horner."""
    acc: list = []
    for c in reversed(coeffs):
        acc = [a - b for a, b in zip(acc + [0], [0] + acc)] or [0]
        acc[0] += c
    return IntPoly(acc)


def at(t, x, y):
    """t(x, y) at integers, term by term."""
    return sum(c * x**i * y**j for (i, j), c in t.terms.items())


@pytest.mark.parametrize("n,q", PAPER_SCALE)
def test_tutte_pg_paper_scale_counts_subsets_and_bases(n, q):
    # T(2, 2) = 2^|E|; T(1, 1) counts bases: ordered bases of F_q^n,
    # over the q - 1 vectors of each point and the n! orders
    t = tutte_pg(n, q)
    assert at(t, 2, 2) == 2 ** points_count(n, q)
    ordered = prod(q**n - q**i for i in range(n))
    assert ordered % ((q - 1) ** n * factorial(n)) == 0
    assert at(t, 1, 1) == ordered // ((q - 1) ** n * factorial(n))


@pytest.mark.parametrize("n,q", PAPER_SCALE)
def test_tutte_pg_paper_scale_specializes_to_both_chis(n, q):
    # chi(z) = (-1)^n T(1-z, 0); chi_dual(z) = (-1)^(npts-n) T(0, 1-z)
    t = tutte_pg(n, q)
    npts = points_count(n, q)
    row = [t.terms.get((i, 0), 0) for i in range(n + 1)]
    col = [t.terms.get((0, j), 0) for j in range(npts - n + 1)]
    p, d = _at_one_minus(row), _at_one_minus(col)
    assert (-p if n % 2 else p) == chi_pg(n, q)
    assert (-d if (npts - n) % 2 else d) == chi_pg_dual(n, q)


def test_tutte_pg_rejects_a_wrong_gaussian_binomial(monkeypatch):
    # one wrong (n choose k)_q leaves a sum that (y-1)^n does not divide
    real = projective._gaussian_row
    monkeypatch.setattr(
        projective,
        "_gaussian_row",
        lambda n, q: [c + (k == 1) for k, c in enumerate(real(n, q))],
    )
    with pytest.raises(NotDivisible):
        tutte_pg(6, 3)


def test_w_table_is_the_product_of_the_bilinear_factors():
    for q in (2, 3, 5):
        want = BiPoly.const(1)
        for m, p in enumerate(projective._q_products(6, q)):
            got = projective._w_table(p)
            assert len(got) == m + 1 and all(len(row) == m + 1 for row in got)
            terms = {(a, b): c for a, row in enumerate(got) for b, c in enumerate(row)}
            assert BiPoly(terms) == want, (m, q)
            want = want * BiPoly({(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1 - q**m})


def test_pg_closed_forms_build_each_q_product_once(monkeypatch):
    # prod_{i<m} (x - q^i) for every m from one running list: n products,
    # plus one per k in chi*'s (1-x)-sum, where building each m from
    # scratch took C(n+1, 2)
    calls = [0]
    real = IntPoly.__mul__

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(IntPoly, "__mul__", counted)
    for fn, n, q, most in ((chi_pg_dual, 8, 3, 17), (tutte_pg, 6, 3, 6)):
        calls[0] = 0
        fn(n, q)
        assert calls[0] <= most, (fn.__name__, calls[0])


def test_pg_parameter_validation():
    for fn in (chi_pg, chi_pg_dual, tutte_pg):
        with pytest.raises(BadParams):
            fn(0, 2)
        with pytest.raises(BadParams):
            fn(2, 6)
    # the point count alone extends to the empty geometry
    assert points_count(0, 2) == 0
    with pytest.raises(BadParams):
        points_count(-1, 2)
    with pytest.raises(BadParams):
        points_count(2, 6)


def test_closed_forms_refuse_over_2_to_the_16_points_at_once():
    # PG(10,3) has 88,573 points, PG(16,2) 131,071 and PG(39,2) about
    # 1.1e12; each closed form, and make_pg, must refuse them within 1 s,
    # before it builds q^n, a polynomial or a point
    def too_slow(*_):
        raise TimeoutError("the closed form ran before the guard refused it")

    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        for n, q in ((11, 3), (17, 2), (40, 2), (2, 2**61 - 1)):
            for fn in (chi_pg_dual, tutte_pg, make_pg):
                signal.setitimer(signal.ITIMER_REAL, 1.0)
                with pytest.raises(TooLarge):
                    fn(n, q)
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    # the bound admits 2^16 - 1 points, and every geometry below it
    for n, q in ((16, 2), (10, 3), (7, 5), (1, 2**61 - 1)):
        assert points_count(n, q) <= 1 << 16
        projective._pg_guard(n, q)
        assert make_pg(n, q).ground_size == points_count(n, q)
