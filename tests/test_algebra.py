"""Unit tests for the exact polynomial arithmetic layer."""

import random
from fractions import Fraction
from math import comb

import pytest

from matpoly import BadConstantTerm, BadParams, NotDivisible
from matpoly.algebra import (
    BiPoly,
    IntPoly,
    PolySeries,
    exact_div_monomial,
    falling_factorial,
    poly_pow,
    series_exp,
    series_log,
    substitute_one_minus_x,
)

X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})


def rand_poly(rng, max_deg=6, bound=9):
    return IntPoly(tuple(rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))))


def test_trailing_zeros_are_stripped():
    assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
    assert IntPoly((0, 0, 0)) == IntPoly(())
    assert IntPoly(()).degree == -1
    assert IntPoly((0, 0, 5)).degree == 2


def test_zero_polynomial_conventions():
    z = IntPoly.zero()
    p = IntPoly((3, 1))
    assert z + p == p
    assert z * p == z
    assert p - p == z
    assert z(7) == 0
    assert not z
    assert p


def test_addition_and_subtraction():
    p = IntPoly((1, 2, 3))
    q = IntPoly((5, -2))
    assert p + q == IntPoly((6, 0, 3))
    assert p - q == IntPoly((-4, 4, 3))
    assert (p + q) - q == p


def test_multiplication_known_product():
    # (x - 1)(x + 1) = x^2 - 1
    assert IntPoly((-1, 1)) * IntPoly((1, 1)) == IntPoly((-1, 0, 1))


def test_pow_matches_repeated_multiplication():
    rng = random.Random(414001)
    for _ in range(25):
        p = rand_poly(rng, max_deg=3, bound=4)
        e = rng.randint(0, 5)
        naive = IntPoly.one()
        for _ in range(e):
            naive = naive * p
        assert p**e == naive
        assert poly_pow(p, e) == naive
    with pytest.raises(BadParams):
        poly_pow(IntPoly((1, 1)), -1)


def test_pow_of_two_term_base_is_binomial_row():
    # poly_pow builds (c0 + c1 x)^k as a row of binomials; check it
    # against repeated IntPoly.__mul__, including c0 = 0 and big ints
    rng = random.Random(414007)
    big = [3**70, -(2**90) + 1, 10**40 + 7]
    small = list(range(-3, 4))
    for _ in range(60):
        c0 = rng.choice(small + big)
        c1 = rng.choice([c for c in small + big if c])
        p = IntPoly((c0, c1))
        naive = IntPoly.one()
        for k in range(41):
            assert poly_pow(p, k) == naive, (c0, c1, k)
            naive = naive * p
    for c0 in (0, 1, -1):
        with pytest.raises(BadParams):
            poly_pow(IntPoly((c0, 1)), -1)
    # a three-term base still goes through repeated squaring
    t = IntPoly((1, 2, 3))
    assert poly_pow(t, 7) == t * t * t * t * t * t * t
    assert poly_pow(t, 0) == IntPoly.one()


def test_eval_horner_matches_term_sum():
    rng = random.Random(414002)
    for _ in range(40):
        p = rand_poly(rng)
        x = rng.randint(-10, 10)
        assert p(x) == sum(c * x**i for i, c in enumerate(p.coeffs))
        xf = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert p(xf) == sum(c * xf**i for i, c in enumerate(p.coeffs))


def test_distributive_laws_random():
    rng = random.Random(414003)
    for _ in range(30):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_scale_shift_monomial():
    p = IntPoly((1, 1))
    assert p.scale(3) == IntPoly((3, 3))
    assert p.shift(2) == IntPoly((0, 0, 1, 1))
    assert IntPoly.monomial(-2, 4) == IntPoly((0, 0, 0, 0, -2))
    assert IntPoly.monomial(1, 0) == IntPoly.one()
    with pytest.raises(BadParams):
        IntPoly.monomial(1, -1)


def test_str_descending_powers():
    assert str(IntPoly((2, -3, 1))) == "x^2 - 3x + 2"
    assert str(IntPoly(())) == "0"
    assert str(IntPoly((-5,))) == "-5"
    assert str(IntPoly((0, 1))) == "x"
    assert str(IntPoly((0, 0, -1))) == "-x^2"
    assert str(IntPoly((1, 2))) == "2x + 1"


def test_str_matches_pinned_strings_of_seeded_polynomials():
    # verify reports, NotDivisible messages and the README print these
    # strings, so both classes must keep them byte for byte
    fixed = [
        (IntPoly(()), "0"),
        (IntPoly((7,)), "7"),
        (IntPoly((-1,)), "-1"),
        (IntPoly((1,)), "1"),
        (IntPoly((0, -1)), "-x"),
        (IntPoly((-1, -1)), "-x - 1"),
        (IntPoly((3, 0, -1)), "-x^2 + 3"),
        (IntPoly((0, 0, 1, -12)), "-12x^3 + x^2"),
        (BiPoly(), "0"),
        (BiPoly({(0, 0): 1}), "1"),
        (BiPoly({(0, 0): -4}), "-4"),
        (BiPoly({(1, 0): -1}), "-x"),
        (BiPoly({(0, 1): 1}), "y"),
        (BiPoly({(1, 1): -1, (0, 0): 1}), "-x*y + 1"),
        (BiPoly({(2, 3): 5, (0, 1): -1, (1, 0): 1}), "5x^2*y^3 + x - y"),
    ]
    for p, want in fixed:
        assert str(p) == want, p
    rng = random.Random(2727)
    coeffs = (-3, -2, -1, -1, 0, 0, 1, 1, 2, 17)
    ints = [
        IntPoly(rng.choice(coeffs) for _ in range(rng.randint(0, 6))) for _ in range(12)
    ]
    bis = [
        BiPoly(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.choice((-3, -1, 1, 2, 11))
                for _ in range(rng.randint(0, 5))
            }
        )
        for _ in range(8)
    ]
    assert [str(p) for p in ints] == [
        'x + 1',
        '0',
        '0',
        '0',
        'x^2 - 3x - 3',
        '-3x',
        '2',
        '-2x^2 - x + 17',
        '-3x^2 - x + 2',
        '-3x^4 - 2x^3 - x^2 + 17x + 2',
        '17x^3 - 2x^2 - x - 3',
        '-2x^2 - x + 17',
    ]
    assert [str(p) for p in bis] == [
        '-x^3*y^2 - x^2*y^3 - x^2*y',
        '0',
        '-3x^2*y',
        '2x*y^2 + 11x',
        '2x - 1',
        '11x^3*y + 11y',
        '-x*y^2',
        '11x^2*y^2 + 2x^2 - 3y^3',
    ]


def test_exact_div_monomial():
    p = IntPoly((0, 0, 4, -2))
    assert exact_div_monomial(p, 2) == IntPoly((4, -2))
    assert exact_div_monomial(IntPoly.zero(), 5) == IntPoly.zero()
    with pytest.raises(NotDivisible):
        exact_div_monomial(IntPoly((1, 2)), 1)
    with pytest.raises(NotDivisible):
        exact_div_monomial(IntPoly((0, 1)), 2)


def test_pack_unpack_roundtrip_signed():
    rng = random.Random(4242)
    polys = [IntPoly(), IntPoly((-1,)), IntPoly((0, 0, -3)), IntPoly((2**40, -(2**40) + 1))]
    for _ in range(50):
        polys.append(IntPoly(rng.randint(-1000, 1000) for _ in range(rng.randint(0, 8))))
    for p in polys:
        top = max(map(abs, p.coeffs), default=0)
        w = top.bit_length() + 1
        assert p.pack(w) == sum(c << w * i for i, c in enumerate(p.coeffs))
        assert IntPoly.unpack(p.pack(w), w) == p
    # packed values add like the polynomials
    a, b = IntPoly((5, -9, 0, 3)), IntPoly((-6, 9, 1))
    assert IntPoly.unpack(a.pack(6) + b.pack(6), 6) == a + b


def test_falling_factorial_values():
    assert falling_factorial(0) == IntPoly.one()
    assert falling_factorial(1) == IntPoly((0, 1))
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert falling_factorial(3) == IntPoly((0, 2, -3, 1))
    for k in range(6):
        for x in range(-3, 7):
            expect = 1
            for i in range(k):
                expect *= x - i
            assert falling_factorial(k)(x) == expect
    with pytest.raises(BadParams):
        falling_factorial(-1)


def test_bipoly_basics():
    t = (X - BiPoly.const(1)) * (Y - BiPoly.const(1))
    assert t.terms[(1, 1)] == 1
    assert t.terms[(0, 0)] == 1
    assert t.terms[(1, 0)] == -1
    # zero coefficients are never stored
    assert (t - t).terms == {}
    assert BiPoly({(2, 0): 0}).terms == {}
    assert t.substitute(IntPoly.const(3), IntPoly.const(5)) == IntPoly.const((3 - 1) * (5 - 1))


def test_bipoly_swap_vars():
    p = X * X + BiPoly.const(2) * Y
    assert p.swap_vars() == Y * Y + BiPoly.const(2) * X


def test_bipoly_substitute_into_single_variable():
    p = X * Y + X + BiPoly.const(1)
    px = IntPoly((1, 1))   # x -> 1 + z
    py = IntPoly((0, 2))   # y -> 2z
    got = p.substitute(px, py)
    for z in range(-4, 5):
        assert got(z) == (1 + z) * (2 * z) + (1 + z) + 1


def test_substitute_one_minus_x_matches_bipoly_substitution():
    one_minus_x = IntPoly((1, -1))
    rng = random.Random(414008)
    polys = [IntPoly(), IntPoly.const(7), IntPoly.const(-3), IntPoly((2, 5))]
    polys += [IntPoly((0, -1))] + [rand_poly(rng, 12, 10**6) for _ in range(40)]
    for p in polys:
        as_bipoly = BiPoly({(i, 0): c for i, c in enumerate(p.coeffs)})
        want = as_bipoly.substitute(one_minus_x, IntPoly())
        got = substitute_one_minus_x(p)
        assert got == want, p
        # x -> 1 - x is an involution
        assert substitute_one_minus_x(got) == p, p


def rand_series(rng, order, const):
    return PolySeries(order, [const] + [rand_poly(rng, 2, 6) for _ in range(order)])


def test_series_log_exp_roundtrip():
    rng = random.Random(414005)
    order = 8
    for _ in range(10):
        g = rand_series(rng, order, IntPoly.one())
        assert series_exp(series_log(g)) == g


def test_series_log_counts_connected_graphs():
    # i! [z^i] of sum_i 2^C(i,2) z^i/i! counts labelled graphs on i
    # vertices; its log counts the connected ones (OEIS A001187).
    g = PolySeries(7, [IntPoly.const(2 ** comb(i, 2)) for i in range(8)])
    connected = [0, 1, 1, 4, 38, 728, 26704, 1866256]
    assert series_log(g) == PolySeries(7, [IntPoly.const(c) for c in connected])


def test_series_exp_turns_sums_into_products():
    rng = random.Random(414006)
    order = 7
    for _ in range(10):
        a = rand_series(rng, order, IntPoly())
        b = rand_series(rng, order, IntPoly())
        assert series_exp(a + b) == series_exp(a) * series_exp(b)


def test_series_log_requires_unit_constant_term():
    with pytest.raises(BadConstantTerm):
        series_log(PolySeries(2, [IntPoly.const(2), IntPoly.one()]))


def test_series_exp_requires_zero_constant_term():
    with pytest.raises(BadConstantTerm):
        series_exp(PolySeries(2, [IntPoly.one(), IntPoly.one()]))


def test_series_truncation_alignment():
    a = PolySeries(5, [IntPoly.one(), IntPoly.const(2)])
    b = PolySeries(3, [IntPoly.one()])
    assert (a * b).order == 3
    assert (a + b).order == 3
