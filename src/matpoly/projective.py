"""Closed forms for projective geometries PG(n-1, q) over prime fields.

The characteristic polynomial of PG(n-1, q) factors completely:

    chi(x) = (x - 1)(x - q)...(x - q^(n-1)),

and two dual objects have closed forms as sums over the Gaussian
binomials (n choose k)_q.  Writing [k] = (q^k - 1)/(q - 1) for the number
of points of PG(k-1, q):

    chi of the dual:
        chi*(x) = (-1)^[n] x^(-n) * sum_k (n choose k)_q (1-x)^[k]
                  * prod_{i=0}^{n-k-1} (x - q^i)

    Tutte polynomial, computed in shifted coordinates a = x-1, b = y-1:
        T(x, y) = b^(-n) * sum_k (n choose k)_q (1+b)^[k]
                  * prod_{i=0}^{n-k-1} (a*b - q^i)

    The k-sum is exactly divisible by b^n, and expanding a = x-1,
    b = y-1 afterwards recovers T as a polynomial with integer
    coefficients.  Divisibility is checked, never assumed.

Gaussian binomials come from the q-Pascal recurrence
(n k)_q = (n-1 k-1)_q + q^k (n-1 k)_q, which stays in integers.
"""

from __future__ import annotations

from .algebra import BiPoly, IntPoly, exact_div_monomial, poly_pow
from .errors import BadParams, NotDivisible
from .matroids import is_prime


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """(n choose k)_q by the q-Pascal recurrence; exact integer.

    Zero outside 0 <= k <= n, like math.comb.
    """
    if q < 2:
        raise BadParams("gaussian binomial wants q >= 2")
    if n < 0:
        raise BadParams("gaussian binomial wants n >= 0")
    if k < 0 or k > n:
        return 0
    row = [1]  # row for m = 0
    for m in range(1, n + 1):
        prev = row
        row = [1] * (m + 1)
        for j in range(1, m):
            row[j] = prev[j - 1] + q**j * prev[j]
    return row[k]


def _check_pg_params(n: int, q: int):
    if n < 1:
        raise BadParams("projective geometry wants n >= 1")
    if not is_prime(q):
        raise BadParams(f"prime field order required, got {q}")


def points_count(n: int, q: int) -> int:
    """Number of points of PG(n-1, q): (q^n - 1)/(q - 1).

    n = 0 (the empty geometry, 0 points) is allowed here because the
    dual closed form sums over it.
    """
    if n < 0:
        raise BadParams("points_count wants n >= 0")
    if not is_prime(q):
        raise BadParams(f"prime field order required, got {q}")
    return (q**n - 1) // (q - 1)


def _q_product(m: int, q: int) -> IntPoly:
    """(x-1)(x-q)...(x-q^(m-1)); the empty product (m = 0) is 1."""
    out = IntPoly.one()
    for i in range(m):
        out = out * IntPoly((-(q**i), 1))
    return out


def chi_pg(n: int, q: int) -> IntPoly:
    """chi of PG(n-1, q): the product (x-1)(x-q)...(x-q^(n-1))."""
    _check_pg_params(n, q)
    return _q_product(n, q)


def chi_pg_dual(n: int, q: int) -> IntPoly:
    """chi of the dual of PG(n-1, q), by the Gaussian-binomial sum."""
    _check_pg_params(n, q)
    one_minus_x = IntPoly((1, -1))
    acc = IntPoly.zero()
    for k in range(n + 1):
        term = poly_pow(one_minus_x, points_count(k, q)) * _q_product(n - k, q)
        acc = acc + term.scale(gaussian_binomial(n, k, q))
    if points_count(n, q) % 2:
        acc = -acc
    return exact_div_monomial(acc, n)


def tutte_pg(n: int, q: int) -> BiPoly:
    """Tutte polynomial of PG(n-1, q) from the shifted-coordinate sum.

    Work with monomials a^i b^j for a = x-1, b = y-1.  Each k-term is a
    polynomial in w = a*b (the product over i of (a*b - q^i)) times a
    binomial expansion of (1+b)^[k], so its monomials are a^i b^(i+t).
    After summing, every monomial must carry b^n; divide, then translate
    by (-1, -1) to return to x and y.
    """
    _check_pg_params(n, q)
    shifted: dict = {}
    for k in range(n + 1):
        gb = gaussian_binomial(n, k, q)
        wpoly = _q_product(n - k, q).coeffs  # dense over w = a*b
        binom = poly_pow(IntPoly((1, 1)), points_count(k, q))  # (1+b)^[k]
        for d, cw in enumerate(wpoly):
            if not cw:
                continue
            for t, cb in enumerate(binom.coeffs):
                if not cb:
                    continue
                key = (d, d + t)
                v = shifted.get(key, 0) + gb * cw * cb
                if v:
                    shifted[key] = v
                elif key in shifted:
                    del shifted[key]
    quotient: dict = {}
    for (i, j), c in shifted.items():
        if j < n:
            raise NotDivisible(
                f"monomial a^{i} b^{j} of the PG sum lacks the b^{n} factor"
            )
        quotient[(i, j - n)] = c
    return BiPoly(quotient).translate(-1, -1)
