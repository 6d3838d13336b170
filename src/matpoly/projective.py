"""Closed forms for projective geometries PG(n-1, q) over prime fields.

The characteristic polynomial of PG(n-1, q) factors completely:

    chi(x) = (x - 1)(x - q)...(x - q^(n-1)),

and two dual objects have closed forms as sums over the Gaussian
binomials (n choose k)_q.  Writing [k] = (q^k - 1)/(q - 1) for the number
of points of PG(k-1, q):

    chi of the dual:
        chi*(x) = (-1)^[n] x^(-n) * sum_k (n choose k)_q (1-x)^[k]
                  * prod_{i=0}^{n-k-1} (x - q^i)

    Tutte polynomial, built directly in x and y:
        T(x, y) = (y-1)^(-n) * sum_k (n choose k)_q y^[k]
                  * prod_{i=0}^{n-k-1} ((x-1)(y-1) - q^i)

All three take prod_{i<m} (u - q^i) from one list, ``_q_products``; T
reads it in u = (x-1)(y-1).  chi* ends in algebra's Theorem-2 sum and
finish.  T's k-sum fills one dense y-column per x-degree, each divided by
(y-1)^n in n passes of synthetic division; divisibility is checked, not
assumed.

Gaussian binomials come, one row per closed form, from the q-Pascal
recurrence (n k)_q = (n-1 k-1)_q + q^k (n-1 k)_q, which stays in integers.
"""

from __future__ import annotations

from itertools import accumulate

from .algebra import BiPoly, IntPoly, _one_minus_x_sum, _signed_div
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
    return _gaussian_row(n, q)[k] if 0 <= k <= n else 0


def _gaussian_row(n: int, q: int) -> list[int]:
    """(n k)_q for k = 0..n."""
    row = [1]  # row for m = 0
    for m in range(1, n + 1):
        prev = row
        row = [1] * (m + 1)
        for j in range(1, m):
            row[j] = prev[j - 1] + q**j * prev[j]
    return row


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


def _q_products(n: int, q: int) -> list[IntPoly]:
    """(x-1)(x-q)...(x-q^(m-1)) for m = 0..n, each the last times one
    factor."""
    out = [IntPoly.one()]
    for i in range(n):
        out.append(out[-1] * IntPoly((-(q**i), 1)))
    return out


def chi_pg(n: int, q: int) -> IntPoly:
    """chi of PG(n-1, q): the product (x-1)(x-q)...(x-q^(n-1))."""
    _check_pg_params(n, q)
    return _q_products(n, q)[n]


def chi_pg_dual(n: int, q: int) -> IntPoly:
    """chi of the dual of PG(n-1, q), by the Gaussian-binomial sum."""
    _check_pg_params(n, q)
    prods = _q_products(n, q)
    groups = {
        points_count(k, q): prods[n - k].scale(gb)
        for k, gb in enumerate(_gaussian_row(n, q))
    }
    return _signed_div(_one_minus_x_sum(groups), points_count(n, q), n)


def _w_table(p: IntPoly) -> list[list[int]]:
    """p((x-1)(y-1)) for p != 0 as a dense table w[a][b] of the
    coefficients of x^a y^b: each term c u^j of p adds c times the
    binomial row of (x-1)^j in x times the same row in y."""
    w = [[0] * len(p.coeffs) for _ in p.coeffs]
    row = [1]  # the binomial row of (x-1)^j
    for c in p.coeffs:
        for a, ra in enumerate(row):
            wa, cra = w[a], c * ra
            for b, rb in enumerate(row):
                wa[b] += cra * rb
        row = [p - r for p, r in zip([0] + row, row + [0])]
    return w


def tutte_pg(n: int, q: int) -> BiPoly:
    """Tutte polynomial of PG(n-1, q) from the Gaussian-binomial sum:
    the k-term, ``_w_table(prods[n - k])`` times (n choose k)_q y^[k], is
    added into n+1 dense y-columns, one per x-degree, and each column is
    divided by (y-1)^n; a nonzero remainder raises NotDivisible."""
    _check_pg_params(n, q)
    cols = [[0] * (points_count(n, q) + 1) for _ in range(n + 1)]
    prods = _q_products(n, q)
    for k, gb in enumerate(_gaussian_row(n, q)):
        top = points_count(k, q)
        for i, row in enumerate(_w_table(prods[n - k])):
            col = cols[i]
            for j, v in enumerate(row, top):
                col[j] += gb * v
    terms: dict = {}
    for i, col in enumerate(cols):
        for _ in range(n):
            # suffix sums: col[j] becomes the sum of col[j:], so col[0] is
            # the value at y = 1 (the remainder) and col[1:] the quotient
            col = list(accumulate(reversed(col)))[::-1]
            if col[0]:
                raise NotDivisible(
                    f"the x^{i} column of the PG sum lacks the (y-1)^{n} factor"
                )
            del col[0]
        for j, c in enumerate(col):
            if c:
                terms[(i, j)] = c
    return BiPoly(terms)
