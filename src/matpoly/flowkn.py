"""Flow polynomial of the complete graph K_n, three ways.

The fast route sums over integer partitions of n.  A partition
lambda = (l_1 <= ... <= l_k) stands for the vertex partitions of K_n
with those block sizes; every block of K_n is automatically connected,
there are

    f(lambda) = n! / (prod_i l_i! * prod_j mult_j!)

set partitions with that shape (mult_j = multiplicity of each distinct
part), the edges inside blocks number s(lambda) = sum_i C(l_i, 2), and
the quotient is K_k whose chromatic polynomial is the falling factorial
x(x-1)...(x-k+1).  Hence

    F_{K_n}(x) = (-1)^C(n,2) x^(-n) * sum_lambda f(lambda)
                 (1-x)^s(lambda) * x(x-1)...(x-len(lambda)+1).

Partitions sharing (s, len) are grouped into classes first, then the
outer sum runs by descending s as a Horner scheme in (1-x), so the big
polynomial multiplications are all by a binomial.

The second route reads the same number off an exponential generating
function: with g(z) = sum_{i<=n} z^i/i! (1-x)^C(i,2),

    F_{K_n}(x) = (-1)^C(n,2) x^(-n) * n! [z^n] g(z)^x,

where g^x = exp(x log g) is computed with truncated series that store
i! [z^i] as integer polynomials.  In that scaling log and exp are
binomial recurrences with no division, so n! [z^n] is integral by
construction; its divisibility by x^n is checked, not assumed.

The third route (for benchmarking the claim that it loses) goes through
the subset census of the cycle matroid of K_n under a time budget.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, prod
from time import monotonic

from .algebra import (
    IntPoly,
    PolySeries,
    exact_div_monomial,
    falling_factorial,
    series_exp,
    series_log,
)
from .errors import BadParams
from .graphs import complete_graph
from .invariants import _chi_from_counts, flow_poly
from .matroids import make_graphic


def partitions(n: int):
    """Yield the integer partitions of n as ascending tuples.

    Iterative successor rule on ascending compositions (no recursion);
    the single partition of 0 is the empty tuple.
    """
    if n < 0:
        raise BadParams("partitions of a negative integer")
    if n == 0:
        yield ()
        return
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        l = k + 1
        while x <= y:
            a[k] = x
            a[l] = y
            yield tuple(a[: k + 2])
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield tuple(a[: k + 1])


def partition_count(n: int) -> int:
    """p(n), counted by full enumeration."""
    return sum(1 for _ in partitions(n))


def set_partition_count(parts) -> int:
    """Number of set partitions of an n-set with the given block sizes,
    in any order: n! / (prod part! * prod multiplicity!)."""
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise BadParams("block sizes must be positive")
    denom = prod(factorial(p) for p in parts)
    denom *= prod(factorial(c) for c in Counter(parts).values())
    return factorial(sum(parts)) // denom


def partition_classes(n: int) -> dict:
    """Aggregate set-partition counts of an n-set by the class key
    (s, l) = (edges inside blocks of K_n, number of blocks):
    out[(s, l)] = sum of f(lambda) over partitions with that key."""
    if n < 0:
        raise BadParams("needs n >= 0")
    fact = [factorial(i) for i in range(n + 1)]
    out: dict = {}
    for parts in partitions(n):
        s = 0
        denom = 1
        run = 0
        prev = None
        for p in parts:
            s += p * (p - 1) // 2
            denom *= fact[p]
            if p == prev:
                run += 1
            else:
                denom *= fact[run]
                prev, run = p, 1
        denom *= fact[run]
        key = (s, len(parts))
        out[key] = out.get(key, 0) + fact[n] // denom
    return out


def flow_kn_partitions(n: int) -> IntPoly:
    """F_{K_n} by the grouped partition sum (see module docstring)."""
    if n < 1:
        raise BadParams("flow_kn wants n >= 1")
    classes = partition_classes(n)
    by_s: dict = {}
    for (s, l), w in classes.items():
        by_s.setdefault(s, {})[l] = w

    ff = [falling_factorial(l).coeffs for l in range(n + 1)]

    acc: list = []
    for s in range(max(by_s), -1, -1):
        if acc:  # acc *= (1 - x)
            new = [0] * (len(acc) + 1)
            for i, a in enumerate(acc):
                new[i] += a
                new[i + 1] -= a
            acc = new
        grp = by_s.get(s)
        if grp:
            for l, w in grp.items():
                coeffs = ff[l]
                if len(acc) < len(coeffs):
                    acc.extend([0] * (len(coeffs) - len(acc)))
                for i, a in enumerate(coeffs):
                    acc[i] += w * a
    poly = IntPoly(acc)
    if comb(n, 2) % 2:
        poly = -poly
    return exact_div_monomial(poly, n)


def flow_kn_egf(n: int) -> IntPoly:
    """F_{K_n} from the exponential generating function:
    (-1)^C(n,2) x^(-n) n! [z^n] exp(x * log g(z)) with
    g(z) = sum_{i<=n} z^i/i! (1-x)^C(i,2).

    The series hold i! [z^i], so n! [z^n] is read off directly and is an
    integer polynomial by construction; divisibility by x^n is verified."""
    if n < 1:
        raise BadParams("flow_kn wants n >= 1")
    g = PolySeries(n, [IntPoly((1, -1)) ** comb(i, 2) for i in range(n + 1)])
    x_lg = series_log(g).map_coeffs(lambda c: c.shift(1))  # multiply by x
    poly = series_exp(x_lg).coeff(n)
    if comb(n, 2) % 2:
        poly = -poly
    return exact_div_monomial(poly, n)


def flow_kn_tutte(n: int, budget_s: float | None = None) -> IntPoly:
    """F_{K_n} through the 2^|E| subset census of the cycle matroid.

    Without a budget this delegates to flow_poly and inherits its size
    guard.  With a budget the census runs under a deadline instead of a
    size guard and raises BudgetExceeded when time runs out; the point of
    this route is to demonstrate how quickly brute force loses to the
    partition sum, so it must be allowed to try and fail."""
    if n < 1:
        raise BadParams("flow_kn wants n >= 1")
    g = complete_graph(n)
    if budget_s is None:
        return flow_poly(g)
    deadline = monotonic() + budget_s
    m = make_graphic(g)
    counts = m.dual().rank_size_counts(deadline=deadline)
    return _chi_from_counts(counts, len(g.edges) - (n - 1))


def leading_binomial_check(f: IntPoly, n_choices: int, count: int) -> bool:
    """True when the top ``count`` coefficients of f alternate through
    the binomials: coefficient of x^(deg-k) equals (-1)^k C(n_choices, k)
    for k = 0 .. count-1."""
    if n_choices < 0 or count < 0:
        raise BadParams("needs nonnegative arguments")
    if count > f.degree + 1:
        raise BadParams("asked for more leading coefficients than f has")
    d = f.degree
    return all(
        f.coeffs[d - k] == (-1 if k % 2 else 1) * comb(n_choices, k)
        for k in range(count)
    )
