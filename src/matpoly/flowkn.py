"""Flow polynomial of the complete graph K_n, three ways.

The fast route sums over the integer partitions of n.  A partition
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

Only the class of lambda, the key (s, l) = (s, len), enters the sum,
so the partitions are never listed: ``partition_classes`` gets the
total W(s, l) of f(lambda) over every class from a DP over block sizes
(about 18k nonzero classes against p(60) = 966,467 partitions at
n = 60) and returns it as one row Q_l(t) = sum_s W(s, l) t^s per block
count l.  The outer sum runs in t = 1-x, where the falling factorial is
prod_{j<l} (1-j-t): a Horner scheme over l, acc <- Q_l + (1-l-t) acc,
takes small-int steps on coefficients of a few hundred bits, and one
Taylor shift (``substitute_one_minus_x``) carries the sum back to x.
``partitions`` and the two counts below it stay as the simple oracles
the DP is tested against.

The second route reads the same number off an exponential generating
function: with g(z) = sum_{i<=n} z^i/i! (1-x)^C(i,2),

    F_{K_n}(x) = (-1)^C(n,2) x^(-n) * n! [z^n] g(z)^x,

where g^x = exp(x log g) is computed with truncated series that store
i! [z^i] as integer polynomials.  In that scaling log and exp are
binomial recurrences with no division, so n! [z^n] is integral by
construction.  Both routes end in algebra's Theorem-2 finish, which
checks that x^n divides.

The third route (for benchmarking the claim that it loses) is the subset
census of the cycle matroid of K_n by the shared span-folding scan over
edge subsets (``Matroid._scan``), guarded or under a deadline.
"""

from __future__ import annotations

from collections import Counter
from itertools import zip_longest
from math import comb, factorial, prod
from time import monotonic

from .algebra import (
    IntPoly,
    PolySeries,
    _signed_div,
    series_exp,
    series_log,
    substitute_one_minus_x,
)
from .errors import BadParams
from .graphs import complete_graph
from .invariants import _chi_from_counts, _guard
from .matroids import Matroid, _dual_counts, make_graphic


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


def _place_blocks(tables: list, r: int, i: int) -> dict:
    """Place the blocks of size i into the states of tables[r], in
    place: k of them are taken from the r + k*i free elements of a
    state in tables[r + k*i], in prod_{t=1..k} C(r + t*i, i) / k! ways,
    adding k*C(i, 2) to s and k to l.  With r ascending no later
    destination of the layer reads tables[r]."""
    base = len(tables)
    step = comb(i, 2) * base + 1
    out = tables[r]  # k = 0: no block placed, no shift
    get = out.get
    ways = 1
    for k in range(1, (base - 1 - r) // i + 1):
        ways = ways * comb(r + k * i, i) // k
        shift = k * step
        for key, w in tables[r + k * i].items():
            key += shift
            out[key] = get(key, 0) + w * ways
    return out


def partition_classes(n: int) -> list:
    """Set-partition counts of an n-set by class (s, l) = (edges inside
    blocks of K_n, number of blocks), as the Horner rows
    rows[l][s] = W(s, l) = sum of f(lambda) over partitions with that
    class, for l = 0 .. n and s = 0 .. min(C(n-l+1, 2), C(n, 2)).

    A DP over block sizes, so the p(n) partitions are never listed.  A
    state is (free elements r, packed key s*(n+1) + l); its weight
    counts the ways to choose the blocks placed so far.  Sizes
    i = n .. 3 are placed in turn (``_place_blocks``), and the r elements
    left at the end close into k pairs and r - 2k singletons in
    r! / ((r-2k)! 2^k k!) ways, adding (k, r - k) to (s, l), into one
    dense list indexed by the packed key whose stride-(n+1) slices are
    the rows."""
    if n < 0:
        raise BadParams("needs n >= 0")
    base = n + 1
    tables: list = [{} for _ in range(n)] + [{0: 1}]  # tables[r]: {key: weight}
    for i in range(n, 3, -1):
        for r in range(base):
            _place_blocks(tables, r, i)
    # The last layer (size 3) is closed as each r completes, never stored.
    fact = [factorial(i) for i in range(base)]
    out = [0] * ((comb(n, 2) + 1) * base)
    for r in range(base):
        src = _place_blocks(tables, r, 3)
        tables[r] = None
        for key, w in src.items():  # k = 0: r singletons, one way
            out[key + r] += w
        for k in range(1, r // 2 + 1):
            ways = fact[r] // (fact[r - 2 * k] * fact[k] * 2**k)
            shift = k * base + r - k
            for key, w in src.items():
                out[key + shift] += w * ways
    return [out[l : (comb(n - l + 1, 2) + 1) * base : base] for l in range(base)]


def flow_kn_partitions(n: int) -> IntPoly:
    """F_{K_n} by the grouped partition sum (see module docstring)."""
    if n < 1:
        raise BadParams("flow_kn wants n >= 1")
    rows = partition_classes(n)
    # Horner over l in t = 1 - x: acc <- Q_l + (1 - l - t) * acc
    acc = rows.pop()
    for l in range(n - 1, -1, -1):
        acc = [
            q + (1 - l) * a - b
            for q, a, b in zip_longest(rows.pop(), acc + [0], [0] + acc, fillvalue=0)
        ]
    return _signed_div(substitute_one_minus_x(IntPoly(acc)), comb(n, 2), n)


def flow_kn_egf(n: int) -> IntPoly:
    """F_{K_n} from the exponential generating function (see module
    docstring)."""
    if n < 1:
        raise BadParams("flow_kn wants n >= 1")
    g = PolySeries(n, [IntPoly((1, -1)) ** comb(i, 2) for i in range(n + 1)])
    x_lg = series_log(g).map_coeffs(lambda c: c.shift(1))  # multiply by x
    return _signed_div(series_exp(x_lg).coeff(n), comb(n, 2), n)


def flow_kn_tutte(n: int, budget_s: float | None = None) -> IntPoly:
    """F_{K_n} through the 2^|E| subset census of the cycle matroid, by
    the scan over edge subsets, ``Matroid._census``.  The budget sets only
    a deadline: without one the scan is refused past 24 edges like every
    census; with one it may try any n and raises BudgetExceeded when time
    runs out, to show how quickly brute force loses to the partition sum."""
    if n < 1:
        raise BadParams("flow_kn wants n >= 1")
    m = make_graphic(complete_graph(n))
    if budget_s is None:
        _guard(m)
    deadline = None if budget_s is None else monotonic() + budget_s
    counts = _dual_counts(Matroid._census(m, deadline), m.ground_size, n - 1)
    return _chi_from_counts(counts, m.ground_size - (n - 1))


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
