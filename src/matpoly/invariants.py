"""Subset-expansion invariants of a matroid and their graph specializations.

All of these are different marginals of the same census: the number of
subsets A of the ground set with a given (|A|, r(A)) pair.  With E the
ground set, n = |E| and R = r(E):

    characteristic  chi(x)   = sum_A (-1)^|A| x^(R - r(A))
    Tutte           T(x, y)  = sum_A (x-1)^(R - r(A)) (y-1)^(|A| - r(A))
    Whitney rank    R(u, v)  = sum_A u^(R - r(A)) v^(|A| - r(A))

so T(x, y) = R(x-1, y-1), and ``tutte`` takes R to T through the one
Taylor-shift kernel, ``substitute_one_minus_x``.  The graph polynomials
are read off the same census of the cycle matroid: chromatic
P = x^c(G) * chi and flow F = chi of the dual.
Everything is exact integer arithmetic.

Each matroid class takes the census by its cheapest exact route (see
``matroids``, which holds every size rule): O(n) for uniform matroids,
3^|V'| steps for a graph with few vertices for its edges, one state per
span over F_2, and otherwise, where those do not fit, one scan,
``Matroid._scan``, that branches only on elements outside the span of
the taken ones.  Where ``census_route()`` is "scan" (F_p matroids off
the span DP, minor and table matroids and graphs on the scan route),
``chi_subset`` runs that scan with every fold cut, so that its leaf
counts only the no-broken-circuit sets.  ``chromatic_poly`` turns to
``chi_delcon`` only when ``chi_subset`` is refused.
``chi_delcon`` is the independent route used to cross-check
``chi_subset``: one delete/contract recursion for every class, on the
minors that ``restrict`` and ``contract`` build.  When the matroid is
graphic, each minor's result is memoized for one call on the minor's
graph: equal labeled graphs have equal cycle matroids.
"""

from __future__ import annotations

from math import comb

from .algebra import BiPoly, IntPoly, poly_pow, substitute_one_minus_x
from .errors import BadParams, TooLarge, _check_deadline
from .graphs import MultiGraph
from .matroids import GraphicMatroid, Matroid, make_graphic


def _chi_from_counts(counts, rank: int) -> IntPoly:
    """chi(x) = sum_A (-1)^|A| x^(rank - r(A)) read off a rank-size census."""
    coeffs = [0] * (rank + 1)
    for (a, rho), c in counts.items():
        coeffs[rank - rho] += c if a % 2 == 0 else -c
    return IntPoly(coeffs)


def chi_subset(m: Matroid, deadline: float | None = None) -> IntPoly:
    """Characteristic polynomial read off m's census, or, where m's
    ``census_route()`` is "scan", by ``Matroid._scan`` with folds cut.  A
    stop of the census scan with k free elements adds (-1)^|mask|
    x^(R - r) (1 - 1)^k, which is 0 at every fold and at every spanning stop with
    i < n, so the walk ends each branch at a fold and its leaf adds only
    at i = n.  The sets left are the no-broken-circuit sets (Whitney's
    broken-circuit theorem), with |mask| = r at each.  Raises
    BudgetExceeded once ``monotonic()`` passes ``deadline``."""
    if m.census_route() == "scan":
        n, top = m.ground_size, m.full_rank()
        _check_deadline(deadline)
        coeffs = [0] * (top + 1)

        def leaf(i, mask, free, rk):
            if i == n:
                coeffs[top - rk] += -1 if rk & 1 else 1

        m._scan(leaf, deadline, cut_folds=True)
        return IntPoly(coeffs)
    counts = m.rank_size_counts(deadline)
    # r(E) is the largest rank in the census
    return _chi_from_counts(counts, max(rho for _a, rho in counts))


def _delcon(m: Matroid, memo: dict) -> IntPoly:
    key = None
    if isinstance(m, GraphicMatroid):
        g = m.graph
        key = g.n, tuple(sorted((u, v) if u <= v else (v, u) for u, v in g.edges))
        if key in memo:
            return memo[key]
    n = m.ground_size
    if any(map(m.is_loop, range(n))):
        res = IntPoly.zero()
    elif (pick := next((e for e in range(n) if not m.is_coloop(e)), None)) is None:
        res = poly_pow(IntPoly((-1, 1)), n)
    else:
        keep = m.full_mask & ~(1 << pick)
        res = _delcon(m.restrict(keep), memo) - _delcon(m.contract(keep), memo)
    if key is not None:
        memo[key] = res
    return res


def chi_delcon(m: Matroid) -> IntPoly:
    """Characteristic polynomial by deletion/contraction.

    Any loop forces the zero polynomial; a matroid whose n elements are
    all coloops is a direct sum of coloops with chi = (x-1)^n; otherwise
    pick the first element e that is neither and use
    chi(M) = chi(M delete e) - chi(M contract e).
    """
    return _delcon(m, {})


def tutte(m: Matroid) -> BiPoly:
    """Tutte polynomial T(x, y) = R(x-1, y-1) via the rank-size census:
    T is R(-u, -v) at u = 1 - x, v = 1 - y, so r_ij flips by (-1)^(i+j)
    and one Taylor shift runs per x-column and one per y-row."""
    r = whitney_R(m).terms
    nx = 1 + max((i for i, _ in r), default=0)
    ny = 1 + max((j for _, j in r), default=0)
    cols = [
        substitute_one_minus_x(
            IntPoly((-1) ** (i + j) * r.get((i, j), 0) for i in range(nx))
        ).coeffs
        for j in range(ny)
    ]
    terms = {}
    for i in range(nx):
        row = substitute_one_minus_x(IntPoly(c[i] if i < len(c) else 0 for c in cols))
        terms.update(((i, j), c) for j, c in enumerate(row.coeffs))
    return BiPoly(terms)


def tutte_uniform_closed(m: int, n: int) -> BiPoly:
    """Closed form for U_{m,n}:

        T = sum_{a<m} C(n,a) (x-1)^(m-a) + C(n,m)
          + sum_{a>m} C(n,a) (y-1)^(a-m)

    with the middle binomial absorbed into whichever sum applies at the
    boundary.  Equivalent to the census definition; used as a fast,
    independently coded cross-check.
    """
    if not 0 <= m <= n:
        raise BadParams(f"uniform matroid wants 0 <= m <= n, got ({m},{n})")
    acc = BiPoly.zero()
    for a in range(n + 1):
        c = comb(n, a)
        if a < m:
            p = poly_pow(IntPoly((-1, 1)), m - a).scale(c)
            acc = acc + BiPoly({(d, 0): v for d, v in enumerate(p.coeffs)})
        elif a == m:
            acc = acc + BiPoly.const(c)
        else:
            p = poly_pow(IntPoly((-1, 1)), a - m).scale(c)
            acc = acc + BiPoly({(0, d): v for d, v in enumerate(p.coeffs)})
    return acc


def whitney_R(m: Matroid) -> BiPoly:
    """Whitney rank polynomial R(u, v) = sum_A u^(R-r(A)) v^(|A|-r(A))."""
    counts = m.rank_size_counts()
    rfull = m.full_rank()
    terms: dict = {}
    for (a, rho), c in counts.items():
        k = (rfull - rho, a - rho)
        terms[k] = terms.get(k, 0) + c
    return BiPoly(terms)


def _dedup_parallel(g: MultiGraph) -> MultiGraph:
    """Drop repeated parallel edges and repeated loops, keeping the first
    of each class.  Proper colorings cannot tell the difference, and the
    characteristic polynomial of the cycle matroid is unchanged (deleting
    an element parallel to another adds a loop to the contraction, whose
    chi vanishes)."""
    seen = set()
    out = []
    for u, v in g.edges:
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        out.append((u, v))
    # a sublist of g's valid edges needs no checks
    return MultiGraph._unchecked(g.n, tuple(out))


def chromatic_poly(g: MultiGraph) -> IntPoly:
    """Chromatic polynomial P(x) = x^c(G) * chi of the cycle matroid."""
    m = make_graphic(_dedup_parallel(g))
    try:
        chi = chi_subset(m)
    except TooLarge:
        chi = chi_delcon(m)
    # c(G) = |V| - r(E), and chi has degree r(E) unless a loop makes it 0
    return chi.shift(g.n - chi.degree)


def flow_poly(g: MultiGraph) -> IntPoly:
    """Flow polynomial F(x) = chi of the dual of the cycle matroid."""
    return chi_subset(make_graphic(g).dual())

