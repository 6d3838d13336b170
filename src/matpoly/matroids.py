"""Matroids as rank oracles over bitmask subsets.

Every matroid exposes ``rank(mask)`` for subsets of a ground set
0..n-1 encoded as bitmasks.  A dual (``DualView``) and a minor
(``MinorView``, restrictions and contractions alike) are lazy views that
rewrite rank queries through the standard identities

    r*(A)       = r(E - A) + |A| - r(E)
    r_minor(A)  = r(C + A) - r(C)    (A within S, re-indexed)

with S the minor's ground set and C the set contracted away, so view
stacks of any depth stay exact.  ``restrict(M, S)`` has C empty;
``contract(M, S)`` keeps S as the ground set and contracts C = E - S.

``rank`` memoizes every value it computes in the per-instance dict
``_rank_cache``, so point queries fill it.  ``_peek`` is its read-only
twin: a cache hit, or the value computed and not stored.  Both views
ask their base through ``_peek``, so only the view's own cache grows.

Every invariant is read off one object, the rank-size census
{(|A|, r(A)): count}.  ``rank_size_counts(deadline)`` is its one entry
point: it checks the deadline and calls the class's ``_census``.
``rank_table()`` lists r(A) for every mask, for the lattice transforms
of ``duality.rank_table``.  Each class takes its cheapest exact census
and names it by ``census_route()``, which ``invariants.chi_subset`` reads:

    class            census_route()    census
    UniformMatroid   "closed"          C(n, a) at min(m, a)
    GraphicMatroid   "vertex"/"scan"   ``graphs._vertex_census`` (3^|V'|)
    LinearMatroidFp  "span"/"scan"     ``_span_census`` over F_2
    DualView         "dual"            its base's census, reindexed
    others           "scan"            ``Matroid._scan``

``Matroid._scan`` is the one walk over subsets, with three leaves: the
rank table, every other census, and chi (``invariants.chi_subset``).
It branches only on elements outside the span of the taken ones, by the
one per-class hook ``_span_test``, so its depth is at most r(E).  It
reads the rank cache through ``_peek`` and never writes to it, nor to
a view's base's, so a table or census runs in memory bounded by its own
output (a cache of all 2^22 masks of uniform:10,22 held 342 MB).  Every
route asks ``rank`` for r(E) at most.

Each route refuses its own work up front: ``_scan`` past its node bound
unless a finite deadline bounds it, and, as memory bounds, a census past
4,096 elements and the vertex and span routes where their tables or
spans outgrow 2^30 bits; those two leave what they do not fit to the scan.

Graphic rank is the join count of the one union-find, ``graphs._union``,
on ``graph``, the input relabeled onto its non-isolated vertices V' by
``graphs.subgraph``, which both census routes and minors read too.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import comb, isfinite

from .errors import BadParams, TooLarge, _check_deadline
from .graphs import MultiGraph, _union, _vertex_census, quotient, subgraph
from .projective import _gaussian_row, _pg_guard, is_prime

SUBSET_GUARD = 24  # log2 of the scan's node bound and of a census's n^2
# The vertex route's caps past SUBSET_GUARD edges (``census_route``).  On
# seeded sparse graphs of 25-40 edges it beat delete/contract by 3.7x-74x
# up to 13 vertices, broke even near 15 and lost at 16 (CHANGES.md).
VERTEX_GUARD = 13
TABLE_BITS = 30  # log2 of the bits the vertex tables or the spans may hold
# Time of one vertex-route step over one edge subset, fitted to
# break-even timings of the vertex route and the scan on graphs of 2 to 11
# non-isolated vertices (CHANGES.md): the value keeps every graph of at
# most 4 such vertices, where the scan's fixed cost dominates, on the
# vertex route.  ``census_route`` counts the vertex route's tables and
# fixed cost as 2^(|V'|+3) more steps; near a tie either route is as good.
VERTEX_STEP_COST = 0.035


def _census_rule(m: "Matroid", deadline: float | None) -> None:
    """The entry checks of every census: TooLarge when n^2 >
    2^SUBSET_GUARD (counts reach n bits), then the deadline."""
    if m.ground_size**2 > 1 << SUBSET_GUARD:
        raise TooLarge(f"{m.label}: a census of over 2^{SUBSET_GUARD // 2} elements")
    _check_deadline(deadline)


def _small_sets(n: int, r: int) -> int:
    """The scan's nodes, the sets of at most r of n elements, counted to
    r <= SUBSET_GUARD + 1, at which any n > SUBSET_GUARD has 2^r of them."""
    return sum(comb(n, j) for j in range(min(r, SUBSET_GUARD + 1) + 1))


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


class Matroid:
    """Base rank-oracle matroid; subclasses implement ``_rank_impl``."""

    def __init__(self, ground_size: int, label: str):
        if ground_size < 0:
            raise BadParams("ground size must be >= 0")
        self.ground_size = ground_size
        self.label = label
        self._rank_cache: dict[int, int] = {}

    @property
    def full_mask(self) -> int:
        return (1 << self.ground_size) - 1

    def rank(self, mask: int) -> int:
        if not 0 <= mask <= self.full_mask:
            raise BadParams(f"mask {mask:#x} outside ground set of {self.label}")
        cached = self._rank_cache.get(mask)
        if cached is None:
            cached = self._rank_impl(mask)
            self._rank_cache[mask] = cached
        return cached

    def _peek(self, mask: int) -> int:
        """r(mask) from the cache if it is there, else computed and not
        stored."""
        cached = self._rank_cache.get(mask)
        return self._rank_impl(mask) if cached is None else cached

    def _rank_impl(self, mask: int) -> int:
        raise NotImplementedError

    def full_rank(self) -> int:
        return self.rank(self.full_mask)

    def dual(self) -> "Matroid":
        return DualView(self)

    def restrict(self, mask: int) -> "Matroid":
        return MinorView(self, mask)

    def contract(self, mask: int) -> "Matroid":
        return MinorView(self, mask, self.full_mask & ~mask)

    def is_loop(self, e: int) -> bool:
        return self.rank(1 << e) == 0

    def is_coloop(self, e: int) -> bool:
        return self.rank(self.full_mask & ~(1 << e)) == self.full_rank() - 1

    def rank_table(self) -> list[int]:
        """r(A) for every mask A, as a dense list of length 2^n, from
        ``_scan``: a stop at element i writes its rank into the masks
        mask + F + B for every F within ``free``; for each F, the 2^(n-i)
        masks mask + F + B sit 2^i apart, so one slice each."""
        n = self.ground_size
        out = [0] * (1 << n)

        def leaf(i, mask, free, rk):
            row = [rk] * (1 << n - i)
            sub = free
            while True:  # every submask of free, down to the empty set
                out[mask | sub :: 1 << i] = row
                if not sub:
                    break
                sub = (sub - 1) & free

        self._scan(leaf)
        return out

    def census_route(self) -> str:
        """The census route: "closed", "dual", "vertex", "span" or "scan"."""
        return "scan"

    def rank_size_counts(self, deadline: float | None = None) -> Counter:
        """Census {(|A|, r(A)): count} over all 2^n subsets, by this
        class's ``_census``; raises BudgetExceeded past ``deadline``, and
        TooLarge by ``_census_rule``."""
        _census_rule(self, deadline)
        return self._census(deadline)

    def _census(self, deadline: float | None) -> Counter:
        """``_scan``; a stop at element i with k = |free| + n - i free
        elements (folded ones and the untaken tail) adds C(k, j) sets of
        size |mask| + j at its rank, for every j.  Stops are tallied by
        (k, |mask|, rank) first, so each binomial row is added once per
        tally rather than once per stop."""
        n = self.ground_size
        stops: Counter = Counter()

        def leaf(i, mask, free, rk):
            stops[n - i + free.bit_count(), mask.bit_count(), rk] += 1

        self._scan(leaf, deadline)
        counts: Counter = Counter()
        for (k, sz, rk), c in stops.items():
            _check_deadline(deadline)
            for j in range(k + 1):
                counts[(sz + j, rk)] += c
                c = c * (k - j) // (j + 1)
        return counts

    def _scan(
        self, leaf, deadline: float | None = None, *, cut_folds: bool = False
    ) -> None:
        """Depth-first scan over elements that keeps the taken set
        ``mask`` independent.  Only elements outside its span branch: an
        element in the span leaves every rank as it is, taken or not, so
        both of its subtrees would repeat the same choices at the same
        ranks; it is folded into the mask ``free`` instead, or ends the
        branch under ``cut_folds``.  The scan stops at element i once the
        taken set spans or i = n, and calls leaf(i, mask, free, rank):
        every extension of a spanning set keeps the full rank, so the
        2^(|free| + n - i) sets mask + F + B, F within ``free`` and B
        within elements i..n-1, share that rank unvisited.  Only takes
        recurse.  Past 2^SUBSET_GUARD sets of <= r(E) elements, its node
        bound, it needs a finite deadline."""
        n = self.ground_size
        top = self.full_rank()
        if n > SUBSET_GUARD and (deadline is None or not isfinite(deadline)):
            if _small_sets(n, top) > 1 << SUBSET_GUARD:
                raise TooLarge(
                    f"{self.label}: over 2^{SUBSET_GUARD} sets of <= {top} elements"
                )
        start, extend = self._span_test()
        calls = [0]

        def rec(i, mask, free, rk, state):
            while rk < top and i < n:
                calls[0] += 1
                if calls[0] & 0x3FFF == 0:
                    _check_deadline(deadline)
                grown = extend(state, i)
                if grown is not None:
                    rec(i + 1, mask | 1 << i, free, rk + 1, grown)
                elif cut_folds:
                    return
                else:
                    free |= 1 << i
                i += 1
            leaf(i, mask, free, rk)

        rec(0, 0, 0, 0, start)

    def _span_test(self):
        """(start, extend), the span test of ``_scan``: a state stands for
        the independent taken set, ``start`` for the empty set, and
        extend(state, i) is None when element i is in its span, else the
        state of the set grown by i.  No state is changed in place.  The
        generic state is the taken mask: i is in its span when
        r(mask + i) is still |mask|, read through ``_peek`` so the scan
        fills no rank cache."""
        peek = self._peek

        def extend(mask, i):
            grown = mask | 1 << i
            return None if peek(grown) == mask.bit_count() else grown

        return 0, extend

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label} on {self.ground_size} elements>"


class DualView(Matroid):
    def __init__(self, base: Matroid):
        super().__init__(base.ground_size, f"dual({base.label})")
        self.base = base

    def _rank_impl(self, mask: int) -> int:
        b = self.base
        return b._peek(b.full_mask & ~mask) + mask.bit_count() - b.full_rank()

    def dual(self) -> Matroid:
        return self.base

    # Bound on the class itself so perfbench/tracer.py times dual censuses
    # under their own name.
    rank_size_counts = Matroid.rank_size_counts

    def census_route(self) -> str:
        return "dual"

    def rank_table(self) -> list[int]:
        """The base's table read backwards: E - A is full ^ A, the index
        of A counted from the end."""
        base = self.base
        top = base.full_rank()
        return [
            r + a.bit_count() - top for a, r in enumerate(reversed(base.rank_table()))
        ]

    def _census(self, deadline: float | None) -> Counter:
        base = self.base
        return _dual_counts(
            base.rank_size_counts(deadline), self.ground_size, base.full_rank()
        )


def _dual_counts(counts: Counter, n: int, rank: int) -> Counter:
    """The dual's census from a census of a rank-``rank`` matroid on n
    elements: A maps to E - A, of dual rank r(A) + |E - A| - rank."""
    out: Counter = Counter()
    for (a, rho), c in counts.items():
        out[(n - a, rho + n - a - rank)] += c
    return out


class MinorView(Matroid):
    """The minor of ``base`` on the elements of ``mask``, with ``away``
    contracted and every other element deleted: element i is element
    ``elements[i]`` of base, and r(A) = r_base(away + A) - r_base(away).
    A restriction has away = 0 and asks its base nothing up front; a
    contraction takes away = E - mask."""

    def __init__(self, base: Matroid, mask: int, away: int = 0):
        if not 0 <= mask <= base.full_mask or away & ~(base.full_mask ^ mask):
            raise BadParams("minor mask outside ground set")
        elements = tuple(_bits(mask))
        kind = "contract" if away else "restrict"
        super().__init__(len(elements), f"{kind}({base.label},{mask:#x})")
        self.base = base
        self.elements = elements
        self.away = away
        self._away_rank = base.rank(away) if away else 0

    def _rank_impl(self, mask: int) -> int:
        out = self.away
        for i, e in enumerate(self.elements):
            if mask >> i & 1:
                out |= 1 << e
        return self.base._peek(out) - self._away_rank


class UniformMatroid(Matroid):
    def __init__(self, m: int, n: int):
        if not 0 <= m <= n:
            raise BadParams(f"uniform matroid wants 0 <= m <= n, got ({m},{n})")
        super().__init__(n, f"uniform:{m},{n}")
        self.m = m

    def _rank_impl(self, mask: int) -> int:
        return min(self.m, mask.bit_count())

    def census_route(self) -> str:
        return "closed"

    def _census(self, deadline: float | None) -> Counter:
        n, m = self.ground_size, self.m
        return Counter({(a, min(m, a)): comb(n, a) for a in range(n + 1)})


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph; elements are the edges of
    ``graph``, the input on V'."""

    def __init__(self, graph: MultiGraph, label: str | None = None):
        if label is None:
            label = f"graphic:{graph.n}v{len(graph.edges)}e"
        super().__init__(len(graph.edges), label)
        self.graph = subgraph(graph, graph.full_edge_mask)

    def _rank_impl(self, mask: int) -> int:
        return _union(self.graph, mask)[1]

    def restrict(self, mask: int) -> "GraphicMatroid":
        return GraphicMatroid(
            subgraph(self.graph, mask), f"restrict({self.label},{mask:#x})"
        )

    def contract(self, mask: int) -> "GraphicMatroid":
        away = self.full_mask & ~mask
        return GraphicMatroid(
            quotient(self.graph, away), f"contract({self.label},{mask:#x})"
        )

    # Bound on the class itself so perfbench/tracer.py times graphic
    # censuses under their own name.
    rank_size_counts = Matroid.rank_size_counts

    def census_route(self) -> str:
        """"vertex" when VERTEX_STEP_COST * (3^|V'| + 2^(|V'|+3)) < 2^|E|,
        with V' the non-isolated vertices, else "scan", over edge subsets.
        The vertex route takes 3^|V'| steps over pairs of nested vertex
        sets; building its tables of 2^|V'| entries and its fixed cost come
        to about eight steps per entry.  The scan folds every edge that
        closes a cycle, so it stays ahead only on sparse graphs, such as
        forests of 5 or more vertices.  Past SUBSET_GUARD edges it
        also needs |V'| <= VERTEX_GUARD and tables of 2^|V'| |V'| (|E|+1)^2
        plus (|E|+1)^3 / 2 bits <= 2^TABLE_BITS."""
        nv, m = self.graph.n, self.ground_size
        fits = (
            m <= SUBSET_GUARD
            or nv <= VERTEX_GUARD
            and (nv << nv) * (m + 1) ** 2 + (m + 1) ** 3 // 2 <= 1 << TABLE_BITS
        ) and VERTEX_STEP_COST * (3**nv + (1 << nv + 3)) < 1 << m
        return "vertex" if fits else "scan"

    def _census(self, deadline: float | None) -> Counter:
        if self.census_route() == "vertex":
            return _vertex_census(self.graph, deadline)
        return Matroid._census(self, deadline)

    def _span_test(self):
        """Component-label span test: the state holds one character per
        non-isolated vertex, the label of its component in the taken set.
        Edge i = (u, v) is in the span when both ends share a label;
        otherwise the grown state relabels v's component as u's, one
        C-level pass."""
        edges = self.graph.edges

        def extend(label, i):
            u, v = edges[i]
            lu, lv = label[u], label[v]
            return None if lu == lv else label.replace(lv, lu)

        return "".join(map(chr, range(self.graph.n))), extend


class LinearMatroidFp(Matroid):
    """Column matroid of vectors over the prime field F_p."""

    def __init__(self, vectors, p: int, label: str):
        if not is_prime(p):
            raise BadParams(f"F_p wants a prime p, got {p}")
        vectors = tuple(tuple(int(c) % p for c in v) for v in vectors)
        if vectors and len({len(v) for v in vectors}) != 1:
            raise BadParams("vectors must share one dimension")
        super().__init__(len(vectors), label)
        self.vectors = vectors
        self.p = p
        # The span test's step on packed vectors, coordinate c the w-bit
        # digit c of one int: ``basis[c]`` is the taken set's row with its
        # leading 1 at digit c, or None.  Vector i adds p - a times the row
        # at each column whose digit reads a != 0, or joins, reduced mod p
        # and scaled to a leading 1.  A column reduces once and rows have
        # digits below p, so a digit stays <= p - 1 + dim (p - 1)^2 < 2^w
        # and never carries.  Over F_2 a reduction is an xor, w = 1.
        self._dim = dim = len(vectors[0]) if vectors else 0
        w = 1 if p == 2 else (p - 1 + dim * (p - 1) ** 2).bit_length()
        digit = (1 << w) - 1
        shifts = range(0, dim * w, w)
        vecs = [sum(x << s for x, s in zip(v, shifts)) for v in vectors]

        def extend(basis, i):
            vec = vecs[i]
            for c, s in enumerate(shifts):
                a = (vec >> s & digit) % p
                if not a:
                    continue
                row = basis[c]
                if row is None:
                    if p != 2:
                        inv = pow(a, -1, p)
                        vec = sum((vec >> t & digit) * inv % p << t for t in shifts)
                    grown = basis.copy()
                    grown[c] = vec
                    return grown
                vec = vec ^ row if p == 2 else vec + (p - a) * row
            return None

        self._extend = extend

    def _rank_impl(self, mask: int) -> int:
        """The number of elements of mask that grow the echelon basis."""
        basis, extend, rank = [None] * self._dim, self._extend, 0
        for i in _bits(mask):
            grown = extend(basis, i)
            if grown is not None:
                basis, rank = grown, rank + 1
                if rank == self._dim:
                    break
        return rank

    def _span_test(self):
        """The empty set's echelon basis and the step ``__init__`` built."""
        return [None] * self._dim, self._extend

    def census_route(self) -> str:
        """"span" when p = 2, 2^dim <= 2^16, the span DP's states,
        sum_{i<n} min(2^i, S) with S the number of subspaces of F_2^dim,
        fit both 2^SUBSET_GUARD and the scan's nodes, the sets of at most
        r(E) elements, and the min(2^n, S) spans it ends with, 2^dim bits
        each, fit 2^TABLE_BITS bits; else "scan"."""
        n, dim = self.ground_size, self._dim
        if self.p != 2 or dim > 16:
            return "scan"
        s = sum(_gaussian_row(dim, 2))
        k = min(n, s.bit_length())  # min(2^i, S) = 2^i for i < k
        states = (1 << k) - 1 + (n - k) * s
        nodes = _small_sets(n, self.full_rank())
        fits = min(1 << n, s) << dim <= 1 << TABLE_BITS
        return "span" if fits and states <= min(1 << SUBSET_GUARD, nodes) else "scan"

    def _census(self, deadline: float | None) -> Counter:
        if self.census_route() == "span":
            return _span_census(self.vectors, self._dim, deadline)
        return Matroid._census(self, deadline)


def _span_census(vectors, dim: int, deadline: float | None) -> Counter:
    """Census of the column matroid of ``vectors`` over F_2 by one pass
    over the elements with one state per span.  A span is an int over the
    2^dim vectors of F_2^dim, bit u set when u is in it, so the empty set
    spans 1; its value packs the taken sets by size at x = 2^(n+1).  An
    element in the span multiplies the value by 1 + x; any other also adds
    x times it under the span joined with the span moved by the element,
    one masked swap of 2^b-bit blocks per set bit b.  A span of 2^r
    vectors has rank r.  Checks the deadline once per element."""
    n, w = len(vectors), len(vectors) + 1
    ones = (1 << (1 << dim)) - 1
    # low[b]: the vectors whose bit b is 0, every other 2^b-bit block
    low = [ones // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1) for b in range(dim)]
    states = Counter({1: 1})
    for v in vectors:
        _check_deadline(deadline)
        v = sum(c << b for b, c in enumerate(v))
        moves = [(low[b], 1 << b) for b in _bits(v)]
        for span, val in list(states.items()):
            grown = span
            if not span >> v & 1:
                for mask, k in moves:
                    grown = (grown & mask) << k | grown >> k & mask
                grown |= span
            states[grown] += val << w
    by_rank: Counter = Counter()
    for span, val in states.items():
        by_rank[span.bit_count().bit_length() - 1] += val
    counts: Counter = Counter()
    for r, val in by_rank.items():
        for a in range(n + 1):
            if c := val >> a * w & (1 << w) - 1:
                counts[(a, r)] = c
    return counts


class TableMatroid(Matroid):
    """Explicit rank table, mainly for tests.

    For ground sets of at most 6 elements the three rank axioms
    (normalization/bounds, monotonicity, submodularity) are checked
    exhaustively on construction.
    """

    def __init__(self, ground_size: int, table, label: str = "table"):
        super().__init__(ground_size, label)
        n_masks = 1 << ground_size
        if len(table) != n_masks:
            raise BadParams("rank table must list every subset")
        self.table = [int(table[m]) for m in range(n_masks)]
        if ground_size <= 6:
            self._check_axioms()

    def _check_axioms(self):
        t = self.table
        full = self.full_mask
        if t[0] != 0:
            raise BadParams("rank of the empty set must be 0")
        for a in range(full + 1):
            if not 0 <= t[a] <= a.bit_count():
                raise BadParams(f"rank out of bounds on {a:#x}")
            for e in range(self.ground_size):
                if not a >> e & 1 and t[a] > t[a | 1 << e]:
                    raise BadParams("rank not monotone")
        for a in range(full + 1):
            for b in range(full + 1):
                if t[a | b] + t[a & b] > t[a] + t[b]:
                    raise BadParams("rank not submodular")

    def _rank_impl(self, mask: int) -> int:
        return self.table[mask]


def make_uniform(m: int, n: int) -> UniformMatroid:
    """U_{m,n}: rank of A is min(m, |A|)."""
    return UniformMatroid(m, n)


def make_graphic(g: MultiGraph, label: str | None = None) -> GraphicMatroid:
    return GraphicMatroid(g, label)


def make_pg(n: int, p: int) -> LinearMatroidFp:
    """Projective geometry PG(n-1, p) over a prime field: one point per
    1-dimensional subspace of F_p^n, normalized so the first nonzero
    coordinate is 1, listed in lexicographic order: most leading zeros
    first, then every tail after the 1.  Only the points are visited, and
    ``product`` gets no ``range(p)`` to hold when the tail is empty.  Over
    2^16 points raise TooLarge."""
    _pg_guard(n, p)
    points = [
        (0,) * lead + (1,) + tail
        for lead in range(n - 1, -1, -1)
        for tail in product(*[range(p)] * (n - 1 - lead))
    ]
    return LinearMatroidFp(points, p, f"pg:{n},{p}")
