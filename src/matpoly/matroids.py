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
of ``duality.rank_table``.  Each class takes its cheapest exact census:

    class            census route
    UniformMatroid   closed form, C(n, a) at min(m, a)
    GraphicMatroid   vertex expansion (3^|V'|) or ``Matroid._scan``
    DualView         its base's census, reindexed
    others           ``Matroid._scan``

``Matroid._scan`` is the one walk over subsets, with three leaves: the
rank table, every other census, and chi (``invariants.chi_subset``).
It branches only on elements outside the span of the taken ones and
folds the rest, so at a stop the census adds one binomial row and the
rank table writes one slice per subset of the folded elements; chi cuts
each fold instead.  Skips and folds loop and only takes recurse, so the
depth is at most r(E).  A dual reads its base's table backwards.  The
span test is the one per-class hook, ``_span_test``: the generic test
asks ``_peek`` whether r(taken + i) is still |taken|, ``LinearMatroidFp``
reduces vector i, one packed int, by the taken set's echelon rows (xor
over F_2), and ``GraphicMatroid`` compares the component labels of edge
i's ends.

The scan reads the rank cache through ``_peek`` and never writes to it,
nor to the cache of a view's base, so a table or census runs in memory
bounded by its own output (a cache of all 2^22 masks of uniform:10,22
held 342 MB), while a scan after point queries still reads their ranks
from the cache.  Every route asks ``rank`` for r(E) at most.

Graphic rank is the join count of the one union-find, ``graphs._union``,
on the graph relabeled once onto its non-isolated vertices V', which both
census routes read too; ``census_route`` picks one by a cost estimate:
``vertex_census``, the Fortuin-Kasteleyn expansion over subsets of V'
(3^|V'| steps), or the shared scan over edge subsets.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import comb
from time import monotonic

from .errors import BadParams, BudgetExceeded, TooLarge
from .graphs import MultiGraph, _union, quotient, subgraph

ENUM_GUARD = 20  # hard cap for circuit/flat enumeration
# Time of one vertex-route step over one edge subset, fitted to
# break-even timings of the vertex route and the scan on graphs of 2 to 11
# non-isolated vertices (CHANGES.md): the value keeps every graph of at
# most 4 such vertices, where the scan's fixed cost dominates, on the
# vertex route.  ``census_route`` counts the vertex route's tables and
# fixed cost as 2^(|V'|+3) more steps; near a tie either route is as good.
VERTEX_STEP_COST = 0.035


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and monotonic() > deadline:
        raise BudgetExceeded("subset scan ran past its deadline")


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

    def rank_size_counts(self, deadline: float | None = None) -> Counter:
        """Census {(|A|, r(A)): count} over all 2^n subsets, by this
        class's ``_census``; raises BudgetExceeded past ``deadline``."""
        _check_deadline(deadline)
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
        recurse."""
        n = self.ground_size
        top = self.full_rank()
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

    def _census(self, deadline: float | None) -> Counter:
        n, m = self.ground_size, self.m
        return Counter({(a, min(m, a)): comb(n, a) for a in range(n + 1)})


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph; elements are the graph's edges."""

    def __init__(self, graph: MultiGraph, label: str | None = None):
        if label is None:
            label = f"graphic:{graph.n}v{len(graph.edges)}e"
        super().__init__(len(graph.edges), label)
        self.graph = graph
        # the graph on its non-isolated vertices V' as 0..|V'|-1, ascending
        # (itself if none is isolated): rank and both census routes read it
        ends = sorted(set().union(*graph.edges))
        if len(ends) < graph.n:
            index = {v: i for i, v in enumerate(ends)}
            edges = tuple((index[u], index[v]) for u, v in graph.edges)
            graph = MultiGraph._unchecked(len(ends), edges)
        self._dense = graph

    def _rank_impl(self, mask: int) -> int:
        return _union(self._dense, mask)[1]

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
        with V' the non-isolated vertices, else "edge", the scan over edge
        subsets.  The vertex route takes 3^|V'| steps over pairs of nested
        vertex sets; building its tables of 2^|V'| entries and its fixed
        cost come to about eight steps per entry.  The scan folds every
        edge that closes a cycle, so it stays ahead only on sparse graphs,
        such as forests of 5 or more vertices."""
        nv = self._dense.n
        steps = 3**nv + (1 << nv + 3)
        return "vertex" if VERTEX_STEP_COST * steps < 1 << self.ground_size else "edge"

    def _census(self, deadline: float | None) -> Counter:
        if self.census_route() == "vertex":
            return self.vertex_census(deadline)
        return Matroid._census(self, deadline)

    def _span_test(self):
        """Component-label span test: the state holds one character per
        non-isolated vertex, the label of its component in the taken set.
        Edge i = (u, v) is in the span when both ends share a label;
        otherwise the grown state relabels v's component as u's, one
        C-level pass."""
        edges = self._dense.edges

        def extend(label, i):
            u, v = edges[i]
            lu, lv = label[u], label[v]
            return None if lu == lv else label.replace(lv, lu)

        return "".join(map(chr, range(self._dense.n))), extend

    def vertex_census(self, deadline: float | None = None) -> Counter:
        """Census by the Fortuin-Kasteleyn vertex-subset expansion
        (Bjorklund, Husfeldt, Kaski, Koivisto, FOCS 2008), in 3^|V'| steps
        over the non-isolated vertices V'.

        With e(S) the number of edges inside S (loops and parallel edges
        included), conn[S] counts the connected spanning edge sets of
        G[S] by size:

            conn[S] = (1+v)^e(S) - sum_{min S in T, T < S} conn[T] (1+v)^e(S-T)

        and Z[S] = sum_{min S in T} q conn[T] Z[S-T] counts all edge sets
        of G[S] by size and component count, so the coefficient of
        q^k v^a in Z[V'] is the census count at (a, |V'| - k).  One pass
        over S fills both.  Every polynomial is packed into one int at
        v = 2^B, q = 2^(B(|E|+1)), B = |E| + 1: each term and each sum
        counts distinct edge sets, so no coefficient reaches 2^B and the
        packed arithmetic is exact."""
        _check_deadline(deadline)
        g = self._dense
        m, nv = len(g.edges), g.n
        full = (1 << nv) - 1
        bits = m + 1
        step = bits * (m + 1)
        # layers[j][k]: the vertices i <= j joined to vertex j by more than k
        # edges (a loop joins j to itself), so with j = max S,
        # e(S) = e(S - j) + sum_k |layers[j][k] within S|
        layers: list[list[int]] = [[] for _ in range(nv)]
        for i, j in g.edges:
            if i > j:
                i, j = j, i
            row, bit = layers[j], 1 << i
            k = 0
            while k < len(row) and row[k] & bit:  # the first layer without i
                k += 1
            if k == len(row):
                row.append(0)
            row[k] |= bit
        inner = [0]  # e(S); vertex j doubles it with the sets whose max is j
        for row in layers:
            ext = inner
            for layer in row:
                ext = [e + (layer & s).bit_count() for s, e in enumerate(ext, len(inner))]
            inner += ext
        pw = [1]  # (1+v)^k, one shift-and-add per k
        for _ in range(m):
            pw.append(pw[-1] + (pw[-1] << bits))
        inside = [pw[e] for e in inner]  # (1+v)^e(S)

        conn = [0] * (full + 1)
        z = [1] + [0] * full
        for s in range(1, full + 1):
            if not s & 0xF:
                _check_deadline(deadline)
            low = s & -s
            rest = sub = s ^ low
            # Z is needed only on V' and the sets that miss vertex 0, and
            # every S - T it reads misses min S, so is one of those
            total, zs, need_z = inside[s], 0, not s & 1 or s == full
            while sub:  # proper subsets of rest, down to the empty set
                sub = (sub - 1) & rest
                c = conn[sub | low]
                if c:  # 0 when G[T] is disconnected
                    total -= c * inside[rest ^ sub]
                    if need_z:
                        zs += c * z[rest ^ sub]
            conn[s] = total
            if need_z:  # T = S adds conn[S] Z[empty set]; << step is q
                z[s] = (total + zs) << step

        counts: Counter = Counter()
        rows, mask = z[full], (1 << bits) - 1
        rank = nv  # q-digit k of Z[V'] is rank |V'| - k, read from k = 0 up
        while rows:
            # an edge set of rank r has at least r edges: start at a = r
            row, a = (rows & (1 << step) - 1) >> bits * rank, rank
            while row:
                c = row & mask
                if c:
                    counts[(a, rank)] = c
                row >>= bits
                a += 1
            rows >>= step
            rank -= 1
        return counts


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

    def _rank_impl(self, mask: int) -> int:
        rows = [list(self.vectors[i]) for i in _bits(mask)]
        p = self.p
        rank = 0
        col = 0
        dim = len(rows[0]) if rows else 0
        while rank < len(rows) and col < dim:
            piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if piv is None:
                col += 1
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            rows[rank] = [(c * inv) % p for c in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
            rank += 1
            col += 1
        return rank

    def _span_test(self):
        """Echelon span test on packed vectors, coordinate c the w-bit digit
        c of one int: the state ``basis[c]`` is the taken set's row with its
        leading 1 at digit c, or None.  Vector i adds p - a times the row at
        each column whose digit reads a != 0 mod p, or joins a copy reduced
        mod p and scaled to a leading 1.  A column reduces once and rows have
        digits below p, so a digit stays <= p - 1 + dim (p - 1)^2 < 2^w and
        never carries.  Over F_2 a reduction is an xor, so w = 1."""
        p = self.p
        dim = len(self.vectors[0]) if self.vectors else 0
        w = 1 if p == 2 else (p - 1 + dim * (p - 1) ** 2).bit_length()
        digit = (1 << w) - 1
        shifts = range(0, dim * w, w)
        vecs = [sum(x << s for x, s in zip(v, shifts)) for v in self.vectors]

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

        return [None] * dim, extend


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


def is_prime(p: int) -> bool:
    """Miller-Rabin on the 13 primes up to 41, exact below the least
    composite that passes them all, 3317044064679887385961981 (Sorenson and
    Webster, Math. Comp. 86, 2017); larger p raise TooLarge."""
    if p >= 3317044064679887385961981:
        raise TooLarge(f"primality is decided only below 3.3e24, not at {p}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s, d odd
    d = (p - 1) >> s
    return all(
        pow(a, d, p) == 1 or any(pow(a, d << j, p) == p - 1 for j in range(s))
        for a in bases
    )


def make_pg(n: int, p: int) -> LinearMatroidFp:
    """Projective geometry PG(n-1, p) over a prime field: one point per
    1-dimensional subspace of F_p^n, normalized so the first nonzero
    coordinate is 1, listed in lexicographic order: most leading zeros
    first, then every tail after the 1.  Only the points are visited, and
    ``product`` gets no ``range(p)`` to hold when the tail is empty."""
    if n < 1:
        raise BadParams("pg wants n >= 1")
    if not is_prime(p):
        raise BadParams(f"pg wants a prime field order, got {p}")
    points = [
        (0,) * lead + (1,) + tail
        for lead in range(n - 1, -1, -1)
        for tail in product(*[range(p)] * (n - 1 - lead))
    ]
    return LinearMatroidFp(points, p, f"pg:{n},{p}")


def circuits(m: Matroid) -> list[int]:
    """All circuits (minimal dependent sets) as bitmasks, by increasing
    size then mask value.  Guarded to ground sets of at most 20."""
    n = m.ground_size
    if n > ENUM_GUARD:
        raise TooLarge(f"circuit enumeration on {n} > {ENUM_GUARD} elements")
    found: list[int] = []
    elems = range(n)
    for k in range(1, n + 1):
        for combo in combinations(elems, k):
            mask = 0
            for e in combo:
                mask |= 1 << e
            if any(c & mask == c for c in found):
                continue
            if m.rank(mask) < k:
                found.append(mask)
    return sorted(found, key=lambda c: (c.bit_count(), c))


def flats_of_rank(m: Matroid, k: int) -> list[int]:
    """All flats (closed sets) of rank k, as bitmasks.  A set A is closed
    when adding any outside element raises the rank."""
    n = m.ground_size
    if n > ENUM_GUARD:
        raise TooLarge(f"flat enumeration on {n} > {ENUM_GUARD} elements")
    if not 0 <= k <= m.full_rank():
        return []
    out = []
    for mask in range(1 << n):
        if m.rank(mask) != k:
            continue
        closed = True
        for e in range(n):
            if not mask >> e & 1 and m.rank(mask | 1 << e) == k:
                closed = False
                break
        if closed:
            out.append(mask)
    return out
