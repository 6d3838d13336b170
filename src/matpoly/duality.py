"""Duality identities relating chi, Tutte, chromatic and flow polynomials.

The q-deformed zeta value zeta_q(z) = 1/(1 - q^(-z)) at z = +-1 turns the
two-variable subset expansions into one-line identities between a matroid
and its dual; at q = x its two values are zeta_q(1) = x/(x-1) and
zeta_q(-1) = 1/(1-x).  This module implements the identity zoo and a
uniform verifier:

* three zeta-weighted sum identities expressing chi of the dual (or of M
  itself) through characteristic polynomials of restrictions,
  contractions, and duals of restrictions; since (M|A)* = M*.(E-A), the
  last (twozeta) is the contraction sum (finaltwo) on M*;
* an all-polynomial contraction formula for chi of the dual,
  exposed as ``chi_dual_via_finaltwo``;
* the chromatic/flow specializations on graphs (Matiyasevich's identity
  and its inverse), whose right sides are twozeta's and thm1-one's on the
  cycle matroid, plus the connected-partition formula for the flow
  polynomial;
* the Tutte convolution T(x,y) = sum_A T_{M|A}(0,y) T_{M/A}(x,0), Kung's
  bilinear convolution for the Whitney rank polynomial, the split
  T = T(x,0) + T(0,y) valid on uniform matroids, and the hyperbola
  evaluation R(x, 1/x) = (x+1)^n x^(R-n), which is T(x, x/(x-1)) =
  x^n (x-1)^(R-n) in a = x - 1.

Every identity is proved as a polynomial: its checker clears the
(1-x)^n and x^k denominators of the zeta-weighted form and returns the
two sides (``IntPoly``s, or ``BiPoly``s for the Tutte convolution and
split), which must be equal.  No checker changes variables; the Tutte
convolution is compared with R in a = x - 1, b = y - 1.  Kung's bilinear
convolution has four variables; one Kronecker substitution, injective on
the monomials within its degree bounds, maps both of its sides to
polynomials in one variable.

Every subset sum over minors is one call of ``_packed_sums``: a value
per subset, read off (|A|, r(A)) and packed into one int (Kronecker
substitution at x = 2^w, ``IntPoly.pack``, wide enough that no
coefficient of any sum overflows its digit), then one zeta/Moebius
transform over the subset lattice (one pass per ground element, 2^n
cells) that adds plain ints, so a full table of minor polynomials costs
n * 2^n additions instead of 3^n.
Every table starts from ``rank_table``, whose one guard (``TABLE_GUARD``)
refuses more than 20 elements before any rank query.
No table is unpacked cell by cell.  A right side whose
weight depends on |A| or on (|A|, r(A)) tallies its packed table with
``_tally``: a Counter over the (key, packed int) pairs, each distinct
pair unpacked once and scaled by its count.  The signs (-1)^|A|, the
division by x^(R - r(A)) and the weights, powers of (1-x) and x, then
act on those <= (n+1)^2 groups; the (1-x)-sum and Theorem 2's signed
finish are algebra's.  Kung's and the Tutte convolution's right sides
are sums of (-1)^|A| P_A Q_A over a subset table P and a superset
table Q (``_class_product_sum``): Q is reduced to class ids before P
is built, so one table of wide ints is alive at a time, P is
tallied per class, and each distinct Q is multiplied once.
Each checker only states the two sides of its identity.  Kinds that
state one identity share its checker in ``_KINDS``: thm1-two is
finaltwo, twozeta is finaltwo on M*, matiyasevich-inverse is thm1-one
on the cycle matroid times (-1)^|E|, and hyperbola-t is hyperbola-r, so
12 kinds have 8 checkers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import add, and_

from .algebra import BiPoly, IntPoly, exact_div_monomial, poly_pow
from .algebra import _one_minus_x_sum, _signed, _signed_div
from .errors import BadParams, TooLarge
from .graphs import MultiGraph, connected_partitions, quotient
from .invariants import chi_subset, chromatic_poly, flow_poly, tutte, whitney_R
from .matroids import SUBSET_GUARD, Matroid, make_graphic


class IdentityKind(Enum):
    THM1_ONE = "thm1-one"
    THM1_TWO = "thm1-two"
    TWOZETA = "twozeta"
    FINALTWO = "finaltwo"
    MATIYASEVICH = "matiyasevich"
    MATIYASEVICH_INVERSE = "matiyasevich-inverse"
    TH2_CONNECTED_PARTITIONS = "th2-connected-partitions"
    CONVOLUTION = "convolution"
    KUNG = "kung"
    UNIFORM_SPLIT = "uniform-split"
    HYPERBOLA_T = "hyperbola-t"
    HYPERBOLA_R = "hyperbola-r"


GRAPH_KINDS = frozenset(
    {
        IdentityKind.MATIYASEVICH,
        IdentityKind.MATIYASEVICH_INVERSE,
        IdentityKind.TH2_CONNECTED_PARTITIONS,
    }
)

# One chromatic polynomial per connected partition: Bell(|V|) on K_|V|
# (115,975 on K10), so a graph of more than SUBSET_GUARD edges is capped at 10.
PARTITION_VERTEX_GUARD = 12
PARTITION_DENSE_GUARD = 10
# Every minor table holds 2^n entries and grows about 2x per element.  At
# n = 20 (uniform:3,20, or K6 plus 5 parallel edges and K7 minus one edge
# for the Matiyasevich kinds; Python 3.11) the table kinds peak between
# 34 MB (thm1-two, finaltwo) and 98 MB (convolution), and kung at 284 MB.
# 20 admits K7 minus one edge and refuses K7 (21 edges).
TABLE_GUARD = 20


@dataclass
class VerifyReport:
    """Outcome of one identity check on one target.  Every kind is proved
    as a polynomial, so ``mode`` and ``samples`` are the same for all."""

    kind: IdentityKind
    target: str
    passed: bool
    first_mismatch: str | None = None
    mode = "exact-polynomial"
    samples = ("exact",)

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "target": self.target,
            "mode": self.mode,
            "samples": list(self.samples),
            "passed": self.passed,
            "first_mismatch": self.first_mismatch,
        }


def rank_table(m: Matroid) -> list[int]:
    """r(A) for every subset mask A, as a dense list of length 2^n, by the
    matroid class's own route (``Matroid.rank_table``).  Every table
    starts here, so a ground set above TABLE_GUARD is refused before any
    rank query."""
    if m.ground_size > TABLE_GUARD:
        raise TooLarge(f"rank table on {m.ground_size} > {TABLE_GUARD} elements")
    return m.rank_table()


# Cells per window of the lattice transforms: the low levels finish one
# window before moving to the next, and no slice holds more cells, which
# keeps them in cache and bounds the temporary lists.  On 2^20 cells of
# 100-bit ints (2-CPU Xeon host, Python 3.11), slices over the whole table
# took 1.7x the time of a per-mask loop and 36 MB more memory; windows of
# 2^12 cells took about 0.6x, with no extra memory.
ZETA_WINDOW = 1 << 12


def _zeta(vals: list, n: int, superset: bool) -> list:
    """One in-place butterfly per element e: every cell on the target side
    of bit e adds its partner across the bit, a whole slice at a time.
    While a window holds fewer offsets than blocks, each offset is one
    strided slice per window; otherwise the blocks are contiguous runs of
    at most a window's length."""
    size = 1 << n
    win = min(size, ZETA_WINDOW)
    for e in range(n):
        bit = 1 << e
        step = bit << 1
        dst, src = (0, bit) if superset else (bit, 0)
        if bit <= win // step:
            for base in range(0, size, win):
                stop = base + win
                for j in range(base, base + bit):
                    d, s = j + dst, j + src
                    vals[d:stop:step] = map(add, vals[d:stop:step], vals[s:stop:step])
        else:
            run = min(bit, win)
            for lo in range(0, size, step):
                for c in range(lo, lo + bit, run):
                    d, s = c + dst, c + src
                    vals[d : d + run] = map(add, vals[d : d + run], vals[s : s + run])
    return vals


def subset_zeta(vals: list, n: int) -> list:
    """In-place subset-sum transform: vals[A] <- sum over B subset A."""
    return _zeta(vals, n, superset=False)


def superset_zeta(vals: list, n: int) -> list:
    """In-place superset-sum transform: vals[A] <- sum over C superset A."""
    return _zeta(vals, n, superset=True)


def _packed_sums(
    ranks: list[int], value, superset: bool = False
) -> tuple[list[int], int]:
    """(sums, w): for every A, the sum of value(|B|, r(B)) over every B
    subset of A (superset of A when ``superset``), given the rank table
    ``ranks``, packed at x = 2^w (``IntPoly.pack``).

    value is called once per distinct (|B|, r(B)) pair and returns an
    ``IntPoly``; the transform adds plain ints.  No sum has a coefficient
    of 2^n * max|coefficient| or more, so w = n + bits(max|coefficient|)
    + 1 keeps every balanced digit of every sum exact.
    """
    size = len(ranks)
    n = size.bit_length() - 1
    memo = {
        key: value(*key) for key in set(zip(map(int.bit_count, range(size)), ranks))
    }
    top = max((abs(c) for v in memo.values() for c in v.coeffs), default=0)
    w = n + top.bit_length() + 1
    packed = {key: v.pack(w) for key, v in memo.items()}
    cells = [packed[key] for key in zip(map(int.bit_count, range(size)), ranks)]
    return (superset_zeta if superset else subset_zeta)(cells, n), w


def _tally(keys, sums: list[int], w: int, signed: bool = False) -> dict:
    """{k: sum of the packed sums[A], unpacked, over every mask A with
    keys[A] = k}, each term times (-1)^|A| when ``signed``.

    A Counter over the (key, packed int) pairs finds the few distinct
    ones, and each is unpacked once and scaled by its signed count.  The
    groups are added after unpacking, since a group sum may outgrow the
    packing width."""
    sizes = map(int.bit_count, range(len(sums)))
    odd = map(and_, sizes, repeat(1)) if signed else repeat(0)
    weights: dict = {}
    for (k, v, sign), c in Counter(zip(keys, sums, odd)).items():
        weights[k, v] = weights.get((k, v), 0) + (-c if sign else c)
    return _sum_by_key(
        (k, IntPoly.unpack(v, w).scale(c)) for (k, v), c in weights.items() if c
    )


def _sum_by_key(pairs) -> dict:
    """{k: sum of every p paired with k} for (k, p) pairs."""
    out: dict = {}
    for k, p in pairs:
        out[k] = out[k] + p if k in out else p
    return out


def _finaltwo_sum(m: Matroid) -> IntPoly:
    """sum_A (1-x)^|A| * chi of (M with A contracted away): finaltwo's
    right side, and on M* twozeta's (matiyasevich's up to x^|V|).  That
    chi is (-1)^|A| sum_{C superset A} (-1)^|C| x^(R - r(C)), so the
    packed superset sums are tallied per |A| with the sign (-1)^|A|."""
    ranks = rank_table(m)
    rfull = ranks[-1]
    sums, w = _packed_sums(
        ranks, lambda a, r: IntPoly.monomial((-1) ** a, rfull - r), superset=True
    )
    return _one_minus_x_sum(
        _tally(map(int.bit_count, range(len(sums))), sums, w, signed=True)
    )


def chi_dual_via_finaltwo(m: Matroid) -> IntPoly:
    """chi of the dual through contractions only:

        chi_{M*}(x) = (-1)^|E| x^(-r(E)) sum_A (1-x)^|A| chi_{M.(E-A)}(x)

    The sum is exactly divisible by x^r(E); a NotDivisible escape means
    the input was not a matroid.
    """
    return _signed_div(_finaltwo_sum(m), m.ground_size, m.full_rank())


def _partition_guard(g: MultiGraph) -> None:
    cap = PARTITION_VERTEX_GUARD if len(g.edges) <= SUBSET_GUARD else PARTITION_DENSE_GUARD
    if g.n > cap:
        raise TooLarge(
            f"connected-partition sum on {g.n} > {cap} vertices, {len(g.edges)} edges"
        )


def _partition_sum(g: MultiGraph) -> IntPoly:
    """sum of (1-x)^|A| P_{G/A} over the partitions of V into connected
    blocks, A the edges inside blocks; the P_{G/A} are summed per |A|
    first, so at most |E|+1 products.  Guarded on the vertex count."""
    _partition_guard(g)
    return _one_minus_x_sum(
        _sum_by_key(
            (amask.bit_count(), chromatic_poly(quotient(g, amask)))
            for amask in connected_partitions(g)
        )
    )


def flow_via_connected_partitions(g: MultiGraph) -> IntPoly:
    """Flow polynomial from chromatic polynomials of quotients:

        F_G(x) = (-1)^|E| x^(-|V|) sum over partitions of V into
                 connected blocks of (1-x)^|A| P_{G/A}(x)

    where A is the set of edges inside blocks and G/A identifies each
    block to a point (``_partition_sum``).
    """
    return _signed_div(_partition_sum(g), len(g.edges), g.n)


# Each checker below returns (lhs, rhs) with every denominator of the
# zeta-weighted form cleared: zeta_q(1) = x/(x-1) and zeta_q(-1) = 1/(1-x)
# at q = x, so multiplying by (1-x)^n turns each side into a polynomial.
# n = |E|, R = r(E).  A checker builds its table side first, so the table
# guard refuses a large target before any census.


def _restriction_sum(m: Matroid) -> IntPoly:
    """sum_A x^(|A|-r(A)) (1-x)^(n-|A|) chi_{M|A}: the right side of
    thm1-one up to the sign (-1)^n, and of matiyasevich-inverse on a
    cycle matroid.  chi_{M|A} is sum_{B subset A} (-1)^|B| x^(R - r(B))
    over x^(R - r(A)): the packed subset sums are tallied per (|A|, r(A)),
    and each group is divided once."""
    n = m.ground_size
    ranks = rank_table(m)
    rfull = ranks[-1]
    sums, w = _packed_sums(ranks, lambda a, r: IntPoly.monomial((-1) ** a, rfull - r))
    groups = _tally(zip(map(int.bit_count, range(len(sums))), ranks), sums, w)
    return _one_minus_x_sum(
        _sum_by_key(
            (n - a, exact_div_monomial(p, rfull - r).shift(a - r))
            for (a, r), p in groups.items()
        )
    )


def _verify_thm1_one(m: Matroid):
    """chi_{M*} = (-1)^n sum_A x^(|A|-r(A)) (1-x)^(n-|A|) chi_{M|A}.  On a
    cycle matroid chi_{M*} = F_G: matiyasevich-inverse."""
    rhs = _signed(m.ground_size, _restriction_sum(m))
    return chi_subset(m.dual()), rhs


def _verify_finaltwo(m: Matroid):
    """(-1)^n x^R chi_{M*} = sum_A (1-x)^|A| chi_{M.(E-A)}: thm1-two with
    its denominators cleared, and the sum ``chi_dual_via_finaltwo``
    divides."""
    rhs = _finaltwo_sum(m)
    return _signed(m.ground_size, chi_subset(m.dual()).shift(m.full_rank())), rhs


# On the cycle matroid M of g, F_{G|A} = chi_{(M|A)*}, so matiyasevich's
# right side is twozeta's, finaltwo's on M*, times x^|V|; its left side
# stays on the graph.
def _verify_matiyasevich(g: MultiGraph):
    """(-1)^|E| x^|E| P_G = x^|V| sum_A (1-x)^(|E|-|A|) F_{G|A}."""
    rhs = _finaltwo_sum(make_graphic(g).dual()).shift(g.n)
    ne = len(g.edges)
    return _signed(ne, chromatic_poly(g).shift(ne)), rhs


def _verify_th2(g: MultiGraph):
    """(-1)^|E| x^|V| F_G = sum (1-x)^|A| P_{G/A} over connected partitions.
    Both sides' guards fire before either side is summed."""
    _partition_guard(g)
    lhs = _signed(len(g.edges), flow_poly(g).shift(g.n))
    return lhs, _partition_sum(g)


def _class_product_sum(ranks: list[int], pvalue, qvalue) -> list:
    """[(Q, P)] for sum_A (-1)^|A| P_A Q_A, P_A the subset sum of pvalue
    at A and Q_A the superset sum of qvalue: Q runs over the distinct
    Q_A, and P is the signed sum of P_A over every A with that Q_A, so
    the sum is one product per pair.  The superset sums come first and
    are kept only as class ids while the subset sums are built, so one
    table of wide ints is alive at a time."""
    qsums, wq = _packed_sums(ranks, qvalue, superset=True)
    index = dict.fromkeys(qsums)
    for k, v in enumerate(index):
        index[v] = k
    ids = list(map(index.__getitem__, qsums))
    del qsums
    psums, wp = _packed_sums(ranks, pvalue)
    groups = _tally(ids, psums, wp, signed=True)
    reps = list(index)
    return [(IntPoly.unpack(reps[k], wq), p) for k, p in groups.items()]


def _verify_convolution(m: Matroid):
    """T(x,y) = sum_A T_{M|A}(0,y) * T_{M.(E-A)}(x,0), checked exactly.

    Both factors expand into census sums:
      T_{M|A}(0,y)      = (-1)^r(A) sum_{B sub A} (-1)^r(B) (y-1)^(|B|-r(B))
      T_{M.(E-A)}(x,0)  = (-1)^(|A|+r(A)) sum_{C sup A} (-1)^(|C|-r(C))
                          (x-1)^(r(E)-r(C))
    so two lattice transforms give every factor at once, and the signs
    (-1)^r(A) and (-1)^(|A|+r(A)) combine to (-1)^|A|.  The sums are
    polynomials in a = x-1 and b = y-1, multiplied once per distinct
    contraction factor, and compared with R(a, b) = T(a+1, b+1): the
    change of variable is a ring automorphism, so this proves the identity.
    """
    ranks = rank_table(m)
    rfull = ranks[-1]
    terms: dict = {}
    for px, py in _class_product_sum(
        ranks,
        lambda a, r: IntPoly.monomial((-1) ** r, a - r),
        lambda a, r: IntPoly.monomial((-1) ** (a - r), rfull - r),
    ):
        for i, cx in enumerate(px.coeffs):
            for j, cy in enumerate(py.coeffs):
                terms[i, j] = terms.get((i, j), 0) + cx * cy
    return whitney_R(m), BiPoly(terms)


def _sparse(terms) -> IntPoly:
    """sum c x^e over the (e, c) pairs ``terms``."""
    terms = list(terms)
    out = [0] * (max((e for e, _c in terms), default=-1) + 1)
    for e, c in terms:
        out[e] += c
    return IntPoly(out)


def _verify_kung(m: Matroid):
    """R(lam xi, x y) = sum_A (-1)^|A| P_A(lam, x) Q_A(xi, y), with
      P_A = sum_{B sub A} (-1)^|B| lam^(R-r(B)) x^(|B|-r(B))
      Q_A = sum_{C sup A} xi^(R-r(C)) y^(|C|-r(C)),
    proved in one variable t by the Kronecker substitution lam = t,
    x = t^(R+1), xi = t^D, y = t^(D(R+1)) with D = (R+1)(n-R+1).  Every
    exponent of lam is at most R and every exponent of x at most n - R, so
    lam^i x^j goes to t^(i+(R+1)j) with i+(R+1)j < D, xi^k y^l to
    D times that, and distinct monomials in the four variables go to
    distinct powers of t: the identity holds exactly when the two
    polynomials in t are equal.
    """
    ranks = rank_table(m)
    rfull = ranks[-1]
    d = (rfull + 1) * (m.ground_size - rfull + 1)

    def power(i, j):
        """The power of t that lam^i x^j (or, times D, xi^i y^j) goes to."""
        return i + (rfull + 1) * j

    groups = _class_product_sum(
        ranks,
        lambda a, r: IntPoly.monomial((-1) ** a, power(rfull - r, a - r)),
        lambda a, r: IntPoly.monomial(1, power(rfull - r, a - r)),
    )
    # q(t^D) p(t) puts q_k p_e at D k + e: the right side is one flat
    # coefficient list, one slice of p added per nonzero q_k.  It is sized
    # from the actual degrees, so it is still the product when a table that
    # is not a matroid's gives p degree D or more.
    rhs = [0] * max((d * (len(q.coeffs) - 1) + len(p.coeffs) for q, p in groups), default=0)
    for q, p in groups:
        pc = p.coeffs
        for k, qk in enumerate(q.coeffs):
            if qk:
                at, end = d * k, d * k + len(pc)
                rhs[at:end] = [c + qk * pe for c, pe in zip(rhs[at:end], pc)]
    lhs = _sparse((power(i, j) * (1 + d), c) for (i, j), c in whitney_R(m).terms.items())
    return lhs, IntPoly(rhs)


def _verify_uniform_split(m: Matroid):
    """T = T(x,0) + T(0,y); holds on uniform matroids with an element."""
    t = tutte(m)
    tx = BiPoly({k: c for k, c in t.terms.items() if k[1] == 0})
    ty = BiPoly({k: c for k, c in t.terms.items() if k[0] == 0})
    return t, tx + ty


def _verify_hyperbola_r(m: Matroid):
    """R(x, 1/x) = (x+1)^n x^(R-n), times x^N with N = n - R, the top
    y-degree of R: sum r_ij x^(i+N-j) = (x+1)^n.  It is hyperbola-t,
    T(x, x/(x-1)) = x^n (x-1)^(R-n), read in a = x - 1."""
    rp = whitney_R(m)
    n = m.ground_size
    nullity = n - m.full_rank()
    lhs = _sparse((i + nullity - j, c) for (i, j), c in rp.terms.items())
    return lhs, poly_pow(IntPoly((1, 1)), n)


# kind -> checker; each returns its two sides exactly.
_KINDS = {
    IdentityKind.THM1_ONE: _verify_thm1_one,
    IdentityKind.THM1_TWO: _verify_finaltwo,
    IdentityKind.TWOZETA: lambda m: _verify_finaltwo(m.dual()),
    IdentityKind.FINALTWO: _verify_finaltwo,
    IdentityKind.MATIYASEVICH: _verify_matiyasevich,
    IdentityKind.MATIYASEVICH_INVERSE: lambda g: _verify_thm1_one(make_graphic(g)),
    IdentityKind.TH2_CONNECTED_PARTITIONS: _verify_th2,
    IdentityKind.CONVOLUTION: _verify_convolution,
    IdentityKind.KUNG: _verify_kung,
    IdentityKind.UNIFORM_SPLIT: _verify_uniform_split,
    IdentityKind.HYPERBOLA_T: _verify_hyperbola_r,
    IdentityKind.HYPERBOLA_R: _verify_hyperbola_r,
}


def verify_identity(kind: IdentityKind, target, label: str | None = None) -> VerifyReport:
    """Check one identity on one target and report the outcome.

    ``target`` is a Matroid, or a MultiGraph for the graph-level kinds
    (a MultiGraph is also accepted for matroid kinds and wrapped in its
    cycle matroid).  Every kind is proved as a polynomial, and a failing
    report gives both sides as "lhs=... rhs=...".
    """
    try:
        kind = IdentityKind(kind)
    except ValueError:
        raise BadParams(f"unknown identity kind {kind!r}") from None
    if kind in GRAPH_KINDS:
        if not isinstance(target, MultiGraph):
            raise BadParams(f"{kind.value} is stated for graphs")
        name = label or f"graph:{target.n}v{len(target.edges)}e"
    else:
        target = make_graphic(target) if isinstance(target, MultiGraph) else target
        if not isinstance(target, Matroid):
            raise BadParams("target must be a Matroid or MultiGraph")
        name = label or target.label
    lhs, rhs = _KINDS[kind](target)
    mismatch = None if lhs == rhs else f"lhs={lhs} rhs={rhs}"
    return VerifyReport(kind, name, mismatch is None, mismatch)
