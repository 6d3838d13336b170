"""Duality identities relating chi, Tutte, chromatic and flow polynomials.

The q-deformed zeta value zeta_q(z) = 1/(1 - q^(-z)) at z = +-1 turns the
two-variable subset expansions into one-line identities between a matroid
and its dual.  This module implements the identity zoo and a uniform
verifier:

* three zeta-weighted sum identities expressing chi of the dual (or of M
  itself) through characteristic polynomials of restrictions,
  contractions, and duals of restrictions;
* an all-polynomial contraction formula for chi of the dual,
  exposed as ``chi_dual_via_finaltwo``;
* the chromatic/flow specializations on graphs (Matiyasevich's identity
  and its inverse), whose right sides are twozeta's and thm1-one's on the
  cycle matroid, plus the connected-partition formula for the flow
  polynomial;
* the Tutte convolution T(x,y) = sum_A T_{M|A}(0,y) T_{M/A}(x,0), Kung's
  bilinear convolution for the Whitney rank polynomial, the split
  T = T(x,0) + T(0,y) valid on uniform matroids, and the two hyperbola
  evaluations along xy = x + y style curves.

Verification is exact polynomial comparison where the identity is
polynomial, and exact rational evaluation at documented sample points
where the identity lives in a localized ring (negative powers of q).

Every subset sum over minors is one call of ``_lattice_sums``: a value
per subset, read off (|A|, r(A)), then one zeta/Moebius transform over
the subset lattice (one pass per ground element, 2^n cells), so a full
table of minor polynomials costs n * 2^n additions instead of 3^n.  The
transforms add plain ints: polynomial cells are packed into one int each
(Kronecker substitution at x = 2^w, ``IntPoly.pack``), wide enough that
no coefficient of any sum overflows its digit, and every distinct sum is
unpacked once.
Every table starts from ``rank_table``, whose one guard (``TABLE_GUARD``)
refuses more than 20 elements before any rank query.
The exact work is on ints and ``IntPoly``s.  A zeta-weighted right side
whose weight depends on (|A|, r(A)) or |A| alone first sums its table
per weight key (``_group_sums``) and evaluates only those <= (n+1)^2
groups at each sample point.  Kung's rational cell values are scaled by
the lcm d of their denominators, so both of its transforms add ints and
each point divides once, by d_p * d_q.
Each checker only states the two sides of its identity.  ``_KINDS`` maps
every kind to its checker and, for a sampled kind, its sample points;
``_sample_points`` parses those points for every kind alike (defaults,
groups, poles, labels) and ``_first_mismatch`` is the one loop over them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import add

from .algebra import BiPoly, IntPoly, eval_bipoly, exact_div_monomial, poly_pow
from .errors import BadParams, NotDivisible, TooLarge
from .graphs import MultiGraph, connected_partitions, quotient
from .invariants import chi_subset, chromatic_poly, flow_poly, tutte, whitney_R
from .matroids import Matroid, make_graphic


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

DEFAULT_QS = (Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(1, 2))
DEFAULT_XS = (Fraction(2), Fraction(3), Fraction(4), Fraction(1, 2), Fraction(1, 3))
DEFAULT_KUNG = (
    (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5)),
    (Fraction(3), Fraction(2), Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3, 2)),
    (Fraction(5), Fraction(2), Fraction(2, 3), Fraction(2)),
    (Fraction(2), Fraction(2), Fraction(3), Fraction(5, 2)),
)

PARTITION_VERTEX_GUARD = 12
# Every minor table holds 2^n entries and grows about 2x per element.  At
# n = 20 (uniform:3,20, or K6 plus 5 parallel edges for the Matiyasevich
# kinds; Python 3.11) the table kinds peak between 185 MB (thm1-two,
# finaltwo) and 275 MB (twozeta).  20 admits K6 (15 edges) and refuses K7
# (21 edges).
TABLE_GUARD = 20


@dataclass
class VerifyReport:
    """Outcome of one identity check on one target."""

    kind: IdentityKind
    target: str
    mode: str  # "exact-polynomial" or "sampled-points"
    samples: list
    passed: bool
    first_mismatch: str | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "target": self.target,
            "mode": self.mode,
            "samples": list(self.samples),
            "passed": self.passed,
            "first_mismatch": self.first_mismatch,
        }


def zeta_q(q, z: int) -> Fraction:
    """zeta_q(z) = 1/(1 - q^(-z)) for z in {1, -1}.

    zeta_q(1) = q/(q-1) and zeta_q(-1) = 1/(1-q); undefined at q in {0,1}.
    """
    q = Fraction(q)
    if q == 0 or q == 1:
        raise BadParams("zeta_q undefined at q in {0, 1}")
    if z == 1:
        return q / (q - 1)
    if z == -1:
        return 1 / (1 - q)
    raise BadParams("zeta_q implemented at z = +-1 only")


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


def _lattice_sums(ranks: list[int], value, superset: bool = False) -> list:
    """sum of value(|B|, r(B)) over every B subset of A (superset of A when
    ``superset``), for every A, given the rank table ``ranks``.

    value is called once per distinct (|B|, r(B)) pair; the transform
    only adds, so cells may share one immutable value.  ``IntPoly`` values
    are packed at x = 2^w (``IntPoly.pack``) so the transform adds ints,
    and each distinct sum is unpacked once.  No sum has a coefficient of
    2^n * max|coefficient| or more, so w = n + bits(max|coefficient|) + 1
    keeps every balanced digit exact.
    """
    n = len(ranks).bit_length() - 1
    keys = [(mask.bit_count(), r) for mask, r in enumerate(ranks)]
    memo = {key: value(*key) for key in set(keys)}
    polys = all(isinstance(v, IntPoly) for v in memo.values())
    if polys:
        top = max((abs(c) for v in memo.values() for c in v.coeffs), default=0)
        w = n + top.bit_length() + 1
        memo = {key: v.pack(w) for key, v in memo.items()}
    vals = (superset_zeta if superset else subset_zeta)([memo[key] for key in keys], n)
    if not polys:
        return vals
    unpacked = {v: IntPoly.unpack(v, w) for v in set(vals)}
    return [unpacked[v] for v in vals]


def _group_sums(table: list, key) -> dict:
    """{key(A): sum of table[A] over every mask A with that key}.  A sum
    over subsets whose weight depends on key(A) alone then weights one
    group per key, at most (n+1)^2 of them, instead of 2^n entries.
    Each distinct (key, value) pair is counted, then scaled once."""
    groups: dict = {}
    for (k, p), c in Counter((key(mask), p) for mask, p in enumerate(table)).items():
        p = p.scale(c)
        groups[k] = groups[k] + p if k in groups else p
    return groups


def _negate_odd(vals: list) -> list:
    """(-1)^|A| vals[A] for every A."""
    return [-v if mask.bit_count() % 2 else v for mask, v in enumerate(vals)]


def chi_restrict_table(m: Matroid, ranks: list[int] | None = None) -> list[IntPoly]:
    """chi of M restricted to A, for every A at once.

    Subset-sum f(B) = (-1)^|B| x^(R - r(B)), then divide the entry at A by
    x^(R - r(A)); divisibility is guaranteed because ranks of subsets of A
    never exceed r(A).  Each distinct (sum, r(A)) pair is divided once.
    """
    ranks = ranks if ranks is not None else rank_table(m)
    rfull = ranks[-1]
    vals = _lattice_sums(ranks, lambda a, r: IntPoly.monomial((-1) ** a, rfull - r))
    pairs = list(zip(vals, ranks))
    quotients = {(v, r): exact_div_monomial(v, rfull - r) for v, r in set(pairs)}
    return [quotients[pair] for pair in pairs]


def chi_contract_table(m: Matroid, ranks: list[int] | None = None) -> list[IntPoly]:
    """chi of M with the subset A contracted away (ground set E - A),
    for every A at once, via a superset Moebius sum."""
    ranks = ranks if ranks is not None else rank_table(m)
    rfull = ranks[-1]
    return _negate_odd(
        _lattice_sums(
            ranks, lambda a, r: IntPoly.monomial((-1) ** a, rfull - r), superset=True
        )
    )


def chi_dual_restrict_table(
    m: Matroid, ranks: list[int] | None = None
) -> list[IntPoly]:
    """chi of (M|A)* = chi of M*.A, for every A, via a subset Moebius sum
    of x^(|C| - r(C))."""
    ranks = ranks if ranks is not None else rank_table(m)
    return _negate_odd(
        _lattice_sums(ranks, lambda a, r: IntPoly.monomial((-1) ** a, a - r))
    )


def _finaltwo_sum(m: Matroid, size_weights: list[IntPoly] | None = None) -> IntPoly:
    """sum_A w(|A|) * chi of (M with A contracted away), where the
    default weight is w(k) = (1-x)^k.  The weight is a parameter so tests
    can mutate it and watch the identity break."""
    groups = _group_sums(chi_contract_table(m), int.bit_count)
    if size_weights is None:
        one_minus_x = IntPoly((1, -1))
        size_weights = [poly_pow(one_minus_x, k) for k in range(m.ground_size + 1)]
    return sum((size_weights[a] * p for a, p in groups.items()), IntPoly.zero())


def chi_dual_via_finaltwo(m: Matroid) -> IntPoly:
    """chi of the dual through contractions only:

        chi_{M*}(x) = (-1)^|E| x^(-r(E)) sum_A (1-x)^|A| chi_{M.(E-A)}(x)

    The sum is exactly divisible by x^r(E); a NotDivisible escape means
    the input was not a matroid.
    """
    acc = _finaltwo_sum(m)
    if m.ground_size % 2:
        acc = -acc
    return exact_div_monomial(acc, m.full_rank())


def _partition_terms(g: MultiGraph) -> dict[int, IntPoly]:
    """{|A|: sum of P_{G/A}} over the partitions of V into connected
    blocks, A the edges inside blocks, so at most |E|+1 groups; guarded
    on the vertex count."""
    if g.n > PARTITION_VERTEX_GUARD:
        raise TooLarge(
            f"connected-partition sum on {g.n} > {PARTITION_VERTEX_GUARD} vertices"
        )
    groups: dict = {}
    for _blocks, amask in connected_partitions(g):
        a, p = amask.bit_count(), chromatic_poly(quotient(g, amask))
        groups[a] = groups[a] + p if a in groups else p
    return groups


def flow_via_connected_partitions(g: MultiGraph) -> IntPoly:
    """Flow polynomial from chromatic polynomials of quotients:

        F_G(x) = (-1)^|E| x^(-|V|) sum over partitions of V into
                 connected blocks of (1-x)^|A| P_{G/A}(x)

    where A is the set of edges inside blocks and G/A identifies each
    block to a point.  Only connected partitions are enumerated, and the
    terms are summed per |A| before the (1-x)^|A| products; the vertex
    count is guarded at 12.
    """
    one_minus_x = IntPoly((1, -1))
    terms = (poly_pow(one_minus_x, a) * p for a, p in _partition_terms(g).items())
    acc = sum(terms, IntPoly.zero())
    if len(g.edges) % 2:
        acc = -acc
    return exact_div_monomial(acc, g.n)


def _sample_points(kind: IdentityKind, spec: tuple, samples) -> list:
    """[(label, point)] for ``samples`` (a flat list read len(names) at a
    time), or for the defaults when ``samples`` is None.  ``spec`` is
    (names, defaults, poles): the coordinate names of one point, the
    default points flattened, and the values no coordinate may take."""
    names, defaults, poles = spec
    try:
        flat = [Fraction(s) for s in (defaults if samples is None else samples)]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"cannot parse samples {samples!r}") from exc
    if not flat:
        raise BadParams("need at least one sample point")
    k = len(names)
    if len(flat) % k:
        raise BadParams(f"{kind.value} samples come in groups of {k}")
    out = []
    for i in range(0, len(flat), k):
        point = tuple(flat[i : i + k])
        label = ",".join(f"{name}={v}" for name, v in zip(names, point))
        if poles.intersection(point):
            raise BadParams(f"{label} is a pole of {kind.value}")
        out.append((label, point))
    return out


def _first_mismatch(points, lhs, rhs) -> str | None:
    """The first point where the two sides differ, as "label: lhs=... rhs=..."."""
    for label, point in points:
        left, right = lhs(*point), rhs(*point)
        if left != right:
            return f"{label}: lhs={left} rhs={right}"
    return None


def _restriction_rhs(m: Matroid):
    """q -> sum_A (-1)^(n-|A|) zeta_q(1)^|A| chi_{M|A}(q) / q^r(A): the right
    side of thm1-one, and of matiyasevich-inverse on a cycle matroid."""
    n = m.ground_size
    ranks = rank_table(m)
    groups = _group_sums(
        chi_restrict_table(m, ranks), lambda mask: (mask.bit_count(), ranks[mask])
    )

    def rhs(q):
        z1 = zeta_q(q, 1)
        return sum(
            (-1) ** (n - a) * p(q) * z1**a / q**r for (a, r), p in groups.items()
        )

    return rhs


def _dual_restriction_rhs(m: Matroid):
    """q -> sum_A zeta_q(-1)^|A| chi_{(M|A)*}(q): the right side of twozeta,
    and of matiyasevich on a cycle matroid."""
    groups = _group_sums(chi_dual_restrict_table(m), int.bit_count)

    def rhs(q):
        zm1 = zeta_q(q, -1)
        return sum(zm1**a * p(q) for a, p in groups.items())

    return rhs


def _verify_thm1_one(m: Matroid):
    rhs = _restriction_rhs(m)
    chi_dual = chi_subset(m.dual())
    return lambda q: chi_dual(q) * zeta_q(q, -1) ** m.ground_size, rhs


def _verify_thm1_two(m: Matroid):
    n = m.ground_size
    groups = _group_sums(chi_contract_table(m), int.bit_count)
    chi_dual = chi_subset(m.dual())
    rdual = n - m.full_rank()

    def rhs(q):
        zm1 = zeta_q(q, -1)
        return sum(zm1 ** (n - a) * p(q) for a, p in groups.items())

    return lambda q: chi_dual(q) / q**rdual * zeta_q(q, 1) ** n, rhs


def _verify_twozeta(m: Matroid):
    rhs = _dual_restriction_rhs(m)
    chi_m = chi_subset(m)
    rfull = m.full_rank()
    return lambda q: chi_m(q) / q**rfull * zeta_q(q, 1) ** m.ground_size, rhs


def _verify_finaltwo(m: Matroid):
    try:
        got = chi_dual_via_finaltwo(m)
    except NotDivisible as exc:
        return f"contraction sum not divisible: {exc}"
    expected = chi_subset(m.dual())
    if got != expected:
        return f"lhs={expected} rhs={got}"
    return None


# On the cycle matroid M of g, F_{G|A} = chi_{(M|A)*}, and P_{G|A} /
# q^|V(A)| = chi_{M|A} / q^r(A) because ``subgraph`` keeps only the support
# vertices, so c(A) = |V(A)| - r(A).  So matiyasevich's right side is
# twozeta's and matiyasevich-inverse's is thm1-one's; the left sides stay
# on the graph.
def _verify_matiyasevich(g: MultiGraph):
    rhs = _dual_restriction_rhs(make_graphic(g))
    p_g = chromatic_poly(g)
    return lambda q: p_g(q) / q**g.n * zeta_q(q, 1) ** len(g.edges), rhs


def _verify_matiyasevich_inverse(g: MultiGraph):
    rhs = _restriction_rhs(make_graphic(g))
    f_g = flow_poly(g)
    return lambda q: f_g(q) * zeta_q(q, -1) ** len(g.edges), rhs


def _verify_th2(g: MultiGraph):
    parts = _partition_terms(g)
    sign = -1 if len(g.edges) % 2 else 1
    return flow_poly(g), lambda q: (
        sign * sum((1 - q) ** a * p(q) for a, p in parts.items()) / q**g.n
    )


def _verify_convolution(m: Matroid):
    """T(x,y) = sum_A T_{M|A}(0,y) * T_{M.(E-A)}(x,0), checked exactly.

    Both factors expand into census sums:
      T_{M|A}(0,y)      = (-1)^r(A) sum_{B sub A} (-1)^r(B) (y-1)^(|B|-r(B))
      T_{M.(E-A)}(x,0)  = (-1)^(|A|+r(A)) sum_{C sup A} (-1)^(|C|-r(C))
                          (x-1)^(r(E)-r(C))
    so two lattice transforms give every factor at once.  The tables hold
    polynomials in a = x-1 and b = y-1; the summed product is translated
    back to x and y once at the end.
    """
    ranks = rank_table(m)
    rfull = ranks[-1]
    pvals = _lattice_sums(ranks, lambda a, r: IntPoly.monomial((-1) ** r, a - r))
    qvals = _lattice_sums(
        ranks,
        lambda a, r: IntPoly.monomial((-1) ** (a - r), rfull - r),
        superset=True,
    )
    terms: dict = {}
    # (-1)^r(A) from the restriction side and (-1)^(|A|+r(A)) from the
    # contraction side combine to (-1)^|A|.
    for py, px in zip(pvals, _negate_odd(qvals)):
        for i, cx in enumerate(px.coeffs):
            for j, cy in enumerate(py.coeffs):
                terms[i, j] = terms.get((i, j), 0) + cx * cy
    rhs = BiPoly(terms).translate(-1, -1)
    lhs = tutte(m)
    if lhs != rhs:
        return f"lhs={lhs} rhs={rhs}"
    return None


def _verify_kung(m: Matroid):
    ranks = rank_table(m)
    rfull = ranks[-1]
    keys = {(mask.bit_count(), r) for mask, r in enumerate(ranks)}
    rpoly = whitney_R(m)

    def int_sums(value, superset=False):
        """_lattice_sums of the rational value(|B|, r(B)), run on ints: the
        cell values are scaled by d, the lcm of their denominators, and
        returned with d."""
        cells = {key: value(*key) for key in keys}
        d = lcm(*(v.denominator for v in cells.values()))
        ints = {key: v.numerator * (d // v.denominator) for key, v in cells.items()}
        return _lattice_sums(ranks, lambda a, r: ints[a, r], superset), d

    def rhs(lam, xi, x, y):
        pv, dp = int_sums(lambda a, r: (-lam) ** -r * (-x) ** (a - r))
        qv, dq = int_sums(lambda a, r: xi ** (rfull - r) * y ** (a - r), superset=True)
        # The weight of cell A, lam^(R-r(A)) (-y)^(|A|-r(A)) (-lam)^r(A)
        # y^(r(A)-|A|), is (-1)^|A| lam^R.
        total = sum(p * q for p, q in zip(_negate_odd(pv), qv))
        return lam**rfull * Fraction(total, dp * dq)

    return lambda lam, xi, x, y: eval_bipoly(rpoly, lam * xi, x * y), rhs


def _verify_uniform_split(m: Matroid):
    t = tutte(m)
    tx = BiPoly({k: c for k, c in t.terms.items() if k[1] == 0})
    ty = BiPoly({k: c for k, c in t.terms.items() if k[0] == 0})
    if t != tx + ty:
        return f"T={t} but T(x,0)+T(0,y)={tx + ty}"
    return None


def _verify_hyperbola_t(m: Matroid):
    t = tutte(m)
    n, rfull = m.ground_size, m.full_rank()
    return (
        lambda x: eval_bipoly(t, x, x / (x - 1)),
        lambda x: x**n * (x - 1) ** (rfull - n),
    )


def _verify_hyperbola_r(m: Matroid):
    rp = whitney_R(m)
    n, rfull = m.ground_size, m.full_rank()
    return (
        lambda x: eval_bipoly(rp, x, 1 / x),
        lambda x: (x + 1) ** n * x ** (rfull - n),
    )


_Q = (("q",), DEFAULT_QS, frozenset({0, 1}))
_KUNG = (("lam", "xi", "x", "y"), sum(DEFAULT_KUNG, ()), frozenset({0}))
_X_T = (("x",), DEFAULT_XS, frozenset({1}))
_X_R = (("x",), DEFAULT_XS, frozenset({0}))

# kind -> (checker, sample spec for _sample_points).  A sampled checker
# returns its two sides as functions of one point; a spec of None marks an
# exact-polynomial kind, whose checker returns the mismatch text or None.
_KINDS = {
    IdentityKind.THM1_ONE: (_verify_thm1_one, _Q),
    IdentityKind.THM1_TWO: (_verify_thm1_two, _Q),
    IdentityKind.TWOZETA: (_verify_twozeta, _Q),
    IdentityKind.FINALTWO: (_verify_finaltwo, None),
    IdentityKind.MATIYASEVICH: (_verify_matiyasevich, _Q),
    IdentityKind.MATIYASEVICH_INVERSE: (_verify_matiyasevich_inverse, _Q),
    IdentityKind.TH2_CONNECTED_PARTITIONS: (_verify_th2, _Q),
    IdentityKind.CONVOLUTION: (_verify_convolution, None),
    IdentityKind.KUNG: (_verify_kung, _KUNG),
    IdentityKind.UNIFORM_SPLIT: (_verify_uniform_split, None),
    IdentityKind.HYPERBOLA_T: (_verify_hyperbola_t, _X_T),
    IdentityKind.HYPERBOLA_R: (_verify_hyperbola_r, _X_R),
}


def verify_identity(
    kind: IdentityKind, target, samples=None, label: str | None = None
) -> VerifyReport:
    """Check one identity on one target and report the outcome.

    ``target`` is a Matroid, or a MultiGraph for the graph-level kinds
    (a MultiGraph is also accepted for matroid kinds and wrapped in its
    cycle matroid).  ``samples`` overrides the default sample points for
    the sampled kinds: a non-empty list of rationals for the q/x ones, and
    a flat list read four at a time (lambda, xi, x, y) for KUNG; the exact
    kinds reject any ``samples`` with BadParams.  Points
    at a pole (q in {0, 1}; x = 1 for hyperbola-t, x = 0 for hyperbola-r;
    any 0 for KUNG) are rejected with BadParams.
    """
    try:
        kind = IdentityKind(kind)
    except ValueError:
        raise BadParams(f"unknown identity kind {kind!r}") from None
    check, spec = _KINDS[kind]
    if kind in GRAPH_KINDS:
        if not isinstance(target, MultiGraph):
            raise BadParams(f"{kind.value} is stated for graphs")
        name = label or f"graph:{target.n}v{len(target.edges)}e"
    else:
        target = make_graphic(target) if isinstance(target, MultiGraph) else target
        if not isinstance(target, Matroid):
            raise BadParams("target must be a Matroid or MultiGraph")
        name = label or target.label
    if spec is None:
        if samples is not None:
            raise BadParams(f"{kind.value} is proved exactly and takes no samples")
        mode, labels, mismatch = "exact-polynomial", ["exact"], check(target)
    else:
        points = _sample_points(kind, spec, samples)
        mode, labels = "sampled-points", [lab for lab, _point in points]
        mismatch = _first_mismatch(points, *check(target))
    return VerifyReport(kind, name, mode, labels, mismatch is None, mismatch)
