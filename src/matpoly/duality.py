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
  and its inverse) plus the connected-partition formula for the flow
  polynomial;
* the Tutte convolution T(x,y) = sum_A T_{M|A}(0,y) T_{M/A}(x,0), Kung's
  bilinear convolution for the Whitney rank polynomial, the split
  T = T(x,0) + T(0,y) valid on uniform matroids, and the two hyperbola
  evaluations along xy = x + y style curves.

Verification is exact polynomial comparison where the identity is
polynomial, and exact rational evaluation at documented sample points
where the identity lives in a localized ring (negative powers of q).

Subset sums over minors are computed with zeta/Moebius transforms over
the subset lattice: one pass per ground element, 2^n cells, so the full
table of minor characteristic polynomials costs n * 2^n ring operations
instead of 3^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .algebra import BiPoly, IntPoly, eval_bipoly, exact_div_monomial, poly_pow
from .errors import BadParams, NotDivisible, TooLarge
from .graphs import MultiGraph, connected_partitions, quotient, subgraph
from .invariants import (
    SUBSET_GUARD,
    chi_subset,
    chromatic_poly,
    flow_poly,
    tutte,
    whitney_R,
)
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
    """r(A) for every subset mask A, as a dense list of length 2^n."""
    if m.ground_size > SUBSET_GUARD:
        raise TooLarge(f"rank table on {m.ground_size} elements")
    return [m.rank(mask) for mask in range(1 << m.ground_size)]


def subset_zeta(vals: list, n: int) -> list:
    """In-place subset-sum transform: vals[A] <- sum over B subset A."""
    for e in range(n):
        bit = 1 << e
        for mask in range(1 << n):
            if mask & bit:
                vals[mask] = vals[mask] + vals[mask ^ bit]
    return vals


def superset_zeta(vals: list, n: int) -> list:
    """In-place superset-sum transform: vals[A] <- sum over C superset A."""
    for e in range(n):
        bit = 1 << e
        for mask in range(1 << n):
            if not mask & bit:
                vals[mask] = vals[mask] + vals[mask | bit]
    return vals


def chi_restrict_table(m: Matroid, ranks: list[int] | None = None) -> list[IntPoly]:
    """chi of M restricted to A, for every A at once.

    Build f(B) = (-1)^|B| x^(R - r(B)), subset-sum it, then divide the
    entry at A by x^(R - r(A)); divisibility is guaranteed because ranks
    of subsets of A never exceed r(A).
    """
    n = m.ground_size
    ranks = ranks if ranks is not None else rank_table(m)
    rfull = ranks[-1]
    vals: list = [
        IntPoly.monomial(-1 if mask.bit_count() % 2 else 1, rfull - ranks[mask])
        for mask in range(1 << n)
    ]
    subset_zeta(vals, n)
    return [
        exact_div_monomial(vals[mask], rfull - ranks[mask])
        for mask in range(1 << n)
    ]


def chi_contract_table(m: Matroid, ranks: list[int] | None = None) -> list[IntPoly]:
    """chi of M with the subset A contracted away (ground set E - A),
    for every A at once, via a superset Moebius sum."""
    n = m.ground_size
    ranks = ranks if ranks is not None else rank_table(m)
    rfull = ranks[-1]
    vals: list = [
        IntPoly.monomial(-1 if mask.bit_count() % 2 else 1, rfull - ranks[mask])
        for mask in range(1 << n)
    ]
    superset_zeta(vals, n)
    return [
        vals[mask] if mask.bit_count() % 2 == 0 else -vals[mask]
        for mask in range(1 << n)
    ]


def chi_dual_restrict_table(
    m: Matroid, ranks: list[int] | None = None
) -> list[IntPoly]:
    """chi of (M|A)* = chi of M*.A, for every A, via a subset Moebius sum
    of x^(|C| - r(C))."""
    n = m.ground_size
    ranks = ranks if ranks is not None else rank_table(m)
    vals: list = [
        IntPoly.monomial(
            -1 if mask.bit_count() % 2 else 1, mask.bit_count() - ranks[mask]
        )
        for mask in range(1 << n)
    ]
    subset_zeta(vals, n)
    return [
        vals[mask] if mask.bit_count() % 2 == 0 else -vals[mask]
        for mask in range(1 << n)
    ]


def _finaltwo_sum(m: Matroid, size_weights: list[IntPoly] | None = None) -> IntPoly:
    """sum_A w(|A|) * chi of (M with A contracted away), where the
    default weight is w(k) = (1-x)^k.  The weight is a parameter so tests
    can mutate it and watch the identity break."""
    n = m.ground_size
    if size_weights is None:
        one_minus_x = IntPoly((1, -1))
        size_weights = [poly_pow(one_minus_x, k) for k in range(n + 1)]
    table = chi_contract_table(m)
    acc = IntPoly.zero()
    for mask in range(1 << n):
        acc = acc + size_weights[mask.bit_count()] * table[mask]
    return acc


def chi_dual_via_finaltwo(m: Matroid) -> IntPoly:
    """chi of the dual through contractions only:

        chi_{M*}(x) = (-1)^|E| x^(-r(E)) sum_A (1-x)^|A| chi_{M.(E-A)}(x)

    The sum is exactly divisible by x^r(E); a NotDivisible escape means
    the input was not a matroid.
    """
    if m.ground_size > SUBSET_GUARD:
        raise TooLarge(f"{m.label}: contraction table is guarded at {SUBSET_GUARD}")
    acc = _finaltwo_sum(m)
    if m.ground_size % 2:
        acc = -acc
    return exact_div_monomial(acc, m.full_rank())


def flow_via_connected_partitions(g: MultiGraph) -> IntPoly:
    """Flow polynomial from chromatic polynomials of quotients:

        F_G(x) = (-1)^|E| x^(-|V|) sum over partitions of V into
                 connected blocks of (1-x)^|A| P_{G/A}(x)

    where A is the set of edges inside blocks and G/A identifies each
    block to a point.  Enumeration is over all vertex partitions, so the
    vertex count is guarded at 12.
    """
    if g.n > PARTITION_VERTEX_GUARD:
        raise TooLarge(
            f"connected-partition sum on {g.n} > {PARTITION_VERTEX_GUARD} vertices"
        )
    one_minus_x = IntPoly((1, -1))
    acc = IntPoly.zero()
    for _blocks, amask in connected_partitions(g):
        p = chromatic_poly(quotient(g, amask))
        acc = acc + poly_pow(one_minus_x, amask.bit_count()) * p
    if len(g.edges) % 2:
        acc = -acc
    return exact_div_monomial(acc, g.n)


def _check_samples_q(samples) -> list[Fraction]:
    qs = [Fraction(q) for q in (samples if samples is not None else DEFAULT_QS)]
    if not qs:
        raise BadParams("need at least one sample point")
    for q in qs:
        if q in (0, 1):
            raise BadParams("sample points 0 and 1 are outside the domain")
    return qs


def _report(kind, label, mode, samples, mismatch) -> VerifyReport:
    return VerifyReport(
        kind=kind,
        target=label,
        mode=mode,
        samples=samples,
        passed=mismatch is None,
        first_mismatch=mismatch,
    )


def _verify_thm1_one(m: Matroid, qs: list[Fraction]):
    n = m.ground_size
    ranks = rank_table(m)
    chi_r = chi_restrict_table(m, ranks)
    chi_dual = chi_subset(m.dual())
    mismatch = None
    for q in qs:
        z1, zm1 = zeta_q(q, 1), zeta_q(q, -1)
        lhs = chi_dual(q) * zm1**n
        rhs = Fraction(0)
        for mask in range(1 << n):
            a = mask.bit_count()
            sign = -1 if (n - a) % 2 else 1
            rhs += sign * chi_r[mask](q) * z1**a / q ** ranks[mask]
        if lhs != rhs:
            mismatch = f"q={q}: lhs={lhs} rhs={rhs}"
            break
    return mismatch


def _verify_thm1_two(m: Matroid, qs: list[Fraction]):
    n = m.ground_size
    chi_c = chi_contract_table(m)
    chi_dual = chi_subset(m.dual())
    rdual = n - m.full_rank()
    mismatch = None
    for q in qs:
        z1, zm1 = zeta_q(q, 1), zeta_q(q, -1)
        lhs = chi_dual(q) / q**rdual * z1**n
        rhs = Fraction(0)
        for mask in range(1 << n):
            rhs += zm1 ** (n - mask.bit_count()) * chi_c[mask](q)
        if lhs != rhs:
            mismatch = f"q={q}: lhs={lhs} rhs={rhs}"
            break
    return mismatch


def _verify_twozeta(m: Matroid, qs: list[Fraction]):
    n = m.ground_size
    chi_dr = chi_dual_restrict_table(m)
    chi_m = chi_subset(m)
    rfull = m.full_rank()
    mismatch = None
    for q in qs:
        z1, zm1 = zeta_q(q, 1), zeta_q(q, -1)
        lhs = chi_m(q) / q**rfull * z1**n
        rhs = Fraction(0)
        for mask in range(1 << n):
            rhs += zm1 ** mask.bit_count() * chi_dr[mask](q)
        if lhs != rhs:
            mismatch = f"q={q}: lhs={lhs} rhs={rhs}"
            break
    return mismatch


def _verify_finaltwo(m: Matroid):
    expected = chi_subset(m.dual())
    try:
        got = chi_dual_via_finaltwo(m)
    except NotDivisible as exc:
        return f"contraction sum not divisible: {exc}"
    if got != expected:
        return f"lhs={expected} rhs={got}"
    return None


def _verify_matiyasevich(g: MultiGraph, qs: list[Fraction]):
    ne = len(g.edges)
    p_g = chromatic_poly(g)
    flows = [flow_poly(subgraph(g, mask)) for mask in range(1 << ne)]
    mismatch = None
    for q in qs:
        z1, zm1 = zeta_q(q, 1), zeta_q(q, -1)
        lhs = p_g(q) / q**g.n * z1**ne
        rhs = sum(
            zm1 ** mask.bit_count() * flows[mask](q) for mask in range(1 << ne)
        )
        if lhs != rhs:
            mismatch = f"q={q}: lhs={lhs} rhs={rhs}"
            break
    return mismatch


def _verify_matiyasevich_inverse(g: MultiGraph, qs: list[Fraction]):
    ne = len(g.edges)
    f_g = flow_poly(g)
    chroms = []
    supports = []
    for mask in range(1 << ne):
        h = subgraph(g, mask)
        chroms.append(chromatic_poly(h))
        supports.append(h.n)
    mismatch = None
    for q in qs:
        z1, zm1 = zeta_q(q, 1), zeta_q(q, -1)
        lhs = f_g(q) * zm1**ne
        rhs = Fraction(0)
        for mask in range(1 << ne):
            a = mask.bit_count()
            sign = -1 if (ne - a) % 2 else 1
            rhs += sign * chroms[mask](q) * z1**a / q ** supports[mask]
        if lhs != rhs:
            mismatch = f"q={q}: lhs={lhs} rhs={rhs}"
            break
    return mismatch


def _verify_th2(g: MultiGraph, qs: list[Fraction]):
    if g.n > PARTITION_VERTEX_GUARD:
        raise TooLarge(f"connected-partition sum on {g.n} vertices")
    ne = len(g.edges)
    f_g = flow_poly(g)
    parts = [
        (amask.bit_count(), chromatic_poly(quotient(g, amask)))
        for _blocks, amask in connected_partitions(g)
    ]
    sign = -1 if ne % 2 else 1
    mismatch = None
    for q in qs:
        lhs = f_g(q)
        rhs = sign * sum((1 - q) ** a * p(q) for a, p in parts) / q**g.n
        if lhs != rhs:
            mismatch = f"q={q}: lhs={lhs} rhs={rhs}"
            break
    return mismatch


def _verify_convolution(m: Matroid):
    """T(x,y) = sum_A T_{M|A}(0,y) * T_{M.(E-A)}(x,0), checked exactly.

    Both factors expand into census sums:
      T_{M|A}(0,y)      = (-1)^r(A) sum_{B sub A} (-1)^r(B) (y-1)^(|B|-r(B))
      T_{M.(E-A)}(x,0)  = (-1)^(|A|+r(A)) sum_{C sup A} (-1)^(|C|-r(C))
                          (x-1)^(r(E)-r(C))
    so two lattice transforms give every factor at once.  The tables hold
    monomials in a = x-1 and b = y-1; the summed product is translated
    back to x and y once at the end.
    """
    n = m.ground_size
    ranks = rank_table(m)
    rfull = ranks[-1]
    pvals = [
        IntPoly.monomial(-1 if ranks[mask] % 2 else 1, mask.bit_count() - ranks[mask])
        for mask in range(1 << n)
    ]
    subset_zeta(pvals, n)
    qvals = [
        IntPoly.monomial(
            -1 if (mask.bit_count() - ranks[mask]) % 2 else 1, rfull - ranks[mask]
        )
        for mask in range(1 << n)
    ]
    superset_zeta(qvals, n)
    terms: dict = {}
    for mask in range(1 << n):
        a = mask.bit_count()
        # (-1)^r(A) from the restriction side and (-1)^(|A|+r(A)) from the
        # contraction side combine to (-1)^|A|.
        sign = -1 if a % 2 else 1
        py = pvals[mask]
        px = qvals[mask]
        if py.is_zero() or px.is_zero():
            continue
        for i, cx in enumerate(px.coeffs):
            if not cx:
                continue
            for j, cy in enumerate(py.coeffs):
                if not cy:
                    continue
                k = (i, j)
                v = terms.get(k, 0) + sign * cx * cy
                if v:
                    terms[k] = v
                elif k in terms:
                    del terms[k]
    rhs = BiPoly(terms).translate(-1, -1)
    lhs = tutte(m)
    if lhs != rhs:
        return f"lhs={lhs} rhs={rhs}"
    return None


def _verify_kung(m: Matroid, tuples):
    n = m.ground_size
    ranks = rank_table(m)
    rfull = ranks[-1]
    rpoly = whitney_R(m)
    mismatch = None
    for lam, xi, x, y in tuples:
        lam, xi, x, y = Fraction(lam), Fraction(xi), Fraction(x), Fraction(y)
        if 0 in (lam, xi, x, y):
            raise BadParams("kung samples must be nonzero")
        lhs = eval_bipoly(rpoly, lam * xi, x * y)
        pv = [
            (-lam) ** -ranks[mask] * (-x) ** (mask.bit_count() - ranks[mask])
            for mask in range(1 << n)
        ]
        subset_zeta(pv, n)
        qv = [
            xi ** (rfull - ranks[mask]) * y ** (mask.bit_count() - ranks[mask])
            for mask in range(1 << n)
        ]
        superset_zeta(qv, n)
        rhs = Fraction(0)
        for mask in range(1 << n):
            a = mask.bit_count()
            r_a = ranks[mask]
            rhs += (
                lam ** (rfull - r_a)
                * (-y) ** (a - r_a)
                * (-lam) ** r_a
                * pv[mask]
                * y ** (r_a - a)
                * qv[mask]
            )
        if lhs != rhs:
            mismatch = f"(lam={lam},xi={xi},x={x},y={y}): lhs={lhs} rhs={rhs}"
            break
    return mismatch


def _verify_uniform_split(m: Matroid):
    t = tutte(m)
    tx = BiPoly({k: c for k, c in t.terms.items() if k[1] == 0})
    ty = BiPoly({k: c for k, c in t.terms.items() if k[0] == 0})
    if t != tx + ty:
        return f"T={t} but T(x,0)+T(0,y)={tx + ty}"
    return None


def _verify_hyperbola_t(m: Matroid, xs):
    t = tutte(m)
    n, rfull = m.ground_size, m.full_rank()
    mismatch = None
    for x in xs:
        x = Fraction(x)
        if x == 1:
            raise BadParams("x = 1 is a pole of x/(x-1)")
        lhs = eval_bipoly(t, x, x / (x - 1))
        rhs = x**n * (x - 1) ** (rfull - n)
        if lhs != rhs:
            mismatch = f"x={x}: lhs={lhs} rhs={rhs}"
            break
    return mismatch


def _verify_hyperbola_r(m: Matroid, xs):
    rp = whitney_R(m)
    n, rfull = m.ground_size, m.full_rank()
    mismatch = None
    for x in xs:
        x = Fraction(x)
        if x == 0:
            raise BadParams("x = 0 is a pole of 1/x")
        lhs = eval_bipoly(rp, x, 1 / x)
        rhs = (x + 1) ** n * x ** (rfull - n)
        if lhs != rhs:
            mismatch = f"x={x}: lhs={lhs} rhs={rhs}"
            break
    return mismatch


def verify_identity(
    kind: IdentityKind, target, samples=None, label: str | None = None
) -> VerifyReport:
    """Check one identity on one target and report the outcome.

    ``target`` is a Matroid, or a MultiGraph for the graph-level kinds
    (a MultiGraph is also accepted for matroid kinds and wrapped in its
    cycle matroid).  ``samples`` overrides the default sample points for
    the sampled kinds: rationals for the q/x-parameterized ones, and a
    flat list read four at a time (lambda, xi, x, y) for KUNG.
    """
    try:
        kind = IdentityKind(kind)
    except ValueError:
        raise BadParams(f"unknown identity kind {kind!r}") from None
    if kind in GRAPH_KINDS:
        if not isinstance(target, MultiGraph):
            raise BadParams(f"{kind.value} is stated for graphs")
        g = target
        name = label or f"graph:{g.n}v{len(g.edges)}e"
        qs = _check_samples_q(samples)
        fn = {
            IdentityKind.MATIYASEVICH: _verify_matiyasevich,
            IdentityKind.MATIYASEVICH_INVERSE: _verify_matiyasevich_inverse,
            IdentityKind.TH2_CONNECTED_PARTITIONS: _verify_th2,
        }[kind]
        mismatch = fn(g, qs)
        return _report(
            kind, name, "sampled-points", [f"q={q}" for q in qs], mismatch
        )

    m = make_graphic(target) if isinstance(target, MultiGraph) else target
    if not isinstance(m, Matroid):
        raise BadParams("target must be a Matroid or MultiGraph")
    name = label or m.label

    if kind is IdentityKind.FINALTWO:
        return _report(kind, name, "exact-polynomial", ["exact"], _verify_finaltwo(m))
    if kind is IdentityKind.CONVOLUTION:
        return _report(
            kind, name, "exact-polynomial", ["exact"], _verify_convolution(m)
        )
    if kind is IdentityKind.UNIFORM_SPLIT:
        return _report(
            kind, name, "exact-polynomial", ["exact"], _verify_uniform_split(m)
        )
    if kind in (IdentityKind.THM1_ONE, IdentityKind.THM1_TWO, IdentityKind.TWOZETA):
        qs = _check_samples_q(samples)
        fn = {
            IdentityKind.THM1_ONE: _verify_thm1_one,
            IdentityKind.THM1_TWO: _verify_thm1_two,
            IdentityKind.TWOZETA: _verify_twozeta,
        }[kind]
        mismatch = fn(m, qs)
        return _report(
            kind, name, "sampled-points", [f"q={q}" for q in qs], mismatch
        )
    if kind is IdentityKind.KUNG:
        if samples is None:
            tuples = DEFAULT_KUNG
        else:
            flat = [Fraction(s) for s in samples]
            if not flat or len(flat) % 4:
                raise BadParams("kung samples come in groups of four")
            tuples = [tuple(flat[i : i + 4]) for i in range(0, len(flat), 4)]
        mismatch = _verify_kung(m, tuples)
        descr = [f"lam={a},xi={b},x={c},y={d}" for a, b, c, d in tuples]
        return _report(kind, name, "sampled-points", descr, mismatch)
    if kind is IdentityKind.HYPERBOLA_T:
        xs = [Fraction(x) for x in (samples if samples is not None else DEFAULT_XS)]
        mismatch = _verify_hyperbola_t(m, xs)
        return _report(
            kind, name, "sampled-points", [f"x={x}" for x in xs], mismatch
        )
    if kind is IdentityKind.HYPERBOLA_R:
        xs = [Fraction(x) for x in (samples if samples is not None else DEFAULT_XS)]
        mismatch = _verify_hyperbola_r(m, xs)
        return _report(
            kind, name, "sampled-points", [f"x={x}" for x in xs], mismatch
        )
    raise BadParams(f"unknown identity kind {kind!r}")
