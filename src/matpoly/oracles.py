"""Independent brute-force oracles.

These deliberately share no code with the polynomial machinery: coloring
and flow counts enumerate assignments one by one, and the broken-circuit
expansion rebuilds chi from scratch out of circuit data.  They exist to
catch sign and convention errors in the fast routes, so keeping them dumb
is the point.
"""

from __future__ import annotations

from itertools import combinations, product

from .algebra import IntPoly
from .errors import BadParams, TooLarge
from .graphs import MultiGraph
from .matroids import Matroid

WORK_GUARD = 10**8
BC_GUARD = 18
ENUM_GUARD = 20  # hard cap for circuit/flat enumeration


def _work_guard(base: int, exp: int) -> None:
    """Refuse base^exp > WORK_GUARD assignments without building a huge
    power: base^exp >= 2^(exp (bits(base) - 1)), and 2^27 > WORK_GUARD."""
    if exp * (base.bit_length() - 1) >= 27 or base**exp > WORK_GUARD:
        raise TooLarge(f"(a {base.bit_length()}-bit base)^{exp} assignments")


def count_colorings(g: MultiGraph, q: int) -> int:
    """Proper q-colorings, counted by enumerating all q^|V| maps."""
    if q < 0:
        raise BadParams("color count must be >= 0")
    if q <= 1:  # one map at most: the empty one, or the constant one
        return int(not g.edges and (q or not g.n))
    _work_guard(q, g.n)
    total = 0
    for coloring in product(range(q), repeat=g.n):
        if all(coloring[u] != coloring[v] for u, v in g.edges):
            total += 1
    return total


def count_nz_flows(g: MultiGraph, q: int) -> int:
    """Nowhere-zero Z_q flows, counted by enumerating all (q-1)^|E| value
    assignments against a fixed orientation (tail = lower endpoint)."""
    if q < 2:
        raise BadParams("flow modulus must be >= 2")
    ne = len(g.edges)
    _work_guard(q - 1, ne)
    oriented = [(u, v) if u <= v else (v, u) for u, v in g.edges]
    total = 0
    for values in product(range(1, q), repeat=ne):
        net = [0] * g.n
        for (t, h), val in zip(oriented, values):
            net[t] -= val
            net[h] += val
        if all(x % q == 0 for x in net):
            total += 1
    return total


def chi_via_broken_circuits(m: Matroid) -> IntPoly:
    """Characteristic polynomial from the broken-circuit expansion:

        chi(x) = sum_k (-1)^k b_k x^(r(E)-k)

    where b_k counts the k-subsets that are independent and contain no
    broken circuit (a circuit with its largest element removed, under the
    ground-set index order).  A loop yields the empty broken circuit,
    which kills every subset and gives chi = 0."""
    n = m.ground_size
    if n > BC_GUARD:
        raise TooLarge(f"broken-circuit expansion on {n} > {BC_GUARD} elements")
    bcs = set()
    for c in circuits(m):
        top = c.bit_length() - 1
        bcs.add(c & ~(1 << top))
    blockers = sorted(bcs, key=lambda b: b.bit_count())
    rfull = m.full_rank()
    b = [0] * (rfull + 1)
    for mask in range(1 << n):
        if any(mask & blk == blk for blk in blockers):
            continue
        k = mask.bit_count()
        if k <= rfull and m.rank(mask) == k:
            b[k] += 1
    coeffs = [0] * (rfull + 1)
    for k in range(rfull + 1):
        coeffs[rfull - k] = -b[k] if k % 2 else b[k]
    return IntPoly(coeffs)


def min_cocircuit_size(m: Matroid):
    """Size of the smallest cocircuit (circuit of the dual), or None if
    the dual has no circuits (every element a coloop of the dual)."""
    duals = circuits(m.dual())
    if not duals:
        return None
    return min(c.bit_count() for c in duals)


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
