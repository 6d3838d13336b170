"""Independent brute-force oracles.

These deliberately share no code with the polynomial machinery: coloring
and flow counts enumerate assignments one by one, and the broken-circuit
expansion rebuilds chi from scratch out of circuit data.  They exist to
catch sign and convention errors in the fast routes, so keeping them dumb
is the point.
"""

from __future__ import annotations

from itertools import product

from .algebra import IntPoly
from .errors import BadParams, TooLarge
from .graphs import MultiGraph
from .matroids import Matroid, circuits

WORK_GUARD = 10**8
BC_GUARD = 18


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
