"""The benchmark's three workloads: seeded inputs, ops and references.

Every op is a call a user makes once ("give me this polynomial", "check
this identity on this matroid").  Each op carries an independent
reference check that runs after the timed region.  The seed relabels
inputs (element order of each matroid, edge order and vertex labels of
each graph) and shuffles the op order; every result is an isomorphism
invariant, so checksums and references do not depend on the seed.

Each op builds its own input objects, so every op starts with a cold
per-instance rank cache whatever order the seed puts it in.  Ops look
their matpoly function up on the package at call time (``mp.name``), so
a traced pass goes through the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import matpoly as mp
from matpoly.matroids import LinearMatroidFp


@dataclass
class Op:
    """One benchmark op: ``build`` makes its input from the seeded rng
    (outside the timed region), ``run`` is the timed call, and ``check``
    compares the result with the reference route named in ``reference``,
    returning None or a mismatch message."""

    name: str
    reference: str
    build: Callable
    run: Callable
    check: Callable


def checksum(result) -> str:
    """Digest of a result's exact value."""
    if isinstance(result, mp.IntPoly):
        body = repr(result.coeffs)
    elif isinstance(result, mp.BiPoly):
        body = repr(sorted(result.terms.items()))
    elif isinstance(result, mp.VerifyReport):
        body = f"{result.kind.value}:{result.mode}:{result.passed}"
    else:
        body = repr(result)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def relabel(g, rng: random.Random):
    """An isomorphic copy: vertices permuted, edges shuffled and flipped."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [
        (perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v])
        for u, v in g.edges
    ]
    rng.shuffle(edges)
    return mp.MultiGraph(g.n, edges)


def permuted_pg(n: int, q: int, rng: random.Random) -> LinearMatroidFp:
    """PG(n-1, q) with its points in a seeded order."""
    vectors = list(mp.make_pg(n, q).vectors)
    rng.shuffle(vectors)
    return LinearMatroidFp(vectors, q, f"pg:{n},{q}")


def grid_3x3():
    rows = [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
    cols = [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)]
    return mp.MultiGraph(9, rows + cols)


def _expect(want: Callable, what: str) -> Callable:
    return lambda got: None if got == want() else f"differs from {what}"


def _chi_of_tutte(t, rank: int):
    """chi(x) = (-1)^rank T(1-x, 0)."""
    p = t.substitute(mp.IntPoly((1, -1)), mp.IntPoly.zero())
    return -p if rank % 2 else p


def _check_flow_kn(n: int) -> Callable:
    def check(f):
        e = comb(n, 2)
        if f.degree != e - n + 1:
            return f"degree {f.degree} != C(n,2)-n+1 = {e - n + 1}"
        if not mp.leading_binomial_check(f, e, n - 2):
            return "top n-2 coefficients are not the signed binomials C(C(n,2),k)"
        if mp.leading_binomial_check(f, e, n - 1):
            return "the binomial law holds one coefficient too far"
        return None

    return check


def _check_pg_dual(n: int, q: int) -> Callable:
    def check(f):
        npts = mp.points_count(n, q)
        if f.degree != npts - n:
            return f"degree {f.degree} != points - n = {npts - n}"
        count = q ** (n - 1) - 1
        if not mp.leading_binomial_check(f, npts, count):
            return "top q^(n-1)-1 coefficients are not the signed binomials"
        if mp.leading_binomial_check(f, npts, count + 1):
            return "the binomial law holds one coefficient too far"
        return None

    return check


def _check_passed(report):
    return None if report.passed else f"identity failed: {report.first_mismatch}"


def _flow_kn_op(n: int) -> Op:
    return Op(
        f"flow_kn_partitions({n})",
        "degree C(n,2)-n+1 and leading_binomial_check(f, C(n,2), n-2), "
        "which fails at n-1",
        lambda rng: n,
        lambda n: mp.flow_kn_partitions(n),
        _check_flow_kn(n),
    )


def _identity_op(kind: str) -> Op:
    return Op(
        f"verify_identity({kind}, pg:3,3)",
        "the identity itself: the report must say passed",
        lambda rng: permuted_pg(3, 3, rng),
        lambda m: mp.verify_identity(kind, m),
        _check_passed,
    )


def _k7(rng):
    return relabel(mp.complete_graph(7), rng)


FAST_ROUTES = [
    _flow_kn_op(30),
    _flow_kn_op(50),
    _flow_kn_op(60),
    Op(
        "flow_kn_egf(20)",
        "flow_kn_partitions(20)",
        lambda rng: 20,
        lambda n: mp.flow_kn_egf(n),
        _expect(lambda: mp.flow_kn_partitions(20), "flow_kn_partitions(20)"),
    ),
    Op(
        "chi_pg_dual(8,3)",
        "degree [8]_3-8 and the A9 law: signed binomials C([8]_3,k) for "
        "k < 3^7-1, and not for k = 3^7-1",
        lambda rng: (8, 3),
        lambda a: mp.chi_pg_dual(*a),
        _check_pg_dual(8, 3),
    ),
    Op(
        "tutte_pg(6,3)",
        "(-1)^6 T(1-x, 0) equals the product formula chi_pg(6,3)",
        lambda rng: (6, 3),
        lambda a: mp.tutte_pg(*a),
        lambda t: None if _chi_of_tutte(t, 6) == mp.chi_pg(6, 3) else "differs from chi_pg(6,3)",
    ),
]

CENSUS = [
    Op(
        "chi_subset(uniform:10,22)",
        "(-1)^10 T(1-x, 0) of tutte_uniform_closed(10,22)",
        lambda rng: mp.make_uniform(10, 22),
        lambda m: mp.chi_subset(m),
        _expect(
            lambda: _chi_of_tutte(mp.tutte_uniform_closed(10, 22), 10),
            "tutte_uniform_closed(10,22)",
        ),
    ),
    Op(
        "chi_subset(pg:4,2)",
        "product formula chi_pg(4,2)",
        lambda rng: permuted_pg(4, 2, rng),
        lambda m: mp.chi_subset(m),
        _expect(lambda: mp.chi_pg(4, 2), "chi_pg(4,2)"),
    ),
    Op(
        "chi_subset(pg:4,2:dual)",
        "Gaussian-binomial closed form chi_pg_dual(4,2)",
        lambda rng: permuted_pg(4, 2, rng).dual(),
        lambda m: mp.chi_subset(m),
        _expect(lambda: mp.chi_pg_dual(4, 2), "chi_pg_dual(4,2)"),
    ),
    Op(
        "chromatic_poly(K7)",
        "falling_factorial(7)",
        _k7,
        lambda g: mp.chromatic_poly(g),
        _expect(lambda: mp.falling_factorial(7), "falling_factorial(7)"),
    ),
    Op(
        "flow_poly(K7)",
        "partition formula flow_kn_partitions(7)",
        _k7,
        lambda g: mp.flow_poly(g),
        _expect(lambda: mp.flow_kn_partitions(7), "flow_kn_partitions(7)"),
    ),
]

IDENTITIES = [
    _identity_op("kung"),
    _identity_op("thm1-one"),
    _identity_op("finaltwo"),
    _identity_op("convolution"),
    # K8 takes about 54 s per call at the seed commit, longer than a whole
    # run; K7 keeps a pass inside the run length.
    Op(
        "flow_via_connected_partitions(K7)",
        "partition formula flow_kn_partitions(7)",
        _k7,
        lambda g: mp.flow_via_connected_partitions(g),
        _expect(lambda: mp.flow_kn_partitions(7), "flow_kn_partitions(7)"),
    ),
    # Only 1,434 of the Bell(9) = 21,147 vertex partitions of the grid are
    # connected, which makes the enumerator's wasted work visible.
    Op(
        "flow_via_connected_partitions(grid3x3)",
        "census flow_poly of the unpermuted grid",
        lambda rng: relabel(grid_3x3(), rng),
        lambda g: mp.flow_via_connected_partitions(g),
        _expect(lambda: mp.flow_poly(grid_3x3()), "census flow_poly"),
    ),
    Op(
        "verify_identity(matiyasevich, K5)",
        "the identity itself: the report must say passed",
        lambda rng: relabel(mp.complete_graph(5), rng),
        lambda g: mp.verify_identity("matiyasevich", g),
        _check_passed,
    ),
]

WORKLOADS = {
    "fast-routes": FAST_ROUTES,
    "census": CENSUS,
    "identities": IDENTITIES,
}


def build(workload: str, seed: int) -> list:
    """The seeded pass: a list of (op, input) in seeded order."""
    rng = random.Random(seed)
    ops = list(WORKLOADS[workload])
    rng.shuffle(ops)
    return [(op, op.build(rng)) for op in ops]
