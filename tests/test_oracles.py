"""Unit tests for the brute-force oracles themselves.

The oracles validate the fast code elsewhere; here they are pinned to
hand-countable cases so that a bug in an oracle cannot silently bless a
matching bug in the library.
"""

import random
import signal
import tracemalloc

import pytest

from matpoly import BadParams, TooLarge
from matpoly.graphs import MultiGraph, complete_graph
from matpoly.invariants import chi_subset, chromatic_poly, flow_poly
from matpoly.matroids import make_graphic, make_pg, make_uniform
from matpoly.oracles import (
    _work_guard,
    chi_via_broken_circuits,
    count_colorings,
    count_nz_flows,
    min_cocircuit_size,
)

from corpus import GRAPHS, small_matroids

K3 = complete_graph(3)
K4 = complete_graph(4)


def test_count_colorings_hand_values():
    assert count_colorings(K3, 3) == 6  # 3! ways
    assert count_colorings(K3, 2) == 0
    assert count_colorings(MultiGraph(2, ((0, 1),)), 3) == 6
    assert count_colorings(MultiGraph(1, ((0, 0),)), 5) == 0
    assert count_colorings(MultiGraph(3, ()), 2) == 8
    assert count_colorings(K4, 0) == 0
    with pytest.raises(BadParams):
        count_colorings(K3, -1)
    with pytest.raises(TooLarge):
        count_colorings(MultiGraph(40, ()), 5)


def test_count_nz_flows_hand_values():
    cyc = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
    assert count_nz_flows(cyc, 4) == 3  # a cycle carries q-1 flows
    assert count_nz_flows(MultiGraph(1, ((0, 0),)), 4) == 3
    bridge = MultiGraph(2, ((0, 1),))
    assert count_nz_flows(bridge, 5) == 0
    assert count_nz_flows(K4, 2) == 0
    assert count_nz_flows(K4, 3) == 0  # K4 has no nowhere-zero 3-flow
    assert count_nz_flows(K4, 4) == 6  # (4-1)(4-2)(4-3)
    with pytest.raises(BadParams):
        count_nz_flows(K3, 1)
    with pytest.raises(TooLarge):
        count_nz_flows(complete_graph(10), 9)


def test_work_guard_refuses_before_it_builds_the_power():
    # 3^(10^7) has 1.6e7 bits and takes seconds to build; both oracles
    # must refuse such counts within 1 s, here 10^7 vertices in 3 colors
    # and 10^4 edges with 3^1000 nonzero values each
    def too_slow(*_):
        raise TimeoutError("the guard built the power")

    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(TooLarge):
            count_colorings(MultiGraph(10**7, ()), 3)
        with pytest.raises(TooLarge):
            count_nz_flows(MultiGraph(2, [(0, 1)] * 10**4), 3**1000 + 1)
        # a base of over 4,300 digits is named by its size, not printed
        with pytest.raises(TooLarge, match="158497-bit base"):
            count_nz_flows(MultiGraph(2, [(0, 1)] * 100), 3**100_000 + 1)
        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    # the cut refuses nothing the power admits: 2^26 and 10^8 pass
    for base, exp in ((2, 26), (10, 8), (0, 10**9), (1, 10**9), (10**8, 1)):
        _work_guard(base, exp)
    for base, exp in ((2, 27), (10, 9), (10**8 + 1, 1)):
        with pytest.raises(TooLarge):
            _work_guard(base, exp)


def test_colorings_in_at_most_one_color_are_decided_without_enumerating():
    # q <= 1 leaves at most one map; the count is read off, not enumerated
    assert count_colorings(MultiGraph(0, ()), 0) == 1
    assert count_colorings(MultiGraph(1, ()), 0) == 0
    assert count_colorings(MultiGraph(0, ()), 1) == 1
    assert count_colorings(MultiGraph(3, ()), 1) == 1
    assert count_colorings(MultiGraph(3, ((0, 1),)), 1) == 0
    assert count_colorings(MultiGraph(1, ((0, 0),)), 1) == 0
    g = MultiGraph(10**6, ())
    tracemalloc.start()
    try:
        assert count_colorings(g, 1) == 1
        assert count_colorings(g, 0) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one range pool per vertex would take tens of MB
    assert peak < 10**5, peak


def test_flow_count_is_orientation_independent():
    rng = random.Random(818001)
    for name, g in GRAPHS:
        if not g.edge_count or (3 - 1) ** g.edge_count > 10**6:
            continue
        base = count_nz_flows(g, 3)
        # the oracle orients each edge from its lower end, so relabelling
        # the vertices reverses some edges
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = MultiGraph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))
            assert count_nz_flows(h, 3) == base, name


def test_counts_match_polynomials_on_corpus():
    for name, g in GRAPHS:
        p = chromatic_poly(g)
        for q in range(0, 5):
            assert p(q) == count_colorings(g, q), (name, q)
        if g.edge_count and 4**g.edge_count <= 10**7:
            f = flow_poly(g)
            for q in range(2, 5):
                assert f(q) == count_nz_flows(g, q), (name, q)


def test_chi_via_broken_circuits_known_values():
    assert chi_via_broken_circuits(make_graphic(K3)) == chi_subset(make_graphic(K3))
    assert chi_via_broken_circuits(make_uniform(2, 3)) == chi_subset(make_uniform(2, 3))
    fano = make_pg(3, 2)
    assert chi_via_broken_circuits(fano) == chi_subset(fano)
    # a loop is an empty broken circuit: chi = 0
    loopy = make_graphic(MultiGraph(2, ((0, 0), (0, 1))))
    assert chi_via_broken_circuits(loopy).is_zero()


def test_chi_via_broken_circuits_against_subset_expansion():
    for m in small_matroids(9):
        assert chi_via_broken_circuits(m) == chi_subset(m), m.label


def test_chi_via_broken_circuits_guard():
    with pytest.raises(TooLarge):
        chi_via_broken_circuits(make_uniform(1, 19))


def test_min_cocircuit_size():
    # smallest edge cut of K_n has n-1 edges
    for n in range(2, 6):
        assert min_cocircuit_size(make_graphic(complete_graph(n))) == n - 1
    # U_{m,n}: cocircuits are complements of hyperplanes, size n-m+1
    assert min_cocircuit_size(make_uniform(2, 5)) == 4
    assert min_cocircuit_size(make_uniform(1, 3)) == 3
    # every element a loop: the dual is free, no circuits there
    assert min_cocircuit_size(make_uniform(0, 3)) is None
    assert min_cocircuit_size(make_uniform(0, 0)) is None
    # Fano: complements of hyperplanes have 4 points
    assert min_cocircuit_size(make_pg(3, 2)) == 4
