"""Unit tests for the multigraph layer."""

import json
import random

import pytest

from matpoly import BadParams
from matpoly.graphs import (
    MultiGraph,
    complete_graph,
    component_count,
    connected_partitions,
    graph_from_json,
    graph_to_json,
    quotient,
    subgraph,
)
from matpoly.matroids import make_graphic

from corpus import GRAPHS


def test_multigraph_validation():
    MultiGraph(2, ((0, 1), (0, 1), (1, 1)))  # parallels and loops are fine
    with pytest.raises(BadParams):
        MultiGraph(-1, ())
    with pytest.raises(BadParams):
        MultiGraph(2, ((0, 2),))
    with pytest.raises(BadParams):
        MultiGraph(1, ((0, -1),))
    # n and endpoints must be exactly int: int() would truncate 1.9 to 1,
    # and bool is an int subclass
    with pytest.raises(BadParams):
        MultiGraph(3, ((0, 1.9),))
    with pytest.raises(BadParams):
        MultiGraph(3, ((True, 2),))
    with pytest.raises(BadParams):
        MultiGraph(2.5, ())


def test_multigraph_rejects_edges_that_are_not_pairs():
    # unpacking these raised ValueError or TypeError, not BadParams
    for edges in ([(0, 1, 2)], [(0,)], [5], [()], [None], 7, [[0, 1], "ab", (0, 1)]):
        with pytest.raises(BadParams):
            MultiGraph(3, edges)
    assert MultiGraph(3, [[0, 1], (1, 2)]).edges == ((0, 1), (1, 2))


def test_complete_graph_edges_lexicographic():
    assert complete_graph(1).edges == ()
    assert complete_graph(3).edges == ((0, 1), (0, 2), (1, 2))
    k5 = complete_graph(5)
    assert k5.edge_count == 10
    assert sorted(k5.edges) == list(k5.edges)


def test_component_count_includes_isolated_vertices():
    assert component_count(MultiGraph(4, ((0, 1), (1, 2), (0, 2)))) == 2
    assert component_count(complete_graph(1)) == 1
    assert component_count(MultiGraph(3, ())) == 3
    assert component_count(MultiGraph(2, ((0, 0), (0, 1)))) == 1


def test_subgraph_relabels_support_ascending():
    g = MultiGraph(5, ((1, 3), (3, 4), (1, 4)))
    s = subgraph(g, 0b011)
    assert s.n == 3
    assert s.edges == ((0, 1), (1, 2))
    assert subgraph(g, 0) == MultiGraph(0, ())


def test_quotient_contracts_masked_edges():
    k3 = complete_graph(3)
    q = quotient(k3, 0b001)
    assert q.n == 2
    assert q.edges == ((0, 1), (0, 1))
    # contracting a loop just drops it
    lg = MultiGraph(1, ((0, 0),))
    assert quotient(lg, 0b1) == MultiGraph(1, ())
    # contracting nothing keeps the graph (vertex count included)
    g = MultiGraph(4, ((0, 1), (2, 3)))
    assert quotient(g, 0) == g


def reference_quotient(g, mask):
    """Contract the edges of mask one at a time, each by renaming every
    vertex of one endpoint's class to the other's; then label the classes
    densely by first appearance along 0..n-1 and keep the other edges in
    order."""
    cls = list(range(g.n))
    for i, (u, v) in enumerate(g.edges):
        if mask >> i & 1 and cls[u] != cls[v]:
            gone, keep = cls[v], cls[u]
            cls = [keep if c == gone else c for c in cls]
    label = {}
    for v in range(g.n):
        label.setdefault(cls[v], len(label))
    kept = [
        (label[cls[u]], label[cls[v]])
        for i, (u, v) in enumerate(g.edges)
        if not mask >> i & 1
    ]
    return MultiGraph(len(label), kept)


def test_quotient_matches_one_edge_at_a_time_contraction():
    seen = {"loop": 0, "parallel": 0, "isolated": 0}
    for k, g in enumerate(random_multigraphs(170001, 150, 8)):
        rng = random.Random(k)
        full = g.full_edge_mask
        masks = {0, full} | {rng.randrange(full + 1) for _ in range(6)}
        for mask in sorted(masks):
            got, want = quotient(g, mask), reference_quotient(g, mask)
            assert (got.n, got.edges) == (want.n, want.edges), (g, mask)
            assert type(got.edges) is tuple
        ends = {v for e in g.edges for v in e}
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(map(frozenset, g.edges))) < len(g.edges)
        seen["isolated"] += len(ends) < g.n
    assert min(seen.values()) >= 10, seen
    for _name, g in GRAPHS + SIX_VERTEX_GRAPHS:
        for mask in range(g.full_edge_mask + 1):
            assert quotient(g, mask) == reference_quotient(g, mask), (g, mask)
    with pytest.raises(BadParams):
        quotient(complete_graph(3), 0b1000)


def test_quotient_composition_matches_single_quotient():
    rng = random.Random(515001)
    gs = [g for _, g in GRAPHS if g.edge_count >= 2]
    for _ in range(60):
        g = rng.choice(gs)
        full = g.full_edge_mask
        a = rng.randrange(full + 1)
        b = rng.randrange(full + 1) & ~a
        one_shot = quotient(g, a | b)
        ga = quotient(g, a)
        # reindex b onto the surviving edges of g/a (those not in a, in order)
        b2 = 0
        pos = 0
        for i in range(g.edge_count):
            if (a >> i) & 1:
                continue
            if (b >> i) & 1:
                b2 |= 1 << pos
            pos += 1
        two_shot = quotient(ga, b2)
        assert two_shot.edge_count == one_shot.edge_count
        # same matroid even if vertex labels differ
        ma, mb = make_graphic(one_shot), make_graphic(two_shot)
        for mask in range(1 << one_shot.edge_count):
            assert ma.rank(mask) == mb.rank(mask)


def brute_connected_partitions(g):
    """Independent re-enumeration: all set partitions, filtered by block
    connectivity, via restricted growth strings; the inside-edge mask of
    each."""
    if g.n == 0:
        return [0]
    found = []
    for code in range(g.n**g.n):
        rgs = []
        x = code
        for _ in range(g.n):
            rgs.append(x % g.n)
            x //= g.n
        # keep only canonical restricted growth strings
        if rgs[0] != 0 or any(rgs[i] > max(rgs[:i]) + 1 for i in range(1, g.n)):
            continue
        nblocks = max(rgs) + 1
        blocks = tuple(
            tuple(v for v in range(g.n) if rgs[v] == b) for b in range(nblocks)
        )
        mask = 0
        for i, (u, v) in enumerate(g.edges):
            if rgs[u] == rgs[v]:
                mask |= 1 << i
        ok = True
        for blk in blocks:
            sub = subgraph(
                g, sum(1 << i for i, (u, v) in enumerate(g.edges) if u in blk and v in blk)
            )
            if len(blk) > 1 and (sub.n != len(blk) or component_count(sub) != 1):
                ok = False
                break
        if ok:
            found.append(mask)
    return found


SIX_VERTEX_GRAPHS = [
    ("K6", complete_graph(6)),
    ("cycle6", MultiGraph(6, [(i, (i + 1) % 6) for i in range(6)])),
    ("grid2x3", MultiGraph(6, ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)))),
    ("two_triangles", MultiGraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))),
]


def test_connected_partitions_small_graphs():
    for name, g in GRAPHS + SIX_VERTEX_GRAPHS:
        if g.n > 6:
            continue
        got = sorted(connected_partitions(g))
        want = sorted(brute_connected_partitions(g))
        assert got == want, name


def random_multigraphs(seed, count, max_n):
    """Seeded multigraphs with loops, parallel edges, isolated vertices and
    disconnected parts: edges are drawn inside random vertex groups."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        parts = rng.randint(1, 3)
        label = [rng.randrange(parts) for _ in range(n)]
        groups = [[v for v in range(n) if label[v] == k] for k in range(parts)]
        edges = []
        for _ in range(rng.randint(0, 10)):
            grp = rng.choice([grp for grp in groups if grp])
            u = rng.choice(grp)
            edges.append((u, u if rng.random() < 0.15 else rng.choice(grp)))
        if edges and rng.random() < 0.5:
            edges.append(rng.choice(edges))  # a parallel copy
        out.append(MultiGraph(n, edges))
    return out


def test_connected_partitions_match_brute_force_on_random_multigraphs():
    for g in random_multigraphs(6061, 60, 6):
        got = sorted(connected_partitions(g))
        assert got == sorted(brute_connected_partitions(g)), g
        assert len(set(got)) == len(got), g


def test_connected_partitions_counts():
    # on complete graphs every partition is connected: Bell numbers
    assert len(list(connected_partitions(complete_graph(3)))) == 5
    assert len(list(connected_partitions(complete_graph(4)))) == 15
    # on a path only interval-like blocks survive
    path3 = MultiGraph(3, ((0, 1), (1, 2)))
    assert len(list(connected_partitions(path3))) == 4
    assert list(connected_partitions(MultiGraph(0, ()))) == [0]


def test_connected_partitions_counts_at_the_vertex_cap():
    grid = MultiGraph(
        9,
        [(v, v + 1) for v in range(9) if v % 3 < 2] + [(v, v + 3) for v in range(6)],
    )
    assert len(list(connected_partitions(grid))) == 1434
    assert len(list(connected_partitions(complete_graph(7)))) == 877  # Bell(7)
    # a path splits between any subset of its 11 edges; edgeless graphs
    # allow only singletons
    path12 = MultiGraph(12, [(i, i + 1) for i in range(11)])
    assert len(list(connected_partitions(path12))) == 2048
    assert list(connected_partitions(MultiGraph(12, ()))) == [0]


def test_connected_partitions_masks_are_intra_block_edges():
    # a mask that holds every edge inside its components contracts to a
    # loopless quotient, and each partition has its own mask
    for g in [MultiGraph(3, ((0, 1), (1, 2), (0, 2)))] + random_multigraphs(6062, 20, 6):
        masks = list(connected_partitions(g))
        for mask in masks:
            assert not any(u == v for u, v in quotient(g, mask).edges), (g, mask)
        assert len(set(masks)) == len(masks), g


def test_graph_json_roundtrip(tmp_path):
    for _, g in GRAPHS:
        assert graph_from_json(graph_to_json(g)) == g
        assert graph_from_json(json.dumps(graph_to_json(g))) == g
    p = tmp_path / "g.json"
    k4 = complete_graph(4)
    p.write_text(json.dumps(graph_to_json(k4)))
    assert graph_from_json(p) == k4


def test_graph_json_rejects_bad_payload():
    with pytest.raises(BadParams):
        graph_from_json({"n": 2})
    with pytest.raises(BadParams):
        graph_from_json({"n": 1, "edges": [[0, 1]]})
    for bad in (
        "{bad",
        "no/such/graph.json",
        {"n": "three", "edges": []},
        {"n": 2, "edges": [[0, "one"]]},
        {"n": 2, "edges": [[0, None]]},
        {"n": 2, "edges": [0, 1]},
        {"n": 2.7, "edges": [[0, 1.9]]},
        {"n": 2.0, "edges": []},
        {"n": 2, "edges": [[0, 1.0]]},
        {"n": True, "edges": [[0, False]]},
        {"n": 2, "edges": [[0, True]]},
        '{"n": 2.7, "edges": [[0, 1.9]]}',
    ):
        with pytest.raises(BadParams):
            graph_from_json(bad)
