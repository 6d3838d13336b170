"""Fixed test corpus shared across the suite.

The graph list is a hand-picked generation list of multigraphs on at
most 5 vertices: paths, cycles, cliques, a star, disconnected pieces,
and the degenerate cases (loops, parallel edges) that exercise the
matroid semantics.  Uniform parameters cover every m for n = 1..7 and
the projective parameters are the three smallest prime-power planes
that stay within subset-enumeration range.  ``partition_multigraphs``
draws seeded multigraphs small enough for ``set_partitions``, the
brute-force reference of the partition-sum identities.
"""

import random

from matpoly import MultiGraph, complete_graph, make_graphic, make_pg, make_uniform

UNIFORM_PARAMS = [(m, n) for n in range(1, 8) for m in range(0, n + 1)]

PG_PARAMS = [(2, 2), (3, 2), (2, 3)]

GRAPHS = [
    ("K1", complete_graph(1)),
    ("K2", complete_graph(2)),
    ("K3", complete_graph(3)),
    ("K4", complete_graph(4)),
    ("K5", complete_graph(5)),
    ("path3", MultiGraph(3, ((0, 1), (1, 2)))),
    ("path4", MultiGraph(4, ((0, 1), (1, 2), (2, 3)))),
    ("cycle4", MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))),
    ("cycle5", MultiGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))),
    ("k4_minus_edge", MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))),
    ("star4", MultiGraph(4, ((0, 1), (0, 2), (0, 3)))),
    ("two_edges_disjoint", MultiGraph(4, ((0, 1), (2, 3)))),
    ("triangle_plus_isolated", MultiGraph(4, ((0, 1), (1, 2), (0, 2)))),
    ("triangle_plus_pendant", MultiGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))),
    ("loop_single", MultiGraph(1, ((0, 0),))),
    ("loop_plus_edge", MultiGraph(2, ((0, 0), (0, 1)))),
    ("parallel_triple", MultiGraph(2, ((0, 1), (0, 1), (0, 1)))),
    ("multi_triangle", MultiGraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)))),
    ("bowtie", MultiGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))),
    ("triangle_disjoint_edge", MultiGraph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))),
]


def uniform_matroids():
    return [make_uniform(m, n) for m, n in UNIFORM_PARAMS]


def graphic_matroids():
    return [make_graphic(g, label=f"graphic:{name}") for name, g in GRAPHS]


def pg_matroids():
    return [make_pg(n, q) for n, q in PG_PARAMS]


def all_matroids():
    return uniform_matroids() + graphic_matroids() + pg_matroids()


def small_matroids(max_elements):
    return [m for m in all_matroids() if m.ground_size <= max_elements]


def grid_graph(rows, cols):
    """The rows x cols grid, vertex c + cols r at row r and column c; the
    edges along each row come first, then those down each column."""
    across = [(cols * r + c, cols * r + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(cols * r + c, cols * r + c + cols) for r in range(rows - 1) for c in range(cols)]
    return MultiGraph(rows * cols, across + down)


def partition_multigraphs(seed, count):
    """Seeded multigraphs on 1-7 vertices and up to 10 edges, with loops,
    parallel edges and isolated vertices."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, size = rng.randint(1, 7), rng.randint(0, 10)
        # half of the graphs start from a path through every vertex
        edges = [(v, v + 1) for v in range(n - 1)] if rng.random() < 0.5 else []
        while len(edges) < size:
            u, v = rng.randrange(n), rng.randrange(n)
            edges += [(u, v)] * min(rng.choice((1, 1, 1, 2, 3)), size - len(edges))
        out.append(MultiGraph(n, edges))
    return out


def set_partitions(items):
    """Every set partition of the list ``items``, as a list of blocks:
    the first item starts a block of its own or joins a block of a
    partition of the rest."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i, block in enumerate(part):
            yield part[:i] + [[first] + block] + part[i + 1 :]


def blocks_and_inside_edges(g, part):
    """(|part|, e(part)): the blocks of a partition of g's vertices and
    the edges of g inside a block, loops included."""
    block = {v: i for i, b in enumerate(part) for v in b}
    return len(part), sum(block[u] == block[v] for u, v in g.edges)
