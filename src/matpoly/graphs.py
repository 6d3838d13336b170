"""Multigraphs with indexed edges, quotients, and connected partitions.

A ``MultiGraph`` is a vertex count plus an ordered tuple of undirected
edges; loops and parallel edges are first-class.  Edge subsets are
bitmasks over the edge index, so edge identity survives restriction and
quotient.  Quotients re-label vertices densely and keep the surviving
edges in their original relative order, which is what lets matroid minors
built from quotients line up element-by-element with bitmask views.
"""

from __future__ import annotations

import json
import os
from collections import Counter

from .errors import BadParams, _check_deadline


class MultiGraph:
    """Undirected multigraph on vertices 0..n-1 with an ordered edge list."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges=()):
        # type(), not isinstance: bool is an int subclass, and int() would
        # truncate 1.9 to 1
        if type(n) is not int or n < 0:
            raise BadParams(f"vertex count must be an int >= 0, got {n!r}")
        try:
            es = tuple((u, v) for u, v in edges)
        except (TypeError, ValueError) as exc:
            raise BadParams(f"edges must be (u, v) pairs: {exc}") from exc
        for u, v in es:
            if type(u) is not int or type(v) is not int:
                raise BadParams(f"edge ({u!r},{v!r}) needs int endpoints")
            if not (0 <= u < n and 0 <= v < n):
                raise BadParams(f"edge ({u},{v}) out of range for {n} vertices")
        self.n = n
        self.edges = es

    @classmethod
    def _unchecked(cls, n: int, edges: tuple) -> "MultiGraph":
        """A graph from a vertex count and an edge tuple already known to
        be valid, such as edges relabeled from a valid graph; skips the
        checks of ``__init__``."""
        g = object.__new__(cls)
        g.n = n
        g.edges = edges
        return g

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_edge_mask(self) -> int:
        return (1 << len(self.edges)) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"MultiGraph({self.n}, {self.edges!r})"


def complete_graph(n: int) -> MultiGraph:
    """K_n with edges (i, j), i < j, in lexicographic order."""
    if n < 0:
        raise BadParams("vertex count must be >= 0")
    return MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _check_edge_mask(g: MultiGraph, mask: int):
    if not 0 <= mask <= g.full_edge_mask:
        raise BadParams(f"edge mask {mask:#x} outside the graph's edge list")


def _union(g: MultiGraph, mask: int):
    """Union-find over the edges in mask, with path halving.  Each class's
    root is its least vertex, so parent[v] < v for every other vertex.
    Returns (parent, joins), joins the number of edges that merged two
    classes: the rank of mask in the cycle matroid."""
    _check_edge_mask(g, mask)
    parent = list(range(g.n))
    edges = g.edges
    joins = 0
    i = 0
    while mask:
        if mask & 1:
            u, v = edges[i]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                if u < v:
                    parent[v] = u
                else:
                    parent[u] = v
                joins += 1
        mask >>= 1
        i += 1
    return parent, joins


def component_count(g: MultiGraph) -> int:
    """Components of g over all vertices, counting isolated ones."""
    return g.n - _union(g, g.full_edge_mask)[1]


def subgraph(g: MultiGraph, mask: int) -> MultiGraph:
    """Edge-induced subgraph: support vertices re-labeled ascending,
    edges of mask kept in ascending index order: g itself if that equals g."""
    _check_edge_mask(g, mask)
    if mask == g.full_edge_mask:
        es = g.edges
    else:
        es = tuple(e for i, e in enumerate(g.edges) if mask >> i & 1)
    ends = set().union(*es)
    if len(ends) == g.n:  # no vertex to drop, so the labels stand
        return g if es is g.edges else MultiGraph._unchecked(g.n, es)
    relab = {v: i for i, v in enumerate(sorted(ends))}
    es = tuple((relab[u], relab[v]) for u, v in es)
    return MultiGraph._unchecked(len(ends), es)


def quotient(g: MultiGraph, mask: int) -> MultiGraph:
    """Contract every edge in mask; keep the other edges (loops and
    parallels may appear).  New vertex labels are dense, assigned in
    order of first appearance of each merged class along 0..n-1."""
    parent, _ = _union(g, mask)
    # a root is its class's least vertex, so classes are met in label
    # order, and a non-root v shares the label of parent[v] < v
    label = parent
    k = 0
    for v in range(g.n):
        p = parent[v]
        if p == v:
            label[v] = k
            k += 1
        else:
            label[v] = label[p]
    es = tuple(
        [(label[u], label[v]) for i, (u, v) in enumerate(g.edges) if not mask >> i & 1]
    )
    return MultiGraph._unchecked(k, es)


def connected_partitions(g: MultiGraph):
    """Yield the inside-edge mask, every edge with both endpoints in one
    block, of each partition of the vertex set whose blocks all induce
    connected subgraphs.  The blocks are the components of the mask, so
    no two partitions share a mask.

    Blocks grow along edges: the block of the lowest unplaced vertex is
    every connected set of unplaced vertices containing it, each grown
    once from a candidate frontier with a banned set of vertices already
    refused; the rest is partitioned the same way.  Only connected
    partitions are ever built.
    """
    adj = [0] * g.n  # neighbour vertices, loops excluded
    inc = [0] * g.n  # incident edges, loops included
    loops = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        bit = 1 << i
        inc[u] |= bit
        inc[v] |= bit
        if u == v:
            loops[u] |= bit
        else:
            adj[u] |= 1 << v
            adj[v] |= 1 << u

    def grow(free, block, touch, inside, cand, banned):
        """(block, inside) for every connected block within free that holds
        ``block`` and avoids ``banned`` (which holds ``block`` itself);
        ``touch`` and ``inside`` are the edges meeting the block and with
        both ends in it."""
        yield block, inside
        while cand:
            bit = cand & -cand
            cand ^= bit
            banned |= bit
            u = bit.bit_length() - 1
            # an edge at u meeting the block has its other end in it
            yield from grow(
                free,
                block | bit,
                touch | inc[u],
                inside | inc[u] & (touch | loops[u]),
                (cand | adj[u] & free) & ~banned,
                banned,
            )

    def rec(free):
        if not free:
            yield 0
            return
        low = free & -free
        v = low.bit_length() - 1
        for block, inside in grow(free, low, inc[v], loops[v], adj[v] & free, low):
            for mask in rec(free & ~block):
                yield inside | mask

    yield from rec((1 << g.n) - 1)


def _vertex_census(g: MultiGraph, deadline: float | None) -> Counter:
    """The cycle matroid's census {(|A|, r(A)): count} by the
    Fortuin-Kasteleyn vertex-subset expansion (Bjorklund, Husfeldt, Kaski,
    Koivisto, FOCS 2008), in 3^|V'| steps over the vertices V' of g, none
    isolated in a ``GraphicMatroid``.  The deadline is checked first and
    once per 16 vertex sets; past it, BudgetExceeded stops the pass.

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


def graph_to_json(g: MultiGraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def graph_from_json(obj) -> MultiGraph:
    """Build a MultiGraph from {"n": int, "edges": [[u,v], ...]} given as
    a dict, a JSON string, or a path to a JSON file.  Unreadable files,
    malformed JSON and any n or endpoint that is not a JSON integer
    (floats, bools, strings) all raise BadParams."""
    try:
        if isinstance(obj, (str, os.PathLike)):
            text = os.fspath(obj)
            if not text.lstrip().startswith("{"):
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            obj = json.loads(text)
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise BadParams('graph JSON needs keys "n" and "edges"')
        edges = obj["edges"]
        if not isinstance(edges, list) or any(len(e) != 2 for e in edges):
            raise BadParams("edges must be a list of [u, v] pairs")
    except (OSError, TypeError, ValueError) as exc:
        raise BadParams(f"bad graph JSON: {exc}") from exc
    return MultiGraph(obj["n"], edges)
