"""Outside-in tracer: times the calls into matpoly's layers from outside.

Layers are matpoly's modules.  ``Tracer.install`` wraps every public
function a layer defines, rebinding the wrapper in every matpoly module
that imported the function by name (``from .algebra import poly_pow``
makes ``duality.poly_pow`` a second reference that a patch of
``algebra.poly_pow`` alone would miss), and patches the methods in
``METHODS`` on their classes.  ``uninstall`` puts every original back.

Each wrapped call pushes a frame; on return its duration is added to the
caller's frame, so a name's self time is its duration minus the time of
the wrapped calls it made.  Calls of functions that are not wrapped
(private helpers) count as self time of the nearest wrapped caller.
Ordinary calls also record a span (id, parent id, name, start, end,
op); the hot leaf methods in ``LEAVES`` keep aggregate counters only.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("algebra", "matroids", "invariants", "duality", "graphs", "flowkn", "projective")

# (module, class, method); rank_size_counts is overridden on two classes.
METHODS = (
    ("algebra", "IntPoly", "__mul__"),
    ("algebra", "IntPoly", "__add__"),
    ("matroids", "Matroid", "rank"),
    ("matroids", "Matroid", "rank_size_counts"),
    ("matroids", "GraphicMatroid", "rank_size_counts"),
    ("matroids", "DualView", "rank_size_counts"),
)
LEAVES = frozenset({"algebra.IntPoly.__mul__", "algebra.IntPoly.__add__", "matroids.Matroid.rank"})
# partitions() yields p(n) tuples into partition_classes; wrapping each
# yield would cost more than the work it measures, so its time stays in
# partition_classes and its count is computed from n.
SKIP = frozenset({"flowkn.partitions"})


def partition_count(n: int) -> int:
    """p(n) by the standard coin-change recurrence."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p[n]


def bell(n: int) -> int:
    """Bell number B(n) by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _count_mul(t, args, res):
    a, b = args[0].coeffs, args[1].coeffs
    t.counts["mul.coeff_products"] += len(a) * len(b)
    if res.coeffs:
        if res.degree > t.maxes["mul.max_deg"]:
            t.maxes["mul.max_deg"] = res.degree
        bits = max(map(int.bit_length, res.coeffs))
        if bits > t.maxes["mul.max_coeff_bits"]:
            t.maxes["mul.max_coeff_bits"] = bits


def _count_rank_hit(t, args):
    if args[1] in args[0]._rank_cache:
        t.counts["rank.hits"] += 1


def _count_subsets(t, args, res):
    t.counts["census.subsets"] += 1 << args[0].ground_size


def _count_zeta(t, args, res):
    n = args[1]
    t.counts["zeta.cells"] += n << n >> 1  # n * 2^(n-1) ring additions


def _count_classes(t, args, res):
    t.counts["partitions.enumerated"] += partition_count(args[0])
    t.counts["classes"] += len(res)


def _count_bell(t, args):
    t.counts["connected_partitions.enumerated"] += bell(args[0].n)


PRE = {
    "matroids.Matroid.rank": _count_rank_hit,
    "graphs.connected_partitions": _count_bell,
}
POST = {
    "algebra.IntPoly.__mul__": _count_mul,
    "matroids.Matroid.rank_size_counts": _count_subsets,
    "matroids.GraphicMatroid.rank_size_counts": _count_subsets,
    "duality.subset_zeta": _count_zeta,
    "duality.superset_zeta": _count_zeta,
    "flowkn.partition_classes": _count_classes,
}


class Tracer:
    """Per-name call counts and busy/self nanoseconds, counters and spans."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0, 0])  # name -> [calls, total_ns, self_ns]
        self.counts = defaultdict(int)
        self.maxes = defaultdict(int)
        self.spans = []  # (id, parent_id, name, start_ns, end_ns, op)
        self.op = None
        self._stack = [[0, -1]]  # frames: [child_ns, span id]; root frame at bottom
        self._patches = []  # (owner, attr, original), in patch order

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        record = name not in LEAVES
        pre, post = PRE.get(name), POST.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            parent = stack[-1]
            sid = len(spans) if record else parent[1]
            if record:
                spans.append(None)
            frame = [0, sid]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                parent[0] += dur
                if record:
                    spans[sid] = (sid, parent[1], name, t0, t1, tracer.op)
            if post is not None:
                post(tracer, args, res)
            return res

        return wrapper

    def _wrap_generator(self, name, fn):
        """Time each resumption of the generator; count what it yields."""
        stats = self.stats[name]
        stack = self._stack
        pre = PRE.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            stats[0] += 1
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [0, parent[1]]
                stack.append(frame)
                t0 = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter_ns() - t0
                    stack.pop()
                    stats[1] += dur
                    stats[2] += dur - frame[0]
                    parent[0] += dur
                tracer.counts[name.partition(".")[2] + ".yielded"] += 1
                yield item

        return wrapper

    def install(self):
        mods = [sys.modules[f"matpoly.{layer}"] for layer in LAYERS]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                if inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap_generator(name, obj))
                else:
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        importers = [
            m for k, m in sys.modules.items() if k == "matpoly" or k.startswith("matpoly.")
        ]
        for mod in importers:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"matpoly.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def targets(self):
        """(owner, attr, original) for every patch made by install."""
        return list(self._patches)

    def snapshot(self) -> dict:
        """Raw per-name stats and counters, JSON-ready."""
        return {
            "inside_ns": self._stack[0][0],  # time inside top-level wrapped calls
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "maxes": dict(self.maxes),
        }


def _sum(stats, names, i):
    return sum(stats.get(n, (0, 0, 0))[i] for n in names)


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics of one traced pass, by benchmark metric name.
    A layer's share is its self time over all time spent inside matpoly."""
    st, c, mx = snap["stats"], snap["counts"], snap["maxes"]

    def calls(*names):
        return _sum(st, names, 0)

    def self_s(*names):
        return _sum(st, names, 2) / 1e9

    def of_layer(layer):
        return [n for n in st if n.startswith(layer + ".")]

    mul, add = "algebra.IntPoly.__mul__", "algebra.IntPoly.__add__"
    series = ("algebra.series_log", "algebra.series_exp")
    rank = "matroids.Matroid.rank"
    census = tuple(
        f"matroids.{k}.rank_size_counts" for k in ("Matroid", "GraphicMatroid", "DualView")
    )
    zeta = ("duality.subset_zeta", "duality.superset_zeta")
    tables = (
        "duality.rank_table",
        "duality.chi_restrict_table",
        "duality.chi_contract_table",
        "duality.chi_dual_restrict_table",
    )
    minors = ("graphs.quotient", "graphs.subgraph")
    cp = "graphs.connected_partitions"
    rank_calls = calls(rank)
    cp_tried = c.get("connected_partitions.enumerated", 0)
    out = {
        "algebra.mul.calls": calls(mul),
        "algebra.mul.self_s": self_s(mul),
        "algebra.mul.coeff_products": c.get("mul.coeff_products", 0),
        "algebra.mul.max_deg": mx.get("mul.max_deg", 0),
        "algebra.mul.max_coeff_bits": mx.get("mul.max_coeff_bits", 0),
        "algebra.add.calls": calls(add),
        "algebra.add.self_s": self_s(add),
        "algebra.poly_pow.calls": calls("algebra.poly_pow"),
        "algebra.poly_pow.self_s": self_s("algebra.poly_pow"),
        "algebra.series.calls": calls(*series),
        "algebra.series.self_s": self_s(*series),
        "matroids.rank.calls": rank_calls,
        "matroids.rank.self_s": self_s(rank),
        "matroids.rank.hit_ratio": c.get("rank.hits", 0) / rank_calls if rank_calls else 0.0,
        "matroids.census.calls": calls(*census),
        "matroids.census.self_s": self_s(*census),
        "matroids.census.subsets": c.get("census.subsets", 0),
        "invariants.calls": calls(*of_layer("invariants")),
        "invariants.self_s": self_s(*of_layer("invariants")),
        "invariants.chromatic_poly.calls": calls("invariants.chromatic_poly"),
        "duality.zeta.calls": calls(*zeta),
        "duality.zeta.cells": c.get("zeta.cells", 0),
        "duality.zeta.self_s": self_s(*zeta),
        "duality.tables.self_s": self_s(*tables),
        "duality.verify.self_s": self_s("duality.verify_identity"),
        "duality.connected_partition_route.self_s": self_s(
            "duality.flow_via_connected_partitions"
        ),
        "graphs.connected_partitions.yielded": c.get("connected_partitions.yielded", 0),
        "graphs.connected_partitions.useful_ratio": (
            c.get("connected_partitions.yielded", 0) / cp_tried if cp_tried else 0.0
        ),
        "graphs.connected_partitions.self_s": self_s(cp),
        "graphs.minors.calls": calls(*minors),
        "graphs.minors.self_s": self_s(*minors),
        "flowkn.partition_classes.self_s": self_s("flowkn.partition_classes"),
        "flowkn.partitions.enumerated": c.get("partitions.enumerated", 0),
        "flowkn.classes": c.get("classes", 0),
        "flowkn.flow_kn_partitions.self_s": self_s("flowkn.flow_kn_partitions"),
        "flowkn.flow_kn_egf.self_s": self_s("flowkn.flow_kn_egf"),
        "projective.calls": calls(*of_layer("projective")),
        "projective.self_s": self_s(*of_layer("projective")),
    }
    inside_s = snap["inside_ns"] / 1e9
    for layer in LAYERS:
        out[f"{layer}.share"] = self_s(*of_layer(layer)) / inside_s if inside_s else 0.0
    return out
