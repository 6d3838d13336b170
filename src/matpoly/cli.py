"""Command-line interface.

Subcommands:

    flow-kn      flow polynomial of K_n (partitions | egf | tutte routes)
    chi          characteristic polynomial of a matroid spec
    chi-pg-dual  chi of the dual of PG(n-1, q), closed form
    tutte-pg     Tutte polynomial of PG(n-1, q), closed form
    verify       prove one duality identity on one target, as polynomials
    oracle       brute-force counts and the broken-circuit chi
    bench        time the flow-kn routes and compare their coefficients

Matroid specs: "uniform:m,n", "graphic:<path-to-json>", "pg:n,p", each
optionally suffixed ":dual".  Graph files hold {"n": ..., "edges": ...}.

All results are printed as JSON on stdout with sorted keys and decimal
string coefficients, so output is byte-stable.  Exit codes: 0 success,
1 an internal invariant failed (exact division, blown budget), 2 rejected
input (bad parameters or size guards), 3 an identity or cross-method
check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from time import monotonic

from .algebra import BiPoly, IntPoly
from .duality import GRAPH_KINDS, IdentityKind, verify_identity
from .errors import BadParams, BudgetExceeded, MatpolyError, TooLarge
from .flowkn import flow_kn_egf, flow_kn_partitions, flow_kn_tutte
from .graphs import MultiGraph, graph_from_json
from .invariants import SUBSET_GUARD, chi_subset, walk_guard
from .matroids import Matroid, make_graphic, make_pg, make_uniform
from .oracles import chi_via_broken_circuits, count_colorings, count_nz_flows
from .projective import chi_pg_dual, points_count, tutte_pg


@contextmanager
def _all_digits():
    """Lift Python's int-to-str digit limit, a guard for parsing input,
    while a result is formatted, so that every digit prints."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def poly_json(p: IntPoly) -> dict:
    with _all_digits():
        return {"var": "x", "coeffs": [str(c) for c in p.coeffs]}


def bipoly_json(p: BiPoly) -> dict:
    with _all_digits():
        return {
            "vars": ["x", "y"],
            "coeffs": [
                {"dx": i, "dy": j, "c": str(c)}
                for (i, j), c in sorted(p.terms.items())
            ],
        }


def poly_checksum(p) -> str:
    """Sum of absolute coefficient values, mod 2^64, as hex."""
    if isinstance(p, BiPoly):
        total = sum(abs(c) for c in p.terms.values())
    else:
        total = sum(abs(c) for c in p.coeffs)
    return f"0x{total & (2**64 - 1):016x}"


def parse_matroid_spec(spec: str):
    """Return (matroid, graph-or-None) for a spec string; the graph is
    only available for non-dualized graphic specs."""
    body = spec
    dualize = False
    if body.endswith(":dual"):
        dualize = True
        body = body[: -len(":dual")]
    kind, sep, rest = body.partition(":")
    if not sep:
        raise BadParams(f"malformed matroid spec {spec!r}")
    if kind == "uniform":
        try:
            m_str, n_str = rest.split(",")
            m = make_uniform(int(m_str), int(n_str))
        except ValueError as exc:
            raise BadParams(f"bad uniform spec {spec!r}") from exc
        g = None
    elif kind == "pg":
        try:
            n_str, p_str = rest.split(",")
            n, p = int(n_str), int(p_str)
        except ValueError as exc:
            raise BadParams(f"bad pg spec {spec!r}") from exc
        # make_pg lists every point, so refuse before building what chi's
        # walk would refuse (rank n); PG(n-1, p) has at least n points, so
        # a larger n is refused before p^n
        if n > SUBSET_GUARD:
            raise TooLarge(f"{spec} has more than {SUBSET_GUARD} points")
        walk_guard(points_count(n, p), n, spec)
        m = make_pg(n, p)
        g = None
    elif kind == "graphic":
        g = graph_from_json(rest)
        m = make_graphic(g, label=body)
    else:
        raise BadParams(f"unknown matroid kind {kind!r}")
    if dualize:
        m = m.dual()
        m.label = spec
        g = None
    return m, g


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_flow_kn(args) -> int:
    if args.budget_s is not None and args.method != "tutte":
        raise BadParams(f"--budget-s bounds only the tutte method, not {args.method}")
    if args.method == "partitions":
        poly = flow_kn_partitions(args.n)
    elif args.method == "egf":
        poly = flow_kn_egf(args.n)
    else:
        poly = flow_kn_tutte(args.n, budget_s=args.budget_s)
    _emit({"method": args.method, "n": args.n, "poly": poly_json(poly)})
    return 0


def cmd_chi(args) -> int:
    m, _g = parse_matroid_spec(args.matroid)
    deadline = None if args.budget_s is None else monotonic() + args.budget_s
    poly = chi_subset(m, deadline)
    _emit({"matroid": args.matroid, "method": "subset", "poly": poly_json(poly)})
    return 0


def cmd_chi_pg_dual(args) -> int:
    poly = chi_pg_dual(args.n, args.q)
    _emit({"n": args.n, "poly": poly_json(poly), "q": args.q})
    return 0


def cmd_tutte_pg(args) -> int:
    poly = tutte_pg(args.n, args.q)
    _emit({"n": args.n, "poly": bipoly_json(poly), "q": args.q})
    return 0


def cmd_verify(args) -> int:
    kind = IdentityKind(args.identity)
    m, g = parse_matroid_spec(args.matroid)
    if kind in GRAPH_KINDS:
        if g is None:
            raise BadParams(f"{kind.value} needs a plain graphic:<file> target")
        target = g
    else:
        target = m
    report = verify_identity(kind, target, label=args.matroid)
    _emit(report.to_json())
    return 0 if report.passed else 3


def cmd_oracle(args) -> int:
    if args.what in ("colorings", "flows"):
        if args.graph is None:
            raise BadParams("--graph is required for counting oracles")
        g = graph_from_json(args.graph)
        if args.q is None:
            raise BadParams("--q is required for counting oracles")
        if args.what == "colorings":
            count = count_colorings(g, args.q)
        else:
            count = count_nz_flows(g, args.q)
        _emit(
            {"count": str(count), "graph": args.graph, "oracle": args.what,
             "q": args.q}
        )
        return 0
    if args.matroid is None:
        raise BadParams("--matroid is required for chi-bc")
    m, _g = parse_matroid_spec(args.matroid)
    poly = chi_via_broken_circuits(m)
    _emit({"matroid": args.matroid, "oracle": "chi-bc", "poly": poly_json(poly)})
    return 0


def cmd_bench(args) -> int:
    methods = [tok for tok in args.methods.split(",") if tok]
    runners = {
        "partitions": lambda n: flow_kn_partitions(n),
        "egf": lambda n: flow_kn_egf(n),
        "tutte": lambda n: flow_kn_tutte(n, budget_s=args.budget_s),
    }
    for meth in methods:
        if meth not in runners:
            raise BadParams(f"unknown method {meth!r}")
    rows = []
    polys: dict = {}
    dead = set()
    for n in range(1, args.n_max + 1):
        for meth in methods:
            if meth in dead:
                continue
            t0 = monotonic()
            try:
                poly = runners[meth](n)
            except BudgetExceeded:
                rows.append(
                    {
                        "checksum": None,
                        "method": meth,
                        "n": n,
                        "status": "budget-exceeded",
                        "wall_ms": round((monotonic() - t0) * 1000, 3),
                    }
                )
                dead.add(meth)
                continue
            rows.append(
                {
                    "checksum": poly_checksum(poly),
                    "method": meth,
                    "n": n,
                    "status": "ok",
                    "wall_ms": round((monotonic() - t0) * 1000, 3),
                }
            )
            # the checksum cannot tell p from -p, so compare coefficients
            polys.setdefault(n, set()).add(poly.coeffs)
    consistent = all(len(s) == 1 for s in polys.values())
    _emit({"consistent": consistent, "rows": rows})
    return 0 if consistent else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matpoly",
        description="exact matroid/graph polynomial computations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow-kn", help="flow polynomial of K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("partitions", "egf", "tutte"), default="partitions"
    )
    p.add_argument("--budget-s", type=float, default=None)
    p.set_defaults(fn=cmd_flow_kn)

    p = sub.add_parser("chi", help="characteristic polynomial of a matroid")
    p.add_argument("--matroid", required=True)
    p.add_argument("--budget-s", type=float, default=None)
    p.set_defaults(fn=cmd_chi)

    p = sub.add_parser("chi-pg-dual", help="chi of the dual of PG(n-1,q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_chi_pg_dual)

    p = sub.add_parser("tutte-pg", help="Tutte polynomial of PG(n-1,q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_tutte_pg)

    p = sub.add_parser("verify", help="check a duality identity")
    p.add_argument(
        "--identity",
        required=True,
        choices=[k.value for k in IdentityKind],
    )
    p.add_argument("--matroid", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    p.add_argument("what", choices=("colorings", "flows", "chi-bc"))
    p.add_argument("--graph", default=None)
    p.add_argument("--matroid", default=None)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("bench", help="time flow-kn methods, compare coefficients")
    p.add_argument("target", choices=("flow-kn",))
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--methods", default="partitions,egf")
    p.add_argument(
        "--budget-s", type=float, default=60.0, help="deadline of each tutte row"
    )
    p.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MatpolyError as exc:
        print(
            json.dumps(
                {"error": {"message": str(exc), "type": type(exc).__name__}},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        # rejected input exits 2; integrality escapes and blown budgets are
        # bug signals, not usage errors, and fail loudly
        return 2 if isinstance(exc, (BadParams, TooLarge)) else 1


if __name__ == "__main__":
    sys.exit(main())
