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

Each command returns its result and exit code, and ``main`` prints the
result once as JSON on stdout (an error on stderr) with sorted keys and
decimal string coefficients, so output is byte-stable.  Exit codes: 0
success, 1 an internal invariant failed (exact division, blown budget),
2 rejected input (bad parameters or size guards), 3 an identity or
cross-method check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from time import monotonic

from .algebra import BiPoly, IntPoly
from .duality import IdentityKind, verify_identity
from .errors import BadParams, BudgetExceeded, MatpolyError, TooLarge, _deadline
from .flowkn import flow_kn_egf, flow_kn_partitions, flow_kn_tutte
from .graphs import graph_from_json
from .invariants import chi_subset
from .matroids import make_graphic, make_pg, make_uniform
from .oracles import chi_via_broken_circuits, count_colorings, count_nz_flows
from .projective import chi_pg_dual, tutte_pg


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


def _encode(p: IntPoly | BiPoly) -> dict:
    """The JSON form of a polynomial in a result, coefficients as decimal
    strings."""
    if isinstance(p, BiPoly):
        return {
            "vars": ["x", "y"],
            "coeffs": [
                {"dx": i, "dy": j, "c": str(c)}
                for (i, j), c in sorted(p.terms.items())
            ],
        }
    return {"var": "x", "coeffs": [str(c) for c in p.coeffs]}


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


def _flow_kn(method: str, n: int, budget_s: float | None):
    """F_{K_n} by the named route; only tutte takes the budget.  Each route
    is looked up by its module name when called, so a patched one runs."""
    if method == "partitions":
        return flow_kn_partitions(n)
    if method == "egf":
        return flow_kn_egf(n)
    if method == "tutte":
        return flow_kn_tutte(n, budget_s=budget_s)
    raise BadParams(f"unknown method {method!r}")


def cmd_flow_kn(args) -> tuple[dict, int]:
    if args.budget_s is not None and args.method != "tutte":
        raise BadParams(f"--budget-s bounds only the tutte method, not {args.method}")
    poly = _flow_kn(args.method, args.n, args.budget_s)
    return {"method": args.method, "n": args.n, "poly": poly}, 0


def cmd_chi(args) -> tuple[dict, int]:
    m, _g = parse_matroid_spec(args.matroid)
    poly = chi_subset(m, _deadline(args.budget_s))
    return {"matroid": args.matroid, "method": m.census_route(), "poly": poly}, 0


def cmd_chi_pg_dual(args) -> tuple[dict, int]:
    return {"n": args.n, "poly": chi_pg_dual(args.n, args.q), "q": args.q}, 0


def cmd_tutte_pg(args) -> tuple[dict, int]:
    return {"n": args.n, "poly": tutte_pg(args.n, args.q), "q": args.q}, 0


def cmd_verify(args) -> tuple[dict, int]:
    m, g = parse_matroid_spec(args.matroid)
    # the library refuses a graph kind on a matroid target
    report = verify_identity(args.identity, m if g is None else g, label=args.matroid)
    return report.to_json(), 0 if report.passed else 3


def cmd_oracle(args) -> tuple[dict, int]:
    if args.what in ("colorings", "flows"):
        if args.graph is None or args.q is None or args.matroid is not None:
            raise BadParams(f"{args.what} takes --graph and --q, and no --matroid")
        g = graph_from_json(args.graph)
        count = (count_colorings if args.what == "colorings" else count_nz_flows)(g, args.q)
        return {"count": str(count), "graph": args.graph, "oracle": args.what,
                "q": args.q}, 0
    if args.matroid is None or args.graph is not None or args.q is not None:
        raise BadParams("chi-bc takes --matroid, and no --graph or --q")
    m, _g = parse_matroid_spec(args.matroid)
    poly = chi_via_broken_circuits(m)
    return {"matroid": args.matroid, "oracle": "chi-bc", "poly": poly}, 0


def cmd_bench(args) -> tuple[dict, int]:
    _deadline(args.budget_s)  # refuse a bad budget before any row runs
    methods = [tok for tok in args.methods.split(",") if tok]
    rows = []
    polys: dict = {}
    dead = set()
    for n in range(1, args.n_max + 1):
        for meth in methods:
            if meth in dead:
                continue
            row = {"checksum": None, "method": meth, "n": n, "status": "budget-exceeded"}
            t0 = monotonic()
            try:
                poly = _flow_kn(meth, n, args.budget_s)
            except BudgetExceeded:
                dead.add(meth)
            else:
                row.update(checksum=poly_checksum(poly), status="ok")
                # the checksum cannot tell p from -p, so compare coefficients
                polys.setdefault(n, set()).add(poly.coeffs)
            row["wall_ms"] = round((monotonic() - t0) * 1000, 3)
            rows.append(row)
    consistent = all(len(s) == 1 for s in polys.values())
    return {"consistent": consistent, "rows": rows}, 0 if consistent else 3


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
    out = sys.stdout
    try:
        payload, code = args.fn(args)
    except MatpolyError as exc:
        payload = {"error": {"message": str(exc), "type": type(exc).__name__}}
        # rejected input exits 2; integrality escapes and blown budgets are
        # bug signals, not usage errors, and fail loudly
        code = 2 if isinstance(exc, (BadParams, TooLarge)) else 1
        out = sys.stderr
    with _all_digits():
        print(json.dumps(payload, sort_keys=True, default=_encode), file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
