"""Self-test of the benchmark itself (not of matpoly).

    python3 perfbench/selftest.py

Checks, in about three minutes on two cores:

* the tracer restores every original, and an untraced pass runs the
  unwrapped functions while a traced pass runs the wrappers;
* a deliberately wrong reference fails its op and the run's tally;
* per workload, three traced passes (seed 1 twice, seed 2 once) give
  identical checksums and identical count metrics, no op fails, and
  each layer shows work on the workload it is said to dominate.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
import time

import passrun  # first: puts the checkout's src/ on sys.path
import matpoly as mp
import run
import workloads
from tracer import Tracer, layer_metrics


def expect(cond, msg: str):
    if not cond:
        raise AssertionError(msg)


def probe_op(targets) -> workloads.Op:
    """An op whose result says whether every patch target is the original."""
    return workloads.Op(
        "probe",
        "none",
        lambda rng: None,
        lambda _: all(getattr(owner, attr) is orig for owner, attr, orig in targets),
        lambda res: None,
    )


def test_untraced_pass_runs_originals():
    t = Tracer()
    t.install()
    targets = t.targets()
    t.uninstall()
    expect(len(targets) > 60, f"only {len(targets)} patch targets")
    expect(
        all(getattr(o, a) is f for o, a, f in targets),
        "uninstall left a wrapper in place",
    )
    cheap = [op for op in workloads.IDENTITIES if "grid" in op.name]
    plan = [(op, op.build(random.Random(1))) for op in cheap]
    plan.append((probe_op(targets), None))
    plain = passrun.run_pass(plan)
    expect(plain["ops"][-1]["checksum"] == workloads.checksum(True), "untraced pass ran a wrapper")
    expect("trace" not in plain, "untraced pass returned trace data")
    traced_tracer = Tracer()
    traced = passrun.run_pass(plan, traced_tracer)
    expect(
        traced["ops"][-1]["checksum"] == workloads.checksum(False),
        "traced pass ran an original",
    )
    expect(traced["trace"]["stats"], "traced pass recorded nothing")
    expect(all(getattr(o, a) is f for o, a, f in targets), "traced pass left a wrapper in place")
    expect(not any(op["error"] for op in plain["ops"] + traced["ops"]), "cheap ops failed")


def test_wrong_reference_fails():
    op = workloads.FAST_ROUTES[0]  # flow_kn_partitions(30)
    wrong = [
        dataclasses.replace(
            op, check=workloads._expect(lambda: mp.flow_kn_partitions(31), "F_{K_31}")
        ),
        dataclasses.replace(op, check=workloads._check_flow_kn(31)),
    ]
    res = passrun.run_pass([(w, w.build(None)) for w in wrong])
    attempted, failures = run.tally([res])
    expect(attempted == 2 and len(failures) == 2, f"wrong references passed: {failures}")


def traced_pass(workload: str, seed: int) -> dict:
    res = run.spawn(workload, seed, ["--trace", "1"], time.monotonic() + 170)
    res["metrics"] = layer_metrics(res["trace"])
    return res


DOMINANT = {
    # workload: (layers whose shares must sum past half the pass,
    #            metrics that must be nonzero, metrics that must be zero)
    "fast-routes": (
        ("algebra", "flowkn"),
        ("algebra.mul.coeff_products", "algebra.series.calls", "flowkn.partitions.enumerated",
         "flowkn.classes", "projective.calls"),
        ("matroids.census.calls", "matroids.rank.calls"),
    ),
    "census": (
        ("matroids",),
        ("matroids.census.subsets", "matroids.rank.calls"),
        ("flowkn.partitions.enumerated", "duality.zeta.cells"),
    ),
    "identities": (
        ("duality", "graphs", "matroids"),
        ("duality.zeta.cells", "graphs.connected_partitions.yielded", "graphs.minors.calls",
         "invariants.chromatic_poly.calls", "matroids.census.subsets"),
        ("flowkn.partitions.enumerated", "algebra.series.calls"),
    ),
}


def test_counts_repeat_and_layers_dominate():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    counted = sorted(k for k, u in units.items() if u in ("count", "bits"))
    for workload, (layers, nonzero, zero) in DOMINANT.items():
        runs = [traced_pass(workload, 1), traced_pass(workload, 1), traced_pass(workload, 2)]
        for r in runs:
            bad = [op for op in r["ops"] if op["error"]]
            expect(not bad, f"{workload}: failed ops {bad}")
        sums = [{op["name"]: op["checksum"] for op in r["ops"]} for r in runs]
        expect(sums[0] == sums[1] == sums[2], f"{workload}: checksums differ across runs or seeds")
        for k in counted:
            vals = [r["metrics"][k] for r in runs]
            expect(vals[0] == vals[1] == vals[2], f"{workload}: {k} differs: {vals}")
        m = runs[0]["metrics"]
        share = sum(m[f"{layer}.share"] for layer in layers)
        expect(share > 0.5, f"{workload}: {'+'.join(layers)} share is only {share:.2f}")
        for k in nonzero:
            expect(m[k] > 0, f"{workload}: {k} is 0")
        for k in zero:
            expect(m[k] == 0, f"{workload}: {k} is {m[k]}, expected 0")
        if workload == "identities":
            expect(m["matroids.census.calls"] > 1000, "identities: expected many small censuses")
        print(f"  {workload}: {'+'.join(layers)} share {share:.2f}, "
              f"{len(counted)} counts identical across 3 passes")


def main() -> int:
    tests = [
        test_untraced_pass_runs_originals,
        test_wrong_reference_fails,
        test_counts_repeat_and_layers_dominate,
    ]
    failed = 0
    for test in tests:
        try:
            test()
        except (AssertionError, run.PassFailed) as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
