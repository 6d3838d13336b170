"""matpoly benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload fast-routes|census|identities \
        --seed N --seconds S --trace 0|1

Run from the repository root; matpoly is imported from ``src/``.  Each
pass over the workload's ops runs in a fresh single-threaded Python
process (``passrun.py``), so every pass starts with cold per-instance
rank caches, an empty module-global memo and its own peak RSS.  Passes
run one after another until ``--seconds`` have gone by.  A few extra
processes only import matpoly and build the inputs, so ``setup_s`` is a
median over many start-ups.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
median pass time ``solve_s``, the median ``peak_rss_mb`` of a pass
process, and ``setup_s``.  Times are in quiet-host seconds (see
passrun.py); the raw wall medians are printed on the lines before the
result.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of BENCHMARK.json, including
``trace.overhead_frac`` (traced over untraced median ``solve_s``, minus 1).

Every op is checked against its reference after the timed region, and
every pass must give the same checksums.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.  The exit code is 0,
or 3 when an op failed (the result line is still printed), or another
nonzero code without a result line when a pass could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASSRUN = os.path.join(HERE, "passrun.py")
SETUP_PROBES = 15
DEADLINE_S = 170  # a hung pass cannot keep a run past three minutes


class PassFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, extra: list, stop_at: float) -> dict:
    """Run passrun.py in a fresh process and return its JSON line."""
    t = time.monotonic()
    cmd = [sys.executable, PASSRUN, "--workload", workload, "--seed", str(seed)]
    cmd += extra + ["--spawned", repr(t)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, stop_at - t)
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass process ran past the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass process exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(passes: list) -> tuple[int, list]:
    """(attempted, failure messages) over all passes: an op fails when it
    raised, missed its reference, or its checksum differs between passes."""
    first = {op["name"]: op["checksum"] for op in passes[0]["ops"]}
    attempted, failures = 0, []
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if op["error"] is None and op["checksum"] != first[op["name"]]:
                op["error"] = "checksum differs between passes"
            if op["error"] is not None:
                failures.append(f"{op['name']}: {op['error']}")
    return attempted, failures


def percentile_note(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}; no percentile above has ten samples beyond it"
    pct = int(100 * (n - 10) / n)
    return f"n={n}; p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="matpoly benchmark, one workload per run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    start = time.monotonic()
    stop_at = start + DEADLINE_S
    setups = [
        spawn(args.workload, args.seed, ["--setup-only"], stop_at)
        for _ in range(SETUP_PROBES)
    ]
    modes = ["0"] if not args.trace else ["0", "1"]
    plain, traced = [], []
    i = 0
    while i % len(modes) or i == 0 or time.monotonic() - start < args.seconds:
        mode = modes[i % len(modes)]
        res = spawn(args.workload, args.seed, ["--trace", mode], stop_at)
        (traced if mode == "1" else plain).append(res)
        i += 1
    passes = plain + traced
    attempted, failures = tally(passes)

    solve = [p["solve_s"] for p in plain]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          "closed loop, 1 client, fresh process per pass")
    print(f"solve_s median {statistics.median(solve):.6g} s ({percentile_note(solve)}); "
          f"passes: {' '.join(f'{v:.4g}' for v in solve)}")
    walls = [p["wall_s"] for p in plain]
    print(f"raw wall median {statistics.median(walls):.6g} s; "
          f"passes: {' '.join(f'{v:.4g}' for v in walls)}")
    setups += passes
    print(f"setup: {len(setups)} start-ups, raw wall median "
          f"{statistics.median(p['setup_wall_s'] for p in setups):.6g} s")
    print(f"fail_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    for msg in failures:
        print(f"FAILED {msg}")
    for op in plain[0]["ops"]:
        secs = statistics.median(
            o["seconds"] for p in plain for o in p["ops"] if o["name"] == op["name"]
        )
        print(f"op {op['name']}: median {secs:.6g} s, checksum {op['checksum']}, "
              f"reference: {op['reference']}")

    if args.trace:
        from tracer import layer_metrics

        t_solve = statistics.median(p["solve_s"] for p in traced)
        rows = [layer_metrics(p["trace"]) for p in traced]
        values = {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}
        values["trace.overhead_frac"] = t_solve / statistics.median(solve) - 1
        declared = spec["per_layer"]
    else:
        values = {
            "solve_s": statistics.median(solve),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in setups),
        }
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 3 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
