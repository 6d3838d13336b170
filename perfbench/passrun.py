"""One pass over a workload's ops in a fresh process; prints one JSON line.

    python3 perfbench/passrun.py --workload W --seed N --trace 0|1 --spawned T
    python3 perfbench/passrun.py --workload W --seed N --setup-only --spawned T

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process (one system-wide clock), so the set-up time covers
interpreter start, ``import matpoly`` and building the inputs.  The ops
then run one after another, each starting when the previous one returns.
Reference checks run after the timed region, with any tracer removed.
A traced pass also writes its spans to ``perfbench/out/``.

Shared hosts run the same pass at anywhere from 1x to 2x its quiet
speed, switching within a second and drifting over minutes, which no
bound a benchmark can hold survives.  So op times are kept on a
``HostClock``: every quarter second, and at every op boundary, a 2 ms
fixed calibration workload measures how fast the host runs right now,
and each stretch of wall time between two samples is rescaled to the
speed at which the calibration takes CAL_REF_S.  The rescaled times
(``solve_s``, ``setup_s``) estimate wall seconds on a quiet host; the
raw ones are reported beside them (``wall_s``, ``setup_wall_s``).  The
samples cost about 1% of a pass; in a traced pass they land in the
self time of whatever layer they interrupt.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import matpoly  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# calibrate() on the reference host (2 vCPUs, 2.0 GHz Xeon, Python 3.11)
# when nothing else loads it.
CAL_REF_S = 0.002
SAMPLE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work (bit tricks, tuples,
    dict updates) and big-integer multiplication, the two kinds of work
    matpoly's passes consist of."""
    t0 = time.perf_counter()
    counts = {}
    for mask in range(1 << 12):
        key = (mask.bit_count(), mask & 7)
        counts[key] = counts.get(key, 0) + 1
    a = b = 3**20000 + 1
    for _ in range(3):
        b = (b * a) >> 31700
    return time.perf_counter() - t0


class HostClock:
    """A stopwatch in quiet-host seconds.

    While entered, a timer signal runs ``tick`` every SAMPLE_EVERY_S of
    wall time, and callers tick at op boundaries.  Each tick runs
    ``calibrate``; the wall time between two ticks (calibration excluded)
    counts into ``raw`` and, rescaled by CAL_REF_S over the mean of the
    two calibrations, into ``adjusted``.
    """

    def __init__(self):
        self.raw = 0.0
        self.adjusted = 0.0
        self._end = None  # when the last tick's calibration finished
        self._cal = None
        self._busy = False

    def tick(self, *_signal_args):
        if self._busy:  # the timer fired during a boundary tick
            return
        self._busy = True
        try:
            t = time.perf_counter()
            cal = calibrate()
            if self._end is not None:
                self.raw += t - self._end
                self.adjusted += (t - self._end) * CAL_REF_S * 2 / (cal + self._cal)
            self._cal = cal
            self._end = time.perf_counter()
        finally:
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def run_pass(plan, tracer=None) -> dict:
    """Time every op of ``plan`` (a list of (op, input)), then check them.

    An op fails if it raises or its reference check reports a mismatch.
    """
    if tracer is not None:
        tracer.install()
    done = []
    try:
        with HostClock() as clock:
            for op, arg in plan:
                if tracer is not None:
                    tracer.op = op.name
                clock.tick()
                a0, r0 = clock.adjusted, clock.raw
                try:
                    res, err = op.run(arg), None
                except Exception as exc:  # a raising op is a failed op, not a crash
                    res, err = None, f"{type(exc).__name__}: {exc}"
                clock.tick()
                done.append((op, res, err, clock.adjusted - a0, clock.raw - r0))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops = []
    for op, res, err, secs, wall in done:
        if err is None:
            err = op.check(res)
        ops.append(
            {
                "name": op.name,
                "wall_s": wall,
                "seconds": secs,
                "checksum": None if res is None else workloads.checksum(res),
                "reference": op.reference,
                "error": err,
            }
        )
    out = {
        "solve_s": sum(op["seconds"] for op in ops),
        "wall_s": sum(op["wall_s"] for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    return out


def write_spans(tracer: Tracer, workload: str, seed: int):
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["id", "parent", "name", "start_ns", "end_ns", "op"],
                "spans": tracer.spans,
            },
            fh,
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)
    src = os.path.join(ROOT, "src", "matpoly")
    if os.path.dirname(os.path.abspath(matpoly.__file__)) != src:
        print(f"matpoly was imported from {matpoly.__file__}, not {src}", file=sys.stderr)
        return 2
    plan = workloads.build(args.workload, args.seed)
    setup_wall_s = time.monotonic() - args.spawned
    cal = statistics.median(calibrate() for _ in range(5))
    setup = {"setup_s": setup_wall_s * CAL_REF_S / cal, "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    tracer = Tracer() if args.trace else None
    out = run_pass(plan, tracer)
    out.update(setup)
    if tracer is not None:
        write_spans(tracer, args.workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
