"""Benchmark for interlace: one closed-loop client, in-process, one workload per process.

    python3 perfbench/run.py --workload pair_tight --seed 0 --seconds 30 --trace 0

Ops run back to back for ``--seconds`` (the op in flight when time runs out
completes), each checked against its oracle.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
prints the per-layer metrics.  The last stdout line is the JSON result; the
line before it records the inputs, environment and per-op samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import spans
from workloads import ROOT, WORKLOADS

import mpmath
import numpy

OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
REF_PERIOD_S = 0.025
PROBE_CHUNKS = 100
MIN_TAIL_BEYOND = 10


def run_op(workload, inputs, scratch, tracer=None):
    """Run one op, traced when a tracer is given, and return its result."""
    if tracer is None:
        return workload.run(inputs, scratch)
    with spans.instrument(tracer):
        result = tracer.run_op(lambda: workload.run(inputs, scratch))
    if workload.counts is not None:
        tracer.counts[-1].update(workload.counts(result))
    return result


def reference_chunk_s():
    """Wall time of one fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the host's speed during each measured interval and corrects for it.

    On a shared virtual machine CPU speed can drift by tens of percent over
    seconds to minutes as other tenants load its cores, so raw op times from
    runs a minute apart disagree by more than any useful bound.  While an interval runs,
    a timer signal times ``reference_chunk_s`` every ``REF_PERIOD_S``.  Each
    interval, less the sampling time, is divided by its median chunk over
    the fastest chunk seen: an estimate of the interval on the unloaded
    host.  Raw times are reported alongside the corrected ones.
    """

    def __init__(self):
        self.raw = []  # interval seconds, sampling time excluded
        self.chunks = []  # reference chunk times taken during each interval

    def _tick(self, signum, frame):
        self.chunks[-1].append(reference_chunk_s())

    def measure(self, fn):
        """Run ``fn()`` as one sampled interval and return its result."""
        self.chunks.append([])
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.raw.append(elapsed - sum(self.chunks[-1]))

    def add(self, raw_s, chunks):
        """Record an interval measured elsewhere, with chunks timed just after it."""
        self.raw.append(raw_s)
        self.chunks.append(chunks)

    def corrected(self):
        everything = [c for chunks in self.chunks for c in chunks]
        fastest, typical = min(everything), statistics.median(everything)
        return [
            t * fastest / (statistics.median(chunks) if chunks else typical)
            for t, chunks in zip(self.raw, self.chunks)
        ]


def run_ops(workload, inputs, seconds, traced):
    """Closed loop for ``seconds``; with tracing, every second op is traced.

    Returns the ops' HostSpeed record, which ops were traced, the failure
    count and the tracer.
    """
    tracer = spans.Tracer() if traced else None
    speed = HostSpeed()
    flags = []
    failed = 0
    begin = time.perf_counter()
    min_ops = 2 if traced else 1
    while len(flags) < min_ops or time.perf_counter() - begin < seconds:
        use_trace = traced and len(flags) % 2 == 1
        scratch = OUT / "tmp" / f"op{os.getpid()}-{len(flags)}"
        try:
            result = speed.measure(lambda: run_op(workload, inputs, scratch, tracer if use_trace else None))
            problems = workload.check(inputs, result)
        except Exception:  # an op that raises counts as failed; the loop goes on
            traceback.print_exc()
            problems = ["op raised"]
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if problems:
            failed += 1
            print(f"op {len(flags)} failed its check: {problems}", file=sys.stderr)
        flags.append(use_trace)
    return speed, flags, failed, tracer


def tail(samples):
    """(value, percentile) of the highest percentile with ten samples beyond it, or None."""
    if len(samples) <= MIN_TAIL_BEYOND:
        return None
    return sorted(samples)[-MIN_TAIL_BEYOND - 1], 1 - MIN_TAIL_BEYOND / len(samples)


def setup_seconds(workload, seed, speed):
    """Fresh process to first op ready, once per probe, recorded in ``speed``.

    Each probe times reference chunks right after it is ready, on the core it
    started on, and prints them after the ready timestamp.
    """
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        ready, *chunks = map(float, probe.stdout.split())
        speed.add(ready - t0, chunks)


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.setup_probe:
        ready = time.monotonic()
        print(ready, *(reference_chunk_s() for _ in range(PROBE_CHUNKS)))
        return 0

    OUT.mkdir(exist_ok=True)
    speed, flags, failed, tracer = run_ops(workload, inputs, args.seconds, bool(args.trace))
    raw, corrected = speed.raw, speed.corrected()
    attempted = len(raw)
    untraced = [t for t, f in zip(corrected, flags) if not f]
    info = {
        "workload": args.workload, "seed": args.seed, "inputs": inputs,
        "why": workload.why, "environment": environment(),
        "op_raw_s": raw, "op_corrected_s": corrected, "op_traced": flags,
        "op_tail_s": tail(untraced), "op_tail_samples": len(untraced),
    }
    if args.trace:
        traced = [t for t, f in zip(corrected, flags) if f]
        layer = spans.layer_metrics(spans.op_metrics(tracer))
        metrics = {name: {"value": layer[name], "unit": unit} for name, (unit, _) in spans.LAYER_METRICS.items()}
        metrics["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
        metrics["trace.op_p50_s"] = {"value": statistics.median(traced), "unit": "s"}
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.dump(span_file)
        info["span_file"] = str(span_file.relative_to(ROOT))
    else:
        setup = HostSpeed()
        setup_seconds(args.workload, args.seed, setup)
        setup_corrected = setup.corrected()
        info["setup_raw_s"], info["setup_corrected_s"] = setup.raw, setup_corrected
        metrics = {
            "ops_per_s": {"value": attempted / sum(corrected), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(corrected), "unit": "s"},
            "ok_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_corrected), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps(info, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
