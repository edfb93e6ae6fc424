#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and summarise the end-to-end metrics.

    python scripts/bench_pairs.py PARENT CHANGE --workload pair_tight --seeds 11-20
        [--seconds 30] [--out BENCH.json]

For each seed, ``python3 perfbench/run.py --workload W --seed S --seconds T``
runs once in each checkout, one process at a time: odd seeds run PARENT
first, even seeds CHANGE first, so a drift in host speed does not favour one
side.  For every end-to-end metric of PARENT's ``BENCHMARK.json`` the script
prints the parent's median [q1, q3], the change's median and in how many
pairs the change was better, and then two flags:

- ``gain_rule_met``: the change was better in at least 9 of every 10 pairs
  (a tie counts for neither side), and its median beats the parent's by
  more than the parent's interquartile range;
- ``within_bound``: the change's median is no worse than the parent's by
  more than the metric's ``bound``, read as a fraction of the parent's
  median.

A run that exits non-zero or prints no result is reported and left out of
its pair.  A run in which fewer than ``MIN_SAMPLED_OPS`` ops (read from
``op_raw_s``) last at least ``REF_PERIOD_S``, the host-speed sampling period
of ``perfbench/run.py``, is kept but warned about: an op shorter than that
period takes no host-speed sample, so the run's corrected times rest on
few samples, or on none.

Each side's ``environment.nproc``, read from the info line of its runs, is
printed after the summary, with a warning on stderr when the two sides
differ or either is 1: ``interlace suite`` runs its two halves at once only
on two CPUs or more, so such a pair does not compare like with like.

``--out`` writes the raw runs and the summary under ``workloads.W`` of a
JSON file, keeping the other workloads already in that file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REF_PERIOD_S = 0.025  # perfbench/run.py samples the host's speed this often
MIN_SAMPLED_OPS = 10


def quartiles(values):
    """(q1, median, q3) of ``values``, inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, better, bounds=None):
    """Per-metric summary of paired runs.

    ``runs`` is a list of ``{"seed", "parent", "change"}`` where each side is
    a dict of metric values, or None for a failed run.  ``better`` maps a
    metric name to "higher" or "lower", and ``bounds`` a metric name to its
    allowed relative loss; ``within_bound`` is None for a metric without one.
    Pairs with a failed side are left out of the medians and of the win count.
    """
    bounds = bounds or {}
    pairs = [r for r in runs if r["parent"] is not None and r["change"] is not None]
    if not pairs:
        return {name: {"pairs": 0} for name in better}
    out = {}
    for name, direction in better.items():
        parent = [r["parent"][name] for r in pairs]
        change = [r["change"][name] for r in pairs]
        wins = sum((c > p) if direction == "higher" else (c < p) for p, c in zip(parent, change))
        stats = {}
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = quartiles(values)
            stats[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
        gap = stats["change"]["median"] - stats["parent"]["median"]
        gain = gap if direction == "higher" else -gap  # > 0 when the change is better
        bound = bounds.get(name)
        out[name] = {
            **stats,
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "median_gap": gap,
            "gain_rule_met": 10 * wins >= 9 * len(pairs) and gain > stats["parent"]["iqr"],
            "within_bound": None if bound is None
            else -gain <= bound * abs(stats["parent"]["median"]),
        }
    return out


def format_summary(workload, summary, failed):
    lines = [f"{workload}: {failed} failed runs" if failed else f"{workload}:"]
    for name, s in summary.items():
        if not s["pairs"]:
            lines.append(f"  {name}: no complete pair")
            continue
        p, c = s["parent"], s["change"]
        lines.append(
            f"  {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f" -> change {c['median']:.4g}; change better in {s['change_better_pairs']}/{s['pairs']}"
        )
        lines.append(f"    gain_rule_met: {s['gain_rule_met']}, within_bound: {s['within_bound']}")
    return "\n".join(lines)


def sampling_warning(op_raw_s):
    """A warning when fewer than MIN_SAMPLED_OPS of the op times reach REF_PERIOD_S, else None."""
    sampled = sum(t >= REF_PERIOD_S for t in op_raw_s)
    if sampled >= MIN_SAMPLED_OPS:
        return None
    return (f"only {sampled} of {len(op_raw_s)} ops last the {REF_PERIOD_S * 1e3:g} ms "
            "host-speed sampling period; its corrected times rest on few samples")


def nproc_report(nprocs):
    """(line, warning or None) for ``nprocs``: {side: set of environment.nproc its runs gave}."""
    line = "nproc: " + ", ".join(
        f"{side} {'/'.join(map(str, sorted(values))) or 'unknown'}" for side, values in nprocs.items())
    problems = []
    if nprocs["parent"] != nprocs["change"]:
        problems.append("the two sides differ")
    if any(1 in values for values in nprocs.values()):
        problems.append("a side had one CPU, where the suite runs in one process")
    warning = f"warning: {' and '.join(problems)} ({line})" if problems else None
    return line, warning


def run_once(checkout, workload, seed, seconds):
    """(metric values, environment) of one benchmark process, or (None, None) if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        print(f"  {checkout} seed {seed}: exit {proc.returncode}: {tail[0]}", file=sys.stderr)
        return None, None
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    warning = sampling_warning(info["op_raw_s"])
    if warning:
        print(f"  {checkout} seed {seed}: warning: {warning}", file=sys.stderr)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(correct=result["correct"], attempted=result["attempted"])
    return values, info["environment"]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    runs, environment = [], None
    nprocs = {"parent": set(), "change": set()}
    for seed in args.seeds:
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        run = {"seed": seed, "first": sides[0]}
        for side in sides:
            run[side], env = run_once(getattr(args, side), args.workload, seed, args.seconds)
            environment = environment or env
            if env is not None:
                nprocs[side].add(env["nproc"])
        runs.append(run)
        print(f"  seed {seed} done", file=sys.stderr)

    summary = summarize(runs, better, bounds)
    failed = sum(r[side] is None for r in runs for side in ("parent", "change"))
    print(format_summary(args.workload, summary, failed))
    line, warning = nproc_report(nprocs)
    print(line)
    if warning:
        print(warning, file=sys.stderr)
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.is_file() else {}
        data.setdefault("command", "python3 perfbench/run.py --workload <w> --seed <s> --seconds <t>")
        data.setdefault("environment", environment)
        data.setdefault("workloads", {})[args.workload] = {
            "seeds": args.seeds, "seconds": args.seconds, "summary": summary, "runs": runs,
        }
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
