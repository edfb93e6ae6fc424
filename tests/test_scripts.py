"""The scripts under scripts/ run to completion and print their key lines."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_winding_demo_interlaces_at_the_strongest_rotation():
    rows = [line.split() for line in run_script("winding_demo.py")]
    assert [row[-1] for row in rows if row[0] == "2.00"] == ["Interlaced"]


def test_flat_contact_demo_reports_flat_contact():
    assert "flat-contact evidence: True" in run_script("flat_contact_demo.py")


def test_transcendence_scan_finds_evidence_on_every_case():
    rows = run_script("transcendence_scan.py")
    assert len(rows) == 4
    assert all(row.endswith(": evidence") for row in rows)


def _suite_tree(root, stamp, csv="x,y\n1,2\n"):
    (root / "pair").mkdir(parents=True)
    report = f'{{"generated_at": "{stamp}", "verdict": "Hardy"}}\n'
    (root / "pair" / "report.json").write_text(report)
    (root / "summary.json").write_text(f'{{"all_ok": true, "generated_at": "{stamp}"}}\n')
    (root / "pair" / "trajectory.csv").write_text(csv)
    return root


def compare_suite(old, new):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_suite.py"), str(old), str(new)],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_compare_suite_ignores_only_the_timestamps(tmp_path):
    old = _suite_tree(tmp_path / "old", "2020-01-01")
    new = _suite_tree(tmp_path / "new", "2021-06-30")
    proc = compare_suite(old, new)
    assert (proc.returncode, proc.stdout) == (0, "identical\n")

    # the same JSON value in another layout is a difference
    (new / "pair" / "report.json").write_text('{\n  "generated_at": "x",\n  "verdict": "Hardy"\n}\n')
    proc = compare_suite(old, new)
    assert (proc.returncode, proc.stdout.splitlines()) == (1, ["pair/report.json", "1 paths differ"])

    (new / "pair" / "trajectory.csv").write_text("x,y\n1,2.0\n")
    (new / "pair" / "report.json").write_text('{"generated_at": "x", "verdict": "Interlaced"}\n')
    (old / "stdout.txt").write_text("suite: all facts verified\n")
    proc = compare_suite(old, new)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "pair/report.json", "pair/trajectory.csv", "stdout.txt", "3 paths differ",
    ]


@pytest.mark.parametrize("pythonpath", [None, "decoy"])
def test_compare_suite_imports_its_own_checkout(tmp_path, pythonpath):
    # no PYTHONPATH, or one whose interlace fails on import: scripts/ finds ../src
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath:
        decoy = tmp_path / pythonpath / "interlace"
        decoy.mkdir(parents=True)
        (decoy / "__init__.py").write_text("raise ImportError('decoy interlace')\n")
        env["PYTHONPATH"] = str(decoy.parent)
    old = _suite_tree(tmp_path / "old", "2020-01-01")
    new = _suite_tree(tmp_path / "new", "2021-06-30")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_suite.py"), str(old), str(new)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "identical\n", "")


def test_two_dumps_of_the_generated_code_compare_identical(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for side in ("old", "new"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "dump_generated.py"), str(tmp_path / side)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    kernel = (tmp_path / "new" / "dopri5 rotating.py").read_text()
    # the kernel as configured and with log substitution forced on
    assert kernel.count("def dopri5(") == 2 and "x = exp(t)" in kernel
    assert (tmp_path / "new" / "census z1.py").is_file()
    # the exact side's functions: curve substitution and the q-short polynomials
    assert "def _compiled(" in (tmp_path / "new" / "_compiled.py").read_text()
    proc = compare_suite(tmp_path / "old", tmp_path / "new")
    assert (proc.returncode, proc.stdout) == (0, "identical\n")


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_of_synthetic_runs():
    bench = _load_script("bench_pairs")
    parent = [4.0, 5.0, 6.0, 7.0, 8.0]
    change = [6.0, 4.0, 7.0, 9.0, 8.0]
    runs = [{"seed": s, "parent": {"ops_per_s": p, "op_p50_s": 1 / p},
             "change": {"ops_per_s": c, "op_p50_s": 1 / c}}
            for s, p, c in zip(range(11, 16), parent, change)]
    runs.append({"seed": 16, "parent": {"ops_per_s": 1.0, "op_p50_s": 1.0}, "change": None})
    summary = bench.summarize(runs, {"ops_per_s": "higher", "op_p50_s": "lower"})
    ops = summary["ops_per_s"]
    # the failed pair is left out: five pairs, inclusive quartiles of 4..8
    assert ops["pairs"] == 5
    assert ops["parent"] == {"median": 6.0, "q1": 5.0, "q3": 7.0, "iqr": 2.0}
    assert ops["change"]["median"] == 7.0 and ops["median_gap"] == 1.0
    # 6 > 4, 7 > 6, 9 > 7 win; 4 < 5 loses; the tie 8 = 8 is no win
    assert ops["change_better_pairs"] == 3
    assert summary["op_p50_s"]["change_better_pairs"] == 3
    assert summary["op_p50_s"]["parent"]["median"] == 1 / 6
    text = bench.format_summary("pair_tight", summary, failed=1)
    assert text.splitlines()[:2] == [
        "pair_tight: 1 failed runs",
        "  ops_per_s: parent 6 [5, 7] -> change 7; change better in 3/5",
    ]


def test_bench_pairs_edge_cases():
    bench = _load_script("bench_pairs")
    assert bench.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert bench.parse_seeds("11-20") == list(range(11, 21))
    assert bench.parse_seeds("3") == [3]
    failed = [{"seed": 1, "parent": None, "change": {"ops_per_s": 1.0}}]
    assert bench.summarize(failed, {"ops_per_s": "higher"}) == {"ops_per_s": {"pairs": 0}}


def _paired(parent, change, name="ops_per_s"):
    return [{"seed": s, "parent": {name: p}, "change": {name: c}}
            for s, (p, c) in enumerate(zip(parent, change), start=1)]


def test_bench_pairs_gain_rule_on_synthetic_runs():
    bench = _load_script("bench_pairs")
    parent = [5.0, 5.2, 5.4, 5.6, 5.8, 6.0, 6.2, 6.4, 6.6, 6.8]  # iqr 0.9
    higher = {"ops_per_s": "higher"}

    def rule(change, parent=parent, better=higher):
        return bench.summarize(_paired(parent, change, *better), better)[next(iter(better))]

    # 10 wins by 1.0 each: a median gap of 1.0 beats the iqr of 0.9
    assert rule([p + 1.0 for p in parent])["gain_rule_met"] is True
    # 9 of 10 still meets the rule; 8 of 10, or 8 wins and two ties, do not
    nine = rule([p + 1.5 for p in parent[:9]] + [parent[9] - 0.1])
    assert (nine["change_better_pairs"], nine["median_gap"] > 0.9, nine["gain_rule_met"]) == (
        9, True, True)
    eight = rule([p + 1.5 for p in parent[:8]] + [p - 0.1 for p in parent[8:]])
    assert (eight["change_better_pairs"], eight["median_gap"] > 0.9, eight["gain_rule_met"]) == (
        8, True, False)
    tie = rule([p + 1.5 for p in parent[:9]] + [parent[9]])
    assert (tie["change_better_pairs"], tie["gain_rule_met"]) == (9, True)
    tie = rule([p + 1.5 for p in parent[:8]] + [parent[8], parent[9]])
    assert (tie["change_better_pairs"], tie["gain_rule_met"]) == (8, False)
    # every pair wins, but by less than the parent's spread
    small = rule([p + 0.5 for p in parent])
    assert (small["change_better_pairs"], small["gain_rule_met"]) == (10, False)
    # lower is better: the gap is read the other way round
    lower = {"op_p50_s": "lower"}
    assert rule([p - 1.0 for p in parent], better=lower)["gain_rule_met"] is True
    assert rule([p + 1.0 for p in parent], better=lower)["gain_rule_met"] is False


def test_bench_pairs_bound_rule_on_synthetic_runs():
    bench = _load_script("bench_pairs")
    parent = [4.0] * 5
    better = {"ops_per_s": "higher", "peak_rss_mb": "lower"}
    bounds = {"ops_per_s": 0.25, "peak_rss_mb": 0.1}

    def flags(ops, rss):
        runs = [{"seed": s, "parent": {"ops_per_s": 4.0, "peak_rss_mb": 40.0},
                 "change": {"ops_per_s": ops, "peak_rss_mb": rss}} for s in range(len(parent))]
        summary = bench.summarize(runs, better, bounds)
        return summary["ops_per_s"]["within_bound"], summary["peak_rss_mb"]["within_bound"]

    assert flags(3.0, 44.0) == (True, True)  # exactly at the bound on both
    assert flags(2.9, 44.5) == (False, False)
    assert flags(9.0, 10.0) == (True, True)  # better is always within
    # no bound declared: no verdict
    assert bench.summarize(_paired(parent, parent), {"ops_per_s": "higher"})[
        "ops_per_s"]["within_bound"] is None
    text = bench.format_summary("pair_tight", bench.summarize(
        _paired(parent, [3.0] * 5), {"ops_per_s": "higher"}, bounds), failed=0)
    assert text.splitlines()[1:] == [
        "  ops_per_s: parent 4 [4, 4] -> change 3; change better in 0/5",
        "    gain_rule_met: False, within_bound: True",
    ]


def test_bench_pairs_reads_the_benchmark_sampling_period():
    bench = _load_script("bench_pairs")
    source = (ROOT / "perfbench" / "run.py").read_text()
    assert f"\nREF_PERIOD_S = {bench.REF_PERIOD_S!r}\n" in source


def test_bench_pairs_warns_on_runs_of_few_sampled_ops():
    bench = _load_script("bench_pairs")
    period = bench.REF_PERIOD_S
    assert bench.sampling_warning([period] * 10) is None
    assert bench.sampling_warning([0.001] * 50 + [0.03] * 10) is None
    assert bench.sampling_warning([0.0249] * 100 + [period] * 9) == (
        "only 9 of 109 ops last the 25 ms host-speed sampling period; "
        "its corrected times rest on few samples")
    assert bench.sampling_warning([]).startswith("only 0 of 0 ops")


def test_bench_pairs_warns_from_the_info_line_of_a_run(tmp_path, capsys):
    bench = _load_script("bench_pairs")
    (tmp_path / "perfbench").mkdir()
    info = {"op_raw_s": [0.02] * 30 + [0.03] * 3, "environment": {"nproc": 1}}
    result = {"correct": True, "attempted": 33, "metrics": {"ops_per_s": {"value": 40.0}}}
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import json\nprint(json.dumps({info!r}))\nprint(json.dumps({result!r}))\n")
    values, env = bench.run_once(tmp_path, "relations_deg5", 7, 1.0)
    assert values == {"ops_per_s": 40.0, "correct": True, "attempted": 33} and env == {"nproc": 1}
    assert capsys.readouterr().err == (
        f"  {tmp_path} seed 7: warning: only 3 of 33 ops last the 25 ms host-speed "
        "sampling period; its corrected times rest on few samples\n")


def _stub_checkout(root, nproc):
    """A checkout whose perfbench/run.py prints one fixed run reporting ``nproc``."""
    (root / "perfbench").mkdir(parents=True)
    info = {"op_raw_s": [0.03] * 10, "environment": {"nproc": nproc}}
    result = {"correct": True, "attempted": 10, "metrics": {"ops_per_s": {"value": 10.0}}}
    (root / "perfbench" / "run.py").write_text(
        f"import json\nprint(json.dumps({info!r}))\nprint(json.dumps({result!r}))\n")
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


@pytest.mark.parametrize("parent_nproc, change_nproc, warning", [
    (2, 2, None),
    (2, 4, "the two sides differ"),
    (1, 1, "a side had one CPU, where the suite runs in one process"),
    (2, 1, "the two sides differ and a side had one CPU, where the suite runs in one process"),
])
def test_bench_pairs_prints_and_checks_each_sides_nproc(
        tmp_path, capsys, parent_nproc, change_nproc, warning):
    bench = _load_script("bench_pairs")
    parent = _stub_checkout(tmp_path / "parent", parent_nproc)
    change = _stub_checkout(tmp_path / "change", change_nproc)
    assert bench.main([str(parent), str(change), "--workload", "suite", "--seeds", "1-2",
                       "--seconds", "1"]) == 0
    out, err = capsys.readouterr()
    line = f"nproc: parent {parent_nproc}, change {change_nproc}"
    assert out.splitlines()[-1] == line
    warnings = [e for e in err.splitlines() if e.startswith("warning:")]
    assert warnings == ([] if warning is None else [f"warning: {warning} ({line})"])
