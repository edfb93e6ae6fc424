"""The demo scripts under scripts/ run to completion and print their key lines."""

import os
import subprocess
import sys
from pathlib import Path

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

    (new / "pair" / "trajectory.csv").write_text("x,y\n1,2.0\n")
    (new / "pair" / "report.json").write_text('{"generated_at": "x", "verdict": "Interlaced"}\n')
    (old / "stdout.txt").write_text("suite: all facts verified\n")
    proc = compare_suite(old, new)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "pair/report.json", "pair/trajectory.csv", "stdout.txt", "3 paths differ",
    ]
