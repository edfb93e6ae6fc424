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
