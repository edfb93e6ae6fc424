#!/usr/bin/env python3
"""Compare two ``interlace suite --outdir`` trees.

    python scripts/compare_suite.py OLD NEW

Each JSON file (every ``report.json`` and the suite's ``summary.json``) is
compared after ``report.strip_timestamps``, and every other file (SVG, CSV,
a saved copy of the suite's stdout) byte for byte.  A file on one side only
is a difference.  Exits 0 when the two runs are the same; otherwise prints
the paths that differ and exits 1.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this checkout first

from interlace.report import load_json, strip_timestamps  # noqa: E402


def _files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _canonical(path):
    return json.dumps(strip_timestamps(load_json(path)), sort_keys=True)


def _same(old, new):
    if not (old.is_file() and new.is_file()):
        return False
    if old.suffix == ".json":
        return _canonical(old) == _canonical(new)
    return old.read_bytes() == new.read_bytes()


def differing(old, new):
    """Relative paths whose files differ between the trees ``old`` and ``new``."""
    return sorted(p for p in _files(old) | _files(new) if not _same(old / p, new / p))


def main(argv):
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: compare_suite.py OLD NEW (two suite output directories)", file=sys.stderr)
        return 2
    paths = differing(Path(argv[0]), Path(argv[1]))
    for p in paths:
        print(p)
    print(f"{len(paths)} paths differ" if paths else "identical")
    return 1 if paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
