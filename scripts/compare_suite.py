#!/usr/bin/env python3
"""Compare two ``interlace suite --outdir`` trees.

    python scripts/compare_suite.py OLD NEW

Every file (JSON reports, SVG, CSV, a saved copy of the suite's stdout) is
compared byte for byte, except that in JSON files the value of each
``"generated_at"`` key is masked.  So a change of JSON layout, such as its
indentation or key order, is a difference.  A file on one side only is a
difference too.  Exits 0 when the two runs are the same; otherwise prints
the paths that differ and exits 1.
"""

import re
import sys
from pathlib import Path

_STAMP = re.compile(rb'"generated_at": "[^"]*"')


def _files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _bytes(path):
    data = path.read_bytes()
    return _STAMP.sub(b'"generated_at": ""', data) if path.suffix == ".json" else data


def _same(old, new):
    return old.is_file() and new.is_file() and _bytes(old) == _bytes(new)


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
