#!/usr/bin/env python3
"""Write the source of every function the pair and integrate entries generate.

    python scripts/dump_generated.py OUTDIR

Runs each registry entry of kind ``pair`` or ``integrate`` twice, with log
substitution as configured and forced on, and records every function made
by ``expr.generated_function``: the DOPRI5 kernels, the census expressions
and, since an inlined kernel never calls it, each integrated system's
``rhs``.  Each code name (``dopri5 rotating``, ``rhs euler_pair``,
``census y1 - x``) gets one file, ``/`` replaced by ``_``, holding each of its
distinct sources in the order they were first made.  Two dumps compare with
``scripts/compare_suite.py``, which shows whether a change moved any
generated code.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this checkout first

from interlace import expr, integrate, pipelines  # noqa: E402
from interlace.registry import ENTRIES  # noqa: E402


def generated_sources():
    """{code name: [distinct sources]} over the pair and integrate entries."""
    sources = {}
    make, kernel = expr.generated_function, integrate._kernel

    def record(source, label, *args):
        if source not in sources.setdefault(label, []):
            sources[label].append(source)
        return make(source, label, *args)

    def kernel_and_rhs(system, logsub):
        system._compiled  # generates the rhs, which an inlined kernel never calls
        return kernel(system, logsub)

    expr.generated_function, integrate._kernel = record, kernel_and_rhs
    try:
        for name in sorted(ENTRIES):
            entry = ENTRIES[name]
            if entry.kind in ("pair", "integrate"):
                for config in (entry.config, replace(entry.config, log_substitution="on")):
                    pipelines.RUNNERS[entry.kind](config, entry)
    finally:
        expr.generated_function, integrate._kernel = make, kernel
    return sources


def main(argv):
    if len(argv) != 1:
        print("usage: dump_generated.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    sources = generated_sources()
    for label, texts in sources.items():
        (outdir / f"{label.replace('/', '_')}.py").write_text("\n".join(texts))
    print(f"{len(sources)} code names written to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
