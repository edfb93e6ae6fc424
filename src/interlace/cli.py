"""Command-line front end.

Subcommands::

    interlace invariance    --example xi1 --order 30
    interlace classify-pair --example rotating --outdir out/rotating
    interlace integrate     --example log_demo --outdir out/log
    interlace tangents      --curve "t,t^2,t^3" --steps 3
    interlace qshort        --poly "x+x^2" --q 1
    interlace relations     --curve "x,E(x),E(2*x)" --deg 3
    interlace suite         --outdir out/suite
    interlace list-examples

Exit codes: 0 success / property confirmed, 1 negative finding (not
invariant, relations found, not q-short positive), 2 usage or input error,
3 numerical failure.  ``--config FILE`` reads ``key = value`` lines (the
``RunConfig`` keys, see ``interlace.config``); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import pipelines, registry, report
from .config import KEYS, RunConfig, load_config_values
from .errors import InterlaceError, SolverError
from .series import terms_text

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _label(config):
    return config.example or "inline"


def _print_invariance(config, payload):
    verdict = "invariant" if payload["invariant"] else "NOT invariant"
    mult = payload["multiplier"]
    h = "h undefined" if mult is None else "h = " + _series_text(mult)
    print(f"invariance[{_label(config)}]: {verdict} "
          f"through t^{payload['checked_order']}; {h}")


def _print_pair(config, payload):
    rep = payload["report"]
    turns = None if rep["winding"] is None else rep["winding"]["total_turns"]
    print(f"classify-pair[{_label(config)}]: "
          f"verdict={rep['verdict']} total_turns={turns}")


def _print_integrate(config, payload):
    print(f"integrate[{_label(config)}]: "
          f"reached x={payload['final']['x']:g}, y={payload['final']['y']}")


def _print_tangents(config, payload):
    print("tangents:", " -> ".join(
        "(" + ", ".join(d) + ")" for d in payload["directions"]
    ))


def _print_qshort(config, payload):
    for r in payload["results"]:
        print(f"qshort[{r['poly']}]: q={r['q']} short={r['is_short']} "
              f"positive={r['is_positive']} val={r['val']} deg={r['deg']}")


def _print_relations(config, payload):
    if payload["kernel_dimension"] == 0:
        tag = ("transcendence evidence at degree "
               f"{payload['max_degree']}"
               if payload["transcendence_evidence"]
               else "trivial kernel (jet too short for evidence)")
        print(f"relations: {tag}; margin={payload['evidence_margin']}")
    else:
        print(f"relations: kernel dimension {payload['kernel_dimension']}:")
        for r in payload["relations"]:
            print("   ", r, "= 0")


@dataclass(frozen=True)
class Command:
    kind: str  # key of pipelines.RUNNERS
    help: str
    keys: tuple  # RunConfig keys offered as flags besides --example and --outdir
    summary: Callable  # (config, payload): prints the result


COMMANDS = {
    "invariance": Command(
        "invariance", "series multiplier test for a field/curve pair",
        ("field_components", "curve", "order", "mode", "precision", "branch"),
        _print_invariance,
    ),
    "classify-pair": Command(
        "pair", "flat contact / winding / census verdict",
        ("f1", "f2", "x_start", "x_end", "y0", "eps0", "probes", "census",
         "rtol", "atol", "turn_threshold", "log_substitution"),
        _print_pair,
    ),
    "integrate": Command(
        "integrate", "integrate a reduced system toward x -> 0+",
        ("f1", "f2", "x_start", "x_end", "y0", "rtol", "atol", "log_substitution"),
        _print_integrate,
    ),
    "tangents": Command(
        "tangents", "oriented iterated tangents of a curve",
        ("curve", "steps", "order", "branch"), _print_tangents,
    ),
    "qshort": Command(
        "qshort", "q-short / positivity test for polynomials", ("poly", "q"), _print_qshort,
    ),
    "relations": Command(
        "relations", "exact polynomial-relation search on a curve jet",
        ("curve", "degree", "jet", "order", "branch"), _print_relations,
    ),
}


def _add_flag(parser, key):
    meta = KEYS[key].metadata
    kind = meta["kind"]
    typed = {"choices": kind.choices} if kind.choices else {"type": kind.parse}
    parser.add_argument(
        meta["flag"] or "--" + key.replace("_", "-"),
        dest=key,
        **{"help": kind.help, **typed, **meta["options"]},
    )


class _Parser(argparse.ArgumentParser):
    """Reads a word with one leading "-" as a value unless it is an option, as in ``--f1 -y1``."""

    def _parse_optional(self, arg_string):
        if arg_string[1:2] != "-" and arg_string not in self._option_string_actions:
            return None  # a value such as "-x", "-y1" or "-1/2", not an unknown option
        return super()._parse_optional(arg_string)


def build_parser():
    ap = _Parser(prog="interlace", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key = value config file")
        for key in ("example", "outdir", *command.keys):
            _add_flag(p, key)
        p.set_defaults(run=_run_command)

    p = sub.add_parser("suite", help="run every registry entry and verify its facts")
    p.add_argument("--outdir", default="out/suite")
    p.set_defaults(run=_run_suite)

    p = sub.add_parser("list-examples", help="list registry entries")
    p.set_defaults(run=_list_examples)
    return ap


def config_from_args(args):
    """RunConfig plus the key/value pairs the user actually supplied."""
    explicit = load_config_values(args.config) if args.config else {}
    for key, value in vars(args).items():
        if key in KEYS and value is not None:
            explicit[key] = tuple(value) if isinstance(value, list) else value
    return RunConfig(**explicit), explicit


def _run_command(args):
    config, explicit = config_from_args(args)
    config, entry = pipelines.resolve(config, explicit)
    command = COMMANDS[args.cmd]
    payload, code = pipelines.RUNNERS[command.kind](config, entry, config.outdir)
    if config.outdir is not None:
        path = report.write_json(Path(config.outdir) / "report.json", payload)
        if "artifacts" not in payload:  # a payload with artifacts lists its files instead
            print(f"{args.cmd}: wrote {path}")
    command.summary(config, payload)
    return code


def _run_suite(args):
    summary = pipelines.run_suite(args.outdir)
    for row in summary["entries"]:
        state = "ok" if row["facts_ok"] else "FAIL"
        print(f"{row['name']:22s} [{row['kind']}] facts: {state}")
    print(f"suite: {'all facts verified' if summary['all_ok'] else 'FAILURES'}")
    return EXIT_OK if summary["all_ok"] else EXIT_NEGATIVE


def _list_examples(args):
    for name in registry.names():
        entry = registry.get(name)
        print(f"{name:22s} [{entry.kind}] {entry.description}")
    return EXIT_OK


PARSER = build_parser()  # every call shares it: parse_args leaves a parser unchanged


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.run(args)
    except SolverError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InterlaceError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def _series_text(mult_json):
    terms = [(i, c.removesuffix("/1")) for i, c in enumerate(mult_json["coeffs"])
             if Fraction(c) != 0]  # reads both modes' text, a float below the float range too
    return terms_text(terms, mult_json.get("var", "t"))


if __name__ == "__main__":
    sys.exit(main())
