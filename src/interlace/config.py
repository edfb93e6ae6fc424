"""Run configuration: one flat key/value record shared by the CLI and registry.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Values keep their natural textual form (expressions stay expressions); lists
use commas for numbers and semicolons for expressions.  Each field of
``RunConfig`` states its kind once; the kind parses and prints the value for
config text and for the CLI flag, and ``to_text``/``parse_config_text``
round-trip exactly.  Most keys are also long CLI flags (``--x-start`` for
``x_start``, ``--deg`` for ``degree``, ``--field FX FY FZ`` for
``field_components``); ``command``, ``max_steps``, ``hardy_turn_bound``,
``flat_bound`` and ``final_decade`` have no flag and are set only in a
config file or a registry entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable


@dataclass(frozen=True)
class Kind:
    """How a key's value is read from text and written back."""

    parse: Callable
    fmt: Callable = str
    choices: tuple | None = None
    help: str | None = None


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _exprs(text):
    return tuple(p.strip() for p in text.split(";") if p.strip())


def _fmt_floats(values):
    return ",".join(repr(float(v)) for v in values)


def _choice(*values):
    def parse(text):
        if text not in values:
            raise ValueError(f"invalid choice {text!r} (choose from {', '.join(values)})")
        return text

    return Kind(parse, choices=values)


STR = Kind(str)
INT = Kind(int)
FLOAT = Kind(float)
FLOATS = Kind(_floats, _fmt_floats, help="comma-separated floats")
EXPRS = Kind(_exprs, "; ".join, help="semicolon-separated expressions")


def _key(kind, default=None, flag=None, **flag_options):
    """A RunConfig field; ``flag`` replaces the ``--dashed-name`` spelling."""
    metadata = {"kind": kind, "flag": flag, "options": flag_options}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    command: str | None = _key(STR)
    example: str | None = _key(STR, help="registry entry name")
    # the flag takes three words, a config file takes "fx; fy; fz"
    field_components: tuple | None = _key(
        EXPRS, flag="--field", type=str, nargs=3, metavar=("FX", "FY", "FZ"),
        help="the three field components",
    )
    f1: str | None = _key(STR)
    f2: str | None = _key(STR)
    curve: str | None = _key(STR, help="comma-separated component expressions")
    poly: str | None = _key(STR, help="semicolon-separated polynomials")
    mode: str = _key(_choice("exact", "float"), "exact")
    precision: int = _key(INT, 128)
    order: int | None = _key(INT)
    steps: int | None = _key(INT)
    branch: str = _key(_choice("+", "-"), "+")
    degree: int | None = _key(INT, flag="--deg")
    jet: int | None = _key(INT)
    q: int = _key(INT, 1)
    x_start: float | None = _key(FLOAT)
    x_end: float | None = _key(FLOAT)
    y0: tuple | None = _key(FLOATS)
    eps0: tuple | None = _key(FLOATS)
    rtol: float = _key(FLOAT, 1e-10)
    atol: float = _key(FLOAT, 1e-12)
    max_steps: int = _key(INT, 10**6)
    log_substitution: str = _key(_choice("auto", "on", "off"), "auto")
    probes: tuple | None = _key(FLOATS, help="comma-separated x values")
    census: tuple | None = _key(EXPRS)
    turn_threshold: float = _key(FLOAT, 3.0)
    hardy_turn_bound: float = _key(FLOAT, 0.5)
    flat_bound: float = _key(FLOAT, 10.0)
    final_decade: float = _key(FLOAT, 10.0)
    outdir: str = _key(STR, "out", help="directory for report.json and artifacts")

    def to_text(self):
        lines = [
            f"{f.name} = {f.metadata['kind'].fmt(v)}"
            for f in fields(self)
            if (v := getattr(self, f.name)) is not None and v != f.default
        ]
        return "\n".join(lines) + "\n"


KEYS = {f.name: f for f in fields(RunConfig)}


def parse_config_values(text) -> dict:
    """Typed key/value pairs from config text; only keys that appear."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = KEYS[key].metadata["kind"].parse(val)
        except ValueError as err:
            raise ValueError(f"config line {lineno}: {key}: {err}") from None
    return values


def parse_config_text(text) -> RunConfig:
    return RunConfig(**parse_config_values(text))


def load_config_values(path) -> dict:
    with open(path) as fh:
        return parse_config_values(fh.read())
