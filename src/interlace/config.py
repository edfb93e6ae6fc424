"""Run configuration: one flat key/value record shared by the CLI and registry.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Values keep their natural textual form (expressions stay expressions); lists
use commas for numbers and semicolons for expressions.  Every field mirrors
a long CLI flag, and ``to_text``/``parse_config_text`` round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


def _parse_floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_exprs(text):
    return tuple(p.strip() for p in text.split(";") if p.strip())


def _fmt_floats(values):
    return ",".join(repr(float(v)) for v in values)


def _fmt_exprs(values):
    return "; ".join(values)


@dataclass(frozen=True)
class RunConfig:
    command: str | None = None
    example: str | None = None
    field_components: tuple | None = None  # 3 expression strings
    f1: str | None = None
    f2: str | None = None
    curve: str | None = None
    poly: str | None = None  # semicolon-separated polynomials
    mode: str = "exact"  # exact | float
    precision: int = 128
    order: int | None = None
    steps: int | None = None
    branch: str = "+"
    degree: int | None = None
    jet: int | None = None
    q: int = 1
    x_start: float | None = None
    x_end: float | None = None
    y0: tuple | None = None
    eps0: tuple | None = None
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 10**6
    log_substitution: str = "auto"  # auto | on | off
    probes: tuple | None = None
    census: tuple | None = None
    turn_threshold: float = 3.0
    hardy_turn_bound: float = 0.5
    flat_bound: float = 10.0
    final_decade: float = 10.0
    outdir: str = "out"

    def merged(self, **overrides):
        clean = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **clean)

    def to_text(self):
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None or v == f.default:
                continue
            if f.name in ("y0", "eps0", "probes"):
                lines.append(f"{f.name} = {_fmt_floats(v)}")
            elif f.name in ("census", "field_components"):
                lines.append(f"{f.name} = {_fmt_exprs(v)}")
            else:
                lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"


_FLOAT_TUPLES = ("y0", "eps0", "probes")
_EXPR_TUPLES = ("census", "field_components")
_INTS = ("precision", "order", "steps", "degree", "jet", "q", "max_steps")
_FLOATS = (
    "x_start", "x_end", "rtol", "atol",
    "turn_threshold", "hardy_turn_bound", "flat_bound", "final_decade",
)


def parse_config_values(text) -> dict:
    """Typed key/value pairs from config text; only keys that appear."""
    values = {}
    known = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in _FLOAT_TUPLES:
            values[key] = _parse_floats(val)
        elif key in _EXPR_TUPLES:
            values[key] = _parse_exprs(val)
        elif key in _INTS:
            values[key] = int(val)
        elif key in _FLOATS:
            values[key] = float(val)
        else:
            values[key] = val
    return values


def parse_config_text(text) -> RunConfig:
    return RunConfig(**parse_config_values(text))


def load_config_values(path) -> dict:
    with open(path) as fh:
        return parse_config_values(fh.read())
