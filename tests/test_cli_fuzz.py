"""In-process fuzzing of the command line: no input reaches a traceback.

Every drawn command line runs through ``cli.main``.  It must return, or
leave through argparse's ``SystemExit``, with an exit code in {0, 1, 2, 3},
and 1 (a negative finding) may come only from ``invariance``, ``relations``
and ``qshort``.

Size bounds, fixed so that one example stays cheap:
- expressions nest at most ``_DEPTH`` = 4 operator levels, with integer
  exponents in [-30, 30] and literals up to 10^400; raw drawn text is at most
  ``_TEXT`` = 40 characters;
- ``--deg`` <= 3, ``--order`` <= 12, ``--steps`` <= 4, ``--jet`` <= 24,
  ``--precision`` <= 256 and ``--q`` <= 4;
- a pair or integrate run always ends its ``--config`` file with
  ``max_steps`` <= 2000, and a relations run always passes ``--deg``;
- a config file holds the same bounds; a registry example keeps its own
  values where no flag or config line overrides them.

Draws lean toward valid values, so that most runs get past the usage checks.
"""

import contextlib
import io
import string

from hypothesis import HealthCheck, given, settings, strategies as st

from interlace import cli
from interlace.registry import ENTRIES

_DEPTH = 4
_TEXT = 40
_NEGATIVE_FINDINGS = {"invariance", "relations", "qshort"}

_numbers = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["1/2", "3/10", "0", "0.5", "1e-8", "2.5e3", "1e300", "1e400",
                     "1e-320", "10" + "0" * 400, "7/0"]),
)


def _expressions(variables, calls=False):
    """Expression text of at most ``_DEPTH`` nested operators, or raw text."""

    def wrapped(inner):
        steps = [
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(
                lambda t: f"{t[0]} {t[1]} {t[2]}"),
            st.tuples(inner, st.integers(-30, 30)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda e: f"-({e})"),
            inner.map(lambda e: f"({e})"),
        ]
        if calls:
            steps.append(st.tuples(st.sampled_from(["E", "exp"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"))
        return steps

    tree = st.one_of(_numbers, st.sampled_from(variables))
    for _ in range(_DEPTH):
        tree = st.one_of(tree, *wrapped(tree))
    raw = st.text(string.ascii_letters[:8] + string.digits + "+-*/^()., ;xyzt", max_size=_TEXT)
    return _mostly(tree, raw)


def _mostly(valid, wrong):
    """``valid`` seven times in eight, else ``wrong``."""
    return st.integers(0, 7).flatmap(lambda i: wrong if i == 0 else valid)


_field = _expressions(["x", "y", "z"])
_reduced = _expressions(["x", "y1", "y2"])
_census = _expressions(["x", "y1", "y2", "z1", "z2"])
_curve_part = _expressions(["t"], calls=True)
_poly = _expressions(["x"])
_float_text = st.one_of(
    st.sampled_from(["0.5", "0.2", "1", "0.9", "0.01", "1e-6", "1e-10", "3"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1e-300", "1e-320", "-1", "1e400", "x"]),
)
_float_list = st.one_of(
    st.lists(_float_text, min_size=2, max_size=2),
    st.lists(_float_text, max_size=4),
).map(",".join)
_x_start = _mostly(st.sampled_from(["1", "0.5", "0.9", "2"]), _float_text)
_x_end = _mostly(st.sampled_from(["0.2", "0.1", "0.01", "1e-6"]), _float_text)
_y0 = _mostly(st.lists(st.sampled_from(["1", "0.5", "-1", "0", "1e-8"]), min_size=2,
                       max_size=2).map(",".join), _float_list)


def _examples(kind):
    names = [name for name, entry in ENTRIES.items() if entry.kind == kind]
    return _mostly(st.sampled_from(names), st.sampled_from(sorted(ENTRIES) + ["nope"]))


def _curve(n_min, n_max):
    return st.lists(_curve_part, min_size=n_min, max_size=n_max).map(", ".join)


_branch = st.sampled_from(["+", "-"])
_log = st.sampled_from(["auto", "on", "off"])

# per command: the runner kind, the flags a run needs, and the optional ones
_COMMANDS = {
    "invariance": ("invariance", {
        "--field": st.tuples(_field, _field, _field),
        "--curve": _mostly(_curve(3, 3), _curve(1, 4)),
    }, {
        "--order": _mostly(st.integers(0, 12), st.integers(-2, -1)),
        "--mode": _mostly(st.sampled_from(["exact", "float"]), st.just("neither")),
        "--precision": _mostly(st.integers(64, 256), st.integers(-1, 63)),
        "--branch": _branch,
    }),
    "classify-pair": ("pair", {
        "--f1": _reduced, "--f2": _reduced,
        "--x-start": _x_start, "--x-end": _x_end, "--y0": _y0,
    }, {
        "--eps0": _float_list, "--probes": _float_list,
        "--census": st.lists(_census, max_size=2).map("; ".join),
        "--rtol": _float_text, "--atol": _float_text, "--turn-threshold": _float_text,
        "--log-substitution": _log,
    }),
    "integrate": ("integrate", {
        "--f1": _reduced, "--f2": _reduced,
        "--x-start": _x_start, "--x-end": _x_end, "--y0": _y0,
    }, {
        "--rtol": _float_text, "--atol": _float_text, "--log-substitution": _log,
    }),
    "tangents": ("tangents", {
        "--curve": _mostly(_curve(2, 4), _curve(1, 1)),
        "--steps": _mostly(st.integers(0, 4), st.just(-1)),
        "--order": _mostly(st.integers(1, 12), st.integers(-1, 0)),
    }, {
        "--branch": _branch,
    }),
    "qshort": ("qshort", {
        "--poly": st.lists(_poly, min_size=1, max_size=3).map("; ".join),
    }, {
        "--q": _mostly(st.integers(1, 4), st.integers(-1, 0)),
    }),
    "relations": ("relations", {
        "--curve": _mostly(_curve(2, 3), _curve(1, 1)),
        "--deg": _mostly(st.integers(1, 3), st.integers(-1, 0)),
    }, {
        "--jet": _mostly(st.integers(1, 24), st.integers(-1, 0)),
        "--order": st.integers(-1, 12),
        "--branch": _branch,
    }),
}

# config lines: a key of the run with a drawn value, or a line no run accepts
_config_line = st.one_of(
    st.tuples(st.sampled_from(["order", "q", "jet", "precision"]), st.integers(-1, 12).map(str)),
    st.tuples(st.just("steps"), st.integers(-1, 4).map(str)),
    st.tuples(st.sampled_from(["mode", "branch", "log_substitution"]),
              st.sampled_from(["exact", "float", "+", "-", "on", "off", "auto", "?"])),
    st.tuples(st.sampled_from(["rtol", "atol", "turn_threshold", "hardy_turn_bound",
                               "flat_bound", "final_decade", "x_start", "x_end"]),
              _float_text),
    st.tuples(st.sampled_from(["y0", "eps0", "probes"]), _float_list),
    st.tuples(st.sampled_from(["f1", "f2", "census", "poly"]), _reduced),
    st.tuples(st.just("curve"), _curve(1, 3)),
    st.tuples(st.just("field_components"), st.lists(_field, min_size=1, max_size=4).map("; ".join)),
    st.tuples(st.just("max_steps"), st.integers(-1, 2000).map(str)),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
_config_text = _mostly(st.lists(_config_line, max_size=3).map("\n".join),
                       st.text(string.ascii_letters + "=# \n", max_size=_TEXT))


@st.composite
def command_lines(draw):
    """(argv, config text or None, command name, whether to write artifacts)."""
    name = draw(st.sampled_from([*_COMMANDS, "list-examples"]))
    if name == "list-examples":
        return ["list-examples"], None, name, False
    kind, needed, optional = _COMMANDS[name]
    argv = [name]
    example = draw(st.booleans())
    if example:
        argv += ["--example", draw(_examples(kind))]
    for flag, values in [*needed.items(), *optional.items()]:
        # a run on an example needs no flag, and a run without one leaves out few
        if draw(st.integers(0, 9)) < (3 if example or flag in optional else 9):
            value = draw(values)
            if isinstance(value, tuple):
                argv += [flag, *value]
            else:
                argv.append(f"{flag}={value}")
    if name == "relations" and not any(a.startswith("--deg") for a in argv):
        argv.append(f"--deg={draw(st.integers(1, 3))}")
    config = draw(st.one_of(st.none(), st.none(), _config_text))
    if kind in ("pair", "integrate"):
        config = f"{config or ''}\nmax_steps = {draw(st.integers(1, 2000))}\n"
    return argv, config, name, draw(st.integers(0, 3)) == 0


@given(command_lines())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_no_command_line_reaches_a_traceback(tmp_path_factory, case):
    argv, config, name, outdir = case
    base = tmp_path_factory.getbasetemp()
    if config is not None:
        (base / "fuzz.cfg").write_text(config)
        argv = [*argv, "--config", str(base / "fuzz.cfg")]
    if outdir:
        argv = [*argv, "--outdir", str(base / "fuzz_out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help or a usage error
            code = exc.code
    assert code in {0, 1, 2, 3}, (argv, config, err.getvalue())
    assert code != 1 or name in _NEGATIVE_FINDINGS, (argv, config, out.getvalue())
