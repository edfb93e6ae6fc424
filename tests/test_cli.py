"""Command-line surface: exit codes, artifacts, config round-trips."""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from interlace import pipelines
from interlace.cli import build_parser, config_from_args, main
from interlace.config import RunConfig, parse_config_text
from interlace.errors import ExprSyntaxError, SolverError
from interlace.expr import MAX_DEPTH
from interlace.registry import ENTRIES
from interlace.report import load_json, strip_timestamps


def run(args):
    return main(args)


def test_invariant_example_exits_zero(capsys):
    assert run(["invariance", "--example", "xi1", "--order", "12"]) == 0
    out = capsys.readouterr().out
    assert "invariant" in out
    assert "2*t^2" in out


def test_second_registry_field_is_invariant():
    assert run(["invariance", "--example", "xi2", "--order", "12"]) == 0


def test_perturbed_curve_exits_one(capsys):
    code = run([
        "invariance", "--example", "xi1",
        "--curve", "t,E(t)+t^5,E(2*t)", "--order", "12",
    ])
    assert code == 1
    assert "NOT invariant" in capsys.readouterr().out


def test_inline_field_invariance():
    code = run([
        "invariance",
        "--field", "x", "y", "z",
        "--curve", "t,t,t",
        "--order", "8",
    ])
    assert code == 0


def test_usage_error_exit_code(capsys):
    assert run(["invariance", "--example", "does_not_exist"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_syntax_error_exit_code(capsys):
    assert run(["qshort", "--poly", "x +", "--q", "1"]) == 2


def test_numeric_failure_exit_code(capsys):
    code = run([
        "integrate",
        "--f1", "y1/(x - 3/10)^2", "--f2", "y2",
        "--x-start", "0.5", "--x-end", "0.2", "--y0", "1,1",
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_qshort_catalog_verdicts(capsys):
    assert run(["qshort", "--poly", "x+x^2", "--q", "1"]) == 1
    assert "short=False" in capsys.readouterr().out
    assert run(["qshort", "--poly", "2*x", "--q", "1"]) == 0
    # leading-dash values use the = form
    assert run(["qshort", "--poly=-x", "--q", "1"]) == 1


@pytest.mark.parametrize(
    "poly, message",
    [
        ("(x^2-1)/(x-1)", "not a polynomial: '(x^2-1)/(x-1)'"),
        ("x^-1", "not a polynomial: 'x^-1'"),
        ("x - x", "the zero polynomial has no valuation"),
        ("x*t", "polynomial must use one variable, found ['t', 'x']"),
        ("x/(x-x)", "division by zero in 'x/(x - x)'"),
        ("0^-1", "division by zero in '0^-1'"),  # no variables, so no point
    ],
)
def test_qshort_rejects_what_is_not_a_nonzero_polynomial(poly, message, capsys):
    assert run(["qshort", "--poly", poly, "--q", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tangents_direction_listing(capsys):
    assert run(["tangents", "--curve", "t,t^2,t^3", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "(1/1, 0/1, 0/1) -> (1/1, 1/1, 0/1) -> (1/1, 0/1, 1/1)" in out


def test_relations_evidence_exit_zero(capsys):
    assert run(["relations", "--curve", "x,E(x),E(2*x)", "--deg", "2", "--jet", "24"]) == 0
    assert "transcendence evidence" in capsys.readouterr().out


def test_relations_found_exit_one(capsys):
    assert run(["relations", "--curve", "x,x^2", "--deg", "2", "--jet", "12"]) == 1
    assert "kernel dimension 1" in capsys.readouterr().out


def test_classify_pair_writes_all_artifacts(tmp_path):
    out = tmp_path / "rot"
    code = run([
        "classify-pair", "--example", "rotating_radial", "--outdir", str(out),
    ])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "trajectory.csv").exists()
    assert (out / "theta.svg").exists()
    assert (out / "contact.svg").exists()
    payload = load_json(out / "report.json")
    assert payload["report"]["verdict"] == "HardyCandidate"
    assert "generated_at" in payload
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "x,y1,y2,z1,z2"
    svg = (out / "theta.svg").read_text()
    assert svg.startswith("<svg") and "href" not in svg
    integrator = payload["integrator"]
    assert integrator["n_rejected"] >= 0
    assert 0 < integrator["max_error_ratio"] <= 1


@pytest.mark.parametrize("probes", ["1.0", "0.5,1.5", "0.5,-0.1"])
def test_contact_probes_outside_unit_interval_are_usage_errors(probes, capsys):
    code = run(["classify-pair", "--example", "rotating", "--probes", probes])
    assert code == 2
    err = capsys.readouterr().err
    assert "contact probes must lie in (0, 1)" in err
    assert "Traceback" not in err


def test_integrate_writes_trajectory(tmp_path):
    out = tmp_path / "log"
    code = run(["integrate", "--example", "log_demo", "--outdir", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "x,y1,y2"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.05)
    assert last[1] == pytest.approx(1 / math.log(20), rel=1e-6)


def test_exact_coincidence_report(tmp_path):
    out = tmp_path / "coincide"
    code = run([
        "classify-pair",
        "--f1", "(y1-x)/x^2", "--f2", "y2",
        "--x-start", "0.5", "--x-end", "0.1",
        "--y0", "1,0", "--eps0", "0,0",
        "--outdir", str(out),
    ])
    assert code == 0
    payload = load_json(out / "report.json")
    assert payload["report"]["verdict"] == "ExactCoincidence"


def test_negative_half_branch_flips_odd_directions(capsys):
    assert run(["tangents", "--curve", "t,t^2,t^3", "--steps", "2", "--branch", "-"]) == 0
    out = capsys.readouterr().out
    assert "(-1/1, 0/1, 0/1) -> (-1/1, -1/1, 0/1)" in out


def test_registry_curve_honours_the_negative_half_branch(capsys):
    # flat_tower's curve comes from a builder, not from curve text
    assert run(["tangents", "--example", "flat_tower", "--steps", "1", "--branch", "-"]) == 0
    assert capsys.readouterr().out == "tangents: (-1.0, -1.0, -2.718281828459045)\n"


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("branch", ["+", "-"])
def test_invariance_holds_on_either_half_branch(tmp_path, capsys, mode, branch):
    # xi(C) = t C' on both half-branches; a flip rounded to 53 bits would
    # leave a 1e-17 residual that the 128-bit float tolerance rejects
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"branch = {branch}\n")
    code = run([
        "invariance", "--field", "x", "y", "2*y^2", "--curve", "t, t/3, t^2/9",
        "--mode", mode, "--precision", "128", "--order", "6", "--config", str(cfg),
    ])
    assert capsys.readouterr().out.startswith("invariance[inline]: invariant ")
    assert code == 0


def test_relation_kernel_is_the_same_on_either_half_branch(tmp_path):
    reports = []
    for branch in "+-":
        cfg = tmp_path / f"{branch}.cfg"
        out = tmp_path / f"out{branch}"
        cfg.write_text(f"branch = {branch}\n")
        code = run([
            "relations", "--curve", "x, x^2+x^3, E(x)", "--deg", "3",
            "--config", str(cfg), "--outdir", str(out),
        ])
        assert code == 1  # z1 = x^2 + x^3 on both half-branches
        report = strip_timestamps(load_json(out / "report.json"))
        assert report.pop("branch") == branch
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["relations"] == ["-z1 + x^2 + x^3"]


@pytest.mark.parametrize("branch", ["+", "-"])
def test_invariance_report_records_the_half_branch(tmp_path, capsys, branch):
    out = tmp_path / "out"
    code = run([
        "invariance", "--example", "xi1", "--order", "12", "--branch", branch,
        "--outdir", str(out),
    ])
    assert code == 0
    report = load_json(out / "report.json")
    assert report["branch"] == branch
    assert report["multiplier"]["coeffs"][2] == branch.strip("+") + "2/1"  # h = ±2t^2


def test_float_only_curve_rejects_exact_mode_override(capsys):
    assert run(["invariance", "--example", "flat_tower", "--mode", "exact"]) == 2
    assert "float mode" in capsys.readouterr().err


def test_list_examples_covers_registry(capsys):
    assert run(["list-examples"]) == 0
    out = capsys.readouterr().out
    for name in ENTRIES:
        assert name in out


def test_config_file_round_trip(tmp_path):
    cfg = RunConfig(
        example="rotating",
        f1="(y1/10 - y2)/x^2",
        f2="(y2/10 + y1)/x^2",
        x_start=1.0,
        x_end=0.01,
        y0=(0.0, 0.0),
        eps0=(1.0, 0.0),
        probes=(0.5, 0.1, 0.02),
        census=("z1",),
    )
    text = cfg.to_text()
    assert parse_config_text(text) == cfg
    # a second print-parse cycle is stable
    assert parse_config_text(parse_config_text(text).to_text()) == cfg


def test_every_registry_config_names_its_own_entry():
    for name, entry in ENTRIES.items():
        assert entry.name == entry.config.example == name


def test_registry_configs_round_trip():
    for entry in ENTRIES.values():
        cfg = entry.config
        assert parse_config_text(cfg.to_text()) == cfg


def test_every_config_key_round_trips():
    values = dict(
        example="xi1", field_components=("x", "y^2", "z/x"),
        f1="y1/x", f2="y2", curve="t,E(t),t^2", poly="x; x+x^2", mode="float",
        precision=96, order=12, steps=4, branch="-", degree=3, jet=40, q=2,
        x_start=0.9, x_end=0.02, y0=(1.0, -0.5), eps0=(1e-3, 0.0), rtol=1e-9,
        atol=1e-13, max_steps=5000, log_substitution="off", probes=(0.5, 0.05),
        census=("z1", "y1 - x"), turn_threshold=2.5, hardy_turn_bound=0.25,
        flat_bound=8.0, final_decade=5.0, outdir="elsewhere",
    )
    assert set(values) == {f.name for f in fields(RunConfig)}
    cfg = RunConfig(**values)
    text = cfg.to_text()
    assert len(text.splitlines()) == len(values)  # no value is the default
    assert parse_config_text(text) == cfg


FLAGS = {
    "invariance": ["--field", "--curve", "--order", "--mode", "--precision", "--branch"],
    "classify-pair": [
        "--f1", "--f2", "--x-start", "--x-end", "--y0", "--eps0", "--probes",
        "--census", "--rtol", "--atol", "--turn-threshold", "--log-substitution",
    ],
    "integrate": [
        "--f1", "--f2", "--x-start", "--x-end", "--y0", "--rtol", "--atol",
        "--log-substitution",
    ],
    "tangents": ["--curve", "--steps", "--order", "--branch"],
    "qshort": ["--poly", "--q"],
    "relations": ["--curve", "--deg", "--jet", "--order", "--branch"],
}


@pytest.mark.parametrize("name", [*FLAGS, "suite", "list-examples"])
def test_subcommand_flags_are_unchanged(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [*FLAGS, "suite", "list-examples"]
    expected = {"suite": ["--outdir"], "list-examples": []}.get(name)
    if expected is None:
        expected = ["--config", "--example", "--outdir", *FLAGS[name]]
    flags = {s for a in sub.choices[name]._actions for s in a.option_strings}
    assert flags - {"-h", "--help"} == set(expected)


def test_irregular_flags_map_to_their_keys():
    args = build_parser().parse_args(["relations", "--deg", "3"])
    assert config_from_args(args)[0].degree == 3
    args = build_parser().parse_args(["invariance", "--field", "x", "y^2", "z"])
    assert config_from_args(args)[0].field_components == ("x", "y^2", "z")


@pytest.mark.parametrize(
    "command, key",
    [("invariance", "mode"), ("integrate", "log_substitution"), ("tangents", "branch")],
)
def test_choice_keys_reject_unknown_values_from_file_and_flag(command, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = banana\n")
    assert run([command, "--config", str(cfg)]) == 2
    assert f"{key}: invalid choice 'banana'" in capsys.readouterr().err
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        run([command, flag, "banana"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid choice: 'banana'" in capsys.readouterr().err


def test_last_step_below_the_underflow_floor_completes_the_run(tmp_path, capsys):
    assert run(["classify-pair", "--example", "rotating", "--eps0", "0,0"]) == 0
    assert "verdict=ExactCoincidence" in capsys.readouterr().out
    out = tmp_path / "integrate"
    code = run([
        "integrate", "--f1", "y1^2", "--f2", "y2/x", "--x-start", "1",
        "--x-end", "0.01", "--y0", "1,1", "--outdir", str(out),
    ])
    assert code == 0
    final = load_json(out / "report.json")["final"]
    assert final["x"] == 0.01
    # y1 = 1/(2 - x), y2 = x
    assert final["y"] == pytest.approx([1 / 1.99, 0.01], rel=1e-8)


def test_config_file_outdir_writes_the_report(tmp_path, capsys):
    out = tmp_path / "from_file"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"poly = 2*x\noutdir = {out}\n")
    assert run(["qshort", "--config", str(cfg)]) == 0
    assert load_json(out / "report.json")["results"][0]["is_positive"] is True
    assert "qshort: wrote" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["integrate", "--example", "log_demo"],
    ["classify-pair", "--example", "euler_pair"],
])
def test_commands_whose_payload_lists_artifacts_print_no_report_path(argv, tmp_path, capsys):
    assert run([*argv, "--outdir", str(tmp_path)]) == 0
    assert "artifacts" in load_json(tmp_path / "report.json")
    assert "wrote" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integrate", "--atol", "inf"], "tolerances must be finite"),
        (["integrate", "--rtol", "nan"], "tolerances must be finite"),
        (["classify-pair", "--rtol", "inf"], "tolerances must be finite"),
        (["classify-pair", "--turn-threshold", "nan"], "turn_threshold must be finite"),
        (["classify-pair", "--turn-threshold", "inf"], "turn_threshold must be finite"),
        (["classify-pair", "--eps0", "1"], "initial gap eps0 has 1 components, system has 2"),
        (["classify-pair", "--y0", "nan,0"], "initial value y0 component 1 is not finite: nan"),
        (["classify-pair", "--eps0", "inf,0"], "initial gap eps0 component 1 is not finite: inf"),
        (["integrate", "--y0", "1e400,1"], "initial value y0 component 1 is not finite: inf"),
    ],
)
def test_non_finite_or_misshapen_numeric_inputs_are_usage_errors(argv, message, capsys):
    example = "log_demo" if argv[0] == "integrate" else "rotating"
    assert run([*argv, "--example", example]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("f1", ["y1/0", "y1/(1-1)", "y1/(y2-y2)"])
@pytest.mark.parametrize("command", ["classify-pair", "integrate"])
def test_identically_zero_denominators_are_numerical_failures(command, f1, capsys):
    argv = [command, "--f1", f1, "--f2", "y2", "--x-start", "0.5", "--x-end", "0.2"]
    assert run([*argv, "--y0", "1,1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: division by zero")
    assert "Traceback" not in err


def test_census_overflow_is_a_numerical_failure(capsys):
    # 0.1^-400 overflows at the first knot; one line, no traceback
    code = run(["classify-pair", "--example", "euler_pair", "--census", "z1^-400"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: census expression 'z1^-400' overflows the float range "
                   "(last x = 0.5)\n")


def test_rhs_overflow_is_a_numerical_failure_in_words(capsys):
    # 2.0^2000 overflows in the first stage; one line, no errno tuple
    argv = ["integrate", "--f1", "y1^2000", "--f2", "y2", "--x-start", "0.5", "--x-end", "0.2"]
    assert run([*argv, "--y0", "2,1"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: right-hand side overflows the float range (last x = 0.5)\n")


@pytest.mark.parametrize("exponent", ["1000", "1000000000"])
def test_gap_of_a_high_power_is_classified(exponent, capsys):
    # the gap's geometric sum grows with the exponent's logarithm, not the exponent
    argv = ["classify-pair", "--f1", f"y1^{exponent}", "--f2", "y2", "--x-start", "0.5",
            "--x-end", "0.2", "--y0", "0.5,1", "--eps0", "0.01,0"]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


_Z = "1" + "0" * 300


@pytest.mark.parametrize("f1", [f"0-y1^-300/{_Z}", f"0-(1/y1^300)/{_Z}", f"0-1/(y1^300*{_Z})"])
def test_gap_of_a_quotient_whose_divisor_product_underflows_is_classified(f1, capsys):
    # y1^300 and (y1 + z1)^300 are near 1e-300; their product underflows to 0.0
    argv = ["classify-pair", f"--f1={f1}", "--f2", "y2", "--x-start", "0.5", "--x-end", "0.2",
            "--y0", "0.1,1", "--eps0", "1e-6,0"]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert "verdict=HardyCandidate" in out and err == ""


@pytest.mark.parametrize("command", ["integrate", "classify-pair"])
@pytest.mark.parametrize("flags, config, message", [
    (["--x-start", "inf"], "", "x_start must be finite: inf"),
    ([], "max_steps = -5\n", "max_steps must be at least 1: -5"),
    ([], "max_steps = 0\n", "max_steps must be at least 1: 0"),
])
def test_infinite_start_and_step_budget_below_one_are_usage_errors(
        command, flags, config, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    argv = [command, "--config", str(path), "--f1", "y1", "--f2", "y2", "--x-start", "1",
            "--x-end", "0.2", "--y0", "1,1", *flags]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_field_without_three_components_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field_components = x; y\ncurve = t,t,t\n")
    assert run(["invariance", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "field needs three components fx, fy, fz; got 2" in err
    assert "Traceback" not in err


def test_negative_tangent_steps_are_a_usage_error(capsys):
    assert run(["tangents", "--curve", "t,t^2", "--steps", "-1"]) == 2
    assert "steps must be non-negative, got -1" in capsys.readouterr().err
    assert run(["tangents", "--curve", "t,t^2", "--steps", "0"]) == 0
    assert capsys.readouterr().out.strip() == "tangents:"


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_relation_degree_below_one_is_a_usage_error(degree, capsys):
    assert run(["relations", "--curve", "x,x^2", "--deg", degree]) == 2
    captured = capsys.readouterr()
    assert f"relation degree must be at least 1, got {degree}" in captured.err
    assert "transcendence evidence" not in captured.out


_ORDER_ERRORS = {
    "tangents": "curve order must be at least 1, got 0",
    "invariance": "order must be at least 0, got -1",
    "relations": "jet must be at least 1, got 0",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["tangents", "--curve", "t,t^2", "--order", "0"],
        ["invariance", "--field", "x", "y", "z", "--curve", "t,t,t", "--order", "-1"],
        ["relations", "--curve", "x,E(x)", "--deg", "1", "--jet", "0"],
        ["invariance", "--example", "xi1", "--order", "-1"],
        ["relations", "--curve", "x,x^2", "--deg", "2", "--jet", "0"],
    ],
)
def test_curve_order_below_one_is_a_usage_error(argv, capsys):
    # each of these would truncate the curve at order 0 (invariance uses
    # --order + 1); the error names the key and the value the user set
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {_ORDER_ERRORS[argv[0]]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--f1", "y1*1" + "0" * 400, "--f2", "y2", "--x-start", "0.5",
         "--x-end", "0.2", "--y0", "1,1"],
        ["classify-pair", "--example", "rotating", "--census", "z1*1" + "0" * 400],
    ],
    ids=["integrate", "census"],
)
def test_a_literal_beyond_the_float_range_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: literal 1{'0' * 400} is beyond the float range\n"


_TINY_LITERAL_ERRORS = {
    # 1/10^400 rounds to 0.0; 1/10^310 is subnormal, and y1 divided by it overflows
    400: (2, f"error: literal 1/1{'0' * 400} is below the float range\n"),
    310: (3, "numerical failure: non-finite right-hand side (last x = 0.5)\n"),
}


@pytest.mark.parametrize("digits", list(_TINY_LITERAL_ERRORS))
@pytest.mark.parametrize("command", [["integrate"], ["classify-pair", "--eps0", "0.1,0"]],
                         ids=["integrate", "classify-pair"])
def test_a_literal_below_the_float_range_fails_alike_in_both_commands(command, digits, capsys):
    # the planar system and the gap system must agree on the literal the user wrote
    f1 = f"y1/(1/1{'0' * digits})"
    argv = [*command, "--f1", f1, "--f2", "y2", "--x-start", "0.5", "--x-end", "0.2"]
    code = run([*argv, "--y0", "1,1"])
    assert (code, capsys.readouterr().err) == _TINY_LITERAL_ERRORS[digits]


@pytest.mark.parametrize("x_start, x_end, defaults", [
    ("1", "0.6", [0.5, 1.2, 0.6]),
    ("3", "0.01", [1.5, 0.02, 0.01]),
    ("0.9", "0.5", [0.45, 1.0, 0.5]),
    ("0.5", "0.3", [0.25, 0.6, 0.3]),  # inside (0, 1), outside the run's span
])
def test_default_contact_probes_outside_the_run_are_usage_errors(x_start, x_end, defaults, capsys):
    argv = ["classify-pair", "--f1", "y1/x", "--f2", "y2", "--x-start", x_start,
            "--x-end", x_end, "--y0", "1,1", "--eps0", "0.1,0"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: probes not set") and err.count("\n") == 1
    assert f"x_start/2, 2*x_end, x_end = {defaults}" in err
    # the same run with probes set inside (0, 1) and the run's span goes through
    assert run([*argv, "--probes", x_end]) == 0


@pytest.mark.parametrize("probe", ["0.1", "0.6"])  # inside (0, 1), outside [0.2, 0.5]
def test_set_contact_probes_outside_the_run_are_usage_errors(probe, capsys, monkeypatch):
    # the probes are checked before the solve, and the message names them
    monkeypatch.setattr(pipelines, "solve_pair", lambda *args: pytest.fail("solved"))
    argv = ["classify-pair", "--f1", "y1/x", "--f2", "y2", "--x-start", "0.5",
            "--x-end", "0.2", "--y0", "1,1", "--eps0", "0.1,0", "--probes", probe]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: contact probes must lie in (0, 1) and in [x_end, x_start] = "
        f"[0.2, 0.5]; got [{probe}]\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tangents", "--curve", "t,1/t"], "denominator 't' has zero constant term"),
        (["tangents", "--curve", "t,(t)^-1"], "denominator 't^-1' has zero constant term"),
        (
            ["invariance", "--field", "x", "1/y", "z", "--curve", "t,t,t", "--order", "4"],
            "denominator 'y' has zero constant term",
        ),
    ],
)
def test_non_unit_denominators_are_usage_errors(argv, message, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# every command that takes an expression, with "{}" where a nested one goes
_NESTED = {
    "invariance-field": (["invariance", "--field", "{}", "y", "z", "--curve", "t,t,t",
                          "--order", "4"], "x"),
    "invariance-curve": (["invariance", "--field", "x", "y", "z", "--curve", "t,{},t",
                          "--order", "4"], "t"),
    "classify-pair-f1": (["classify-pair", "--f1", "{}", "--f2", "y2", "--x-start", "0.5",
                          "--x-end", "0.2", "--y0", "1,1", "--eps0", "0.1,0"], "y1"),
    "classify-pair-census": (["classify-pair", "--example", "euler_pair", "--census", "{}"], "z1"),
    "integrate": (["integrate", "--f1", "{}", "--f2", "y2", "--x-start", "0.5",
                   "--x-end", "0.2", "--y0", "1,1"], "y1"),
    "tangents": (["tangents", "--curve", "t,{},t^3"], "t"),
    "qshort": (["qshort", "--poly", "{}"], "x"),
    "relations": (["relations", "--curve", "x,{}", "--deg", "1"], "x"),
}
_NESTINGS = {
    "parens": lambda leaf, n: "(" * n + leaf + ")" * n,  # checked on the tokens
    "product": lambda leaf, n: "1*" * n + leaf,  # left-deep: checked on the tree
}


@pytest.mark.parametrize("nesting", list(_NESTINGS))
@pytest.mark.parametrize("command", list(_NESTED))
def test_expressions_nest_up_to_the_limit_and_no_deeper(command, nesting, capsys):
    template, leaf = _NESTED[command]

    def argv(levels):
        text = _NESTINGS[nesting](leaf, levels)
        return [a.replace("{}", text) for a in template]

    plain = run(argv(0))
    capsys.readouterr()
    # at the limit the run goes through as the plain leaf does
    assert run(argv(MAX_DEPTH)) == plain
    assert capsys.readouterr().err == ""
    assert run(argv(MAX_DEPTH + 1)) == 2
    assert capsys.readouterr().err == f"error: expression nests deeper than {MAX_DEPTH} levels\n"


def test_config_file_feeds_the_cli(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example = xi1\norder = 10\n")
    assert run(["invariance", "--config", str(cfg)]) == 0
    assert "invariant" in capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("exmaple = xi1\n")
    assert run(["invariance", "--config", str(cfg)]) == 2


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example = xi1\norder = 8\ncurve = t,E(t)+t^5,E(2*t)\n")
    assert run(["invariance", "--config", str(cfg)]) == 1
    assert run(["invariance", "--config", str(cfg), "--curve", "t,E(t),E(2*t)"]) == 0


def test_suite_subset_determinism(tmp_path):
    # full-suite determinism is an acceptance criterion; here a fast subset
    from interlace.pipelines import run_entry
    from interlace.registry import get

    a = tmp_path / "a"
    b = tmp_path / "b"
    for name in ("qshort_catalog", "cusp_tangents", "relations_parabola", "xi1"):
        run_entry(get(name), a)
        run_entry(get(name), b)
    for rep in sorted(a.rglob("report.json")):
        other = b / rep.relative_to(a)
        ja = strip_timestamps(json.loads(rep.read_text()))
        jb = strip_timestamps(json.loads(other.read_text()))
        assert ja == jb


def _cpus(monkeypatch, n):
    """Let the suite see ``n`` usable CPUs; returns the list that records each fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def _tree(root):
    """{relative path: contents} of a suite output tree, JSON with its stamps masked."""
    return {
        p.relative_to(root).as_posix():
            strip_timestamps(json.loads(p.read_text())) if p.suffix == ".json" else p.read_bytes()
        for p in root.rglob("*") if p.is_file()
    }


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_and_one_process_suites_write_the_same_tree_and_stdout(tmp_path, capsys, monkeypatch):
    runs = {}
    for cpus in (2, 1):
        forks = _cpus(monkeypatch, cpus)
        assert run(["suite", "--outdir", str(tmp_path / str(cpus))]) == 0
        assert len(forks) == (cpus > 1)
        runs[cpus] = capsys.readouterr(), _tree(tmp_path / str(cpus))
        _no_child_left()
    assert runs[2] == runs[1]
    assert len(runs[2][1]) > len(ENTRIES) and runs[2][0].err == ""


def _failing(kind):
    """A runner that fails with an error whose text its constructor formats."""
    def runner(config, entry, outdir=None):
        if kind == "tangents":
            raise ExprSyntaxError(f"{kind} runner failed on {entry.name}", 3)
        raise SolverError(f"{kind} runner failed on {entry.name}", last_x=0.25)
    return runner


@pytest.mark.parametrize("kinds, first", [
    (("tangents", "pair"), "cusp_tangents"),  # the child's failure comes first
    (("pair", "relations"), "euler_pair"),  # this process's failure comes first
])
def test_the_first_failing_entry_in_sorted_order_raises(tmp_path, monkeypatch, kinds, first):
    for kind in kinds:
        monkeypatch.setitem(pipelines.RUNNERS, kind, _failing(kind))
    raised = {}
    for cpus in (1, 2):
        forks = _cpus(monkeypatch, cpus)
        with pytest.raises(Exception) as err:
            pipelines.run_suite(tmp_path / str(cpus))
        assert len(forks) == (cpus > 1)
        raised[cpus] = type(err.value), str(err.value), vars(err.value)
        _no_child_left()
    assert raised[2] == raised[1]
    assert first in raised[1][1]


def test_a_killed_child_is_one_line_and_no_traceback(tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def killed(config, entry, outdir=None):
        if os.getpid() != parent:  # only ever the child
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("the suite did not fork")

    monkeypatch.setitem(pipelines.RUNNERS, "qshort", killed)
    forks = _cpus(monkeypatch, 2)
    assert run(["suite", "--outdir", str(tmp_path)]) in (2, 3)
    assert forks == [parent]
    assert capsys.readouterr().err == (
        "error: the suite's exact half was killed by signal 9 before it sent its result\n")
    _no_child_left()


_UNFLUSHED = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}  # fork whatever this host's CPU count
from interlace import cli
print("unflushed text", end=" ")  # a pipe buffers it until exit
sys.exit(cli.main(["suite", "--outdir", sys.argv[1]]))
"""


def test_text_buffered_before_a_forked_suite_is_written_once(tmp_path):
    import interlace

    src = Path(interlace.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # let the pipe buffer
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-c", _UNFLUSHED, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("unflushed text") == 1
    assert proc.stdout.startswith("unflushed text cusp_tangents ")


def test_gap_singular_at_the_neighbour_names_the_users_tree(capsys):
    # f1(y) = 1 at y1 = 1, but the neighbour starts at y1 + z1 = 0
    argv = ["classify-pair", "--f1", "y1^-20", "--f2", "y2", "--x-start", "0.5",
            "--x-end", "0.2", "--y0", "1,1", "--eps0=-1,0"]
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        "numerical failure: the neighbour y + z is singular: division by zero in 'y1^-20' "
        "at {'x': 0.5, 'y1': 0.0, 'y2': 1.0} (last x = 0.5)\n")


_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from interlace import cli
codes = [cli.main(["suite", "--outdir", sys.argv[1]]), cli.main(["list-examples"])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy" and sys.modules[m])
print(json.dumps({"codes": codes, "numpy": loaded}))
"""


def test_the_library_runs_without_numpy(tmp_path):
    import interlace

    src = Path(interlace.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0], "numpy": []}
    assert load_json(tmp_path / "summary.json")["all_ok"] is True


_LOADS_MPMATH = """
import json, sys
from interlace import cli
loaded = ["mpmath" in sys.modules]
for argv in sys.argv[1:]:
    cli.main(json.loads(argv))
    loaded.append("mpmath" in sys.modules)
print(json.dumps(loaded))
"""


def test_mpmath_is_loaded_only_by_float_mode(tmp_path):
    # a fresh process: importing the CLI and an exact command leave mpmath
    # unloaded, and the float-only flat tower loads it
    import interlace

    src = Path(interlace.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argvs = [["qshort", "--poly", "x"], ["invariance", "--example", "flat_tower"]]
    proc = subprocess.run([sys.executable, "-c", _LOADS_MPMATH, *map(json.dumps, argvs)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, True]


@pytest.mark.parametrize("inner", ["10^20", "10^400"])
def test_exp_of_a_constant_beyond_the_big_float_range_is_a_usage_error(inner, capsys):
    # e^(e^c) has a binary exponent too large for mpmath's integer power
    argv = ["invariance", "--example", "xi3", "--curve", f"t, exp(exp({inner})), t",
            "--mode", "float", "--order", "2"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: exp of a constant term beyond the big-float range\n"


_BIG = "1" + "0" * 400  # 10^400, beyond the float range


@pytest.mark.parametrize("curve, mode, unit", [
    (f"t*{_BIG}, t*{_BIG}", "exact", [1 / math.sqrt(2)] * 2),  # float() overflowed
    (f"t/{_BIG}, t/{_BIG}", "exact", [1 / math.sqrt(2)] * 2),  # the norm underflowed to 0
    ("t*10^200, t", "exact", [1.0, 1e-200]),  # the square overflowed
    (f"t*{_BIG}, t", "float", [1.0, 0.0]),  # inf / inf was NaN
], ids=["huge", "tiny", "square-overflow", "float-huge"])
def test_unit_directions_beyond_the_float_range_are_finite(curve, mode, unit, tmp_path):
    (tmp_path / "run.cfg").write_text(f"mode = {mode}\n")
    argv = ["tangents", "--curve", curve, "--steps", "1", "--config", str(tmp_path / "run.cfg"),
            "--outdir", str(tmp_path)]
    assert run(argv) == 0
    assert load_json(tmp_path / "report.json")["unit_directions"] == [unit]
