"""Command-line surface: exit codes, artifacts, config round-trips."""

import json
import math

import pytest

from interlace.cli import main
from interlace.config import RunConfig, parse_config_text
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
        command="classify-pair",
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


def test_registry_configs_round_trip():
    for entry in ENTRIES.values():
        cfg = entry.config
        assert parse_config_text(cfg.to_text()) == cfg


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
