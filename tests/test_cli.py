"""CLI behavior: exit codes, report determinism, schema basics."""

import json
import subprocess
import sys

import pytest

from rwcert import catalog
from rwcert.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_contains_catalog(capsys):
    code, out, _ = run_cli(["list"], capsys)
    assert code == 0
    assert "minkowski" in out and "ConstantCurvature" in out
    assert "flrw_flat_linear" in out and "LocallyRW" in out
    assert "schwarzschild_static_observer" in out and "NotIsotropic" in out
    lines = [ln.split()[0] for ln in out.strip().splitlines()]
    assert lines == sorted(catalog.CATALOG)


def test_check_expected_pass(tmp_path, capsys):
    report = tmp_path / "r.json"
    code, _, err = run_cli(["check", "flrw_flat_linear", "--points", "16",
                            "--seed", "42", "--expect", "LocallyRW",
                            "--report", str(report)], capsys)
    assert code == 0
    assert "LocallyRW" in err
    doc = json.loads(report.read_text())
    assert doc["report_version"] == 1
    assert doc["certificate"]["classification"] == "LocallyRW"
    assert doc["chart"]["name"] == "flrw_flat_linear"
    assert len(doc["chart"]["sha256"]) == 64
    assert doc["seed"] == 42


def test_check_expect_mismatch_exits_one(capsys):
    code, _, _ = run_cli(["check", "minkowski", "--points", "8",
                          "--expect", "LocallyRW"], capsys)
    assert code == 1


def test_check_no_expect_reports_and_passes(capsys):
    code, out, _ = run_cli(["check", "goedel", "--points", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["classification"] == "NotIsotropic"


def test_check_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.chart.json"
    bad.write_text("{not valid json")
    code, _, err = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert "error" in err


def test_check_unknown_id_exits_two(capsys):
    code, _, err = run_cli(["check", "nonexistent_chart"], capsys)
    assert code == 2
    assert "catalog id" in err


def test_chart_file_from_disk(tmp_path, capsys):
    path = tmp_path / "mine.chart.json"
    path.write_text(catalog.get_entry("einstein_static").source)
    code, out, _ = run_cli(["check", str(path), "--points", "8"], capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["classification"] == "LocallyRW"


def test_reports_byte_identical_and_thread_invariant(tmp_path, capsys):
    texts = []
    for threads, name in (("1", "a.json"), ("1", "b.json"), ("3", "c.json")):
        report = tmp_path / name
        code, _, _ = run_cli(["check", "flrw_open", "--points", "10", "--seed", "7",
                              "--threads", threads, "--report", str(report)], capsys)
        assert code == 0
        texts.append(report.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_report_floats_have_17_significant_digits(capsys):
    code, out, _ = run_cli(["check", "flrw_flat_linear", "--points", "6"], capsys)
    assert code == 0
    doc = json.loads(out)
    margin = doc["certificate"]["margin"]["min"]
    assert format(margin, ".17g") in out


def test_slice_einstein_static(capsys):
    code, out, err = run_cli(["slice", "einstein_static",
                              "--base", "0,0.1,0.2,0.3", "--tau-grid", "0:1:0.1",
                              "--points", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    fol = doc["foliation"]
    assert fol["curvature_sign"] == 1
    a_vals = [s["a"] for s in fol["samples"]]
    k_hats = [s["k_hat"] for s in fol["samples"]]
    assert max(abs(a - 1.0) for a in a_vals) < 1e-9
    assert max(abs(k - 0.25) for k in k_hats) < 1e-9
    assert len(fol["samples"]) == 11


def test_slice_flat_chart_reports_flat_sign(capsys):
    code, out, _ = run_cli(["slice", "flrw_flat_linear", "--base", "2,0,0,0",
                            "--tau-grid=-0.1,0,0.1", "--points", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["foliation"]["curvature_sign"] == 0
    assert max(abs(s["k_hat"]) for s in doc["foliation"]["samples"]) < 1e-6


def test_slice_quadrature_that_does_not_converge_exits_1(capsys, monkeypatch):
    from rwcert import foliation

    monkeypatch.setattr(foliation, "QUAD_TOL", 0.0)
    monkeypatch.setattr(foliation, "QUAD_DEPTH", 2)
    code, out, err = run_cli(["slice", "flrw_flat_linear", "--base", "2,0,0,0",
                              "--tau-grid=-0.1,0,0.1", "--points", "8"], capsys)
    assert code == 1
    assert "quadrature did not converge" in err and "Traceback" not in err


def test_slice_refuses_constant_curvature(capsys):
    code, out, err = run_cli(["slice", "minkowski", "--base", "0,0,0,0",
                              "--tau-grid", "0:1:0.5", "--points", "8"], capsys)
    assert code == 1
    assert "foliation not applicable" in err
    doc = json.loads(out)
    assert doc["certificate"]["classification"] == "ConstantCurvature"
    assert "foliation" not in doc


def test_transport_minkowski_geodesic(capsys):
    code, out, err = run_cli(["transport", "minkowski", "--curve", "geodesic",
                              "--start", "0,0,0,0", "--velocity", "1,0,0,0",
                              "--x0", "0,1,0,0", "--steps", "64"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["transport"]["gram_drift"] == 0.0
    last = doc["transport"]["table"][-1]
    assert last["vectors"] == [0.0, 1.0, 0.0, 0.0]


def test_transport_table_runs_in_the_curve_parameter(capsys):
    """A curve 0.2% off unit speed is transported in its own parameter: the
    last table row sits at the end of --range, as the report's curve says."""
    code, out, _ = run_cli(["transport", "minkowski", "--curve", "explicit",
                            "--exprs", "s+0.002*sin(s),0.3,0,0", "--range", "0,2",
                            "--x0", "0,1,0,0", "--steps", "64"], capsys)
    assert code == 0
    doc = json.loads(out)["transport"]
    assert doc["curve"]["range"] == [0, 2]
    assert doc["table"][-1]["tau"] == 2.0


def test_transport_rindler_pass(capsys):
    code, out, _ = run_cli(["transport", "minkowski", "--curve", "explicit",
                            "--exprs", "sinh(s),cosh(s),0,0", "--x0", "0,1,0,0",
                            "--steps", "400"], capsys)
    assert code == 0
    assert json.loads(out)["transport"]["gram_drift"] < 1e-8


def test_transport_drift_tolerance_gate(capsys):
    code, _, _ = run_cli(["transport", "minkowski", "--curve", "explicit",
                          "--exprs", "sinh(s),cosh(s),0,0", "--x0", "0,1,0,0",
                          "--steps", "64", "--drift-tol", "1e-30"], capsys)
    assert code == 1


def test_transport_unit_speed_violation_exits_two(capsys):
    code, _, err = run_cli(["transport", "minkowski", "--curve", "explicit",
                            "--exprs", "sqrt(2)*s,0,0,0", "--x0", "0,1,0,0"], capsys)
    assert code == 2
    assert "unit speed" in err


def test_transport_missing_curve_args_exit_two(capsys):
    code, _, _ = run_cli(["transport", "minkowski", "--curve", "geodesic",
                          "--x0", "0,1,0,0"], capsys)
    assert code == 2


def test_bad_base_vector_exits_two(capsys):
    code, _, err = run_cli(["slice", "einstein_static", "--base", "0,0.1",
                            "--tau-grid", "0:1:0.5"], capsys)
    assert code == 2
    assert "components" in err


def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "rwcert", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "riemannian_grw" in proc.stdout


def test_stdout_report_is_pure_json(capsys):
    code, out, _ = run_cli(["check", "minkowski", "--points", "6"], capsys)
    assert code == 0
    json.loads(out)   # no stray text around the document
    assert out.endswith("}\n")


def test_slice_list_values_may_start_with_minus(capsys):
    code, out, _ = run_cli(["slice", "einstein_static", "--base", "-1,1,1.2,1.5",
                            "--tau-grid", "-0.1,0.1", "--points", "8"], capsys)
    assert code == 0
    command = json.loads(out)["command"]
    assert command["base"] == [-1.0, 1.0, 1.2, 1.5]
    assert command["tau_grid"] == [-0.1, 0.1]


@pytest.mark.parametrize("option, value, curve_args", [
    ("--x0", "-0.5,1,0,0", ["--curve", "geodesic", "--start", "0,0,0,0",
                            "--velocity", "1,0,0,0"]),
    ("--start", "-1,0,0,0", ["--curve", "geodesic", "--velocity", "1,0,0,0"]),
    ("--velocity", "-1,0,0,0", ["--curve", "geodesic", "--start", "0,0,0,0"]),
    ("--range", "-0.5,0.5", ["--curve", "geodesic", "--start", "0,0,0,0",
                             "--velocity", "1,0,0,0"]),
    ("--exprs", "-sinh(s),cosh(s),0,0", ["--curve", "explicit"]),
])
def test_transport_list_values_may_start_with_minus(capsys, option, value, curve_args):
    argv = ["transport", "minkowski", *curve_args, option, value, "--steps", "16"]
    if option != "--x0":
        argv += ["--x0", "0,1,0,0"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    recorded = {"--x0": doc["command"]["x0"]}
    curve = doc["transport"]["curve"]
    recorded.update({"--start": curve.get("start"), "--velocity": curve.get("velocity"),
                     "--range": curve.get("range"), "--exprs": curve.get("exprs")})
    expected = (value.split(",") if option == "--exprs"
                else [float(v) for v in value.split(",")])
    assert recorded[option] == expected


def test_overflowing_chart_reports_degenerate(tmp_path, capsys):
    """exp(exp(t)) overflows on part of the domain: a Degenerate report, not a crash."""
    path = tmp_path / "overflow.chart.json"
    path.write_text(json.dumps({
        "name": "overflow", "dim": 4, "coords": ["t", "x", "y", "z"],
        "metric": [["-1", None, None, None], [None, "exp(exp(t))", None, None],
                   [None, None, "1", None], [None, None, None, "1"]],
        "u": ["1", "0", "0", "0"],
        "domain": [[6, 8], [-1, 1], [-1, 1], [-1, 1]]}))
    code, out, err = run_cli(["check", str(path), "--points", "8"], capsys)
    assert code == 0
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert json.loads(out)["certificate"]["classification"] == "Degenerate"


def test_all_points_degenerate_reports_null_margins(tmp_path, capsys):
    path = tmp_path / "nonunit.chart.json"
    path.write_text(json.dumps({
        "name": "nonunit", "dim": 4, "coords": ["t", "x", "y", "z"],
        "metric": [["-1", None, None, None], [None, "1", None, None],
                   [None, None, "1", None], [None, None, None, "1"]],
        "u": ["2", "0", "0", "0"],
        "domain": [[-1, 1], [-1, 1], [-1, 1], [-1, 1]]}))
    code, out, err = run_cli(["check", str(path), "--points", "4"], capsys)
    assert code == 0
    assert "Traceback" not in err
    certificate = json.loads(out)["certificate"]
    assert certificate["classification"] == "Degenerate"
    assert certificate["margin"] == {"min": None, "max": None}
    assert '"min": null' in out


def test_abbreviated_list_option_takes_a_minus_value(capsys):
    argv = ["slice", "einstein_static", "--base", "0,1,1.2,1.5", "--points", "8"]
    code_full, full, _ = run_cli(argv + ["--tau-grid", "-0.1,0.1"], capsys)
    code_abbrev, abbrev, _ = run_cli(argv + ["--tau", "-0.1,0.1"], capsys)
    assert code_full == code_abbrev == 0
    assert abbrev == full


def test_ambiguous_abbreviation_exits_two(capsys):
    # --st is a prefix of both --start and --steps
    with pytest.raises(SystemExit) as exc:
        main(["transport", "minkowski", "--curve", "u", "--st", "-1,0,0,0",
              "--x0", "0,1,0,0"])
    assert exc.value.code == 2
    assert "ambiguous" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["transport", "minkowski", "--curve", "u", "--start", "nan,0,0,0", "--x0", "0,1,0,0"],
    ["slice", "flrw_open", "--base", "nan,1,1.5,1.5", "--tau-grid", "0,0.1"],
    ["slice", "flrw_open", "--base", "1,1,1.5,1.5", "--tau-grid", "0:inf:0.1"],
])
def test_non_finite_coordinates_exit_two(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err
    assert err.count("\n") == 1


def test_expression_domain_error_exits_two(capsys):
    code, out, err = run_cli(["transport", "minkowski", "--curve", "explicit",
                              "--exprs", "ln(s-2),0,0,0", "--x0", "0,1,0,0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_transport_steps_below_one_exit_two(capsys, steps):
    code, out, err = run_cli(["transport", "minkowski", "--curve", "u",
                              "--start", "0,0,0,0", "--x0", "0,1,0,0",
                              "--steps", steps], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "at least one step" in err
    assert err.count("\n") == 1


def test_tau_grid_range_above_limit_exits_two(capsys):
    code, out, err = run_cli(["slice", "flrw_open", "--base", "1,1,1.5,1.5",
                              "--tau-grid", "0:1e12:1e-3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "limit of 100000" in err
    assert err.count("\n") == 1
