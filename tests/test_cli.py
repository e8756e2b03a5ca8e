"""CLI behavior: exit codes, report determinism, schema basics."""

import json
import subprocess
import sys

import pytest

from rwcert import catalog
from rwcert.cli import _build_parser, main


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
    """Reruns write the same report bytes; there is no thread count to vary,
    and --threads is a usage error."""
    argv = ["check", "flrw_open", "--points", "10", "--seed", "7"]
    texts = []
    for name in ("a.json", "b.json"):
        report = tmp_path / name
        code, _, _ = run_cli(argv + ["--report", str(report)], capsys)
        assert code == 0
        texts.append(report.read_bytes())
    assert texts[0] == texts[1]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("error:") == 1


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


DS3_FIBRE = {
    "name": "ds3_fibre", "dim": 4, "coords": ["t", "chi", "theta", "phi"],
    "metric": [["-1", None, None, None], [None, "-(t/2)^2", None, None],
               [None, None, "(t/2)^2*cosh(chi)^2", None],
               [None, None, None, "(t/2)^2*cosh(chi)^2*sin(theta)^2"]],
    "u": ["1", "0", "0", "0"], "params": {},
    "domain": [[1, 4], [-1, 1], [0.5, 2.5], [0, 6]], "options": {},
}


@pytest.mark.parametrize("chart, base, sign", [
    (None, "3,0.2,1.5,1", "+1 (fibre signature (2, 1))"),
    ("flrw_open", "1.5,1,1.5,1.5", "-1 (hyperbolic)"),
], ids=["de-sitter-3-fibre", "catalog"])
def test_slice_names_the_curvature_only_for_a_definite_fibre(tmp_path, capsys, chart, base,
                                                             sign):
    """Spherical and hyperbolic name a positive definite fibre u^perp; the
    de Sitter-3 fibre of -dt^2 + (t/2)^2 (-dchi^2 + cosh^2 chi dOmega^2), with
    eps = -1 and k-hat = 4/9, gets its signature instead."""
    if chart is None:
        chart = tmp_path / "ds3.chart.json"
        chart.write_text(json.dumps(DS3_FIBRE))
    code, out, err = run_cli(["slice", str(chart), "--base", base,
                              "--tau-grid=-0.2,0,0.2", "--points", "16"], capsys)
    assert code == 0
    assert err.splitlines()[0].endswith(f": spatial curvature sign {sign}")
    if sign.startswith("+1 (fibre"):
        fol = json.loads(out)["foliation"]
        assert fol["epsilon"] == -1 and fol["curvature_sign"] == 1
        assert max(abs(s["k_hat"] - 4 / 9) for s in fol["samples"]) < 1e-9


def test_slice_quadrature_that_does_not_converge_exits_1(capsys, monkeypatch):
    from rwcert import foliation

    monkeypatch.setattr(foliation, "QUAD_TOL", 0.0)
    monkeypatch.setattr(foliation, "QUAD_DEPTH", 2)
    code, out, err = run_cli(["slice", "flrw_flat_linear", "--base", "2,0,0,0",
                              "--tau-grid=-0.1,0,0.1", "--points", "8"], capsys)
    assert code == 1
    assert "quadrature did not converge" in err and "Traceback" not in err


def test_slice_flow_beyond_the_step_limit_exits_1(capsys):
    code, out, err = run_cli(["slice", "flrw_open", "--base", "1.5,1,1.5,1.5",
                              "--tau-grid", "0,1e300"], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == (
        "[rwcert] slice reconstruction failed: the flow from tau = 0.0 to 1e+300 would "
        "take more than the limit of 1000000 RK4 steps")
    assert "Traceback" not in err


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


def test_transport_table_ends_at_the_curve_end(capsys):
    """At 1000 steps the stride of 31 does not divide the step count; the table
    still ends with the transported endpoint."""
    code, out, _ = run_cli(["transport", "minkowski", "--curve", "explicit",
                            "--exprs", "sinh(s),cosh(s),0,0", "--x0", "0,1,0,0",
                            "--steps", "1000"], capsys)
    assert code == 0
    doc = json.loads(out)["transport"]
    assert doc["table_stride"] == 31
    taus = [row["tau"] for row in doc["table"]]
    assert taus[-1] == doc["curve"]["range"][1] == 1.0
    assert taus[:-1] == [pytest.approx(0.031 * k, abs=1e-12) for k in range(33)]


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


def test_module_entry_point_smoke(cli_env):
    proc = subprocess.run([sys.executable, "-m", "rwcert", "list"],
                          capture_output=True, text=True, env=cli_env)
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


@pytest.mark.parametrize("exprs, says", [
    # fails at the stage value 0.7000000000000001, in the run's first batch
    ("sinh(s),cosh(s),0*sqrt(0.7-s),0",
     "sqrt undefined at value -1.1102230246251565e-16 in 'sqrt(0.7-s)' (span 2:13)"),
    # fails on (0.5068, 0.5088) only, at the stage value 0.5075 inside a batch
    ("sinh(s),cosh(s),0*sqrt((s-0.5078125)^2-0.000001),0",
     "sqrt undefined at value -9.023437499999694e-07 in "
     "'sqrt((s-0.5078125)^2-0.000001)' (span 2:32)"),
])
def test_curve_component_failing_partway_exits_two(capsys, exprs, says):
    """A component that fails partway along the range names the first failing
    parameter value, as when each point was evaluated on its own."""
    code, out, err = run_cli(["transport", "minkowski", "--curve", "explicit",
                              "--exprs", exprs, "--x0", "0,1,0,0", "--steps", "200"],
                             capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {says}\n"


@pytest.mark.parametrize("chart_id, curve_args, x0, says", [
    # x = cosh(s) passes x = 3 at s = 1.76
    ("minkowski", ["--curve", "explicit", "--exprs", "sinh(s),cosh(s),0,0", "--range", "0,2"],
     "0,1,0,0", "curve left the domain at "),
    ("flrw_flat_linear", ["--curve", "u", "--start", "3.4,0.1,0.2,0.3"],
     "0,0.25,0,0", "curve left the domain at "),
    ("flrw_closed_osc", ["--curve", "geodesic", "--start", "5.9,1.0,1.5,1.5",
                         "--velocity", "1,0,0,0"], "0,0.2,0.1,-0.05",
     "curve left the domain at "),
])
def test_transport_leaving_the_domain_mid_run_exits_one(capsys, chart_id, curve_args,
                                                        x0, says):
    """A curve that leaves the chart during the run is a failed transport
    (exit 1), named at its first point outside the domain, not an input
    error."""
    code, out, err = run_cli(["transport", chart_id, *curve_args, "--x0", x0,
                              "--steps", "200"], capsys)
    assert code == 1
    assert out == ""
    line = err.splitlines()[0]
    assert line.startswith(f"[rwcert] transport failed: {says}")
    point = json.loads(line[len(f"[rwcert] transport failed: {says}"):])
    assert not catalog.get_chart(chart_id).contains(point)


def test_transport_speed_leaving_the_band_mid_run_exits_two(capsys):
    """A narrow bump in z carries this curve past z = 3 on (0.5067, 0.5089),
    but its speed leaves the 1% band first, at the stage value 0.505: the
    curve is rejected as an input there (exit 2), before any point outside
    the domain is read.  Its speed is checked at every value the run reads."""
    code, out, err = run_cli(["transport", "minkowski", "--curve", "explicit", "--exprs",
                              "sinh(s),cosh(s),10*exp(-1000000*(s-0.5078125)^2),0",
                              "--x0", "0,1,0,0", "--steps", "200"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: curve is not unit speed at tau = 0.505: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("chart_id, curve_args, says", [
    ("flrw_open", ["--curve", "geodesic", "--start", "1,1,1.2,1", "--velocity", "1,0,0,0"],
     "curve left the domain at [2.500499999999835, 1.0, 1.2, 1.0]"),
    ("flrw_flat_linear", ["--curve", "u", "--start", "3.4,0.1,0.2,0.3"],
     "curve left the domain at [3.500499999999989, 0.1, 0.2, 0.3]"),
])
def test_transport_domain_exit_partway_names_the_point(capsys, chart_id, curve_args, says):
    """Default step counts, so the exit comes dozens of row folds into the run:
    exit 1 and the exact point the joint integrator named, with no report."""
    code, out, err = run_cli(["transport", chart_id, *curve_args, "--x0=0,1,0,0",
                              "--range", "0,50"], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == f"[rwcert] transport failed: {says}"


def test_transport_report_shows_the_refinement(capsys):
    """The report carries the step count of the accepted internal run and the
    endpoint change of its last doubling, the evidence that it converged."""
    code, out, _ = run_cli(["transport", "minkowski", "--curve", "explicit",
                            "--exprs", "sinh(s),cosh(s),0,0", "--x0", "0,1,0,0",
                            "--steps", "100"], capsys)
    assert code == 0
    doc = json.loads(out)["transport"]
    assert doc["steps"] == 100
    assert doc["refined_steps"] > 100 and doc["refined_steps"] % 100 == 0
    assert 0.0 < doc["endpoint_change"] < 1e-8


@pytest.mark.parametrize("extra", [["--range", "0,1e300"], ["--range", "0,1e308"],
                                   ["--range", "-1e308,1e308"], ["--steps", "9" * 400]])
def test_transport_huge_step_count_exits_two_on_one_short_line(capsys, extra):
    """A step count far beyond the limit, or one that overflows a float, is one
    short error line, not a 300-digit number or a traceback."""
    code, out, err = run_cli(["transport", "minkowski", "--curve", "u",
                              "--start", "0,0,0,0", "--x0=0,1,0,0", *extra], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200


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


_TRANSPORT = ["transport", "minkowski", "--curve", "u", "--start", "0,0,0,0",
              "--x0", "0,1,0,0"]


@pytest.mark.parametrize("argv, says", [
    (["check", "minkowski", "--seed", "-1"], "--seed must be a non-negative integer"),
    (["slice", "flrw_open", "--base", "1,1,1.5,1.5", "--tau-grid", "0,0.1",
      "--seed", "-1"], "--seed must be a non-negative integer"),
    (["check", "minkowski", "--tol", "nan"], "--tol must be a finite number >= 0"),
    (["check", "minkowski", "--tol", "-0.5"], "--tol must be a finite number >= 0"),
    (["check", "minkowski", "--margin", "nan"], "--margin must be a finite number >= 0"),
    (_TRANSPORT + ["--drift-tol", "inf"], "--drift-tol must be a finite number >= 0"),
    (["check", "minkowski", "--points", "1000000000000"], "limit of 100000"),
    (_TRANSPORT + ["--steps", "1000000000000"], "limit of 100000"),
    (_TRANSPORT + ["--range", "0,1e12"], "limit of 100000"),
])
def test_out_of_range_option_exits_two(capsys, argv, says):
    """Values no run could use or no report could hold end in one error line,
    before any work and without a traceback."""
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and says in err
    assert err.count("\n") == 1


_CERTIFY_OPTIONS = [("--points", "8"), ("--tol", "0.5"), ("--margin", "0.25"),
                    ("--expect", "LocallyRW")]


@pytest.mark.parametrize("flag, value", _CERTIFY_OPTIONS)
def test_certify_options_are_not_transport_options(capsys, flag, value):
    """The certify options belong to check and slice; transport, which
    certifies nothing, refuses them with one usage error."""
    with pytest.raises(SystemExit) as exc:
        main(_TRANSPORT + [flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert "Traceback" not in captured.err

    parser, _ = _build_parser()
    for argv in (["check", "einstein_static"],
                 ["slice", "einstein_static", "--base", "0,1,1.2,1.5", "--tau-grid", "0"]):
        args = parser.parse_args(argv + [flag, value])
        assert str(getattr(args, flag[2:])) == value


@pytest.mark.parametrize("argv", [["check", "einstein_static"],
                                  ["slice", "einstein_static", "--base", "0,1,1.2,1.5",
                                   "--tau-grid", "0"],
                                  _TRANSPORT], ids=["check", "slice", "transport"])
def test_threads_is_no_option(capsys, argv):
    """No subcommand takes --threads: samples are evaluated serially."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert "unrecognized arguments: --threads 2" in captured.err
